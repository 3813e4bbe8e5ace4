#include "testkit/oracle.h"

#include <algorithm>
#include <sstream>

#include "obs/obs.h"
#include "util/error.h"
#include "xbar/synthesis.h"

namespace stx::testkit {

namespace {

void add(std::vector<violation>* out, const std::string& invariant,
         const std::string& detail) {
  out->push_back({invariant, detail});
}

/// Per-invariant telemetry: one evaluation counter bump plus a span whose
/// wall time accumulates under the same "oracle.<name>" key, so fuzz
/// campaign reports can show which oracles dominate the run time.
struct check_scope {
  explicit check_scope(const char* name) : span_(name) {
    if (obs::enabled()) {
      obs::add_counter(std::string(name) + ".evals", 1);
    }
  }
  obs::span span_;
};

struct direction_view {
  const char* label;
  const xbar::crossbar_design* design;
  /// traffic[sender][receiver] of this direction.
  const std::vector<std::vector<traffic::cycle_t>>* traffic;
  int num_receivers;
};

std::vector<direction_view> directions(const xbar::flow_report& report) {
  return {
      {"request", &report.request_design, &report.request_traffic,
       report.num_targets},
      {"response", &report.response_design, &report.response_traffic,
       report.num_initiators},
  };
}

}  // namespace

std::string to_string(const std::vector<violation>& v) {
  std::ostringstream out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out << '\n';
    out << v[i].invariant << ": " << v[i].detail;
  }
  return out.str();
}

void check_shape(const workloads::app_spec& app,
                 const xbar::flow_report& report,
                 std::vector<violation>* out) {
  check_scope scope("oracle.shape");
  if (report.num_initiators != app.num_initiators ||
      report.num_targets != app.num_targets) {
    add(out, "shape",
        "report is " + std::to_string(report.num_initiators) + "x" +
            std::to_string(report.num_targets) + " but the app is " +
            std::to_string(app.num_initiators) + "x" +
            std::to_string(app.num_targets));
  }
  if (static_cast<int>(report.target_names.size()) != report.num_targets) {
    add(out, "shape",
        "target_names has " + std::to_string(report.target_names.size()) +
            " entries for " + std::to_string(report.num_targets) +
            " targets");
  }
  for (const auto& d : directions(report)) {
    const int senders = d.design == &report.request_design
                            ? report.num_initiators
                            : report.num_targets;
    if (d.design->num_targets != d.num_receivers) {
      add(out, "shape",
          std::string(d.label) + " design covers " +
              std::to_string(d.design->num_targets) + " endpoints, app has " +
              std::to_string(d.num_receivers));
    }
    if (static_cast<int>(d.design->binding.size()) != d.num_receivers) {
      add(out, "shape",
          std::string(d.label) + " binding has " +
              std::to_string(d.design->binding.size()) + " entries for " +
              std::to_string(d.num_receivers) + " endpoints");
    }
    if (static_cast<int>(d.traffic->size()) != senders) {
      add(out, "shape",
          std::string(d.label) + " traffic matrix has " +
              std::to_string(d.traffic->size()) + " rows for " +
              std::to_string(senders) + " senders");
      continue;
    }
    for (const auto& row : *d.traffic) {
      if (static_cast<int>(row.size()) != d.num_receivers) {
        add(out, "shape",
            std::string(d.label) + " traffic row has " +
                std::to_string(row.size()) + " columns for " +
                std::to_string(d.num_receivers) + " receivers");
        break;
      }
    }
  }
}

void check_coverage(const xbar::flow_report& report,
                    std::vector<violation>* out) {
  check_scope scope("oracle.coverage");
  for (const auto& d : directions(report)) {
    const auto& binding = d.design->binding;
    const int buses = d.design->num_buses;
    std::vector<bool> bus_used(static_cast<std::size_t>(std::max(buses, 0)),
                               false);
    for (int e = 0;
         e < std::min<int>(d.num_receivers,
                           static_cast<int>(binding.size()));
         ++e) {
      const int b = binding[static_cast<std::size_t>(e)];
      traffic::cycle_t total = 0;
      for (const auto& row : *d.traffic) {
        if (e < static_cast<int>(row.size())) {
          total += row[static_cast<std::size_t>(e)];
        }
      }
      if (b < 0 || b >= buses) {
        // A traffic-carrying endpoint with no valid bus is an orphan: the
        // design does not route a link phase 1 proved is needed.
        add(out, "coverage",
            std::string(d.label) + " endpoint " + std::to_string(e) +
                (total > 0 ? " (carrying traffic)" : "") +
                " is bound to invalid bus " + std::to_string(b) + " of " +
                std::to_string(buses));
        continue;
      }
      bus_used[static_cast<std::size_t>(b)] = true;
    }
    for (int b = 0; b < buses; ++b) {
      if (!bus_used[static_cast<std::size_t>(b)]) {
        add(out, "coverage",
            std::string(d.label) + " bus " + std::to_string(b) +
                " has no endpoint bound (dead bus contradicts bus-count "
                "minimality)");
      }
    }
  }
}

void check_bus_bounds(const workloads::app_spec& app,
                      const xbar::flow_report& report,
                      std::vector<violation>* out) {
  check_scope scope("oracle.bus-bound");
  for (const auto& d : directions(report)) {
    if (d.design->num_buses < 1 ||
        d.design->num_buses > d.num_receivers) {
      add(out, "bus-bound",
          std::string(d.label) + " direction has " +
              std::to_string(d.design->num_buses) + " buses for " +
              std::to_string(d.num_receivers) +
              " endpoints (full crossbar is the ceiling)");
    }
  }
  if (report.full_buses != app.total_cores()) {
    add(out, "bus-bound",
        "full_buses " + std::to_string(report.full_buses) +
            " != app total cores " + std::to_string(app.total_cores()));
  }
  const int sum = report.request_design.num_buses +
                  report.response_design.num_buses;
  if (report.designed_buses != sum) {
    add(out, "bus-bound",
        "designed_buses " + std::to_string(report.designed_buses) +
            " != request + response bus count " + std::to_string(sum));
  }
  if (report.designed_buses > report.full_buses) {
    add(out, "bus-bound",
        "design uses " + std::to_string(report.designed_buses) +
            " buses, more than the full crossbar's " +
            std::to_string(report.full_buses));
  }
}

void check_latency(const xbar::flow_report& report,
                   const oracle_options& opts,
                   std::vector<violation>* out) {
  check_scope scope("oracle.latency");
  const auto& dm = report.designed;
  const auto& fm = report.full;
  if (fm.packets > 0 && dm.packets == 0) {
    add(out, "latency",
        "designed configuration moved no packets while the full crossbar "
        "moved " +
            std::to_string(fm.packets) + " (starvation/deadlock)");
    return;
  }
  if (fm.iterations > 0 && dm.iterations == 0) {
    add(out, "latency",
        "designed configuration completed no core iterations while the "
        "full crossbar completed " +
            std::to_string(fm.iterations));
  }
  if (dm.packets > 0 && fm.packets > 0) {
    const double bound =
        fm.avg_latency * opts.latency_factor + opts.latency_slack_cycles;
    if (dm.avg_latency > bound) {
      std::ostringstream msg;
      msg << "designed avg latency " << dm.avg_latency
          << " exceeds the degradation bound " << bound << " (full "
          << fm.avg_latency << " * " << opts.latency_factor << " + "
          << opts.latency_slack_cycles << ")";
      add(out, "latency", msg.str());
    }
  }
}

void check_metrics(const xbar::flow_report& report,
                   std::vector<violation>* out) {
  check_scope scope("oracle.metrics");
  const struct {
    const char* label;
    const xbar::validation_metrics* m;
  } runs[] = {{"designed", &report.designed}, {"full", &report.full}};
  for (const auto& r : runs) {
    if (r.m->packets == 0) continue;  // validation skipped or no traffic
    if (r.m->avg_latency > r.m->max_latency ||
        r.m->p99_latency > r.m->max_latency) {
      add(out, "metrics",
          std::string(r.label) + " latency stats disordered (avg " +
              std::to_string(r.m->avg_latency) + ", p99 " +
              std::to_string(r.m->p99_latency) + ", max " +
              std::to_string(r.m->max_latency) + ")");
    }
    if (r.m->avg_critical > 0.0 && r.m->avg_critical > r.m->max_critical) {
      add(out, "metrics",
          std::string(r.label) + " critical latency stats disordered");
    }
  }
  if (report.designed.packets > 0 &&
      report.designed.total_buses != report.designed_buses) {
    add(out, "metrics",
        "designed run used " + std::to_string(report.designed.total_buses) +
            " buses but the report claims " +
            std::to_string(report.designed_buses));
  }
  if (report.full.packets > 0 &&
      report.full.total_buses != report.full_buses) {
    add(out, "metrics",
        "full-crossbar run used " + std::to_string(report.full.total_buses) +
            " buses but the report claims " +
            std::to_string(report.full_buses));
  }
}

void check_feasibility(const xbar::collected_traces& traces,
                       const xbar::flow_options& opts,
                       const xbar::flow_report& report,
                       std::vector<violation>* out) {
  check_scope scope("oracle.feasibility");
  const struct {
    const char* label;
    const traffic::trace* trace;
    const xbar::crossbar_design* design;
    bool request;
  } dirs[] = {
      {"request", &traces.request, &report.request_design, true},
      {"response", &traces.response, &report.response_design, false},
  };
  for (const auto& d : dirs) {
    const auto params = xbar::effective_synthesis_params(opts, d.request);
    const auto input = xbar::input_from_trace(*d.trace, params);
    if (input.num_targets() != d.design->num_targets) {
      add(out, "feasibility",
          std::string(d.label) + " trace covers " +
              std::to_string(input.num_targets()) +
              " endpoints but the design covers " +
              std::to_string(d.design->num_targets));
      continue;
    }
    if (!input.binding_feasible(d.design->binding, d.design->num_buses)) {
      add(out, "feasibility",
          std::string(d.label) +
              " binding violates the Eq. 3-9 model rebuilt from the "
              "phase-1 trace");
      continue;
    }
    const auto recomputed =
        input.max_bus_overlap(d.design->binding, d.design->num_buses);
    if (recomputed != d.design->max_overlap) {
      add(out, "feasibility",
          std::string(d.label) + " design records Eq. 11 objective " +
              std::to_string(d.design->max_overlap) +
              " but the rebuilt model gives " + std::to_string(recomputed));
    }
    if (input.num_conflicts() != d.design->num_conflicts) {
      add(out, "feasibility",
          std::string(d.label) + " design records " +
              std::to_string(d.design->num_conflicts) +
              " conflicts but the rebuilt model has " +
              std::to_string(input.num_conflicts()));
    }
  }
}

void check_full_reference(const workloads::app_spec& app,
                          const xbar::flow_options& opts,
                          const xbar::flow_report& report,
                          const oracle_options& oopts,
                          std::vector<violation>* out) {
  if (!oopts.full_reference) return;
  // total_buses is filled by every validation run (even ones that moved
  // no packets); zero means the report was never validated — nothing to
  // compare against.
  if (report.designed.total_buses == 0) return;
  check_scope scope("oracle.full-reference");
  // The flow harvests `full` from the trace-recording phase-1 run; a
  // reference re-simulated with recording off must match it bit for bit.
  const auto full = xbar::validate_full_crossbars(app, opts);
  if (!(full == report.full)) {
    std::ostringstream msg;
    msg << "full-crossbar reference re-simulated without trace recording "
           "diverges from the report's (re-simulated avg "
        << full.avg_latency << " packets " << full.packets << ", report avg "
        << report.full.avg_latency << " packets " << report.full.packets
        << ")";
    add(out, "full-reference", msg.str());
  }
}

void check_solver_agreement(const xbar::collected_traces& traces,
                            const xbar::flow_options& opts,
                            const xbar::flow_report& report,
                            const oracle_options& oopts,
                            std::vector<violation>* out) {
  check_scope scope("oracle.solver-agreement");
  if (!oopts.solver_agreement) return;
  const struct {
    const char* label;
    const traffic::trace* trace;
    const xbar::crossbar_design* design;
    bool request;
  } dirs[] = {
      {"request", &traces.request, &report.request_design, true},
      {"response", &traces.response, &report.response_design, false},
  };
  for (const auto& d : dirs) {
    if (d.design->num_targets > oopts.solver_agreement_max_targets) continue;
    auto milp_opts = opts.synth;
    milp_opts.params = xbar::effective_synthesis_params(opts, d.request);
    milp_opts.solver = xbar::solver_kind::generic_milp;
    milp_opts.limits.max_nodes = oopts.solver_max_nodes;
    milp_opts.limits.time_limit_sec = 0.0;  // node cap only: deterministic
    const auto input = xbar::input_from_trace(*d.trace, milp_opts.params);
    if (static_cast<std::int64_t>(input.num_windows()) *
            input.num_targets() >
        oopts.solver_agreement_max_cells) {
      continue;  // LP too large for the stand-in solver's budget
    }
    xbar::crossbar_design milp_design;
    try {
      milp_design = xbar::synthesize(input, milp_opts);
    } catch (const internal_error& e) {
      // The MILP PROVED infeasible/suboptimal where the specialised
      // solver claimed a proof — a genuine disagreement.
      add(out, "solver-agreement",
          std::string(d.label) + " direction: generic MILP contradicts the "
                                 "specialised solver (" +
              e.what() + ")");
      continue;
    } catch (const invalid_argument_error&) {
      // Node cap exhausted before an answer: inconclusive, skip.
      continue;
    }
    if (milp_design.num_buses != d.design->num_buses) {
      add(out, "solver-agreement",
          std::string(d.label) + " direction: specialised solver sized " +
              std::to_string(d.design->num_buses) +
              " buses, generic MILP sized " +
              std::to_string(milp_design.num_buses));
      continue;
    }
    if (d.design->binding_optimal && milp_design.binding_optimal &&
        milp_design.max_overlap != d.design->max_overlap) {
      add(out, "solver-agreement",
          std::string(d.label) +
              " direction: optimal Eq. 11 objectives differ (specialised " +
              std::to_string(d.design->max_overlap) + ", MILP " +
              std::to_string(milp_design.max_overlap) + ")");
    }
  }
}

std::vector<violation> check_flow_invariants(
    const workloads::app_spec& app, const xbar::collected_traces& traces,
    const xbar::flow_options& opts, const xbar::flow_report& report,
    const oracle_options& oopts) {
  std::vector<violation> out;
  check_shape(app, report, &out);
  check_coverage(report, &out);
  check_bus_bounds(app, report, &out);
  check_latency(report, oopts, &out);
  check_metrics(report, &out);
  check_feasibility(traces, opts, report, &out);
  check_full_reference(app, opts, report, oopts, &out);
  check_solver_agreement(traces, opts, report, oopts, &out);
  return out;
}

}  // namespace stx::testkit
