#include "xbar/synthesis.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/obs.h"
#include "traffic/windows.h"
#include "util/error.h"
#include "xbar/milp_formulation.h"

namespace stx::xbar {

sim::crossbar_config crossbar_design::to_config(
    sim::arbitration policy, cycle_t transfer_overhead) const {
  auto cfg = sim::crossbar_config::partial(num_buses, binding);
  cfg.policy = policy;
  cfg.transfer_overhead = transfer_overhead;
  cfg.validate(num_targets);
  return cfg;
}

std::string crossbar_design::to_string() const {
  std::ostringstream out;
  out << "crossbar_design{buses=" << num_buses << "/" << num_targets
      << ", maxov=" << max_overlap
      << (binding_optimal ? "" : " (not proven optimal)") << ", binding=[";
  for (std::size_t i = 0; i < binding.size(); ++i) {
    if (i > 0) out << ",";
    out << binding[i];
  }
  out << "]}";
  return out.str();
}

namespace {

/// Maps the shared solver limits onto the generic MILP engine's knobs.
milp::bb_options milp_limits(const solver_options& limits,
                             const std::atomic<bool>* cancel) {
  milp::bb_options mo;
  mo.max_nodes = limits.max_nodes;
  mo.time_limit_sec = limits.time_limit_sec;
  mo.threads = limits.threads;
  mo.cuts = limits.cuts;
  mo.cancel = cancel;
  return mo;
}

/// Portfolio feasibility probe: race the specialised solver against the
/// generic MILP, take the first DEFINITIVE sat/unsat answer, and cancel
/// the loser. The winner raises the loser's flag itself, so the loser
/// stops at its next check instead of when the waiting thread gets
/// scheduled. Both engines are exact, so the verdict is deterministic;
/// only which engine delivers it first is timing-dependent (reported to
/// the obs wall section, never to the deterministic counters). An engine
/// that hits its limits (or the cancellation) throws inside its thread
/// and is recorded as "no answer"; the probe only fails when BOTH
/// engines come back empty-handed.
bool portfolio_probe(const synthesis_input& input, int num_buses,
                     const synthesis_options& opts) {
  enum : int { pending = -1, unsat = 0, sat = 1, no_answer = 2 };
  std::atomic<bool> cancel_spec{false};
  std::atomic<bool> cancel_milp{false};
  std::atomic<int> from_spec{pending};
  std::atomic<int> from_milp{pending};
  std::mutex mu;
  std::condition_variable cv;
  const auto publish = [&](std::atomic<int>& slot, int value) {
    {
      std::lock_guard<std::mutex> lk(mu);
      slot.store(value, std::memory_order_relaxed);
    }
    cv.notify_all();
  };

  std::thread spec([&] {
    solver_options so = opts.limits;
    so.portfolio = false;
    so.cancel = &cancel_spec;
    try {
      const auto res = find_feasible_binding(input, num_buses, so, nullptr);
      cancel_milp.store(true, std::memory_order_relaxed);
      publish(from_spec, res.has_value() ? sat : unsat);
    } catch (...) {
      publish(from_spec, no_answer);  // limits or cancellation
    }
  });
  std::thread generic([&] {
    try {
      const auto res = solve_feasibility_milp(
          input, num_buses, milp_limits(opts.limits, &cancel_milp));
      cancel_spec.store(true, std::memory_order_relaxed);
      publish(from_milp, res.has_value() ? sat : unsat);
    } catch (...) {
      publish(from_milp, no_answer);
    }
  });

  bool spec_won = false;
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] {
      const int a = from_spec.load(std::memory_order_relaxed);
      const int b = from_milp.load(std::memory_order_relaxed);
      return a == sat || a == unsat || b == sat || b == unsat ||
             (a == no_answer && b == no_answer);
    });
    spec_won = from_spec.load(std::memory_order_relaxed) == sat ||
               from_spec.load(std::memory_order_relaxed) == unsat;
  }
  cancel_spec.store(true, std::memory_order_relaxed);
  cancel_milp.store(true, std::memory_order_relaxed);
  spec.join();
  generic.join();

  const int a = from_spec.load(std::memory_order_relaxed);
  const int b = from_milp.load(std::memory_order_relaxed);
  if ((a == sat || a == unsat) && (b == sat || b == unsat)) {
    STX_ENSURE(a == b, "portfolio engines disagree on feasibility");
  }
  const int answer = (a == sat || a == unsat) ? a : b;
  STX_REQUIRE(answer == sat || answer == unsat,
              "portfolio probe hit limits on both engines; raise "
              "solver_options");
  if (obs::enabled()) {
    obs::add_counter("xbar.portfolio.races", 1);
    obs::record_wall(
        spec_won ? "xbar.portfolio.spec_wins" : "xbar.portfolio.milp_wins",
        1.0);
  }
  return answer == sat;
}

/// One feasibility probe with the selected engine (or the portfolio race
/// across both). Probe node telemetry is accumulated only on the
/// deterministic single-engine specialised path; under portfolio the
/// loser's partial work is timing-dependent, so nodes stay zero.
bool probe_feasible(const synthesis_input& input, int num_buses,
                    const synthesis_options& opts,
                    std::int64_t* nodes_acc) {
  if (opts.limits.portfolio) {
    return portfolio_probe(input, num_buses, opts);
  }
  if (opts.solver == solver_kind::specialized) {
    solve_stats stats;
    const auto res =
        find_feasible_binding(input, num_buses, opts.limits, &stats);
    if (nodes_acc != nullptr) *nodes_acc += stats.nodes;
    return res.has_value();
  }
  return solve_feasibility_milp(input, num_buses,
                                milp_limits(opts.limits, opts.limits.cancel))
      .has_value();
}

}  // namespace

int min_feasible_buses(const synthesis_input& input,
                       const synthesis_options& opts, int* probes,
                       std::int64_t* probe_nodes) {
  int lo = lower_bound_buses(input);
  int hi = input.num_targets();
  STX_ENSURE(lo <= hi, "bus lower bound above target count");

  // A full configuration (one target per bus) always satisfies Eq. 3-9:
  // comm <= WS within a window by construction, no sharing. Binary search
  // on the monotone predicate "feasible with k buses".
  int count = 0;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    ++count;
    if (probe_feasible(input, mid, opts, probe_nodes)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (probes != nullptr) *probes = count;
  return lo;
}

crossbar_design synthesize(const synthesis_input& input,
                           const synthesis_options& opts) {
  obs::span sp("xbar.synthesize",
               {{"targets", input.num_targets()},
                {"solver", opts.solver == solver_kind::specialized
                               ? "specialized"
                               : "generic_milp"}});
  crossbar_design out;
  out.num_targets = input.num_targets();
  out.params = input.params();
  out.num_conflicts = input.num_conflicts();

  {
    obs::span probe_sp("xbar.size_search");
    out.num_buses =
        min_feasible_buses(input, opts, &out.probes, &out.feasibility_nodes);
  }

  if (opts.solver == solver_kind::specialized) {
    if (opts.optimize_binding) {
      solve_stats stats;
      const auto sol = find_min_overlap_binding(input, out.num_buses,
                                                opts.limits, &stats);
      STX_ENSURE(sol.has_value(),
                 "binding infeasible at the proven-feasible bus count");
      out.binding = sol->binding;
      out.max_overlap = sol->max_overlap;
      out.binding_optimal = sol->proven_optimal;
      out.binding_nodes = stats.nodes;
    } else {
      solve_stats stats;
      const auto sol =
          find_feasible_binding(input, out.num_buses, opts.limits, &stats);
      STX_ENSURE(sol.has_value(),
                 "binding infeasible at the proven-feasible bus count");
      out.binding = *sol;
      out.max_overlap = input.max_bus_overlap(out.binding, out.num_buses);
      out.binding_optimal = false;
      out.binding_nodes = stats.nodes;
    }
  } else {
    // The binding solve stays on the configured engine even under
    // portfolio mode: only feasibility probes race.
    const auto mo = milp_limits(opts.limits, opts.limits.cancel);
    if (opts.optimize_binding) {
      const auto sol = solve_binding_milp(input, out.num_buses, mo);
      STX_ENSURE(sol.has_value(),
                 "binding MILP infeasible at the proven-feasible bus count");
      out.binding = sol->binding;
      out.max_overlap = sol->max_overlap;
    } else {
      const auto sol = solve_feasibility_milp(input, out.num_buses, mo);
      STX_ENSURE(sol.has_value(),
                 "feasibility MILP infeasible at the proven-feasible bus "
                 "count");
      out.binding = *sol;
      out.max_overlap = input.max_bus_overlap(out.binding, out.num_buses);
      out.binding_optimal = false;
    }
  }

  STX_ENSURE(input.binding_feasible(out.binding, out.num_buses),
             "synthesised binding violates the model");
  obs::add_counter("xbar.synth.runs", 1);
  obs::add_counter("xbar.synth.probes", out.probes);
  obs::add_counter("xbar.synth.feasibility_nodes", out.feasibility_nodes);
  obs::add_counter("xbar.synth.binding_nodes", out.binding_nodes);
  obs::add_counter("xbar.synth.buses", out.num_buses);
  sp.set_attr({"buses", out.num_buses});
  return out;
}

traffic::window_partition analysis_partition(const traffic::trace& t,
                                             const design_params& params) {
  // 4 * WS saturates instead of overflowing: past the horizon every
  // clamp is the same.
  constexpr auto kMaxCycle = std::numeric_limits<traffic::cycle_t>::max();
  const auto ws = params.window_size;
  return params.burst_window > 0
             ? traffic::window_partition::burst_adaptive(
                   t, params.burst_window,
                   std::max<traffic::cycle_t>(1, ws / 4),
                   std::max<traffic::cycle_t>(
                       1, std::min(ws, kMaxCycle / 4) * 4))
             : traffic::window_partition::uniform(
                   std::max<traffic::cycle_t>(t.horizon(), 1), ws);
}

synthesis_input input_from_trace(const traffic::trace& t,
                                 const design_params& params) {
  return synthesis_input(
      traffic::window_analysis(t, analysis_partition(t, params)), params);
}

crossbar_design synthesize_from_trace(const traffic::trace& t,
                                      const synthesis_options& opts) {
  return synthesize(input_from_trace(t, opts.params), opts);
}

}  // namespace stx::xbar
