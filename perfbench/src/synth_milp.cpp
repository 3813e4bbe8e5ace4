// synth_milp: xbar::synthesize with the paper-faithful generic MILP
// (solver_kind::generic_milp: revised simplex, branch & bound, presolve,
// root cuts) on DES and QSort phase-1 inputs (horizon 8k, both
// directions, 32 seeds derived from the run's seed) collected during
// set-up. Node budgets only (time_limit_sec = 0), so machine load cannot
// change an answer. One op is one synthesis; the inputs run in a fixed
// cycle, runs stop on a whole cycle, and each input is timed by its
// median repetition (see set_from_repetitions).
//
// Why: without it the milp/lp layers go unmeasured — the default flow
// uses the specialised branch & bound — and anytime synthesis targets
// exactly this path.
#include "bench_common.h"
#include "harness.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/milp_formulation.h"

namespace perfbench {
namespace {

using namespace stx;

constexpr traffic::cycle_t kHorizon = 8'000;
/// Phase-1 seeds per run. MILP cost varies several-fold between inputs,
/// so a run cycles over many (2 apps x 2 directions x this) to keep its
/// mean from hinging on one seed's traffic.
constexpr int kSeedsPerRun = 32;

struct milp_case {
  std::string app;
  bool request = true;  ///< which direction's input
  xbar::synthesis_input input;
  /// The set-up flow report with the specialised solver's design; each op
  /// swaps its design in for the output checks.
  xbar::flow_report reference;
};

class synth_milp final : public workload {
 public:
  void setup(std::uint64_t seed) override {
    cases_.clear();
    for (int j = 0; j < kSeedsPerRun; ++j) {
      for (const auto& app :
           {workloads::make_des(), workloads::make_qsort()}) {
        auto opts = bench::default_flow();
        opts.horizon = kHorizon;
        opts.seed = seed * 1000 + static_cast<std::uint64_t>(j);
        const auto traces = xbar::collect_traces(app, opts);
        const auto report = xbar::synthesize_design(app, traces, opts);
        for (const bool request : {true, false}) {
          const auto params = xbar::effective_synthesis_params(opts, request);
          cases_.push_back({app.name, request,
                            xbar::input_from_trace(request ? traces.request
                                                           : traces.response,
                                                   params),
                            report});
        }
      }
    }
    opts_.params = bench::default_flow().synth.params;
    opts_.solver = xbar::solver_kind::generic_milp;
    opts_.limits.time_limit_sec = 0.0;
    // No MILP warm-up: a single solve of 0.1-0.5 s would dominate set-up
    // time and make it as uneven as the solves themselves.
  }

  /// The first 4 seeds' inputs: a whole cycle, traced three times with
  /// its replays, would not fit the run's time limit.
  int traced_ops() const override { return 16; }

  pass_result run(double seconds, int ops, tracer* tr) override {
    pass_result out;
    const auto before = obs_counts();
    const auto ncases = static_cast<std::int64_t>(cases_.size());
    std::int64_t report_bytes = 0;
    std::int64_t optimal = 0;
    std::map<std::string, obs::latency_accumulator> per_input;
    obs::stopwatch sw;
    for (std::int64_t i = 0;
         ops > 0 ? i < ops : (i % ncases != 0 || sw.seconds() < seconds);
         ++i) {
      const auto& c = cases_[static_cast<std::size_t>(i % ncases)];
      ++out.attempted;
      xbar::crossbar_design design;
      if (!guarded(out, c.app, [&] {
            const double scale = speed_scale();
            obs::stopwatch op_sw;
            {
              scoped_span sp(tr, "xbar.synthesize", i);
              design = xbar::synthesize(c.input, opts_);
            }
            per_input[std::to_string(i % ncases)].record(op_sw.seconds() *
                                                         scale);
            if (tr != nullptr) replay(c, design, *tr, i);
          })) {
        continue;
      }

      // Both engines are exact: the MILP design must match the
      // specialised one in bus count and Eq. 11 objective.
      auto report = c.reference;
      auto& ref = c.request ? report.request_design : report.response_design;
      if (design.num_buses != ref.num_buses ||
          design.max_overlap != ref.max_overlap) {
        out.fail(c.app + ": MILP design " + design.to_string() +
                 " differs from the specialised " + ref.to_string());
        continue;
      }
      ref = design;
      std::int64_t bytes = 0;
      if (const auto why = check_report(report, &bytes); !why.empty()) {
        out.fail(why);
        continue;
      }
      report_bytes += bytes;
      optimal += design.binding_optimal ? 1 : 0;
    }
    out.elapsed_s = sw.seconds() - (tr ? tr->replay_seconds() : 0.0);
    set_from_repetitions(per_input, 1.0, out);
    add_obs_counts(before, obs_counts(), out);
    out.counts["explore.report_bytes"] = static_cast<double>(report_bytes);
    out.layer["xbar.binding_optimal_ratio"] =
        out.attempted > 0 ? static_cast<double>(optimal) /
                                static_cast<double>(out.attempted)
                          : 0.0;
    return out;
  }

 private:
  /// synthesize's two halves through their public functions, obs off:
  /// the Eq. 3-9 size search (every probe a feasibility MILP) and the
  /// Eq. 11 binding MILP at the designed bus count.
  void replay(const milp_case& c, const xbar::crossbar_design& design,
              tracer& tr, std::int64_t op) const {
    const bool was_enabled = obs::enabled();
    obs::disable();
    {
      scoped_span sp(&tr, "xbar.size_search", op, -1, true);
      xbar::min_feasible_buses(c.input, opts_);
    }
    {
      scoped_span sp(&tr, "milp.solve", op, -1, true);
      milp::bb_options mo;
      mo.max_nodes = opts_.limits.max_nodes;
      mo.time_limit_sec = 0.0;
      mo.threads = opts_.limits.threads;
      mo.cuts = opts_.limits.cuts;
      xbar::solve_binding_milp(c.input, design.num_buses, mo);
    }
    if (was_enabled) obs::enable();
  }

  std::vector<milp_case> cases_;
  xbar::synthesis_options opts_;
};

}  // namespace

std::unique_ptr<workload> make_synth_milp() {
  return std::make_unique<synth_milp>();
}

}  // namespace perfbench
