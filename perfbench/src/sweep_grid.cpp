// sweep_grid: one explore::run_sweep per round over the five paper apps,
// grid window {200,400,800,1600} x threshold {0.1,0.3,0.5} x maxtb {0,4}
// (24 points per app, 120 per round), validation on, the default cohort
// size, one worker thread, and a fresh trace_cache per round. Round r
// uses seed base + (r mod 4), and each seed's sweep is timed by its
// median repetition (see set_from_repetitions).
//
// Why: the trace_cache shares phase 1 (5 collections per round), so the
// per-point window analysis, size search and binding dominate, and the
// simulator runs as lockstep sim::batch validation without traces — the
// workload that shows a sim::batch deletion or a solver change. One
// thread, because thread-count noise on a small shared machine would
// swamp those effects.
#include "explore/sweep.h"
#include "harness.h"
#include "workloads/mpsoc_apps.h"

namespace perfbench {
namespace {

using namespace stx;

constexpr traffic::cycle_t kHorizon = 20'000;
constexpr int kSeeds = 4;

class sweep_grid final : public workload {
 public:
  void setup(std::uint64_t seed) override {
    spec_ = {};
    spec_.apps = workloads::all_mpsoc_apps();
    spec_.grid.window_sizes = {200, 400, 800, 1600};
    spec_.grid.overlap_thresholds = {0.1, 0.3, 0.5};
    spec_.grid.max_targets_per_bus = {0, 4};
    spec_.horizon = kHorizon;
    spec_.threads = 1;
    spec_.validate = true;
    base_seed_ = seed * 1000 + 1;
    // Warm-up: the full grid on one app, outside the measured seeds. Its
    // seed is the same for every run seed, so set-up time does not vary
    // with the inputs.
    auto warm = spec_;
    warm.apps.resize(1);
    warm.seed = 0;
    explore::run_sweep(warm);
  }

  int traced_ops() const override { return 1; }

  /// `ops` counts sweep rounds here; every point of a round is one design.
  pass_result run(double seconds, int ops, tracer* tr) override {
    pass_result out;
    const auto before = obs_counts();
    const auto points = explore::sweep_points(spec_);
    const auto expected = spec_.apps.size() * points.size();
    std::int64_t report_bytes = 0;
    std::int64_t cache_misses = 0;
    std::int64_t optimal = 0;
    std::int64_t directions = 0;
    std::map<std::string, obs::latency_accumulator> per_input;
    obs::stopwatch sw;
    for (int round = 0; ops > 0 ? round < ops : sw.seconds() < seconds;
         ++round) {
      auto spec = spec_;
      spec.seed = base_seed_ + static_cast<std::uint64_t>(round % kSeeds);
      explore::trace_cache cache;
      explore::sweep_report report;
      out.attempted += static_cast<std::int64_t>(expected);
      const auto what = "sweep seed " + std::to_string(spec.seed);
      if (!guarded(out, what, [&] {
            const double scale = speed_scale();
            obs::stopwatch op_sw;
            {
              scoped_span sp(tr, "explore.run_sweep", round);
              report = explore::run_sweep(spec, cache);
            }
            per_input[std::to_string(spec.seed)].record(op_sw.seconds() *
                                                        scale);
          })) {
        continue;
      }
      cache_misses += report.phase1_simulations;
      if (report.results.size() != expected) {
        out.fail("sweep returned " + std::to_string(report.results.size()) +
                 " of " + std::to_string(expected) + " points");
        continue;
      }
      for (const auto& r : report.results) {
        std::int64_t bytes = 0;
        if (const auto why = check_report(r.report, &bytes); !why.empty()) {
          out.fail(why + " at " + r.point.to_string());
          continue;
        }
        if (!r.validated || r.report.designed.packets <= 0) {
          out.fail(r.app_name + ": point not validated at " +
                   r.point.to_string());
        }
        report_bytes += bytes;
        directions += 2;
        optimal += (r.report.request_design.binding_optimal ? 1 : 0) +
                   (r.report.response_design.binding_optimal ? 1 : 0);
      }
      if (tr != nullptr) {
        guarded(out, what + " replay",
                [&] { replay(spec, points, report, *tr, round, out); });
      }
    }
    out.elapsed_s = sw.seconds() - (tr ? tr->replay_seconds() : 0.0);
    set_from_repetitions(per_input, static_cast<double>(expected), out);
    add_obs_counts(before, obs_counts(), out);
    out.counts["explore.report_bytes"] = static_cast<double>(report_bytes);
    out.counts["explore.trace_cache_misses"] =
        static_cast<double>(cache_misses);
    out.layer["xbar.binding_optimal_ratio"] =
        directions > 0 ? static_cast<double>(optimal) /
                             static_cast<double>(directions)
                       : 0.0;
    return out;
  }

 private:
  /// The stages run_sweep reaches only internally, replayed through
  /// their public functions on the same points: per app one phase-1
  /// collection and one full-crossbar reference, per point phases 2-3,
  /// per app one batched validation cohort. Replays run with obs off.
  static void replay(const explore::sweep_spec& spec,
                     const std::vector<explore::sweep_point>& points,
                     const explore::sweep_report& report, tracer& tr,
                     std::int64_t op, pass_result& out) {
    const bool was_enabled = obs::enabled();
    obs::disable();
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
      const auto& app = spec.apps[a];
      const auto base_opts = explore::options_for(spec, points.front());
      xbar::collected_traces traces;
      {
        scoped_span sp(&tr, "sim.collect", op, -1, true);
        traces = xbar::collect_traces(app, base_opts);
      }
      {
        scoped_span sp(&tr, "sim.validate", op, -1, true);
        xbar::validate_full_crossbars(app, base_opts);
      }
      std::vector<xbar::validation_job> jobs;
      for (std::size_t p = 0; p < points.size(); ++p) {
        const auto& r = report.results[a * points.size() + p];
        const auto opts = explore::options_for(spec, points[p]);
        const auto designs = replay_synthesis(traces, opts, tr, op, -1);
        if (!(designs.first == r.report.request_design &&
              designs.second == r.report.response_design)) {
          out.fail(app.name + ": replayed synthesis differs at " +
                   points[p].to_string());
        }
        jobs.push_back({designs.first.to_config(opts.policy,
                                                opts.transfer_overhead),
                        designs.second.to_config(opts.policy,
                                                 opts.transfer_overhead),
                        opts});
      }
      std::vector<xbar::validation_metrics> designed;
      {
        scoped_span sp(&tr, "sim.batch_validate", op, -1, true);
        designed = xbar::validate_configurations(app, jobs);
      }
      for (std::size_t p = 0; p < points.size(); ++p) {
        if (!(designed[p] ==
              report.results[a * points.size() + p].report.designed)) {
          out.fail(app.name + ": replayed validation differs at " +
                   points[p].to_string());
        }
      }
    }
    if (was_enabled) obs::enable();
  }

  explore::sweep_spec spec_;
  std::uint64_t base_seed_ = 1;
};

}  // namespace

std::unique_ptr<workload> make_sweep_grid() {
  return std::make_unique<sweep_grid>();
}

}  // namespace perfbench
