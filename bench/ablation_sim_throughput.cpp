// Ablation (ours): simulator throughput (simulated cycles per second) of
// the event-driven kernel, run through sim::session, across the built-in
// applications and synthetic workloads at the utilisation extremes —
// establishes that the cycle-accurate substrate is fast enough for the
// collection/validation loops the flow runs, and tracks it as the repo's
// perf trajectory (BENCH_sim.json). The polling loop this bench
// originally compared against soaked one release as the bit-identical
// reference and has been retired; its cost model (horizon * components
// steps) survives as the work-ratio column, which is counter-based and
// machine-independent.
//
//   $ ./ablation_sim_throughput [--horizon=200000] [--repeats=3]
//                               [--json=BENCH_sim.json]
//
// A second section times the phase-2 window analysis over the synthetic
// trace (the other hot path of sweep-heavy runs). JSON schema
// `stx-bench-sim/v2`:
//   {results: [{workload, wall_seconds, median_wall_seconds,
//               cycles_per_second, transactions, events_processed,
//               work_ratio_vs_polling_model}],
//    window_analysis: [{window_size, wall_seconds,
//                       median_wall_seconds}]}
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/json.h"
#include "traffic/windows.h"
#include "util/table.h"
#include "workloads/mpsoc_apps.h"
#include "workloads/synthetic.h"
#include "xbar/flow.h"

namespace {

using namespace stx;

struct workload {
  std::string name;
  workloads::app_spec app;
};

/// The bench inventory: every built-in app plus the synthetic
/// utilisation extremes the event kernel is characterised by.
std::vector<workload> make_workloads() {
  std::vector<workload> out;
  for (const auto& name : workloads::app_names()) {
    out.push_back({name, *workloads::make_app_by_name(name)});
  }
  // Bursty / low utilisation: long idle gaps between short bursts — the
  // calendar queue's best case (idle spans are skipped wholesale).
  workloads::synthetic_params bursty;
  bursty.num_cores = 16;
  bursty.burst_cycles = 300;
  bursty.gap_cycles = 12'000;
  out.push_back({"synthetic-bursty", workloads::make_synthetic(bursty)});
  // Sparse: a few cores, short bursts, gaps far longer than the kernel's
  // calendar ring — cost should track events, not the horizon.
  workloads::synthetic_params sparse;
  sparse.num_cores = 4;
  sparse.burst_cycles = 50;
  sparse.gap_cycles = 50'000;
  out.push_back({"synthetic-sparse", workloads::make_synthetic(sparse)});
  // Dense / high utilisation: back-to-back bursts, no gaps — the event
  // kernel's worst case (every cycle has work; the queue is pure
  // overhead relative to a hypothetical per-cycle loop).
  workloads::synthetic_params dense;
  dense.num_cores = 16;
  dense.burst_cycles = 2'000;
  dense.gap_cycles = 0;
  dense.phase_spread = 0.0;
  out.push_back({"synthetic-dense", workloads::make_synthetic(dense)});
  return out;
}

struct measurement {
  double wall_seconds = 0.0;         ///< minimum over the repeats
  double median_wall_seconds = 0.0;
  std::int64_t transactions = 0;
  std::int64_t iterations = 0;
  std::int64_t events_processed = 0;
  std::int64_t components = 0;
};

measurement run_once(const workloads::app_spec& app,
                     traffic::cycle_t horizon) {
  sim::system_config cfg;
  cfg.seed = 1;
  cfg.record_traces = false;
  cfg.keep_latency_samples = false;
  auto session = workloads::make_full_crossbar_session(app, cfg);
  obs::stopwatch sw;
  session.run(horizon);
  measurement m;
  m.wall_seconds = bench::finite_seconds(sw.seconds());
  m.transactions = session.metrics().transactions;
  m.iterations = session.metrics().iterations;
  m.events_processed = session.stats().events_processed;
  // Cores + targets + one bus per endpoint on each full crossbar.
  m.components = 2 * static_cast<std::int64_t>(app.total_cores());
  return m;
}

measurement best_of(const workloads::app_spec& app, traffic::cycle_t horizon,
                    int repeats) {
  measurement best;
  const auto acc = bench::time_reps(repeats, [&](int) {
    // The simulation is deterministic (fixed seed): every repeat yields
    // the same counters, only the wall time varies.
    const auto m = run_once(app, horizon);
    best = m;
    return m.wall_seconds;
  });
  best.wall_seconds = acc.min_seconds();
  best.median_wall_seconds = acc.median_seconds();
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags(argc, argv);
  bench::require_known_flags(flags, {"horizon", "repeats", "json"});
  const traffic::cycle_t horizon = flags.get_int("horizon", 200'000);
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  bench::print_header(
      "Ablation — simulator throughput, event-driven kernel",
      "full crossbars, horizon " + std::to_string(horizon) + ", best of " +
          std::to_string(repeats));

  table t({"Workload", "Wall (s)", "Mcycles/s", "Events", "Work ratio"});
  gen::json::array results;
  int stuck = 0;
  for (const auto& w : make_workloads()) {
    const auto m = best_of(w.app, horizon, repeats);
    if (m.transactions == 0) {
      std::fprintf(stderr, "bench: %s simulated no transactions\n",
                   w.name.c_str());
      ++stuck;
      continue;
    }
    const double cps = static_cast<double>(horizon) / m.wall_seconds;
    // What the retired polling loop would have cost on this run: one
    // component step per component per cycle.
    const double polling_steps =
        static_cast<double>(horizon) * static_cast<double>(m.components);
    const double work_ratio =
        polling_steps / static_cast<double>(std::max<std::int64_t>(
                            1, m.events_processed));
    t.cell(w.name)
        .cell(m.wall_seconds, 4)
        .cell(cps / 1e6, 1)
        .cell(m.events_processed)
        .cell(work_ratio, 2)
        .end_row();
    results.push_back(gen::json::object{
        {"workload", w.name},
        {"wall_seconds", m.wall_seconds},
        {"median_wall_seconds", m.median_wall_seconds},
        {"cycles_per_second", cps},
        {"transactions", m.transactions},
        {"events_processed", m.events_processed},
        {"work_ratio_vs_polling_model", work_ratio},
    });
  }
  std::printf("%s", t.render().c_str());

  // ---- Window-analysis throughput (phase 2's hot path in sweeps):
  // construction + one overlap query over the default synthetic trace.
  xbar::flow_options fopts;
  fopts.horizon = horizon;
  const auto traces = xbar::collect_traces(workloads::make_synthetic(), fopts);
  table wt({"Window (cycles)", "Wall (s)"});
  gen::json::array window_results;
  for (const traffic::cycle_t ws : {200, 2'000, 20'000}) {
    const auto acc = bench::time_reps(repeats, [&](int) {
      obs::stopwatch sw;
      const traffic::window_analysis wa(
          traces.request,
          traffic::window_partition::uniform(traces.request.horizon(), ws));
      volatile auto keep = wa.total_overlap(0, 1);
      (void)keep;
      return sw.seconds();
    });
    const double best = acc.min_seconds();
    wt.cell(static_cast<std::int64_t>(ws)).cell(best, 4).end_row();
    window_results.push_back(gen::json::object{
        {"window_size", static_cast<std::int64_t>(ws)},
        {"wall_seconds", best},
        {"median_wall_seconds", acc.median_seconds()},
    });
  }
  std::printf("\nwindow analysis over the synthetic phase-1 trace:\n%s",
              wt.render().c_str());

  const auto json_path = flags.get_string("json", "");
  if (!json_path.empty()) {
    const gen::json::value doc = gen::json::object{
        {"schema", "stx-bench-sim/v2"},
        {"horizon", static_cast<std::int64_t>(horizon)},
        {"repeats", repeats},
        {"results", std::move(results)},
        {"window_analysis", std::move(window_results)},
    };
    std::ofstream out(json_path);
    out << gen::json::dump(doc);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (stuck > 0) return 1;
  return 0;
}
