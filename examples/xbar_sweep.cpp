// xbar-sweep — parallel design-space exploration over the methodology's
// parameter grid.
//
//   $ ./xbar-sweep --app=mat2 --grid win=200,400,1000 --grid thr=0.1,0.3
//                  --threads=4 --out-dir=/tmp/sweep
//
// Evaluates the cross product of every --grid axis on each application,
// sharing the phase-1 full-crossbar trace per app through the trace
// cache, prints the result table with its Pareto front, and (with
// --out-dir) writes sweep.json / sweep.csv / sweep.md.
//
// Exit code 0 on success, 1 on runtime error, 2 on bad usage — including
// an empty grid or an unknown --grid key: a sweep never silently runs
// zero points.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "cli_common.h"
#include "explore/disk_store.h"
#include "explore/sweep.h"
#include "gen/artifact.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/strings.h"
#include "workloads/mpsoc_apps.h"
#include "workloads/synthetic.h"

namespace {

using namespace stx;

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: xbar-sweep --app=LIST --grid KEY=V1,V2,... [options]\n"
      "  --app=LIST          comma list of apps, or 'all' "
      "(mat1|mat2|mat2-critical|fft|qsort|des|synthetic)\n"
      "  --grid KEY=V1,...   one sweep axis; repeatable; at least one "
      "required\n"
      "                      keys: win thr maxtb burstwin policy solver "
      "reqwin respwin\n"
      "  --threads=N         worker threads (default: hardware "
      "concurrency)\n"
      "  --horizon=N         simulation cycles (120000)\n"
      "  --seed=N            simulator seed (1)\n"
      "  --solver-node-limit=N  branch & bound node budget per solve "
      "(> 0; default 20000000)\n"
      "  --solver-time-ms=N  solver wall-clock budget per solve in "
      "milliseconds (>= 0, 0 = unlimited; default 60000)\n"
      "  --solver-threads=N  branch & bound worker threads per solve (1;\n"
      "                      results are bit-identical at every count)\n"
      "  --solver-cuts=BOOL  root cover/clique cut layer (true)\n"
      "  --solver-portfolio=BOOL  race the specialized solver against\n"
      "                      the MILP on feasibility probes (false)\n"
      "  --validate=BOOL     per-point validation simulation (true)\n"
      "  --cache-dir=DIR     persistent phase-1 result store shared with\n"
      "                      xbargen / xbar-fuzz / xbar-serve\n"
      "  --cache-max-bytes=N evict oldest-accessed store entries over\n"
      "                      this cap at open (0 = unlimited)\n"
      "  --out-dir=DIR       write <basename>.json/.csv/.md artifacts\n"
      "  --basename=NAME     artifact filename stem (sweep)\n"
      "  --compare-serial    also time the equivalent per-point "
      "run_design_flow loop\n"
      "  --trace-out=FILE    write a Chrome/Perfetto trace of the run\n"
      "  --metrics-out=FILE  write an stx-metrics/v1 counter snapshot\n");
}

const std::vector<std::string> kKnownFlags = {
    "app",      "grid",     "threads",  "horizon",      "seed",
    "solver-node-limit",    "solver-time-ms",
    "solver-threads", "solver-cuts", "solver-portfolio",
    "validate", "out-dir",  "basename", "compare-serial", "help",
    "cache-dir", "cache-max-bytes", "trace-out", "metrics-out",
};

/// Solver budget flags; malformed/out-of-range values exit 2 with usage.
void pick_solver_limits(const flag_set& flags, xbar::solver_options* limits) {
  try {
    cli::apply_solver_budget_flags(flags, limits);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbar-sweep: %s\n", e.what());
    print_usage(stderr);
    std::exit(2);
  }
}

int reject_unknown_flags(const flag_set& flags) {
  const int bad = report_unknown_flags(flags, kKnownFlags, "xbar-sweep");
  if (bad > 0) print_usage(stderr);
  return bad;
}

workloads::app_spec pick_app(const std::string& name) {
  auto app = workloads::make_app_by_name(name);
  if (!app.has_value()) {
    std::fprintf(stderr, "xbar-sweep: unknown app '%s' (%s)\n", name.c_str(),
                 workloads::app_name_list().c_str());
    std::exit(2);
  }
  return *std::move(app);
}

std::vector<workloads::app_spec> pick_apps(const std::string& list) {
  // "all" expands in place to the full inventory; duplicates anywhere in
  // the expanded list are a usage error (app names key the trace cache).
  std::vector<std::string> names;
  for (const auto& item : split_list(list)) {
    if (item == "all") {
      names.insert(names.end(), workloads::app_names().begin(),
                   workloads::app_names().end());
    } else {
      names.push_back(item);
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "xbar-sweep: --app list is empty\n");
    std::exit(2);
  }
  std::vector<workloads::app_spec> apps;
  for (const auto& name : names) {
    if (std::count(names.begin(), names.end(), name) > 1) {
      std::fprintf(stderr, "xbar-sweep: duplicate app '%s' in --app list\n",
                   name.c_str());
      std::exit(2);
    }
    apps.push_back(pick_app(name));
  }
  return apps;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags(argc, argv);
  if (flags.has("help")) {
    print_usage(stdout);
    return 0;
  }
  if (reject_unknown_flags(flags) > 0) return 2;

  explore::sweep_spec spec;
  // Grid validation happens before anything expensive: an unknown key or
  // an empty axis is a usage error, mirroring the unknown-flag rejection.
  try {
    spec.grid = explore::parse_grid(flags.get_list("grid"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbar-sweep: %s\n", e.what());
    print_usage(stderr);
    return 2;
  }
  if (spec.grid.empty()) {
    std::fprintf(stderr,
                 "xbar-sweep: empty grid — pass at least one "
                 "--grid KEY=V1,V2,... axis\n");
    print_usage(stderr);
    return 2;
  }
  // So is a point no flow can run (e.g. --horizon=0): run_sweep would
  // reject it too, but as a runtime error.
  try {
    spec.horizon = flags.get_int("horizon", 120'000);
    for (const auto& p : explore::sweep_points(spec)) {
      explore::options_for(spec, p).validate();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbar-sweep: %s\n", e.what());
    print_usage(stderr);
    return 2;
  }

  try {
    const cli::obs_output obs_out(flags);
    spec.apps = pick_apps(flags.get_string("app", "mat2"));
    spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    pick_solver_limits(flags, &spec.synth_base.limits);
    spec.validate = flags.get_bool("validate", true);
    const int hw =
        std::max(1u, std::thread::hardware_concurrency());
    spec.threads = static_cast<int>(flags.get_int("threads", hw));

    const auto points = explore::sweep_points(spec);
    std::printf("sweeping %zu point(s) x %zu app(s) on %d thread(s)\n",
                points.size(), spec.apps.size(), spec.threads);

    // With --cache-dir the phase-1 cache is backed by the persistent
    // store: a re-run (or any other CLI on the same directory) serves
    // traces and references without re-simulating.
    std::shared_ptr<explore::kv_store> store;
    const auto cache_dir = flags.get_string("cache-dir", "");
    if (!cache_dir.empty()) {
      store = std::make_shared<explore::disk_store>(
          cache_dir, cli::cache_max_bytes_flag(flags));
    }
    explore::trace_cache cache(store);

    const auto t0 = std::chrono::steady_clock::now();
    const auto report = explore::run_sweep(spec, cache);
    const double sweep_sec = seconds_since(t0);

    std::printf("%s", explore::render_markdown(report).c_str());
    std::printf("\nsweep wall-clock: %.2fs (%lld phase-1 simulations for "
                "%zu evaluations)\n",
                sweep_sec, static_cast<long long>(report.phase1_simulations),
                report.results.size());
    if (store != nullptr) {
      std::printf("persistent cache: %lld phase-1 load(s) served from %s\n",
                  static_cast<long long>(cache.stats().trace_store_hits),
                  cache_dir.c_str());
    }

    if (flags.has("compare-serial")) {
      // The fair baseline does exactly what the sweep does per point —
      // including skipping phase 4 under --validate=false — just without
      // the trace cache or threads.
      const auto t1 = std::chrono::steady_clock::now();
      for (const auto& app : spec.apps) {
        for (const auto& p : points) {
          const auto opts = explore::options_for(spec, p);
          const auto traces = xbar::collect_traces(app, opts);
          auto report = xbar::synthesize_design(app, traces, opts);
          if (spec.validate) {
            xbar::validate_design(app, opts, traces.full, report);
          }
        }
      }
      const double serial_sec = seconds_since(t1);
      std::printf("serial per-point design-flow loop: %.2fs "
                  "(speedup %.2fx)\n",
                  serial_sec, serial_sec / sweep_sec);
    }

    const auto out_dir = flags.get_string("out-dir", "");
    if (!out_dir.empty()) {
      const auto arts = explore::render_artifacts(
          report, flags.get_string("basename", "sweep"));
      const auto paths = gen::write_artifacts(arts, out_dir);
      for (std::size_t i = 0; i < paths.size(); ++i) {
        std::printf("emitted: %-9s -> %s (%zu bytes)\n",
                    arts[i].backend.c_str(), paths[i].c_str(),
                    arts[i].content.size());
      }
    }
    obs_out.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbar-sweep: %s\n", e.what());
    return 1;
  }
}
