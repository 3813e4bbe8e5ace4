// xbargen — command-line driver for the full design flow.
//
// Design from a built-in application model:
//   $ ./xbargen --app=mat2 --window=400 --threshold=0.3 --maxtb=4
//
// Design and generate deployable artifacts (phase 5):
//   $ ./xbargen --app=mat2 --emit=sv,dot,json,report --out-dir=/tmp/mat2
//
// Or from a previously captured trace file (one crossbar direction):
//   $ ./xbargen --app=mat2 --save-traces=/tmp/mat2   # writes .req/.resp
//   $ ./xbargen --trace=/tmp/mat2.req --window=400
//
// Prints the designed configuration and (for --app runs) the validated
// latency against the full crossbar. Exit code 0 on success, 2 on bad
// usage (unknown flag, unknown app, malformed --emit list).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"

#include "cli_common.h"
#include "explore/disk_store.h"
#include "explore/sweep.h"
#include "gen/registry.h"
#include "serve/service.h"
#include "util/flags.h"
#include "util/strings.h"
#include "workloads/mpsoc_apps.h"
#include "workloads/synthetic.h"
#include "xbar/flow.h"

namespace {

using namespace stx;

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: xbargen [--app=NAME | --trace=FILE] [options]\n"
      "  --app=NAME          built-in app "
      "(mat1|mat2|mat2-critical|fft|qsort|des|synthetic)\n"
      "  --trace=FILE        design one direction from a saved trace\n"
      "  --save-traces=PATH  only collect traces, write PATH.req/.resp\n"
      "  --emit=LIST         comma-separated artifact backends "
      "(sv|dot|json|report|all)\n"
      "  --out-dir=DIR       where --emit writes artifacts (default .)\n"
      "  --window=N          analysis window size in cycles (400)\n"
      "  --threshold=F       overlap threshold fraction (0.30)\n"
      "  --maxtb=N           max targets per bus, 0=off (4)\n"
      "  --conflicts=BOOL    overlap-conflict pre-processing (true)\n"
      "  --critical=BOOL     separate critical streams (true)\n"
      "  --solver=KIND       specialized|milp (specialized)\n"
      "  --solver-node-limit=N  branch & bound node budget per solve "
      "(> 0; default 20000000)\n"
      "  --solver-time-ms=N  solver wall-clock budget per solve in "
      "milliseconds (>= 0, 0 = unlimited; default 60000)\n"
      "  --solver-threads=N  branch & bound worker threads (1; results\n"
      "                      are bit-identical at every thread count)\n"
      "  --solver-cuts=BOOL  root cover/clique cut layer (true)\n"
      "  --solver-portfolio=BOOL  race the specialized solver against\n"
      "                      the MILP on feasibility probes (false)\n"
      "  --horizon=N         simulation cycles (120000)\n"
      "  --cache-dir=DIR     persistent result store: a design already\n"
      "                      computed under DIR (by any CLI or the\n"
      "                      xbar-serve daemon) is reused without\n"
      "                      re-running simulation or the solver\n"
      "  --cache-max-bytes=N evict oldest-accessed store entries over\n"
      "                      this cap at open (0 = unlimited)\n"
      "  --grid KEY=V1,...   sweep an axis instead of one design point "
      "(repeatable;\n"
      "                      keys: win thr maxtb burstwin policy solver "
      "reqwin respwin);\n"
      "                      unswept axes take their values from the "
      "flags above\n"
      "  --threads=N         sweep worker threads (hardware "
      "concurrency)\n"
      "  --trace-out=FILE    write a Chrome/Perfetto trace of the run\n"
      "  --metrics-out=FILE  write an stx-metrics/v1 counter snapshot\n");
}

/// Every flag xbargen understands; anything else is an error (exit 2),
/// never silently ignored.
const std::vector<std::string> kKnownFlags = {
    "app",      "trace",    "save-traces", "emit",     "out-dir",
    "window",   "threshold", "maxtb",      "conflicts", "critical",
    "solver",   "solver-node-limit", "solver-time-ms",
    "solver-threads", "solver-cuts", "solver-portfolio",
    "horizon",  "grid",     "threads",    "help",
    "cache-dir", "cache-max-bytes", "trace-out", "metrics-out",
};

/// Solver budget flags; malformed/out-of-range values exit 2 with usage.
void pick_solver_limits(const flag_set& flags, xbar::solver_options* limits) {
  try {
    cli::apply_solver_budget_flags(flags, limits);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbargen: %s\n", e.what());
    print_usage(stderr);
    std::exit(2);
  }
}

int reject_unknown_flags(const flag_set& flags) {
  const int bad = report_unknown_flags(flags, kKnownFlags, "xbargen");
  if (bad > 0) print_usage(stderr);
  return bad;
}

workloads::app_spec pick_app(const std::string& name) {
  auto app = workloads::make_app_by_name(name);
  if (!app.has_value()) {
    std::fprintf(stderr, "xbargen: unknown --app=%s (%s)\n", name.c_str(),
                 workloads::app_name_list().c_str());
    std::exit(2);
  }
  return *std::move(app);
}

/// Parses --emit into backend registry names; "all" (or an empty item
/// list) selects every registered backend. Unknown names exit 2.
std::vector<std::string> parse_emit_list(const std::string& list) {
  std::vector<std::string> out;
  for (const auto& item : split_list(list)) {
    if (item == "all") {
      return gen::registry::instance().names();
    }
    if (gen::registry::instance().find(item) == nullptr) {
      std::fprintf(stderr, "xbargen: unknown --emit backend '%s'\n",
                   item.c_str());
      std::fprintf(stderr, "  registered:");
      for (const auto& n : gen::registry::instance().names()) {
        std::fprintf(stderr, " %s", n.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    out.push_back(item);
  }
  if (out.empty()) return gen::registry::instance().names();
  return out;
}

xbar::synthesis_options synth_options(const flag_set& flags) {
  xbar::synthesis_options so;
  so.params.window_size = flags.get_int("window", 400);
  so.params.overlap_threshold = flags.get_double("threshold", 0.30);
  so.params.max_targets_per_bus =
      static_cast<int>(flags.get_int("maxtb", 4));
  so.params.use_overlap_conflicts = flags.get_bool("conflicts", true);
  so.params.separate_critical = flags.get_bool("critical", true);
  if (flags.get_string("solver", "specialized") == "milp") {
    so.solver = xbar::solver_kind::generic_milp;
  }
  pick_solver_limits(flags, &so.limits);
  return so;
}

/// The flow knobs of the scalar flags. Values no flow can run (--horizon
/// or --window below 1, a negative or non-finite --threshold) exit 2 with
/// usage before any simulation.
xbar::flow_options flow_options_from_flags(const flag_set& flags) {
  xbar::flow_options opts;
  opts.horizon = flags.get_int("horizon", 120'000);
  opts.synth = synth_options(flags);
  try {
    opts.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbargen: %s\n", e.what());
    print_usage(stderr);
    std::exit(2);
  }
  return opts;
}

/// --grid mode: a design-space sweep over one application through the
/// explore engine. The scalar flags (--window, --threshold, ...) supply
/// the value of every axis the grid does not sweep. Grid validation is
/// fail-fast: an empty grid or an unknown axis key exits 2 with usage,
/// exactly like an unknown flag, before any simulation starts.
int run_grid_sweep(const flag_set& flags) {
  // Grid mode designs from an app model; the other modes' flags would be
  // silently ignored here, so reject the combinations outright.
  for (const char* other : {"trace", "emit", "save-traces"}) {
    if (flags.has(other)) {
      std::fprintf(stderr,
                   "xbargen: --grid cannot be combined with --%s\n", other);
      return 2;
    }
  }
  explore::sweep_spec spec;
  try {
    spec.grid = explore::parse_grid(flags.get_list("grid"));
    if (spec.grid.empty()) {
      throw invalid_argument_error(
          "empty grid — pass at least one --grid KEY=V1,V2,... axis");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbargen: %s\n", e.what());
    print_usage(stderr);
    return 2;
  }

  // Unswept axes inherit the single-point flags; flags without an axis
  // (--conflicts, --critical) flow in through the synthesis base.
  const auto flow = flow_options_from_flags(flags);
  const auto& base = flow.synth;
  spec.synth_base = base;
  auto& g = spec.grid;
  if (g.window_sizes.empty()) g.window_sizes = {base.params.window_size};
  if (g.overlap_thresholds.empty()) {
    g.overlap_thresholds = {base.params.overlap_threshold};
  }
  if (g.max_targets_per_bus.empty()) {
    g.max_targets_per_bus = {base.params.max_targets_per_bus};
  }
  if (g.solvers.empty()) g.solvers = {base.solver};

  spec.apps = {pick_app(flags.get_string("app", "mat2"))};
  spec.horizon = flow.horizon;
  const unsigned hw = std::thread::hardware_concurrency();
  spec.threads = static_cast<int>(
      flags.get_int("threads", hw == 0 ? 1 : hw));

  std::shared_ptr<explore::kv_store> store;
  const auto cache_dir = flags.get_string("cache-dir", "");
  if (!cache_dir.empty()) {
    store = std::make_shared<explore::disk_store>(
        cache_dir, cli::cache_max_bytes_flag(flags));
  }
  explore::trace_cache cache(store);
  const auto report = explore::run_sweep(spec, cache);
  std::printf("%s", explore::render_markdown(report).c_str());

  const auto out_dir = flags.get_string("out-dir", "");
  if (!out_dir.empty()) {
    const auto arts = explore::render_artifacts(report, "sweep");
    const auto paths = gen::write_artifacts(arts, out_dir);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      std::printf("emitted     : %-9s -> %s (%zu bytes)\n",
                  arts[i].backend.c_str(), paths[i].c_str(),
                  arts[i].content.size());
    }
  }
  return 0;
}

int design_from_trace(const flag_set& flags) {
  if (flags.has("emit")) {
    std::fprintf(stderr,
                 "xbargen: --emit needs the full two-direction flow; use "
                 "--app instead of --trace\n");
    return 2;
  }
  const auto path = flags.get_string("trace", "");
  const auto synth = flow_options_from_flags(flags).synth;
  const auto t = traffic::trace::load_file(path);
  const auto design = xbar::synthesize_from_trace(t, synth);
  std::printf("%s\n", design.to_string().c_str());
  std::printf("savings vs full: %.2fx (%d -> %d buses)\n",
              design.savings_vs_full(), design.num_targets,
              design.num_buses);
  return 0;
}

int design_from_app(const flag_set& flags) {
  const auto app = pick_app(flags.get_string("app", "mat2"));
  // Resolve the backend selection up front: a typo in --emit must fail
  // fast, not after minutes of simulation.
  gen::generate_options gopts;
  if (flags.has("emit")) {
    gopts.backends = parse_emit_list(flags.get_string("emit", "all"));
  }
  const auto opts = flow_options_from_flags(flags);

  const auto save = flags.get_string("save-traces", "");
  if (!save.empty()) {
    if (flags.has("emit")) {
      std::fprintf(stderr,
                   "xbargen: --save-traces only collects traces and emits "
                   "no artifacts; drop --emit or --save-traces\n");
      return 2;
    }
    const auto traces = xbar::collect_traces(app, opts);
    traces.request.save_file(save + ".req");
    traces.response.save_file(save + ".resp");
    std::printf("wrote %s.req (%zu events) and %s.resp (%zu events)\n",
                save.c_str(), traces.request.events().size(), save.c_str(),
                traces.response.events().size());
    return 0;
  }

  // --cache-dir: the staged, store-backed flow shared with the xbar-serve
  // daemon and the other CLIs. The cache identity is the CLI app name, so
  // a design any of them computed under the same directory is a warm hit
  // here: the whole report is decoded from the store and neither the
  // simulator nor the solver runs.
  const auto cache_dir = flags.get_string("cache-dir", "");
  xbar::flow_report report;
  bool from_store = false;
  if (!cache_dir.empty()) {
    const auto store = std::make_shared<explore::disk_store>(
        cache_dir, cli::cache_max_bytes_flag(flags));
    explore::trace_cache cache(store);
    auto result =
        serve::cached_design(app, flags.get_string("app", "mat2"), opts,
                             /*validate=*/true, cache, store.get());
    report = std::move(result.report);
    from_store = result.from_store;
  } else {
    report = xbar::run_design_flow(app, opts);
  }
  std::printf("application : %s (%d cores)\n", report.app_name.c_str(),
              app.total_cores());
  if (!cache_dir.empty()) {
    std::printf("cache       : %s (%s)\n",
                from_store ? "hit — reused stored design" : "miss — computed",
                cache_dir.c_str());
  }
  std::printf("request     : %s\n",
              report.request_design.to_string().c_str());
  std::printf("response    : %s\n",
              report.response_design.to_string().c_str());
  std::printf("buses       : %d -> %d (%.2fx savings)\n", report.full_buses,
              report.designed_buses, report.savings());
  std::printf("avg latency : %.2f cy (full: %.2f, %.2fx)\n",
              report.designed.avg_latency, report.full.avg_latency,
              report.designed.avg_latency / report.full.avg_latency);
  std::printf("max latency : %.0f cy (full: %.0f)\n",
              report.designed.max_latency, report.full.max_latency);
  if (report.designed.avg_critical > 0.0) {
    std::printf("critical avg: %.2f cy (full: %.2f)\n",
                report.designed.avg_critical, report.full.avg_critical);
  }

  // ---- Phase 5: artifact generation.
  if (flags.has("emit")) {
    const auto artifacts = xbar::generate_artifacts(report, gopts);
    const auto out_dir = flags.get_string("out-dir", ".");
    const auto paths = gen::write_artifacts(artifacts, out_dir);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      std::printf("emitted     : %-7s -> %s (%zu bytes)\n",
                  artifacts[i].backend.c_str(), paths[i].c_str(),
                  artifacts[i].content.size());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags(argc, argv);
  if (flags.has("help")) {
    print_usage(stdout);
    return 0;
  }
  if (reject_unknown_flags(flags) > 0) return 2;
  try {
    const cli::obs_output obs_out(flags);
    int rc;
    if (flags.has("grid")) {
      rc = run_grid_sweep(flags);
    } else if (flags.has("trace")) {
      rc = design_from_trace(flags);
    } else {
      rc = design_from_app(flags);
    }
    if (rc == 0) obs_out.finish();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbargen: %s\n", e.what());
    return 1;
  }
}
