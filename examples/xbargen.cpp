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
// latency against the full crossbar. Sweeps over the knobs run through
// xbar-sweep. Every flag is read before any work: exit code 0 on
// success, 2 on bad usage (an unknown flag or app, a malformed or
// out-of-range value, a malformed --emit list), 1 when the work fails.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.h"
#include "explore/disk_store.h"
#include "gen/backends.h"
#include "serve/service.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/strings.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"

namespace {

using namespace stx;

void print_usage(std::FILE* to) {
  std::fputs(
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
      "  --solver=KIND       specialized|milp (specialized)\n",
      to);
  std::fputs(cli::kSharedKnobUsage, to);
  std::fputs(
      "  --cache-dir=DIR     persistent result store: a design already\n"
      "                      computed under DIR (by any CLI or the\n"
      "                      xbar-serve daemon) is reused without\n"
      "                      re-running simulation or the solver\n"
      "  --cache-max-bytes=N evict oldest-accessed store entries over\n"
      "                      this cap, at open and on every put\n"
      "                      (0 = unlimited)\n"
      "  --trace-out=FILE    write a Chrome/Perfetto trace of the run\n"
      "  --metrics-out=FILE  write an stx-metrics/v1 counter snapshot\n",
      to);
}

/// Every flag xbargen understands; anything else is an error (exit 2),
/// never silently ignored. The flow knobs among them are the serve
/// protocol's fields with dashes.
const std::vector<std::string> kKnownFlags = {
    "app",      "trace",    "save-traces", "emit",     "out-dir",
    "window",   "threshold", "maxtb",      "conflicts", "critical",
    "solver",   "solver-node-limit", "solver-time-ms",
    "solver-threads", "solver-cuts", "solver-portfolio",
    "horizon",  "help",     "cache-dir",  "cache-max-bytes",
    "trace-out", "metrics-out",
};

/// Everything one run needs, read from the flags before any work.
struct run_config {
  std::string app_name;
  std::optional<workloads::app_spec> app;  ///< absent in --trace mode
  std::string trace;
  std::string save_traces;
  bool emit = false;
  gen::generate_options gopts;
  std::string out_dir;
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 0;
  xbar::flow_options opts;
};

/// Parses --emit into backend names; "all" (or an empty item list)
/// selects every backend. Unknown names throw, also next to "all".
std::vector<std::string> parse_emit_list(const std::string& list) {
  std::vector<std::string> out;
  bool all = false;
  for (const auto& item : split_list(list)) {
    if (item == "all") {
      all = true;
      continue;
    }
    try {
      gen::check_backend_name(item);
    } catch (const std::exception& e) {
      throw invalid_argument_error(std::string("--emit: ") + e.what());
    }
    out.push_back(item);
  }
  if (all || out.empty()) return gen::backend_names();
  return out;
}

/// Reads every flag; a malformed, out-of-range or conflicting one
/// throws invalid_argument_error.
run_config read_config(const flag_set& flags) {
  run_config c;
  c.opts = cli::flow_options_from_flags(flags);
  c.trace = flags.get_string("trace", "");
  c.save_traces = flags.get_string("save-traces", "");
  c.emit = flags.has("emit");
  if (c.emit) c.gopts.backends = parse_emit_list(flags.get_string("emit", ""));
  c.out_dir = flags.get_string("out-dir", ".");
  c.cache_dir = flags.get_string("cache-dir", "");
  c.cache_max_bytes = cli::cache_max_bytes_flag(flags);
  if (flags.has("trace")) {
    if (c.emit) {
      throw invalid_argument_error(
          "--emit needs the full two-direction flow; use --app instead of "
          "--trace");
    }
    return c;
  }
  c.app_name = flags.get_string("app", "mat2");
  c.app = workloads::make_app_by_name(c.app_name);
  if (!c.app.has_value()) {
    throw invalid_argument_error("unknown --app=" + c.app_name + " (" +
                                 workloads::app_name_list() + ")");
  }
  if (!c.save_traces.empty() && c.emit) {
    throw invalid_argument_error(
        "--save-traces only collects traces and emits no artifacts; drop "
        "--emit or --save-traces");
  }
  return c;
}

void design_from_trace(const run_config& c) {
  const auto t = traffic::trace::load_file(c.trace);
  const auto design = xbar::synthesize_from_trace(t, c.opts.synth);
  std::printf("%s\n", design.to_string().c_str());
  std::printf("savings vs full: %.2fx (%d -> %d buses)\n",
              design.savings_vs_full(), design.num_targets,
              design.num_buses);
}

void design_from_app(const run_config& c) {
  const auto& app = *c.app;
  if (!c.save_traces.empty()) {
    const auto traces = xbar::collect_traces(app, c.opts);
    traces.request.save_file(c.save_traces + ".req");
    traces.response.save_file(c.save_traces + ".resp");
    std::printf("wrote %s.req (%zu events) and %s.resp (%zu events)\n",
                c.save_traces.c_str(), traces.request.events().size(),
                c.save_traces.c_str(), traces.response.events().size());
    return;
  }

  // --cache-dir: the staged, store-backed flow shared with the xbar-serve
  // daemon and the other CLIs. The cache identity is the CLI app name, so
  // a design any of them computed under the same directory is a warm hit
  // here: the whole report is decoded from the store and neither the
  // simulator nor the solver runs.
  xbar::flow_report report;
  bool from_store = false;
  if (!c.cache_dir.empty()) {
    const auto store =
        std::make_shared<explore::disk_store>(c.cache_dir, c.cache_max_bytes);
    explore::trace_cache cache(store);
    auto result = serve::cached_design(app, c.app_name, c.opts,
                                       /*validate=*/true, cache, store.get());
    report = std::move(result.report);
    from_store = result.from_store;
  } else {
    report = xbar::run_design_flow(app, c.opts);
  }
  std::printf("application : %s (%d cores)\n", report.app_name.c_str(),
              app.total_cores());
  if (!c.cache_dir.empty()) {
    std::printf("cache       : %s (%s)\n",
                from_store ? "hit — reused stored design" : "miss — computed",
                c.cache_dir.c_str());
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
  if (c.emit) {
    const auto artifacts = xbar::generate_artifacts(report, c.gopts);
    const auto paths = gen::write_artifacts(artifacts, c.out_dir);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      std::printf("emitted     : %-7s -> %s (%zu bytes)\n",
                  artifacts[i].backend.c_str(), paths[i].c_str(),
                  artifacts[i].content.size());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags(argc, argv);
  if (flags.has("help")) {
    print_usage(stdout);
    return 0;
  }
  if (report_unknown_flags(flags, kKnownFlags, "xbargen") > 0) {
    print_usage(stderr);
    return 2;
  }
  run_config config;
  try {
    config = read_config(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbargen: %s\n", e.what());
    print_usage(stderr);
    return 2;
  }
  try {
    const cli::obs_output obs_out(flags);
    if (config.app.has_value()) {
      design_from_app(config);
    } else {
      design_from_trace(config);
    }
    obs_out.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbargen: %s\n", e.what());
    return 1;
  }
}
