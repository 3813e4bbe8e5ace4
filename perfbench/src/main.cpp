// The repository benchmark binary (perfbench/run.py builds and runs it):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--trace-out FILE]
//
// --trace 0: sets the workload up nine times (setup_s is the median),
// then measures whole ops for S seconds with tracing off and prints the
// end-to-end metrics. --trace 1: one untraced and two traced passes of a
// fixed op list; prints the per-layer metrics from the first traced
// pass, the tracing overhead, and fails unless both traced passes report
// identical deterministic counts. Either way the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "gen/json.h"
#include "harness.h"

namespace {

using namespace perfbench;
using stx::obs::latency_accumulator;

struct args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "flow_paper|sweep_grid|synth_milp|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

args parse_args(int argc, char** argv) {
  args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--scratch") {
        a.scratch = value;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<workload> make_workload(const args& a) {
  if (a.workload == "flow_paper") return make_flow_paper();
  if (a.workload == "sweep_grid") return make_sweep_grid();
  if (a.workload == "synth_milp") return make_synth_milp();
  if (a.workload == "serve_mixed") return make_serve_mixed(a.scratch);
  usage("unknown workload " + a.workload);
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 9;

double median(const std::vector<double>& xs) {
  latency_accumulator acc;
  for (const double x : xs) acc.record(x);
  return acc.count() > 0 ? acc.median_seconds() : 0.0;
}

/// The per-layer metrics, in BENCHMARK.json order. A metric ending in
/// _ms/_us is the median self time per call of the span of the same name
/// without the suffix; the rest come from the pass's counts and layer
/// values. Layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sim.collect_ms", "ms"},
      {"sim.validate_ms", "ms"},
      {"sim.batch_validate_ms", "ms"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.latency_vs_full", "ratio"},
      {"traffic.analyze_ms", "ms"},
      {"xbar.size_search_ms", "ms"},
      {"xbar.synthesize_ms", "ms"},
      {"xbar.probes", "count"},
      {"xbar.feasibility_nodes", "count"},
      {"xbar.binding_nodes", "count"},
      {"xbar.binding_optimal_ratio", "ratio"},
      {"xbar.paper_bus_gap", "buses"},
      {"milp.solve_ms", "ms"},
      {"milp.nodes", "count"},
      {"lp.iterations", "count"},
      {"milp.cuts", "count"},
      {"explore.trace_cache_misses", "count"},
      {"explore.cached_design_hit_us", "us"},
      {"explore.store_get_us", "us"},
      {"explore.decode_report_us", "us"},
      {"explore.encode_report_us", "us"},
      {"explore.store_put_ms", "ms"},
      {"explore.report_bytes", "bytes"},
      {"serve.hit_ms_p50", "ms"},
      {"serve.hit_ms_p99", "ms"},
      {"serve.miss_ms_p50", "ms"},
      {"serve.parse_request_us", "us"},
      {"serve.handle_hit_us", "us"},
      {"serve.serialize_us", "us"},
      {"serve.parse_response_us", "us"},
      {"serve.rtt_hit_us", "us"},
      {"serve.transport_hit_us", "us"},
      {"serve.queue_depth_max", "count"},
      {"serve.in_flight_max", "count"},
      {"serve.coalesced", "count"},
      {"serve.rejected", "count"},
      {"gen.generate_ms", "ms"},
      {"gen.artifact_bytes", "bytes"},
      {"trace.designs_per_s_untraced", "1/s"},
      {"trace.designs_per_s_traced", "1/s"},
      {"trace.designs_per_s_delta", "1/s"},
  };
  return kMetrics;
}

double layer_value(const std::string& name, const pass_result& p,
                   const std::map<std::string, std::vector<double>>& self) {
  if (const auto it = p.counts.find(name); it != p.counts.end()) {
    return it->second;
  }
  if (const auto it = p.layer.find(name); it != p.layer.end()) {
    return it->second;
  }
  for (const auto& [suffix, scale] :
       {std::pair<std::string, double>{"_ms", 1e3}, {"_us", 1e6}}) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      const auto it = self.find(name.substr(0, name.size() - suffix.size()));
      return it == self.end() ? 0.0 : median(it->second) * scale;
    }
  }
  return 0.0;
}

double designs_per_s(const pass_result& p) {
  return static_cast<double>(p.attempted) /
         stx::bench::finite_seconds(p.elapsed_s);
}

void print_errors(const std::string& pass, const pass_result& p) {
  for (const auto& e : p.errors) {
    std::fprintf(stderr, "perfbench: %s pass failed check: %s\n",
                 pass.c_str(), e.c_str());
  }
}

/// Prints the result line: the last line of stdout.
void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<std::pair<std::string,
                                              std::pair<double, std::string>>>&
                      metrics) {
  stx::gen::json::object m;
  for (const auto& [name, vu] : metrics) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    m.push_back({name, stx::gen::json::object{{"value", v}, {"unit", vu.second}}});
  }
  std::printf("%s\n", stx::gen::json::dump_compact(stx::gen::json::object{
                                                        {"correct", correct},
                                                        {"attempted", attempted},
                                                        {"failed", failed},
                                                        {"metrics", std::move(m)},
                                                    })
                          .c_str());
}

int run_untraced(const args& a, workload& wl) {
  if (wl.forces_obs()) stx::obs::enable();
  // Each set-up is speed-scaled like an op (see speed_scale()).
  const auto setup = stx::bench::time_reps(kSetupReps, [&](int rep) {
    if (rep > 0) wl.teardown();
    const double scale = speed_scale();
    stx::obs::stopwatch sw;
    wl.setup(a.seed);
    return sw.seconds() * scale;
  });
  const auto pass = wl.run(a.seconds, 0, nullptr);
  wl.teardown();
  print_errors("measured", pass);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=0\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds);
  std::printf("  ops attempted %lld, failed %lld, latency samples %lld\n",
              static_cast<long long>(pass.attempted),
              static_cast<long long>(pass.failed),
              static_cast<long long>(pass.latency_samples));
  std::printf("  plain rate (designs / wall time) %.6f 1/s\n",
              designs_per_s(pass));
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics =
      {
          {"designs_per_s", {pass.designs_per_s, "1/s"}},
          {"latency_ms_p50", {pass.latency_ms_p50, "ms"}},
          {"peak_rss_mb",
           {pass.peak_rss_mb > 0.0 ? pass.peak_rss_mb : peak_rss_mb(), "MB"}},
          {"setup_s", {setup.median_seconds(), "s"}},
      };
  for (const auto& [name, vu] : metrics) {
    std::printf("  %-22s %14.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const auto& [name, vu] : pass.extra) {
    std::printf("  %-22s %14.6f %s   (workload-specific)\n", name.c_str(),
                vu.first, vu.second.c_str());
  }
  print_result(pass.failed == 0 && pass.attempted > 0, pass.attempted,
               pass.failed, metrics);
  return 0;
}

int run_traced(const args& a, workload& wl) {
  if (wl.forces_obs()) stx::obs::enable();
  wl.setup(a.seed);
  const int ops = wl.traced_ops();
  const auto plain = wl.run(0.0, ops, nullptr);
  wl.teardown();

  const auto traced_pass = [&](tracer& tr) {
    stx::obs::reset();
    stx::obs::enable();
    wl.setup(a.seed);
    auto p = wl.run(0.0, ops, &tr);
    wl.teardown();
    if (!wl.forces_obs()) stx::obs::disable();
    return p;
  };
  tracer tr_a;
  tracer tr_b;
  const auto pa = traced_pass(tr_a);
  const auto pb = traced_pass(tr_b);
  print_errors("untraced", plain);
  print_errors("traced", pa);
  print_errors("second traced", pb);

  bool repeatable = pa.counts == pb.counts;
  if (!repeatable) {
    for (const auto& [name, v] : pa.counts) {
      const auto it = pb.counts.find(name);
      const double w = it == pb.counts.end() ? NAN : it->second;
      if (v != w) {
        std::fprintf(stderr,
                     "perfbench: deterministic count %s differs between "
                     "traced passes: %.17g vs %.17g\n",
                     name.c_str(), v, w);
      }
    }
  }
  if (!a.trace_out.empty()) {
    const auto parent = std::filesystem::path(a.trace_out).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    tr_a.write_json(a.trace_out);
  }

  const auto self = tr_a.self_seconds();
  auto layer = pa;
  layer.layer["trace.designs_per_s_untraced"] = designs_per_s(plain);
  layer.layer["trace.designs_per_s_traced"] = designs_per_s(pa);
  layer.layer["trace.designs_per_s_delta"] =
      designs_per_s(pa) - designs_per_s(plain);
  double sim_s = 0.0;
  for (const char* span : {"sim.collect", "sim.validate", "sim.batch_validate"}) {
    if (const auto it = self.find(span); it != self.end()) {
      for (const double s : it->second) sim_s += s;
    }
  }
  const auto events = pa.counts.find("sim.events");
  if (sim_s > 0.0 && events != pa.counts.end()) {
    layer.layer["sim.events_per_s"] = events->second / sim_s;
  }

  std::printf("perfbench workload=%s seed=%llu ops=%d trace=1 obs=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), ops,
              wl.forces_obs() ? "on in every pass" : "on in traced passes");
  std::printf("  deterministic counts repeat across traced passes: %s\n",
              repeatable ? "yes" : "NO");
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  for (const auto& [name, unit] : layer_metrics()) {
    const double v = layer_value(name, layer, self);
    metrics.push_back({name, {v, unit}});
    std::printf("  %-30s %16.6f %s\n", name.c_str(), v, unit.c_str());
  }
  const auto attempted = plain.attempted + pa.attempted + pb.attempted;
  const auto failed = plain.failed + pa.failed + pb.failed;
  print_result(repeatable && failed == 0 && attempted > 0, attempted, failed,
               metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto a = parse_args(argc, argv);
  try {
    auto wl = make_workload(a);
    return a.trace ? run_traced(a, *wl) : run_untraced(a, *wl);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
