#include "testkit/fuzz.h"

#include <exception>
#include <string>
#include <string_view>

#include "gen/json.h"
#include "obs/obs.h"

namespace stx::testkit {

namespace {

constexpr std::string_view kOraclePrefix = "oracle.";
constexpr std::string_view kEvalsSuffix = ".evals";

/// Extracts the campaign's per-invariant oracle costs as the delta of
/// "oracle.<name>.evals" counters and "oracle.<name>" wall accumulators
/// between two registry snapshots.
std::vector<invariant_cost> invariant_costs(const obs::metrics_snapshot& before,
                                            const obs::metrics_snapshot& after) {
  std::vector<invariant_cost> out;
  for (const auto& c : after.counters) {
    if (c.name.rfind(kOraclePrefix, 0) != 0) continue;
    if (c.name.size() <= kOraclePrefix.size() + kEvalsSuffix.size() ||
        c.name.compare(c.name.size() - kEvalsSuffix.size(),
                       kEvalsSuffix.size(), kEvalsSuffix) != 0) {
      continue;
    }
    const std::string base =
        c.name.substr(0, c.name.size() - kEvalsSuffix.size());
    invariant_cost cost;
    cost.invariant = base.substr(kOraclePrefix.size());
    cost.evaluations = c.value - before.counter(c.name);
    double wall = 0.0;
    if (const auto* w = after.find_wall(base)) wall = w->total_seconds;
    if (const auto* w = before.find_wall(base)) wall -= w->total_seconds;
    cost.wall_seconds = wall;
    out.push_back(std::move(cost));
  }
  return out;  // counters are name-sorted, so this is too
}

}  // namespace

std::vector<violation> run_scenario(const scenario& s,
                                    const oracle_options& oopts,
                                    xbar::flow_report* report_out,
                                    explore::trace_cache* cache) {
  try {
    const auto app = s.make_app();
    const auto opts = s.make_flow_options();
    // The cache identity is the canonical token, not s.name(): two
    // scenarios may share a display name but never an encoding. Either
    // way the full-crossbar reference is the phase-1 run's harvest, which
    // the full-reference invariant re-simulates as its differential.
    const auto traces =
        cache != nullptr
            ? cache->traces(app, opts, encode(s))
            : std::make_shared<const xbar::collected_traces>(
                  xbar::collect_traces(app, opts));
    auto report = xbar::synthesize_design(app, *traces, opts);
    xbar::validate_design(app, opts, traces->full, report);
    auto violations =
        check_flow_invariants(app, *traces, opts, report, oopts);
    if (violations.empty() && report_out != nullptr) *report_out = report;
    return violations;
  } catch (const std::exception& e) {
    return {{"exception", e.what()}};
  }
}

fuzz_report run_fuzz(const fuzz_options& opts, const fuzz_progress& progress) {
  fuzz_report out;
  out.seed = opts.seed;
  out.runs = opts.runs;
  obs::span campaign_span("fuzz.campaign", {{"runs", opts.runs}});
  const auto obs_before = obs::enabled() ? obs::snapshot()
                                         : obs::metrics_snapshot{};
  const rng master(opts.seed);
  for (int k = 0; k < opts.runs; ++k) {
    // Each run samples from its own child stream, so run k reproduces
    // without replaying runs 0..k-1.
    rng r = master.split(static_cast<std::uint64_t>(k) + 1);
    const auto s = sample_scenario(r);
    xbar::flow_report flow;
    auto violations = run_scenario(s, opts.oracle, &flow, opts.cache);
    if (violations.empty()) {
      out.total_packets += flow.designed.packets + flow.full.packets;
      out.total_buses_designed += flow.designed_buses;
      if (progress) progress(k, s, false);
      continue;
    }
    fuzz_failure f;
    f.original = s;
    f.violations = std::move(violations);
    f.shrunk = s;
    f.shrunk_violations = f.violations;
    if (opts.shrink) {
      const auto res = shrink(
          s,
          [&](const scenario& c) {
            return !run_scenario(c, opts.oracle, nullptr, opts.cache)
                        .empty();
          },
          opts.shrinker);
      f.shrunk = res.best;
      f.shrink_attempts = res.attempts;
      if (res.improvements > 0) {
        f.shrunk_violations =
            run_scenario(res.best, opts.oracle, nullptr, opts.cache);
      }
    }
    out.failures.push_back(std::move(f));
    if (progress) progress(k, s, true);
  }
  if (obs::enabled()) {
    out.invariants = invariant_costs(obs_before, obs::snapshot());
  }
  return out;
}

namespace {

gen::json::array violations_json(const std::vector<violation>& vs) {
  gen::json::array out;
  for (const auto& v : vs) {
    out.push_back(gen::json::object{
        {"invariant", v.invariant},
        {"detail", v.detail},
    });
  }
  return out;
}

}  // namespace

std::string render_json(const fuzz_report& report) {
  gen::json::array failures;
  for (const auto& f : report.failures) {
    failures.push_back(gen::json::object{
        {"scenario", encode(f.original)},
        {"violations", violations_json(f.violations)},
        {"shrunk_scenario", encode(f.shrunk)},
        {"shrunk_violations", violations_json(f.shrunk_violations)},
        {"shrink_attempts", f.shrink_attempts},
        {"repro",
         "xbar-fuzz --scenario='" + encode(f.shrunk) + "'"},
    });
  }
  gen::json::array invariants;
  for (const auto& c : report.invariants) {
    invariants.push_back(gen::json::object{
        {"invariant", c.invariant},
        {"evaluations", c.evaluations},
        // Wall time is the one non-deterministic field in this report;
        // the name says so, matching stx-metrics/v1's convention.
        {"wall_ms_nondeterministic", c.wall_seconds * 1e3},
    });
  }
  const gen::json::value doc = gen::json::object{
      {"schema", "stx-fuzz-report/v2"},
      {"seed", static_cast<std::int64_t>(report.seed)},
      {"runs", report.runs},
      {"failures", std::move(failures)},
      {"total_packets", report.total_packets},
      {"total_buses_designed", report.total_buses_designed},
      {"invariants", std::move(invariants)},
  };
  return gen::json::dump(doc);
}

}  // namespace stx::testkit
