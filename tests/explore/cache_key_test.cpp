// The canonical stxkey/v1 encoder: every key field reaches the line, the
// stage-dependent field-selection rules, escaping of arbitrary app
// identities, and hash stability.
#include "explore/cache_key.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace stx::explore {
namespace {

xbar::flow_options rich_options() {
  xbar::flow_options opts;
  opts.horizon = 54'321;
  opts.seed = 7;
  opts.policy = sim::arbitration::fixed_priority;
  opts.transfer_overhead = 3;
  opts.synth.params.window_size = 640;
  opts.synth.params.overlap_threshold = 0.275;
  opts.synth.params.max_targets_per_bus = 5;
  opts.synth.params.burst_window = 128;
  opts.synth.params.use_overlap_conflicts = false;
  opts.synth.params.separate_critical = false;
  opts.request_window_override = 200;
  opts.response_window_override = 300;
  opts.synth.solver = xbar::solver_kind::generic_milp;
  opts.synth.optimize_binding = false;
  opts.synth.limits.max_nodes = 123'456;
  opts.synth.limits.time_limit_sec = 1.5;
  opts.synth.limits.cuts = false;     // non-default
  opts.synth.limits.portfolio = true;  // non-default
  return opts;
}

TEST(CacheKey, EveryReportKeyFieldChangesTheLine) {
  const auto base = report_key("mat2", rich_options());
  using edit = void (*)(cache_key&);
  const std::vector<std::pair<const char*, edit>> edits = {
      {"version", [](cache_key& k) { ++k.version; }},
      {"stage", [](cache_key& k) { k.stage = cache_stage::metrics; }},
      {"app", [](cache_key& k) { k.app = "mat1"; }},
      {"horizon", [](cache_key& k) { ++k.horizon; }},
      {"seed", [](cache_key& k) { ++k.seed; }},
      {"policy", [](cache_key& k) { ++k.policy; }},
      {"overhead", [](cache_key& k) { ++k.transfer_overhead; }},
      {"win", [](cache_key& k) { ++k.window_size; }},
      {"thr", [](cache_key& k) { k.overlap_threshold += 1e-12; }},
      {"maxtb", [](cache_key& k) { ++k.max_targets_per_bus; }},
      {"burstwin", [](cache_key& k) { ++k.burst_window; }},
      {"conflicts",
       [](cache_key& k) { k.use_overlap_conflicts = !k.use_overlap_conflicts; }},
      {"critical",
       [](cache_key& k) { k.separate_critical = !k.separate_critical; }},
      {"reqwin", [](cache_key& k) { ++k.request_window; }},
      {"respwin", [](cache_key& k) { ++k.response_window; }},
      {"solver", [](cache_key& k) { ++k.solver; }},
      {"bindopt",
       [](cache_key& k) { k.optimize_binding = !k.optimize_binding; }},
      {"nodes", [](cache_key& k) { ++k.max_nodes; }},
      {"timelimit", [](cache_key& k) { k.time_limit_sec += 1e-9; }},
      {"cuts", [](cache_key& k) { k.cuts = !k.cuts; }},
      {"portfolio", [](cache_key& k) { k.portfolio = !k.portfolio; }},
      {"validated", [](cache_key& k) { k.validated = !k.validated; }},
  };
  for (const auto& [name, change] : edits) {
    auto key = base;
    change(key);
    ASSERT_NE(key, base) << name;
    EXPECT_NE(encode(key), encode(base)) << name;
  }
}

TEST(CacheKey, WireFormIsTheDocumentedLine) {
  const auto key = trace_key("mat2", xbar::flow_options{});
  const auto line = encode(key);
  EXPECT_EQ(line.rfind("stxkey/v1 v=4 stage=trace app=mat2 ", 0), 0) << line;
  // Phase-1 stages omit the synthesis fields entirely.
  EXPECT_EQ(line.find("win="), std::string::npos);
  EXPECT_NE(encode(report_key("mat2", xbar::flow_options{})).find("win="),
            std::string::npos);
}

TEST(CacheKey, AppIdentityMayBeAnArbitraryString) {
  // The serve path uses whole stxfuzz/v1 tokens (spaces, '=') as the
  // identity of generated applications.
  const std::string app_id =
      "stxfuzz/v1 seed=42 ini=4 tgt=6 thr=0.25 note=100%\tdone";
  const auto line = encode(report_key(app_id, rich_options()));
  EXPECT_NE(line.find(" app=stxfuzz/v1%20seed%3D42%20ini%3D4%20tgt%3D6"
                      "%20thr%3D0.25%20note%3D100%25%09done horizon="),
            std::string::npos)
      << line;
  // '%' escapes too, so an identity spelling an escape stays distinct.
  EXPECT_NE(encode(report_key("a b", rich_options())),
            encode(report_key("a%20b", rich_options())));
}

TEST(CacheKey, TraceKeyIgnoresSynthesisKnobsReportKeyDoesNot) {
  auto opts = rich_options();
  const auto t0 = trace_key("a", opts);
  const auto r0 = report_key("a", opts);
  opts.synth.params.window_size = 9'999;
  EXPECT_EQ(trace_key("a", opts), t0);
  EXPECT_NE(report_key("a", opts), r0);

  // And every stage keys on the simulator settings.
  auto sim_changed = rich_options();
  sim_changed.seed = 99;
  EXPECT_NE(trace_key("a", sim_changed), t0);
  EXPECT_NE(report_key("a", sim_changed), r0);
}

TEST(CacheKey, DistinctStagesOfOneConfigurationNeverCollide) {
  const auto opts = rich_options();
  EXPECT_NE(encode(report_key("a", opts, false)),
            encode(metrics_key("a", opts)));
  EXPECT_NE(hash64(report_key("a", opts, false)),
            hash64(metrics_key("a", opts)));
  EXPECT_NE(encode(trace_key("a", opts)), encode(metrics_key("a", opts)));
  EXPECT_NE(encode(report_key("a", opts, true)),
            encode(report_key("a", opts, false)));
}

TEST(CacheKey, HashIsStableAcrossProcessesByConstruction) {
  // FNV-1a over the canonical line: pin one value so an accidental
  // change to the encoding or the hash shows up as a test failure, not
  // as a silently cold cache after an upgrade.
  cache_key key;
  key.stage = cache_stage::trace;
  key.app = "pin";
  key.horizon = 1000;
  key.seed = 1;
  key.policy = 1;
  key.transfer_overhead = 2;
  EXPECT_EQ(encode(key), "stxkey/v1 v=4 stage=trace app=pin horizon=1000 "
                         "seed=1 policy=1 overhead=2");
  EXPECT_EQ(hash_hex(key), [] {
    // Independently computed FNV-1a of the line above.
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : std::string(
             "stxkey/v1 v=4 stage=trace app=pin horizon=1000 "
             "seed=1 policy=1 overhead=2")) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
  }());
}

}  // namespace
}  // namespace stx::explore
