// The acceptance property of the JSON backend: parse(emit(design)) ==
// design, field for field, including awkward doubles — on a hand-built
// report and on a real synthesised one.
#include "gen/json_backend.h"

#include <gtest/gtest.h>

#include "gen/backends.h"
#include "gen/json.h"
#include "gen_test_util.h"
#include "util/error.h"

namespace stx::gen {
namespace {

TEST(JsonRoundTrip, SmallReportRoundTripsExactly) {
  const auto report = testutil::small_report();
  const auto text = emit_json(report);
  const auto back = parse_design(text);
  EXPECT_TRUE(back == report);

  // Spot-check the awkward doubles explicitly (the == above covers them,
  // but a failure here localises the problem).
  EXPECT_EQ(back.request_design.params.overlap_threshold, 0.1 + 0.2);
  EXPECT_EQ(back.response_design.params.overlap_threshold, 1.0 / 3.0);
  EXPECT_EQ(back.designed.avg_latency, 10.0 / 3.0);
}

TEST(JsonRoundTrip, EmitIsStableThroughOneCycle) {
  const auto report = testutil::small_report();
  const auto text = emit_json(report);
  EXPECT_EQ(emit_json(parse_design(text)), text);
}

TEST(JsonRoundTrip, RealMat2DesignRoundTrips) {
  const auto& report = testutil::mat2_report();
  const auto back = parse_design(emit_json(report));
  EXPECT_TRUE(back == report);
  EXPECT_EQ(back.request_design.binding, report.request_design.binding);
  EXPECT_EQ(back.designed.avg_latency, report.designed.avg_latency);
  EXPECT_EQ(back.request_traffic, report.request_traffic);
}

TEST(JsonRoundTrip, BurstAdaptiveDesignKeepsItsBurstWindow) {
  // A burst-adaptive design used to come back with uniform windows
  // (burst_window 0), so a store hit differed from the computed report.
  xbar::flow_options opts;
  opts.horizon = 20'000;
  opts.synth.params.window_size = 400;
  opts.synth.params.burst_window = 100;
  const auto report =
      xbar::run_design_flow(stx::workloads::make_qsort(), opts);
  ASSERT_EQ(report.request_design.params.burst_window, 100);
  const auto doc = design_document(report);
  EXPECT_EQ(doc.at("request").at("params").at("burst_window").as_int(), 100);
  const auto back = parse_design(emit_json(report));
  EXPECT_EQ(back.request_design.params.burst_window, 100);
  EXPECT_EQ(back.response_design.params.burst_window, 100);
  EXPECT_TRUE(back == report);
  // Reading requires the member: a document without it is malformed.
  auto text = emit_json(testutil::small_report());
  const auto at = text.find("\"burst_window\"");
  ASSERT_NE(at, std::string::npos);
  const auto line = text.rfind('\n', at);
  text.erase(line, text.find('\n', at) - line);
  EXPECT_THROW(parse_design(text), invalid_argument_error);
}

TEST(JsonRoundTrip, DocumentIsWhatTheTextParsesTo) {
  // The serve protocol embeds design_document() where it used to embed
  // parse(emit()); the two are the same value, so the wire bytes are too.
  for (const auto& report :
       {testutil::small_report(), testutil::mat2_report()}) {
    const auto doc = design_document(report);
    EXPECT_EQ(json::parse(emit_json(report)), doc);
    EXPECT_EQ(json::dump(doc), emit_json(report));
    EXPECT_TRUE(design_from_document(doc) == report);
  }
  EXPECT_THROW(design_from_document(json::parse("{}")),
               invalid_argument_error);
}

TEST(JsonRoundTrip, MutationsBreakEquality) {
  const auto report = testutil::small_report();
  auto changed = parse_design(emit_json(report));
  changed.request_design.binding[0] ^= 1;
  EXPECT_FALSE(changed == report);
}

TEST(JsonRoundTrip, DocumentCarriesConflictAndCostSummaries) {
  const auto doc = json::parse(emit_json(testutil::small_report()));
  EXPECT_EQ(doc.at("schema").as_string(), "stx-crossbar-design/v1");
  EXPECT_EQ(doc.at("request").at("num_conflicts").as_int(), 2);
  EXPECT_EQ(doc.at("cost").at("designed_buses").as_int(), 5);
  EXPECT_EQ(doc.at("cost").at("savings").as_double(), 8.0 / 5.0);
  EXPECT_EQ(doc.at("application").at("target_names").as_array().size(), 5u);
}

TEST(JsonRoundTrip, RejectsForeignDocuments) {
  EXPECT_THROW(parse_design("{}"), invalid_argument_error);
  EXPECT_THROW(parse_design(R"({"schema": "something-else/v9"})"),
               invalid_argument_error);
  EXPECT_THROW(parse_design("not json at all"), invalid_argument_error);
}

}  // namespace
}  // namespace stx::gen
