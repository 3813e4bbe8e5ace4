// DOT topology and Markdown report backends: node/edge coverage and the
// Table-1-style numbers.
#include <gtest/gtest.h>

#include <string>

#include "gen/backends.h"
#include "gen_test_util.h"
#include "util/error.h"

namespace stx::gen {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(DotBackend, DeclaresEveryEndpointAndBus) {
  const auto report = testutil::small_report();
  const auto dot = emit_dot(report, "unit_app_1");

  EXPECT_NE(dot.find("digraph unit_app_1_xbar {"), std::string::npos);
  // Node declarations sit indented inside their cluster ("\n    name ["),
  // which keeps edge lines like "-> ini0 [label" from matching.
  for (int i = 0; i < report.num_initiators; ++i) {
    EXPECT_EQ(count_occurrences(
                  dot, "\n    ini" + std::to_string(i) + " [label"),
              1u);
  }
  for (int t = 0; t < report.num_targets; ++t) {
    EXPECT_EQ(count_occurrences(
                  dot, "\n    tgt" + std::to_string(t) + " [label"),
              1u);
  }
  for (int k = 0; k < report.request_design.num_buses; ++k) {
    EXPECT_EQ(count_occurrences(
                  dot, "\n    req_bus" + std::to_string(k) + " [label"),
              1u);
  }
  for (int k = 0; k < report.response_design.num_buses; ++k) {
    EXPECT_EQ(count_occurrences(
                  dot, "\n    resp_bus" + std::to_string(k) + " [label"),
              1u);
  }
  // Target names appear as labels.
  EXPECT_NE(dot.find("SharedMem"), std::string::npos);
}

TEST(DotBackend, BindingEdgesMatchTheDesign) {
  const auto report = testutil::small_report();
  const auto dot = emit_dot(report, "unit_app_1");

  // One bus->receiver edge per receiving endpoint, to the bound bus.
  for (int t = 0; t < report.num_targets; ++t) {
    const int k =
        report.request_design.binding[static_cast<std::size_t>(t)];
    EXPECT_EQ(count_occurrences(dot, "req_bus" + std::to_string(k) +
                                         " -> tgt" + std::to_string(t)),
              1u)
        << t;
  }
  for (int i = 0; i < report.num_initiators; ++i) {
    const int k =
        report.response_design.binding[static_cast<std::size_t>(i)];
    EXPECT_EQ(count_occurrences(dot, "resp_bus" + std::to_string(k) +
                                         " -> ini" + std::to_string(i)),
              1u)
        << i;
  }
}

TEST(DotBackend, TrafficWeightsBecomeEdgeLabels) {
  const auto report = testutil::small_report();
  const auto dot = emit_dot(report, "unit_app_1");
  // core2 pushes 400 cycles to IntDev (bus 2): the sender->bus edge must
  // carry that weight.
  EXPECT_NE(dot.find("ini2 -> req_bus2 [label=\"400\""), std::string::npos);
  // Zero-traffic sender->bus pairs are omitted when traffic is known.
  EXPECT_EQ(dot.find("ini0 -> req_bus2"), std::string::npos);
}

TEST(DotBackend, RealMat2DesignRenders) {
  const auto dot = emit_dot(testutil::mat2_report(), "mat2");
  EXPECT_NE(dot.find("digraph mat2_xbar"), std::string::npos);
  EXPECT_EQ(count_occurrences(dot, "subgraph cluster_"), 4u);
}

TEST(DotBackend, BasenameNamesTheGraph) {
  const auto dot = emit_dot(testutil::small_report(), "soc_a");
  EXPECT_NE(dot.find("digraph soc_a_xbar {"), std::string::npos);
}

TEST(DotBackend, RejectsMalformedReports) {
  // A binding with an out-of-range bus id (e.g. from hand-edited JSON fed
  // through parse_design) must throw, not index out of bounds.
  auto report = testutil::small_report();
  report.request_design.binding[0] = 99;
  EXPECT_THROW(emit_dot(report, "x"), stx::invalid_argument_error);
  auto negative = testutil::small_report();
  negative.response_design.binding[0] = -1;
  EXPECT_THROW(emit_dot(negative, "x"), stx::invalid_argument_error);
}

TEST(ReportBackend, CarriesTable1StyleNumbers) {
  const auto report = testutil::small_report();
  const auto md = emit_report(report);

  EXPECT_NE(md.find("# Crossbar design report — Unit App-1"),
            std::string::npos);
  // Cost summary: 8 full buses vs 5 designed, 1.60x savings.
  EXPECT_NE(md.find("**5** vs **8**"), std::string::npos);
  EXPECT_NE(md.find("**1.60x** component savings"), std::string::npos);
  // Per-direction rows with conflict-pair counts.
  EXPECT_NE(md.find("| request (ini→tgt) | 5 | 3 | 1.67x | 2 | 123 |"),
            std::string::npos);
  EXPECT_NE(md.find("response (tgt→ini) | 3 | 2 |"), std::string::npos);
  // Latency table and ratio.
  EXPECT_NE(md.find("| designed partial | 3.33 |"), std::string::npos);
  EXPECT_NE(md.find("1.33x**"), std::string::npos);
  // Bus membership section names the targets.
  EXPECT_NE(md.find("- bus 0: Private0 SharedMem"), std::string::npos);
  EXPECT_NE(md.find("- bus 1: core1"), std::string::npos);
}

TEST(ReportBackend, RealMat2DesignRenders) {
  const auto md = emit_report(testutil::mat2_report());
  EXPECT_NE(md.find("# Crossbar design report — Mat2"), std::string::npos);
  EXPECT_NE(md.find("## Crossbar cost"), std::string::npos);
  EXPECT_NE(md.find("## Validation latency"), std::string::npos);
}

}  // namespace
}  // namespace stx::gen
