// Structural invariants of the generated SystemVerilog: one arbiter per
// bus, every receiving endpoint decoded exactly once and demuxed exactly
// once, in both the hand-built and a real synthesised design.
#include "gen/backends.h"

#include <gtest/gtest.h>

#include <string>

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

/// The body of `module <name> ... endmodule`.
std::string module_text(const std::string& sv, const std::string& name) {
  const auto begin = sv.find("module " + name + " ");
  EXPECT_NE(begin, std::string::npos) << "module " << name << " missing";
  const auto end = sv.find("endmodule", begin);
  EXPECT_NE(end, std::string::npos);
  return sv.substr(begin, end - begin);
}

/// Checks the per-direction invariants on one emitted module.
void check_direction_module(const std::string& sv, const std::string& name,
                            int num_buses, const std::vector<int>& binding) {
  const auto body = module_text(sv, name);
  const int num_dst = static_cast<int>(binding.size());

  // Exactly one round-robin arbiter instance per bus.
  for (int k = 0; k < num_buses; ++k) {
    EXPECT_EQ(count_occurrences(body,
                                "u_arb_bus" + std::to_string(k) + " ("),
              1u)
        << name << " bus " << k;
  }
  EXPECT_EQ(count_occurrences(body, "u_arb_bus"),
            static_cast<std::size_t>(num_buses))
      << name;

  // Every destination appears exactly once in the decode function...
  for (int t = 0; t < num_dst; ++t) {
    const std::string decode = "'d" + std::to_string(t) + ": bus_of = ";
    EXPECT_EQ(count_occurrences(body, decode), 1u)
        << name << " decode of target " << t;
    // ...routed to its bound bus...
    const auto pos = body.find(decode);
    ASSERT_NE(pos, std::string::npos);
    const auto line = body.substr(pos, body.find('\n', pos) - pos);
    EXPECT_NE(line.find("'d" +
                        std::to_string(
                            binding[static_cast<std::size_t>(t)]) +
                        ";"),
              std::string::npos)
        << name << " target " << t << " decoded to the wrong bus: " << line;
    // ...and exactly once in the output demux.
    EXPECT_EQ(count_occurrences(
                  body, "dst_valid[" + std::to_string(t) + "] = bus" +
                            std::to_string(binding[static_cast<std::size_t>(
                                t)]) +
                            "_valid"),
              1u)
        << name << " demux of target " << t;
  }
  EXPECT_EQ(count_occurrences(body, "dst_valid["),
            static_cast<std::size_t>(num_dst))
      << name;
}

TEST(RtlBackend, SmallReportStructure) {
  const auto report = testutil::small_report();
  const auto sv = emit_sv(report, "unit_app_1");

  // All four modules present, exactly once each.
  EXPECT_EQ(count_occurrences(sv, "module unit_app_1_rr_arbiter"), 1u);
  EXPECT_EQ(count_occurrences(sv, "module unit_app_1_req_xbar"), 1u);
  EXPECT_EQ(count_occurrences(sv, "module unit_app_1_resp_xbar"), 1u);
  EXPECT_EQ(count_occurrences(sv, "module unit_app_1_xbar "), 1u);
  EXPECT_EQ(count_occurrences(sv, "endmodule"), 4u);

  check_direction_module(sv, "unit_app_1_req_xbar",
                         report.request_design.num_buses,
                         report.request_design.binding);
  check_direction_module(sv, "unit_app_1_resp_xbar",
                         report.response_design.num_buses,
                         report.response_design.binding);

  // Target names and traffic annotations survive into comments.
  EXPECT_NE(sv.find("SharedMem"), std::string::npos);
  EXPECT_NE(sv.find("busy cycles"), std::string::npos);

  // The top instantiates both directions.
  const auto top = module_text(sv, "unit_app_1_xbar");
  EXPECT_EQ(count_occurrences(top, "u_req_xbar"), 1u);
  EXPECT_EQ(count_occurrences(top, "u_resp_xbar"), 1u);
}

TEST(RtlBackend, RealMat2DesignStructure) {
  const auto& report = testutil::mat2_report();
  const auto sv = emit_sv(report, "mat2");
  check_direction_module(sv, "mat2_req_xbar",
                         report.request_design.num_buses,
                         report.request_design.binding);
  check_direction_module(sv, "mat2_resp_xbar",
                         report.response_design.num_buses,
                         report.response_design.binding);
}

TEST(RtlBackend, DeterministicEmission) {
  const auto report = testutil::small_report();
  EXPECT_EQ(emit_sv(report, "unit_app_1"),
            emit_sv(report, "unit_app_1"));
}

TEST(RtlBackend, BasenameBecomesTheModulePrefix) {
  // A custom generate_options::basename must rename the modules too, so
  // the file stem and its contents never disagree.
  const auto sv = emit_sv(testutil::small_report(), "soc_a");
  EXPECT_EQ(count_occurrences(sv, "module soc_a_rr_arbiter"), 1u);
  EXPECT_EQ(count_occurrences(sv, "module soc_a_req_xbar"), 1u);
  EXPECT_EQ(count_occurrences(sv, "module soc_a_resp_xbar"), 1u);
  EXPECT_EQ(count_occurrences(sv, "module soc_a_xbar "), 1u);
  EXPECT_EQ(sv.find("unit_app_1"), std::string::npos);
}

TEST(RtlBackend, RejectsMalformedReports) {
  auto report = testutil::small_report();
  report.request_design.binding[0] = 99;  // bus id out of range
  EXPECT_THROW(emit_sv(report, "unit_app_1"), invalid_argument_error);

  auto empty = xbar::flow_report{};
  EXPECT_THROW(emit_sv(empty, "x"), invalid_argument_error);
}

}  // namespace
}  // namespace stx::gen
