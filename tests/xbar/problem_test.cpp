// Unit tests for the synthesis input / pre-processing phase.
#include "xbar/problem.h"

#include <gtest/gtest.h>

#include "traffic/windows.h"
#include "util/error.h"

namespace stx::xbar {
namespace {

/// Hand-built trace: 3 targets, horizon 200, two 100-cycle windows.
/// Target 0: [0,60). Target 1: [30,90). Target 2: [150,180).
traffic::trace make_trace() {
  traffic::trace t(3, 1, 200);
  t.add({0, 0, 0, 60, false});
  t.add({1, 0, 30, 90, false});
  t.add({2, 0, 150, 180, false});
  return t;
}

traffic::window_analysis analyze(const traffic::trace& t) {
  return traffic::window_analysis(
      t, traffic::window_partition::uniform(t.horizon(), 100));
}

design_params params_with(double threshold, int maxtb = 0) {
  design_params p;
  p.window_size = 100;
  p.overlap_threshold = threshold;
  p.max_targets_per_bus = maxtb;
  return p;
}

TEST(SynthesisInput, CopiesCommAndOverlapMatrices) {
  const auto wa = analyze(make_trace());
  const synthesis_input in(wa, params_with(0.5));
  EXPECT_EQ(in.num_targets(), 3);
  EXPECT_EQ(in.num_windows(), 2);
  EXPECT_EQ(in.comm(0, 0), 60);
  EXPECT_EQ(in.comm(0, 1), 0);
  EXPECT_EQ(in.comm(2, 1), 30);
  EXPECT_EQ(in.om(0, 1), 30);  // [30,60)
  EXPECT_EQ(in.om(0, 2), 0);
  EXPECT_EQ(in.om(1, 0), in.om(0, 1));
  EXPECT_EQ(in.om(0, 0), 0);
}

TEST(SynthesisInput, ThresholdIsStrictlyExceeded) {
  // Overlap(0,1) in window 0 is 30 cycles = 0.30 of WS.
  const auto wa = analyze(make_trace());
  const synthesis_input at_threshold(wa, params_with(0.30));
  EXPECT_FALSE(at_threshold.conflict(0, 1));  // 0.30 > 0.30 is false
  const synthesis_input below(wa, params_with(0.29));
  EXPECT_TRUE(below.conflict(0, 1));  // 0.30 > 0.29
  EXPECT_EQ(below.num_conflicts(), 1);
}

TEST(SynthesisInput, OverlapConflictsCanBeDisabled) {
  const auto wa = analyze(make_trace());
  auto p = params_with(0.0);
  p.use_overlap_conflicts = false;
  const synthesis_input in(wa, p);
  EXPECT_EQ(in.num_conflicts(), 0);
}

TEST(SynthesisInput, CriticalOverlapForcesConflict) {
  traffic::trace t(2, 1, 100);
  t.add({0, 0, 0, 50, true});
  t.add({1, 0, 25, 75, true});
  const auto wa = analyze(t);
  auto p = params_with(1.0);  // overlap threshold never fires
  const synthesis_input in(wa, p);
  EXPECT_TRUE(in.conflict(0, 1));

  auto p2 = p;
  p2.separate_critical = false;
  const synthesis_input in2(wa, p2);
  EXPECT_FALSE(in2.conflict(0, 1));
}

TEST(SynthesisInput, BindingFeasibilityChecksAllConstraints) {
  const auto wa = analyze(make_trace());
  const synthesis_input in(wa, params_with(0.5));

  // Bandwidth: window 0 has comm 60 + 60 = 120 > 100 for targets {0,1}.
  EXPECT_FALSE(in.binding_feasible({0, 0, 0}, 1));
  EXPECT_TRUE(in.binding_feasible({0, 1, 0}, 2));
  EXPECT_TRUE(in.binding_feasible({0, 1, 1}, 2));

  // Shape errors.
  EXPECT_FALSE(in.binding_feasible({0, 1}, 2));      // wrong size
  EXPECT_FALSE(in.binding_feasible({0, 1, 5}, 2));   // bus out of range
  EXPECT_FALSE(in.binding_feasible({0, 1, -1}, 2));  // negative bus
}

TEST(SynthesisInput, MaxTbLimitsBusPopulation) {
  const auto wa = analyze(make_trace());
  const synthesis_input in(wa, params_with(0.5, /*maxtb=*/1));
  EXPECT_FALSE(in.binding_feasible({0, 1, 0}, 2));  // bus 0 holds 2 > 1
  EXPECT_TRUE(in.binding_feasible({0, 1, 2}, 3));
}

TEST(SynthesisInput, ConflictBlocksSharedBus) {
  const auto wa = analyze(make_trace());
  const synthesis_input in(wa, params_with(0.1));  // 0-1 conflict
  ASSERT_TRUE(in.conflict(0, 1));
  EXPECT_FALSE(in.binding_feasible({0, 0, 1}, 2));
  EXPECT_TRUE(in.binding_feasible({0, 1, 0}, 2));
}

TEST(SynthesisInput, MaxBusOverlapMatchesHandComputation) {
  const auto wa = analyze(make_trace());
  const synthesis_input in(wa, params_with(0.5));
  // Targets 0,1 share bus 0 -> overlap 30. Target 2 alone -> 0.
  EXPECT_EQ(in.max_bus_overlap({0, 0, 1}, 2), 30);
  EXPECT_EQ(in.max_bus_overlap({0, 1, 1}, 2), 0);
  EXPECT_EQ(in.max_bus_overlap({0, 0, 0}, 1), 30);
}

TEST(SynthesisInput, DirectConstructionValidates) {
  design_params p;
  p.window_size = 100;
  const std::vector<std::vector<cycle_t>> comm = {{50, 10}, {40, 0}};
  const std::vector<std::vector<cycle_t>> om = {{0, 20}, {20, 0}};
  const std::vector<std::vector<bool>> conf = {{false, false},
                                               {false, false}};
  const synthesis_input in(comm, om, conf, 100, p);
  EXPECT_EQ(in.num_targets(), 2);
  EXPECT_EQ(in.num_windows(), 2);
  EXPECT_EQ(in.om(0, 1), 20);

  // Asymmetric om rejected.
  const std::vector<std::vector<cycle_t>> bad_om = {{0, 20}, {10, 0}};
  EXPECT_THROW(synthesis_input(comm, bad_om, conf, 100, p),
               invalid_argument_error);
  // comm above the window size rejected.
  const std::vector<std::vector<cycle_t>> bad_comm = {{150, 10}, {40, 0}};
  EXPECT_THROW(synthesis_input(bad_comm, om, conf, 100, p),
               invalid_argument_error);
  // Nonzero diagonal rejected.
  const std::vector<std::vector<cycle_t>> diag_om = {{5, 20}, {20, 0}};
  EXPECT_THROW(synthesis_input(comm, diag_om, conf, 100, p),
               invalid_argument_error);
}

}  // namespace
}  // namespace stx::xbar
