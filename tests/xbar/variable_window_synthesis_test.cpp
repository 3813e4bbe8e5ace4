// Tests for synthesis over variable window partitions (future-work
// extension): per-window capacities flow through the feasibility model,
// the specialised solver and the MILP identically, and burst_window
// selects the burst-adaptive partition in input_from_trace.
#include <gtest/gtest.h>

#include "traffic/windows.h"
#include "xbar/bb_solver.h"
#include "xbar/milp_formulation.h"
#include "xbar/synthesis.h"

namespace stx::xbar {
namespace {

/// Two targets, one dense phase [0,100) and one quiet phase [100,1000).
/// Both targets are 60-cycle busy in the dense phase.
traffic::trace make_two_phase_trace() {
  traffic::trace t(2, 1, 1000);
  t.add({0, 0, 0, 60, false});
  t.add({1, 0, 20, 80, false});
  t.add({0, 0, 500, 520, false});
  t.add({1, 0, 700, 730, false});
  return t;
}

TEST(VariableWindowSynthesis, FinePartitionSeparatesDensePhase) {
  const auto t = make_two_phase_trace();
  design_params p;
  p.window_size = 100;  // nominal; capacities come from the partition
  p.use_overlap_conflicts = false;
  p.max_targets_per_bus = 0;

  // Fine window over the dense phase: 60+60 > 100 -> two buses.
  const traffic::window_analysis fine(
      t, traffic::window_partition({0, 100, 1000}));
  const synthesis_input fine_in(fine, p);
  EXPECT_EQ(fine_in.capacity(0), 100);
  EXPECT_EQ(fine_in.capacity(1), 900);
  EXPECT_FALSE(find_feasible_binding(fine_in, 1).has_value());
  EXPECT_TRUE(find_feasible_binding(fine_in, 2).has_value());

  // One coarse window: 170 busy in 1000 -> a single bus "fits" (exactly
  // the averaging failure mode variable windows exist to avoid).
  const traffic::window_analysis coarse(
      t, traffic::window_partition({0, 1000}));
  const synthesis_input coarse_in(coarse, p);
  EXPECT_TRUE(find_feasible_binding(coarse_in, 1).has_value());
}

TEST(VariableWindowSynthesis, MilpAgreesWithSpecialisedSolver) {
  const auto t = make_two_phase_trace();
  design_params p;
  p.window_size = 100;
  p.use_overlap_conflicts = false;
  p.max_targets_per_bus = 0;
  const traffic::window_analysis vwa(
      t, traffic::window_partition({0, 100, 400, 1000}));
  const synthesis_input in(vwa, p);
  for (int buses = 1; buses <= 2; ++buses) {
    EXPECT_EQ(find_feasible_binding(in, buses).has_value(),
              solve_feasibility_milp(in, buses).has_value())
        << "buses=" << buses;
  }
}

TEST(VariableWindowSynthesis, SynthesizeWorksOnVariableInput) {
  const auto t = make_two_phase_trace();
  design_params p;
  p.window_size = 100;
  p.use_overlap_conflicts = true;
  p.overlap_threshold = 0.30;
  p.max_targets_per_bus = 0;
  const traffic::window_analysis vwa(
      t, traffic::window_partition::burst_adaptive(t, 80, 50, 500));
  const synthesis_input in(vwa, p);
  synthesis_options opts;
  opts.params = p;
  const auto design = synthesize(in, opts);
  EXPECT_GE(design.num_buses, 2);  // dense-phase overlap is 40% > 30%
  EXPECT_TRUE(in.binding_feasible(design.binding, design.num_buses));
}

TEST(VariableWindowSynthesis, ThresholdRelativeToOwnWindow) {
  const auto t = make_two_phase_trace();
  design_params p;
  p.window_size = 100;
  p.overlap_threshold = 0.30;  // overlap [20,60) = 40 cycles, 40% of 100
  p.max_targets_per_bus = 0;
  const traffic::window_analysis fine(
      t, traffic::window_partition({0, 100, 1000}));
  const synthesis_input in(fine, p);
  EXPECT_TRUE(in.conflict(0, 1));

  // With a single 1000-cycle window the same 40 cycles is only 4%.
  const traffic::window_analysis coarse(
      t, traffic::window_partition({0, 1000}));
  const synthesis_input in2(coarse, p);
  EXPECT_FALSE(in2.conflict(0, 1));
}

TEST(VariableWindowSynthesis, InputFromTraceUsesTheBurstAdaptivePartition) {
  const auto t = make_two_phase_trace();
  design_params p;
  p.window_size = 100;
  p.burst_window = 80;
  const auto in = input_from_trace(t, p);
  const traffic::window_analysis wa(
      t, traffic::window_partition::burst_adaptive(t, 80, 25, 400));
  const synthesis_input expected(wa, p);
  ASSERT_EQ(in.num_windows(), expected.num_windows());
  EXPECT_EQ(in.window_size(), wa.partition().max_size());
  for (int m = 0; m < in.num_windows(); ++m) {
    EXPECT_EQ(in.capacity(m), wa.partition().size(m));
    for (int i = 0; i < in.num_targets(); ++i) {
      EXPECT_EQ(in.comm(i, m), expected.comm(i, m));
    }
  }
  EXPECT_EQ(in.om(0, 1), expected.om(0, 1));
  EXPECT_EQ(in.conflict(0, 1), expected.conflict(0, 1));
}

TEST(VariableWindowSynthesis, HugeWindowWithBurstWindowIsOneWindow) {
  // The clamp [WS/4, 4*WS] lies past the horizon: one window, whose
  // capacity is its length.
  const auto t = make_two_phase_trace();
  design_params p;
  p.window_size = 3'000'000'000'000'000'000;
  p.burst_window = 80;
  const auto in = input_from_trace(t, p);
  ASSERT_EQ(in.num_windows(), 1);
  EXPECT_EQ(in.capacity(0), 1000);
  EXPECT_EQ(in.window_size(), 1000);
}

}  // namespace
}  // namespace stx::xbar
