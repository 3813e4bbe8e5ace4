// Unit tests for the MPSoC application models.
#include "workloads/mpsoc_apps.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "workloads/synthetic.h"

namespace stx::workloads {
namespace {

TEST(Apps, CoreCountsMatchThePaper) {
  EXPECT_EQ(make_mat1().total_cores(), 25);
  EXPECT_EQ(make_mat2().total_cores(), 21);
  EXPECT_EQ(make_fft().total_cores(), 29);
  EXPECT_EQ(make_qsort().total_cores(), 15);
  EXPECT_EQ(make_des().total_cores(), 19);
}

TEST(Apps, AllAppsValidate) {
  for (const auto& app : all_mpsoc_apps()) {
    EXPECT_NO_THROW(app.validate()) << app.name;
    EXPECT_EQ(static_cast<int>(app.programs.size()), app.num_initiators)
        << app.name;
  }
}

TEST(Apps, Mat2HasTheFigure2Roles) {
  const auto app = make_mat2();
  EXPECT_EQ(app.num_initiators, 9);
  EXPECT_EQ(app.num_targets, 12);
  EXPECT_EQ(app.shared_mem, 9);
  EXPECT_EQ(app.semaphore, 10);
  EXPECT_EQ(app.interrupt_dev, 11);
  EXPECT_EQ(app.private_mem.size(), 9u);
  EXPECT_EQ(app.target_names[10], "Semaphore");
}

TEST(Apps, Mat2ProgramsTouchPrivateSharedAndSync) {
  const auto app = make_mat2();
  for (int i = 0; i < app.num_initiators; ++i) {
    bool touches_private = false, touches_shared = false, has_barrier = false;
    for (const auto& op : app.programs[static_cast<std::size_t>(i)]) {
      if (op.op == sim::core_op::kind::barrier) has_barrier = true;
      if (op.op == sim::core_op::kind::read ||
          op.op == sim::core_op::kind::write) {
        touches_private |= op.target == i;
        touches_shared |= op.target == app.shared_mem;
      }
    }
    EXPECT_TRUE(touches_private) << "core " << i;
    EXPECT_TRUE(touches_shared) << "core " << i;
    EXPECT_TRUE(has_barrier) << "core " << i;
  }
}

TEST(Apps, Mat2CriticalMarksExactlyTwoCoresPrivateStreams) {
  const auto app = make_mat2_critical();
  int critical_cores = 0;
  for (int i = 0; i < app.num_initiators; ++i) {
    bool any = false;
    for (const auto& op : app.programs[static_cast<std::size_t>(i)]) {
      any |= op.critical;
    }
    critical_cores += any ? 1 : 0;
  }
  EXPECT_EQ(critical_cores, 2);
}

TEST(Apps, DesIsAStreamingPipeline) {
  const auto app = make_des();
  for (int i = 0; i < app.num_initiators; ++i) {
    bool reads_own = false, writes_next = false;
    for (const auto& op : app.programs[static_cast<std::size_t>(i)]) {
      if (op.op == sim::core_op::kind::read && op.target == i) {
        reads_own = true;
      }
      if (op.op == sim::core_op::kind::write && op.target == i + 1) {
        writes_next = true;
      }
    }
    EXPECT_TRUE(reads_own) << "stage " << i;
    EXPECT_TRUE(writes_next) << "stage " << i;
  }
}

TEST(Apps, FftUsesPerParityStageBarriers) {
  const auto app = make_fft();
  for (int i = 0; i < app.num_initiators; ++i) {
    bool barrier_found = false;
    for (const auto& op : app.programs[static_cast<std::size_t>(i)]) {
      if (op.op == sim::core_op::kind::barrier) {
        barrier_found = true;
        // Even and odd butterfly groups sync separately (7 cores each).
        EXPECT_EQ(op.group_size, 7);
        EXPECT_EQ(op.barrier_id, 1 + i % 2);
      }
    }
    EXPECT_TRUE(barrier_found) << "core " << i;
  }
  // Odd banks carry the half-stage skew prologue.
  EXPECT_EQ(app.loop_starts[0], 0u);
  EXPECT_EQ(app.loop_starts[1], 1u);
}

TEST(Synthetic, DefaultShapeIsTwentyCores) {
  const auto app = make_synthetic();
  EXPECT_EQ(app.num_initiators, 10);
  EXPECT_EQ(app.num_targets, 10);
  EXPECT_EQ(app.total_cores(), 20);
  app.validate();
}

TEST(Synthetic, BurstSizeControlsPacketCount) {
  synthetic_params small;
  small.burst_cycles = 160;
  small.packet_cells = 16;
  synthetic_params big = small;
  big.burst_cycles = 1600;
  const auto app_small = make_synthetic(small);
  const auto app_big = make_synthetic(big);
  EXPECT_GT(app_big.programs[0].size(), app_small.programs[0].size());
}

TEST(Synthetic, PhaseSpreadCreatesPrologues) {
  synthetic_params p;
  p.phase_spread = 0.5;
  const auto app = make_synthetic(p);
  // Core 0 has no offset; later cores carry a one-time prologue.
  EXPECT_EQ(app.loop_starts[0], 0u);
  EXPECT_EQ(app.loop_starts[5], 1u);
  EXPECT_EQ(app.programs[5][0].op, sim::core_op::kind::compute);
  EXPECT_GT(app.programs[5][0].cycles, 0);
}

TEST(Synthetic, ZeroSpreadMeansNoPrologues) {
  synthetic_params p;
  p.phase_spread = 0.0;
  const auto app = make_synthetic(p);
  for (const auto ls : app.loop_starts) EXPECT_EQ(ls, 0u);
}

TEST(Synthetic, CrossTrafficTargetsNeighbour) {
  synthetic_params p;
  p.cross_traffic = true;
  const auto app = make_synthetic(p);
  bool found = false;
  for (const auto& op : app.programs[3]) {
    if (op.op != sim::core_op::kind::compute && op.target == 4) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Synthetic, RejectsBadParameters) {
  synthetic_params odd;
  odd.num_cores = 7;
  EXPECT_THROW(make_synthetic(odd), invalid_argument_error);
  synthetic_params tiny;
  tiny.num_cores = 2;
  EXPECT_THROW(make_synthetic(tiny), invalid_argument_error);
  synthetic_params bad_read;
  bad_read.read_fraction = 1.5;
  EXPECT_THROW(make_synthetic(bad_read), invalid_argument_error);
  synthetic_params neg_read;
  neg_read.read_fraction = -0.1;
  EXPECT_THROW(make_synthetic(neg_read), invalid_argument_error);
  synthetic_params bad_spread;
  bad_spread.phase_spread = 1.25;
  EXPECT_THROW(make_synthetic(bad_spread), invalid_argument_error);
  synthetic_params neg_spread;
  neg_spread.phase_spread = -0.5;
  EXPECT_THROW(make_synthetic(neg_spread), invalid_argument_error);
  synthetic_params neg_gap;
  neg_gap.gap_cycles = -1;
  EXPECT_THROW(make_synthetic(neg_gap), invalid_argument_error);
  synthetic_params no_burst;
  no_burst.burst_cycles = 0;
  EXPECT_THROW(make_synthetic(no_burst), invalid_argument_error);
}

TEST(Synthetic, BoundaryParametersAreAccepted) {
  synthetic_params p;
  p.phase_spread = 1.0;
  p.read_fraction = 1.0;
  p.gap_cycles = 0;
  p.num_cores = 4;
  const auto app = make_synthetic(p);
  app.validate();
  EXPECT_EQ(app.total_cores(), 4);
}

TEST(AppSpec, ValidateCatchesBrokenSpecs) {
  auto app = make_mat2();
  app.programs.pop_back();
  EXPECT_THROW(app.validate(), invalid_argument_error);

  auto app2 = make_mat2();
  app2.programs[0][1].target = 99;
  EXPECT_THROW(app2.validate(), invalid_argument_error);
}

TEST(AppSpec, MakeSessionRunsEveryApp) {
  for (const auto& app : all_mpsoc_apps()) {
    auto session = make_full_crossbar_session(app);
    session.run(5000);
    EXPECT_GT(session.metrics().transactions, 0) << app.name;
    EXPECT_FALSE(session.request_trace().empty()) << app.name;
  }
}

}  // namespace
}  // namespace stx::workloads
