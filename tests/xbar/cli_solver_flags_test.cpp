// CLI validation of the solver budget flags: --solver-node-limit and
// --solver-time-ms on xbargen and xbar-sweep must reject malformed or
// out-of-range values with exit code 2 (usage error) BEFORE any
// simulation starts, and must actually reach solver_options when valid —
// a starved node budget on the generic-MILP path fails the run (exit 1,
// runtime error), proving the plumbing is live. The flow knobs
// flow_options::validate rejects (horizon, window, threshold, burst
// window) exit 2 the same way.
//
// The binaries are exercised through std::system; their paths are
// injected by CMake. Output is routed to /dev/null so failures stay
// readable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include <sys/wait.h>

namespace {

int run(const std::string& cmd) {
  const int status =
      std::system((cmd + " >/dev/null 2>/dev/null").c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

const std::string kXbargen = STX_XBARGEN_BIN;
const std::string kXbarSweep = STX_XBAR_SWEEP_BIN;

TEST(CliSolverFlags, XbargenRejectsInvalidBudgetsWithExit2) {
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-node-limit=0"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-node-limit=-7"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-node-limit=abc"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-time-ms=-1"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-time-ms=soon"), 2);
}

TEST(CliSolverFlags, XbarSweepRejectsInvalidBudgetsWithExit2) {
  const std::string grid = " --grid win=200 --validate=false";
  EXPECT_EQ(run(kXbarSweep + grid + " --solver-node-limit=0"), 2);
  EXPECT_EQ(run(kXbarSweep + grid + " --solver-node-limit=x"), 2);
  EXPECT_EQ(run(kXbarSweep + grid + " --solver-time-ms=-20"), 2);
}

TEST(CliSolverFlags, InvalidFlowKnobsExit2BeforeSimulating) {
  // At --window=0 the flow used to fail only after phase 1 (exit 1), and
  // at --horizon=0 it printed a -nan latency ratio and exited 0.
  EXPECT_EQ(run(kXbargen + " --app=qsort --window=0"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --horizon=0"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --threshold=-0.5"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --threshold=nan"), 2);
  EXPECT_EQ(run(kXbargen + " --trace=/nonexistent.req --window=0"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --grid thr=0.3 --horizon=0"), 2);
  EXPECT_EQ(run(kXbarSweep + " --grid win=200 --horizon=0"), 2);
  EXPECT_EQ(run(kXbarSweep + " --grid thr=inf"), 2);
  EXPECT_EQ(run(kXbarSweep + " --grid burstwin=-1"), 2);
}

TEST(CliSolverFlags, ValidBudgetsRunAndStarvedBudgetsFailAtRuntime) {
  // Generous budgets: the flow completes (exit 0).
  EXPECT_EQ(run(kXbargen +
                " --app=qsort --horizon=3000 --solver-node-limit=5000000 "
                "--solver-time-ms=60000"),
            0);
  // A one-node budget on the generic-MILP path starves the solver: the
  // run fails as a RUNTIME error (exit 1), not a usage error — and the
  // failure proves the flag reached solver_options. (The horizon is big
  // enough that the binding MILP cannot be proven optimal at the root.)
  EXPECT_EQ(run(kXbargen +
                " --app=qsort --horizon=8000 --solver=milp "
                "--solver-node-limit=1"),
            1);
}

}  // namespace
