// CLI validation of the flags: xbargen and xbar-sweep read every flag
// before any work, so a malformed or out-of-range value — a solver
// budget, a flow knob (read by the serve protocol's reader), a value that
// does not fit the `int` it lands in, the flow knobs
// flow_options::validate rejects — exits 2 (usage error) BEFORE any
// simulation starts. Valid budgets must actually reach solver_options: a
// starved node budget on the generic-MILP path fails the run (exit 1,
// runtime error), proving the plumbing is live. An unknown --emit
// backend, an unknown --solver and xbar-serve's malformed pool, timeout
// and retry flags exit 2 the same way.
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
const std::string kXbarServe = STX_XBAR_SERVE_BIN;

TEST(CliSolverFlags, XbargenRejectsInvalidBudgetsWithExit2) {
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-node-limit=0"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-node-limit=-7"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-node-limit=abc"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-time-ms=-1"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver-time-ms=soon"), 2);
}

TEST(CliSolverFlags, XbargenRejectsMalformedKnobsWithExit2) {
  // These used to run (a wide maxtb or thread count was narrowed to 1)
  // or fail as runtime errors (exit 1) after reading started the work.
  const std::string app = kXbargen + " --app=qsort";
  EXPECT_EQ(run(app + " --maxtb=4294967297"), 2);
  EXPECT_EQ(run(app + " --solver-threads=4294967297"), 2);
  EXPECT_EQ(run(app + " --maxtb=abc"), 2);
  EXPECT_EQ(run(app + " --window=abc"), 2);
  EXPECT_EQ(run(app + " --threshold=x"), 2);
  EXPECT_EQ(run(app + " --horizon=abc"), 2);
  EXPECT_EQ(run(app + " --conflicts=maybe"), 2);
  EXPECT_EQ(run(app + " --cache-max-bytes=-1"), 2);
  // The sweep front end moved to xbar-sweep.
  EXPECT_EQ(run(app + " --grid thr=0.3"), 2);
}

TEST(CliSolverFlags, XbarSweepRejectsMalformedFlagsWithExit2) {
  const std::string grid = kXbarSweep + " --grid win=200";
  EXPECT_EQ(run(grid + " --seed=abc"), 2);
  EXPECT_EQ(run(grid + " --validate=maybe"), 2);
  EXPECT_EQ(run(grid + " --conflicts=maybe"), 2);
  EXPECT_EQ(run(grid + " --threads=0"), 2);
  EXPECT_EQ(run(grid + " --threads=4294967297"), 2);
  EXPECT_EQ(run(grid + " --cache-max-bytes=-1"), 2);
  EXPECT_EQ(run(kXbarSweep + " --grid maxtb=4294967297"), 2);
  EXPECT_EQ(run(grid + " --app=mat2,bogus"), 2);
}

TEST(CliSolverFlags, XbarSweepTakesTheKnobsNoAxisCovers) {
  // --conflicts and --critical reach the synthesis base of every point.
  EXPECT_EQ(run(kXbarSweep + " --app=qsort --grid win=400 --horizon=3000 "
                             "--validate=false --conflicts=false "
                             "--critical=false"),
            0);
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
  EXPECT_EQ(run(kXbarSweep + " --grid thr=0.3 --horizon=0"), 2);
  EXPECT_EQ(run(kXbarSweep + " --grid win=200 --horizon=0"), 2);
  EXPECT_EQ(run(kXbarSweep + " --grid thr=inf"), 2);
  EXPECT_EQ(run(kXbarSweep + " --grid burstwin=-1"), 2);
}

TEST(CliSolverFlags, XbargenRejectsUnknownEmitBackendsWithExit2) {
  EXPECT_EQ(run(kXbargen + " --app=qsort --emit=vhdl"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --emit=sv,vhdl"), 2);
  // "all" selects every backend; it does not excuse a typo beside it.
  EXPECT_EQ(run(kXbargen + " --app=qsort --emit=all,vhdl"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --emit=vhdl,all"), 2);
}

TEST(CliSolverFlags, XbargenRejectsUnknownSolversWithExit2) {
  // Any value but the grid's solver names used to run the specialised
  // engine and exit 0; the serve protocol's "generic_milp" is not a
  // CLI spelling either.
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver=milpp"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver=generic_milp"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --solver="), 2);
  EXPECT_EQ(run(kXbarSweep + " --grid thr=0.3 --grid solver=x"), 2);
  EXPECT_EQ(run(kXbargen + " --app=qsort --horizon=3000 --solver=specialized"),
            0);
}

TEST(CliSolverFlags, XbarServeRejectsInvalidPoolFlagsWithExit2) {
  // Each of these is refused before the service or the server exists,
  // or before the client connects. The socket's directory does not
  // exist, so a daemon that did start would fail to bind (exit 1)
  // instead of serving forever, and a client would fail to connect.
  const std::string serve = kXbarServe + " --socket=/nonexistent/x.sock";
  EXPECT_EQ(run(serve + " --workers=0"), 2);
  EXPECT_EQ(run(serve + " --workers=-1"), 2);
  EXPECT_EQ(run(serve + " --workers=abc"), 2);
  EXPECT_EQ(run(serve + " --workers=4294967297"), 2);
  EXPECT_EQ(run(serve + " --queue=0"), 2);
  EXPECT_EQ(run(serve + " --queue=2x"), 2);
  EXPECT_EQ(run(serve + " --cache-max-bytes=-1"), 2);
  // Timeouts are 0 to INT_MAX; these used to be accepted (a negative
  // idle timeout meant never) or narrowed.
  EXPECT_EQ(run(serve + " --io-timeout-ms=-1"), 2);
  EXPECT_EQ(run(serve + " --idle-timeout-ms=-1"), 2);
  EXPECT_EQ(run(serve + " --drain-ms=-1"), 2);
  EXPECT_EQ(run(serve + " --drain-ms=4294967297"), 2);
  EXPECT_EQ(run(serve + " --workers=1"), 1);  // valid flags: bind fails
  // Client mode reads its retry flags before connecting.
  const std::string client = serve + " --client='{\"op\":\"ping\"}'";
  EXPECT_EQ(run(client + " --retries=abc"), 2);
  EXPECT_EQ(run(client + " --retries=0"), 2);
  EXPECT_EQ(run(client + " --retry-backoff-ms=-1"), 2);
  EXPECT_EQ(run(client + " --retries=2 --retry-backoff-ms=0"), 1);
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
