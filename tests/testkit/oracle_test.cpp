// Oracle tests: a clean flow passes, and every invariant fires on a
// report tampered to violate exactly it.
#include "testkit/oracle.h"

#include <gtest/gtest.h>

#include "testkit/scenario.h"

namespace stx::testkit {
namespace {

/// One real, small flow shared by all tests (runs once per binary).
struct flow_fixture {
  workloads::app_spec app;
  xbar::flow_options opts;
  xbar::collected_traces traces;
  xbar::flow_report report;
};

const flow_fixture& fixture() {
  static const flow_fixture f = [] {
    scenario s;
    s.seed = 5;
    s.num_initiators = 3;
    s.num_targets = 3;
    s.burst_cycles = 400;
    s.packet_cells = 8;
    s.gap_cycles = 800;
    s.phase_spread = 0.3;
    s.read_fraction = 0.25;
    s.window_size = 400;
    s.horizon = 15'000;
    flow_fixture out;
    out.app = s.make_app();
    out.opts = s.make_flow_options();
    // As run_scenario does: the full reference is phase 1's harvest.
    out.traces = xbar::collect_traces(out.app, out.opts);
    out.report = xbar::synthesize_design(out.app, out.traces, out.opts);
    xbar::validate_design(out.app, out.opts, out.traces.full, out.report);
    return out;
  }();
  return f;
}

bool has_invariant(const std::vector<violation>& vs, const std::string& tag) {
  for (const auto& v : vs) {
    if (v.invariant == tag) return true;
  }
  return false;
}

TEST(Oracle, CleanFlowHasNoViolations) {
  const auto& f = fixture();
  const auto vs =
      check_flow_invariants(f.app, f.traces, f.opts, f.report);
  EXPECT_TRUE(vs.empty()) << to_string(vs);
}

TEST(Oracle, ShapeCatchesDimensionMismatch) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.num_targets += 1;
  std::vector<violation> vs;
  check_shape(f.app, broken, &vs);
  EXPECT_TRUE(has_invariant(vs, "shape")) << to_string(vs);

  auto broken2 = f.report;
  broken2.target_names.pop_back();
  vs.clear();
  check_shape(f.app, broken2, &vs);
  EXPECT_TRUE(has_invariant(vs, "shape")) << to_string(vs);
}

TEST(Oracle, CoverageCatchesOrphanEndpoint) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.request_design.binding[0] = 99;  // traffic-carrying, unroutable
  std::vector<violation> vs;
  check_coverage(broken, &vs);
  EXPECT_TRUE(has_invariant(vs, "coverage")) << to_string(vs);
}

TEST(Oracle, CoverageCatchesDeadBus) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.response_design.num_buses += 1;  // one bus nobody is bound to
  std::vector<violation> vs;
  check_coverage(broken, &vs);
  EXPECT_TRUE(has_invariant(vs, "coverage")) << to_string(vs);
}

TEST(Oracle, BusBoundCatchesCostInflation) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.designed_buses = broken.full_buses + 5;
  std::vector<violation> vs;
  check_bus_bounds(f.app, broken, &vs);
  EXPECT_TRUE(has_invariant(vs, "bus-bound")) << to_string(vs);

  auto broken2 = f.report;
  broken2.request_design.num_buses = broken2.num_targets + 3;
  vs.clear();
  check_bus_bounds(f.app, broken2, &vs);
  EXPECT_TRUE(has_invariant(vs, "bus-bound")) << to_string(vs);
}

TEST(Oracle, LatencyCatchesDegradationBeyondBound) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.designed.avg_latency =
      broken.full.avg_latency * 1000.0 + 10'000.0;
  std::vector<violation> vs;
  check_latency(broken, oracle_options{}, &vs);
  EXPECT_TRUE(has_invariant(vs, "latency")) << to_string(vs);
}

TEST(Oracle, LatencyCatchesStarvation) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.designed.packets = 0;
  std::vector<violation> vs;
  check_latency(broken, oracle_options{}, &vs);
  EXPECT_TRUE(has_invariant(vs, "latency")) << to_string(vs);
}

TEST(Oracle, MetricsCatchDisorderedStats) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.designed.p99_latency = broken.designed.max_latency + 1.0;
  std::vector<violation> vs;
  check_metrics(broken, &vs);
  EXPECT_TRUE(has_invariant(vs, "metrics")) << to_string(vs);
}

TEST(Oracle, MetricsCatchBusCountMismatchWithValidation) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.designed.total_buses += 1;
  std::vector<violation> vs;
  check_metrics(broken, &vs);
  EXPECT_TRUE(has_invariant(vs, "metrics")) << to_string(vs);
}

TEST(Oracle, FeasibilityCatchesObjectiveMismatch) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.request_design.max_overlap += 1;
  std::vector<violation> vs;
  check_feasibility(f.traces, f.opts, broken, &vs);
  EXPECT_TRUE(has_invariant(vs, "feasibility")) << to_string(vs);
}

TEST(Oracle, FeasibilityCatchesModelViolatingBinding) {
  const auto& f = fixture();
  auto broken = f.report;
  // Cramming every endpoint onto bus 0 keeps the binding well-formed but
  // breaks the rebuilt Eq. 3-9 model (bandwidth/conflicts) or at minimum
  // the recorded objective.
  for (auto& b : broken.request_design.binding) b = 0;
  std::vector<violation> vs;
  check_feasibility(f.traces, f.opts, broken, &vs);
  EXPECT_TRUE(has_invariant(vs, "feasibility")) << to_string(vs);
}

TEST(Oracle, FullReferenceAcceptsTheRealReport) {
  const auto& f = fixture();
  std::vector<violation> vs;
  check_full_reference(f.app, f.opts, f.report, oracle_options{}, &vs);
  EXPECT_TRUE(vs.empty()) << to_string(vs);
}

TEST(Oracle, FullReferenceCatchesTamperedFullReference) {
  // The harvested full-crossbar reference disagrees with its
  // recording-off re-simulation.
  const auto& f = fixture();
  auto broken = f.report;
  broken.full.p99_latency += 0.5;  // any double off by any amount
  std::vector<violation> vs;
  check_full_reference(f.app, f.opts, broken, oracle_options{}, &vs);
  ASSERT_EQ(vs.size(), 1u) << to_string(vs);
  EXPECT_EQ(vs.front().invariant, "full-reference");
  EXPECT_NE(vs.front().detail.find("full-crossbar reference"),
            std::string::npos)
      << vs.front().detail;
}

TEST(Oracle, FullReferenceSkipsUnvalidatedReports) {
  const auto& f = fixture();
  auto unvalidated = f.report;
  unvalidated.designed = {};  // as a synthesis-only flow leaves it
  unvalidated.full = {};
  std::vector<violation> vs;
  check_full_reference(f.app, f.opts, unvalidated, oracle_options{}, &vs);
  EXPECT_TRUE(vs.empty()) << to_string(vs);
}

TEST(Oracle, SolverAgreementCatchesWrongBusCount) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.request_design.num_buses += 1;
  std::vector<violation> vs;
  check_solver_agreement(f.traces, f.opts, broken, oracle_options{}, &vs);
  EXPECT_TRUE(has_invariant(vs, "solver-agreement")) << to_string(vs);
}

TEST(Oracle, SolverAgreementRespectsTheSizeGate) {
  const auto& f = fixture();
  auto broken = f.report;
  broken.request_design.num_buses += 1;
  broken.response_design.num_buses += 1;
  oracle_options opts;
  opts.solver_agreement_max_targets = 0;  // everything gated out
  std::vector<violation> vs;
  check_solver_agreement(f.traces, f.opts, broken, opts, &vs);
  EXPECT_TRUE(vs.empty()) << to_string(vs);
}

}  // namespace
}  // namespace stx::testkit
