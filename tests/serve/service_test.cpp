// The design-service engine: requests run on the caller's thread behind
// the admission gate, whole-report store hits, in-flight dedup of
// identical requests, bounded admission, arrival-order starts, and error
// accounting — all through the transport-free service API. Requests that
// must find the only slot busy run on client threads while a
// serve.worker.execute delay holds that slot.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve_test_util.h"
#include "util/failpoint.h"

namespace stx::serve {
namespace {

/// Every test disarms on entry and exit: failpoints are process-global.
struct Service : ::testing::Test {
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }
};

using testutil::eventually;
using testutil::hold_a_slot;
using testutil::quick_request;

TEST_F(Service, ComputesThenServesTheSameRequestFromTheStore) {
  service::options opts;
  opts.workers = 1;
  service svc(opts);

  const auto first = svc.run(quick_request("a"));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.source, "computed");
  EXPECT_EQ(first.app_id, "qsort");
  ASSERT_TRUE(first.report.has_value());

  const auto second = svc.run(quick_request("b"));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.source, "store");
  EXPECT_EQ(*second.report, *first.report);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.store_hits, 1);
  EXPECT_EQ(stats.errors, 0);
}

TEST_F(Service, DistinctOptionsAreDistinctDesigns) {
  service::options opts;
  opts.workers = 2;
  service svc(opts);
  const auto a = svc.run(quick_request("a", 8'000));
  const auto b = svc.run(quick_request("b", 9'000));
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(b.source, "computed");  // different horizon, different key
  EXPECT_EQ(svc.stats().store_hits, 0);
}

TEST_F(Service, UnknownAppResolvesImmediatelyAsAnError) {
  service::options opts;
  opts.workers = 1;
  service svc(opts);
  auto slow = hold_a_slot(svc, 500);
  auto req = quick_request("bad");
  req.app = "no-such-app";
  // Rejected at resolve time, without waiting for the busy slot.
  const auto resp = svc.run(req);
  EXPECT_EQ(svc.live().in_flight, 1);  // "slow" still holds the slot
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("unknown app"), std::string::npos);
  EXPECT_EQ(svc.stats().errors, 1);
  EXPECT_EQ(svc.stats().completed, 0);
}

TEST_F(Service, IdenticalInFlightRequestsCoalesce) {
  service::options opts;
  opts.workers = 1;  // "slow" occupies the only slot
  opts.queue_depth = 8;
  service svc(opts);

  // While "slow" runs, both spellings of the identical request wait
  // behind it: the second joins the first's execution instead of
  // running a duplicate.
  auto slow = hold_a_slot(svc, 300);
  design_response r1;
  std::jthread b1([&] { r1 = svc.run(quick_request("b1", 8'000)); });
  ASSERT_TRUE(eventually([&] { return svc.live().queue_depth == 1; }));
  const auto r2 = svc.run(quick_request("b2", 8'000));
  b1.join();

  EXPECT_EQ(svc.stats().coalesced, 1);
  EXPECT_EQ(r2.id, "b1");  // the shared execution echoes the first id
  EXPECT_EQ(r1.id, "b1");
  EXPECT_EQ(*r1.report, *r2.report);
  slow.join();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.completed, 2);  // slow + one shared execution
}

TEST_F(Service, BoundedAdmissionRejectsOverflowImmediately) {
  service::options opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  service svc(opts);

  // "slow" holds the only slot and "q0" takes the only waiting place, so
  // the next distinct request is bounced at once.
  auto slow = hold_a_slot(svc, 300);
  std::jthread q0([&] { (void)svc.run(quick_request("q0", 9'000)); });
  ASSERT_TRUE(eventually([&] { return svc.live().queue_depth == 1; }));
  const auto rejected = svc.run(quick_request("q1", 10'000));
  EXPECT_EQ(svc.live().queue_depth, 1);  // answered while q0 still waits
  ASSERT_GT(svc.stats().rejected, 0);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("admission queue full"), std::string::npos);
  q0.join();  // everything resolves
  slow.join();
  EXPECT_EQ(svc.stats().completed, 2);
}

TEST_F(Service, WaitingRequestsStartInArrivalOrder) {
  service::options opts;
  opts.workers = 1;
  opts.queue_depth = 8;
  service svc(opts);

  auto slow = hold_a_slot(svc, 300);
  std::mutex mu;
  std::vector<std::string> finished;
  std::vector<std::jthread> clients;
  const std::vector<std::string> ids = {"a", "b", "c"};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // Distinct designs, registered one at a time behind the busy slot.
    clients.emplace_back([&, i] {
      const auto horizon = 9'000 + 1'000 * static_cast<std::int64_t>(i);
      const auto resp = svc.run(quick_request(ids[i], horizon));
      EXPECT_TRUE(resp.ok) << resp.error;
      std::lock_guard<std::mutex> lock(mu);
      finished.push_back(resp.id);
    });
    ASSERT_TRUE(eventually([&] {
      return svc.live().queue_depth == static_cast<std::int64_t>(i + 1);
    }));
  }
  // Each waiter's own run is still delayed, so one that started out of
  // turn would also finish out of turn.
  failpoint::arm("serve.worker.execute", "delay(100)");
  for (auto& c : clients) c.join();
  EXPECT_EQ(finished, ids);
  EXPECT_EQ(svc.stats().completed, 4);
}

TEST_F(Service, ScenarioRequestsDesignGeneratedApps) {
  service::options opts;
  opts.workers = 1;
  service svc(opts);
  design_request req;
  req.id = "s1";
  req.scenario = "stxfuzz/v1 seed=7 ini=3 tgt=3 horizon=6000";
  // The service resolves options the same way the protocol does for a
  // direct run: scenario defaults first.
  req.opts.horizon = 6'000;
  const auto resp = svc.run(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.app_id, req.scenario);
  ASSERT_TRUE(resp.report.has_value());
  EXPECT_GT(resp.report->designed_buses, 0);
}

TEST_F(Service, ArtifactSelectionRendersIntoTheResponse) {
  service::options opts;
  opts.workers = 1;
  service svc(opts);
  auto req = quick_request("art");
  req.artifacts = {"report"};
  const auto resp = svc.run(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  ASSERT_EQ(resp.artifacts.size(), 1u);
  EXPECT_EQ(resp.artifacts[0].backend, "report");
  EXPECT_FALSE(resp.artifacts[0].content.empty());
}

}  // namespace
}  // namespace stx::serve
