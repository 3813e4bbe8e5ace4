// Fault injection across the serving stack, driven by the failpoint
// registry (util/failpoint.h): injected execution faults become error
// responses, admission overload carries a retry_after_ms hint, waiting
// requests past their deadline are answered instead of executed, a
// store that cannot persist degrades to computing (never to failing),
// and — the headline — a daemon that crashes mid-request can be
// restarted on the same cache directory and serve the byte-identical
// warm report while the client helper retries transparently through
// the outage, with the simulator and solver provably never re-run.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "explore/codec.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve_test_util.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace stx::serve {
namespace {

namespace fs = std::filesystem;

/// Every test disarms on entry and exit: failpoints are process-global.
struct FaultInjection : ::testing::Test {
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }
};

using testutil::eventually;
using testutil::hold_a_slot;
using testutil::quick_request;

TEST_F(FaultInjection, FailpointSpecGrammarAndHitAccounting) {
  failpoint::arm_from_spec(
      "store.get.read=error;serve.worker.execute=delay(5)");
  EXPECT_TRUE(failpoint::armed());
  EXPECT_EQ(failpoint::eval_action("store.get.read").kind,
            failpoint::action_kind::error);
  // delay is handled inside eval_action (it sleeps there), so the
  // returned action is none — the hit counter proves the site fired.
  const auto d = failpoint::eval_action("serve.worker.execute");
  EXPECT_EQ(d.kind, failpoint::action_kind::none);
  EXPECT_EQ(failpoint::hits("store.get.read"), 1);
  EXPECT_EQ(failpoint::hits("serve.worker.execute"), 1);
  EXPECT_EQ(failpoint::hits("never.armed"), 0);
  failpoint::disarm_all();
  EXPECT_FALSE(failpoint::armed());
  // Unarmed sites are action none and do not count hits.
  EXPECT_EQ(failpoint::eval_action("store.get.read").kind,
            failpoint::action_kind::none);
  EXPECT_THROW(failpoint::arm("x", "explode"), stx::error);
  EXPECT_THROW(failpoint::arm_from_spec("missing-equals"), stx::error);
}

TEST_F(FaultInjection, WorkerExecuteErrorBecomesErrorResponse) {
  failpoint::arm("serve.worker.execute", "error");
  service::options opts;
  opts.workers = 1;
  service svc(opts);
  const auto resp = svc.run(quick_request("a"));
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("serve.worker.execute"), std::string::npos);
  EXPECT_EQ(svc.stats().errors, 1);
  // The fault is injected, not sticky: disarmed, the same request works.
  failpoint::disarm_all();
  const auto ok = svc.run(quick_request("b"));
  EXPECT_TRUE(ok.ok) << ok.error;
}

TEST_F(FaultInjection, AdmissionErrorResolvesImmediately) {
  service::options opts;
  opts.workers = 1;
  service svc(opts);
  auto slow = hold_a_slot(svc, 500);
  failpoint::arm("serve.admission", "error");
  // Answered without waiting for the busy slot.
  const auto resp = svc.run(quick_request("a"));
  EXPECT_EQ(svc.live().in_flight, 1);  // "slow" still holds the slot
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("serve.admission"), std::string::npos);
}

TEST_F(FaultInjection, OverloadRejectionCarriesRetryAfterHint) {
  // A 200ms injected delay holds the only slot busy and "q0" takes the
  // 1-deep waiting line, so the next distinct request is shed.
  service::options opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  service svc(opts);
  auto slow = hold_a_slot(svc, 200);
  std::jthread q0([&] { (void)svc.run(quick_request("q0", 9'000)); });
  ASSERT_TRUE(eventually([&] { return svc.live().queue_depth == 1; }));
  const auto rejected = svc.run(quick_request("q1", 10'000));
  ASSERT_GT(svc.stats().rejected, 0);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("admission queue full"), std::string::npos);
  EXPECT_GT(rejected.retry_after_ms, 0);
  // The hint survives the wire protocol round trip.
  const auto reparsed = parse_response(serialize(rejected));
  EXPECT_EQ(reparsed.retry_after_ms, rejected.retry_after_ms);
}

TEST_F(FaultInjection, QueuedPastDeadlineIsAnsweredNotExecuted) {
  // "slow" sleeps 250ms in its slot; "late" carries a 50ms deadline and
  // must expire waiting behind it.
  service::options opts;
  opts.workers = 1;
  service svc(opts);
  auto slow = hold_a_slot(svc, 250);
  auto req = quick_request("late", 9'000);
  req.deadline_ms = 50;
  const auto late = svc.run(req);
  EXPECT_FALSE(late.ok);
  EXPECT_NE(late.error.find("deadline exceeded"), std::string::npos);
  EXPECT_EQ(svc.stats().deadline_exceeded, 1);
  slow.join();
  // The expired request never reached the worker failpoint: only the
  // slow request fired it.
  EXPECT_EQ(failpoint::hits("serve.worker.execute"), 1);
}

TEST_F(FaultInjection, StorePutFailureDegradesToComputedNeverToError) {
  const auto dir = fs::temp_directory_path() / "stx-fi-putfail";
  fs::remove_all(dir);
  failpoint::arm("store.put.fsync", "error");
  service::options opts;
  opts.workers = 1;
  opts.cache_dir = dir.string();
  service svc(opts);
  // Every write-through (traces, full reference, report) fails — the
  // request must still succeed, served as freshly computed.
  const auto resp = svc.run(quick_request("a"));
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.source, "computed");
  EXPECT_GT(svc.store().stats().put_failures, 0);
  // Nothing was published, so the identical request recomputes (no
  // store hit) — and still succeeds.
  const auto again = svc.run(quick_request("b"));
  EXPECT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.source, "computed");
  // Disarmed, persistence heals without intervention.
  failpoint::disarm_all();
  (void)svc.run(quick_request("c"));
  const auto warm = svc.run(quick_request("d"));
  EXPECT_EQ(warm.source, "store");
}

/// The acceptance scenario: populate the store, crash a forked daemon
/// at serve.worker.execute mid-request, restart a server on the same
/// cache directory, and watch one request_line call retry through the
/// whole outage to a byte-identical warm report — with the simulator
/// and the solver never running again in the serving process.
TEST_F(FaultInjection, DaemonCrashRestartServesByteIdenticalWarmReport) {
  const auto dir = fs::temp_directory_path() / "stx-fi-crash-restart";
  fs::remove_all(dir);
  const auto sock =
      (fs::temp_directory_path() / "stx-fi-crash.sock").string();
  fs::remove(sock);
  const std::string line =
      R"({"op":"design","id":"r1","app":"qsort","horizon":8000})";

  // Phase 1: compute once, in-process, into the shared store. The sim
  // counter proves the flow genuinely ran here.
  obs::reset();
  obs::enable();
  std::string cold_bytes;
  {
    service::options opts;
    opts.workers = 1;
    opts.cache_dir = dir.string();
    service svc(opts);
    const auto cold = svc.run(quick_request("cold"));
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_TRUE(cold.report.has_value());
    cold_bytes = explore::encode_report(*cold.report);
  }  // service destroyed: no live threads across the fork below
  EXPECT_GT(obs::snapshot().counter("sim.runs"), 0);

  // Phase 2: a forked daemon on the same store, armed to crash (_Exit,
  // as kill -9) the moment a request starts executing.
  const pid_t pid = ::fork();
  if (pid == 0) {
    try {
      failpoint::arm("serve.worker.execute", "crash");
      service::options opts;
      opts.workers = 1;
      opts.cache_dir = dir.string();
      service svc(opts);
      server srv(svc, sock);
      srv.start();
      srv.wait();  // the crash failpoint exits long before a shutdown
    } catch (...) {
    }
    std::_Exit(43);  // served without crashing: the failpoint misfired
  }
  for (int i = 0; i < 200 && !fs::exists(sock); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fs::exists(sock)) << "daemon never bound its socket";

  // The client fires while the crash-armed daemon holds the socket and
  // keeps retrying (connection dropped mid-request, then refused) until
  // the restarted server answers.
  obs::reset();
  obs::enable();
  retry_options retry;
  retry.attempts = 10;
  retry.base_backoff_ms = 25;
  retry.max_backoff_ms = 250;
  std::string response_line;
  std::thread client([&] {
    try {
      response_line = request_line(sock, line, retry);
    } catch (const std::exception& e) {
      response_line = std::string("CLIENT THREW: ") + e.what();
    }
  });

  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), failpoint::crash_exit_code);

  // Restart: same cache directory, same socket path, no faults.
  service::options opts;
  opts.workers = 1;
  opts.cache_dir = dir.string();
  service svc(opts);
  server srv(svc, sock);
  srv.start();
  client.join();

  ASSERT_EQ(response_line.rfind("CLIENT THREW", 0), std::string::npos)
      << response_line;
  const auto resp = parse_response(response_line);
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.source, "store");
  ASSERT_TRUE(resp.report.has_value());
  // Byte-identical to the cold computation, and served without the
  // simulator or the solver ever running in this process again.
  EXPECT_EQ(explore::encode_report(*resp.report), cold_bytes);
  EXPECT_EQ(obs::snapshot().counter("sim.runs"), 0);
  EXPECT_EQ(obs::snapshot().counter("milp.solves"), 0);
  EXPECT_EQ(svc.stats().store_hits, 1);
  srv.stop();
}

}  // namespace
}  // namespace stx::serve
