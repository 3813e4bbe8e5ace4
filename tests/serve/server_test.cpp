// The AF_UNIX transport end to end: a live in-process server answering
// ping / design / metrics / shutdown over the line protocol, error
// responses for malformed lines, and concurrent client connections.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/failpoint.h"

namespace stx::serve {
namespace {

namespace fs = std::filesystem;

/// Short per-test socket path (sun_path caps at ~108 bytes).
std::string socket_path(const std::string& name) {
  const auto p = fs::temp_directory_path() / ("stx-srv-" + name + ".sock");
  fs::remove(p);
  return p.string();
}

TEST(Server, AnswersTheCoreOpsInOrder) {
  service::options sopts;
  sopts.workers = 2;
  service svc(sopts);
  server srv(svc, socket_path("core"));
  srv.start();

  const auto pong = request_line(srv.socket_path(),
                                 R"({"op":"ping","id":"p1"})");
  EXPECT_NE(pong.find("\"id\":\"p1\""), std::string::npos);
  EXPECT_NE(pong.find("\"op\":\"ping\""), std::string::npos);

  // Two identical designs on one connection: answered in order, so the
  // second is a warm whole-report hit with the identical report.
  const auto lines = request_lines(
      srv.socket_path(),
      {R"({"op":"design","id":"d1","app":"qsort","horizon":8000})",
       R"({"op":"design","id":"d2","app":"qsort","horizon":8000})"});
  ASSERT_EQ(lines.size(), 2u);
  const auto r1 = parse_response(lines[0]);
  const auto r2 = parse_response(lines[1]);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r1.id, "d1");
  EXPECT_EQ(r1.source, "computed");
  EXPECT_EQ(r2.source, "store");
  ASSERT_TRUE(r1.report.has_value() && r2.report.has_value());
  EXPECT_EQ(*r1.report, *r2.report);

  // A malformed line answers with an error response, not a dropped
  // connection — the next request on the same socket still works.
  const auto errs = request_lines(
      srv.socket_path(),
      {"this is not json",
       R"({"op":"design","id":"e2","app":"qsort","bogus":1})",
       R"({"op":"ping","id":"p2"})"});
  EXPECT_NE(errs[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(errs[1].find("unknown request field"), std::string::npos);
  EXPECT_NE(errs[1].find("\"id\":\"e2\""), std::string::npos);
  EXPECT_NE(errs[2].find("\"op\":\"ping\""), std::string::npos);

  srv.stop();
}

TEST(Server, MetricsOpSnapshotsTheObsRegistry) {
  obs::reset();
  obs::enable();
  service::options sopts;
  sopts.workers = 1;
  service svc(sopts);
  server srv(svc, socket_path("metrics"));
  srv.start();

  (void)request_line(srv.socket_path(),
                     R"({"op":"design","id":"d","app":"qsort","horizon":8000})");
  const auto metrics = request_line(srv.socket_path(),
                                    R"({"op":"metrics","id":"m"})");
  EXPECT_NE(metrics.find("stx-metrics/v1"), std::string::npos);
  EXPECT_NE(metrics.find("serve.requests"), std::string::npos);
  EXPECT_NE(metrics.find("sim.runs"), std::string::npos);

  srv.stop();
  obs::reset();
}

TEST(Server, ShutdownOpUnblocksWait) {
  service::options sopts;
  sopts.workers = 1;
  service svc(sopts);
  server srv(svc, socket_path("shutdown"));
  srv.start();

  const auto bye = request_line(srv.socket_path(),
                                R"({"op":"shutdown","id":"s"})");
  EXPECT_NE(bye.find("\"op\":\"shutdown\""), std::string::npos);
  srv.wait();  // returns because the client asked for shutdown
  srv.stop();
  // The socket file is gone once the server stopped.
  EXPECT_FALSE(fs::exists(srv.socket_path()));
}

TEST(Server, CoalescedRequestsEchoTheirOwnIds) {
  // Each execution stalls, so the first request is still pending when
  // the identical second one arrives on another connection and joins
  // its execution.
  failpoint::arm("serve.worker.execute", "delay(500)");
  service::options sopts;
  sopts.workers = 1;
  service svc(sopts);
  server srv(svc, socket_path("coalesce"));
  srv.start();

  const std::string body = R"(","app":"qsort","horizon":8000})";
  std::string first;
  std::thread client([&] {
    first = request_line(srv.socket_path(),
                         R"({"op":"design","id":"first)" + body);
  });
  while (svc.stats().submitted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto second = request_line(srv.socket_path(),
                                   R"({"op":"design","id":"second)" + body);
  client.join();
  failpoint::disarm_all();

  EXPECT_EQ(svc.stats().coalesced, 1);
  const auto r1 = parse_response(first);
  const auto r2 = parse_response(second);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r1.id, "first");
  EXPECT_EQ(r2.id, "second");
  ASSERT_TRUE(r1.report.has_value() && r2.report.has_value());
  EXPECT_EQ(*r1.report, *r2.report);
  srv.stop();
}

TEST(Server, ConcurrentConnectionsShareTheService) {
  service::options sopts;
  sopts.workers = 4;
  sopts.queue_depth = 64;
  service svc(sopts);
  server srv(svc, socket_path("conc"));
  srv.start();

  std::vector<std::thread> clients;
  std::vector<std::string> responses(8);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back([&, i] {
      // Half the clients request one design, half another: exercises
      // both dedup across connections and parallel execution.
      const std::string horizon = i % 2 == 0 ? "8000" : "9000";
      responses[i] = request_line(
          srv.socket_path(),
          R"({"op":"design","id":"c)" + std::to_string(i) +
              R"(","app":"qsort","horizon":)" + horizon + "}");
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& line : responses) {
    const auto resp = parse_response(line);
    EXPECT_TRUE(resp.ok) << resp.error;
    ASSERT_TRUE(resp.report.has_value());
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 8);
  EXPECT_EQ(stats.completed + stats.coalesced, 8);
  EXPECT_EQ(stats.errors, 0);
  srv.stop();
}

}  // namespace
}  // namespace stx::serve
