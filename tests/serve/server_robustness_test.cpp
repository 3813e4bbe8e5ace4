// Transport hardening regressions: a client that disconnects before its
// response is written must not SIGPIPE the daemon, and a client that
// streams bytes without a newline must be rejected with a protocol
// error instead of growing the read buffer without bound. Both attacks
// run against a live in-process server, which then must still answer
// ping on a fresh connection. So must a line nesting arrays deep enough
// to overflow a recursive parser. Clients that reconnect per request must
// not pile up connection threads, and a connection thread that cannot
// start must cost only that connection.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/obs.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace stx::serve {
namespace {

namespace fs = std::filesystem;

std::string socket_path(const std::string& name) {
  const auto p = fs::temp_directory_path() / ("stx-rob-" + name + ".sock");
  fs::remove(p);
  return p.string();
}

/// A raw connected client socket (no protocol helpers, so tests can
/// misbehave in ways request_lines never would).
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// send() everything (MSG_NOSIGNAL: the *test* must not die either when
/// the server rightfully closes on us mid-flood). False once the peer
/// is gone.
bool raw_send(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const auto n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until EOF and returns everything received.
std::string raw_drain(int fd) {
  std::string out;
  char chunk[4096];
  while (true) {
    const auto n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return out;
    out.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(ServerRobustness, MidResponseDisconnectDoesNotKillTheDaemon) {
  service::options sopts;
  sopts.workers = 2;
  service svc(sopts);
  server srv(svc, socket_path("sigpipe"));
  srv.start();

  // Several clients submit a design (the slowest, largest response the
  // protocol has) and vanish without reading a byte. The response write
  // then hits a closed peer: before the MSG_NOSIGNAL fix this raised
  // SIGPIPE and killed the whole process, this test included.
  for (int k = 0; k < 4; ++k) {
    const int fd = raw_connect(srv.socket_path());
    const std::string req =
        R"({"op":"design","id":"gone)" + std::to_string(k) +
        R"(","app":"qsort","horizon":8000})" + std::string("\n");
    ASSERT_TRUE(raw_send(fd, req.data(), req.size()));
    ::close(fd);  // drop the connection before the response arrives
  }

  // The daemon is still alive and serving fresh connections.
  const auto pong =
      request_line(srv.socket_path(), R"({"op":"ping","id":"alive"})");
  EXPECT_NE(pong.find("\"op\":\"ping\""), std::string::npos);
  EXPECT_NE(pong.find("\"id\":\"alive\""), std::string::npos);
  srv.stop();
}

TEST(ServerRobustness, NoNewlineFloodIsRejectedWithProtocolError) {
  service::options sopts;
  sopts.workers = 1;
  service svc(sopts);
  server srv(svc, socket_path("flood"));
  srv.start();

  // Stream well past the line cap without ever sending a newline. The
  // server must answer with a protocol error and close — not buffer the
  // flood forever.
  const int fd = raw_connect(srv.socket_path());
  const std::string chunk(64 * 1024, 'x');
  std::size_t sent = 0;
  while (sent < max_line_bytes + 2 * chunk.size()) {
    if (!raw_send(fd, chunk.data(), chunk.size())) break;  // server closed
    sent += chunk.size();
  }
  const auto reply = raw_drain(fd);  // returns at EOF: connection closed
  ::close(fd);
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
  EXPECT_NE(reply.find("protocol error: line exceeds"), std::string::npos)
      << reply;

  // Well-formed clients are unaffected afterwards.
  const auto pong =
      request_line(srv.socket_path(), R"({"op":"ping","id":"after"})");
  EXPECT_NE(pong.find("\"op\":\"ping\""), std::string::npos);
  srv.stop();
}

TEST(ServerRobustness, LinesUpToTheCapStillParse) {
  // The cap rejects floods, not big-but-legal requests: a line just
  // under max_line_bytes still gets a (parse-error) response instead of
  // a protocol-error disconnect.
  service::options sopts;
  sopts.workers = 1;
  service svc(sopts);
  server srv(svc, socket_path("cap"));
  srv.start();

  std::string line(max_line_bytes - 1, 'y');
  line.push_back('\n');
  const int fd = raw_connect(srv.socket_path());
  ASSERT_TRUE(raw_send(fd, line.data(), line.size()));
  std::string reply;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') reply.push_back(c);
  ::close(fd);
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(reply.find("protocol error: line exceeds"), std::string::npos)
      << reply.substr(0, 200);
  srv.stop();
}

TEST(ServerRobustness, DeeplyNestedLineGetsAnErrorReply) {
  // A line of '[' well under the line cap: an uncapped recursive parser
  // overflowed the stack here and took the whole daemon down (SIGSEGV).
  service::options sopts;
  sopts.workers = 1;
  service svc(sopts);
  server srv(svc, socket_path("nested"));
  srv.start();

  const auto reply =
      request_line(srv.socket_path(), std::string(200'000, '['));
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
  EXPECT_NE(reply.find("nesting deeper than"), std::string::npos) << reply;

  const auto pong =
      request_line(srv.socket_path(), R"({"op":"ping","id":"after"})");
  EXPECT_NE(pong.find("\"id\":\"after\""), std::string::npos) << pong;
  srv.stop();
}

/// Live threads of this process.
std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       fs::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Memory mappings of this process. A thread that exits unjoined leaves
/// /proc/self/task but keeps its stack mapped, so this is what grows
/// when finished connection threads are never joined.
std::size_t mappings() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(ServerRobustness, ReconnectPerRequestClientsDoNotPileUpThreads) {
  service::options sopts;
  sopts.workers = 1;
  service svc(sopts);
  server srv(svc, socket_path("reconnect"));
  srv.start();
  const std::string ping = R"({"op":"ping","id":"r"})";
  (void)request_line(srv.socket_path(), ping);  // first stack allocated
  const auto threads_before = live_threads();
  const auto maps_before = mappings();

  // request_line opens one connection per call: 2000 connections, each
  // served by its own thread, one after another.
  for (int i = 0; i < 2'000; ++i) {
    const auto pong = request_line(srv.socket_path(), ping);
    ASSERT_NE(pong.find("\"op\":\"ping\""), std::string::npos) << i;
  }
  // Unjoined threads would add a stack and its guard page per
  // connection, ~4000 mappings here; the slack absorbs allocator and
  // sanitizer-runtime mappings.
  EXPECT_LE(live_threads(), threads_before + 4);
  EXPECT_LE(mappings(), maps_before + 256);
  srv.stop();
}

TEST(ServerRobustness, FailedConnectionThreadStartDropsOnlyThatConnection) {
  failpoint::disarm_all();
  obs::reset();
  obs::enable();
  service::options sopts;
  sopts.workers = 1;
  service svc(sopts);
  server srv(svc, socket_path("spawn"));
  srv.start();

  // The accept loop cannot start a thread for the next connection: that
  // client sees its connection closed, and the daemon keeps accepting.
  failpoint::arm("serve.accept.spawn", "error");
  EXPECT_THROW((void)request_line(srv.socket_path(), R"({"op":"ping"})"),
               stx::error);
  failpoint::disarm("serve.accept.spawn");
  EXPECT_EQ(failpoint::hits("serve.accept.spawn"), 1);
  EXPECT_EQ(obs::snapshot().counter("serve.accept_retries"), 1);
  EXPECT_EQ(srv.live().connections, 0);

  const auto pong =
      request_line(srv.socket_path(), R"({"op":"ping","id":"next"})");
  EXPECT_NE(pong.find("\"id\":\"next\""), std::string::npos) << pong;
  srv.stop();
  obs::disable();
  obs::reset();
}

}  // namespace
}  // namespace stx::serve
