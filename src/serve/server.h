// Local stream-socket transport for the design service: an AF_UNIX
// listener speaking the line-delimited JSON protocol of
// serve/protocol.h. One thread per connection, which runs each of its
// requests itself (service::run) and answers them in order; concurrency
// comes from concurrent connections, bounded by the service's admission
// gate. The accept loop joins the threads of finished connections, so
// callers that reconnect per request do not pile up thread stacks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.h"

namespace stx::serve {

/// Upper bound on one protocol line (request or response), newline
/// excluded. A client that streams more than this without a newline is
/// rejected with a protocol error and disconnected — the read buffer
/// must never grow unboundedly on a misbehaving peer.
inline constexpr std::size_t max_line_bytes = 1 << 20;

class server {
 public:
  struct options {
    /// SO_RCVTIMEO/SO_SNDTIMEO on every accepted connection: a read or
    /// write blocked this long wakes up instead of hanging forever on a
    /// stalled peer. Receive timeouts double as the idle-reap poll tick.
    int io_timeout_ms = 30'000;
    /// A connection with no complete request for this long is reaped
    /// (closed, counted in "serve.idle_reaped"); 0 disables the reaper.
    /// Clients are expected to reconnect (request_lines retries do).
    int idle_timeout_ms = 300'000;
  };

  /// Instantaneous connection gauges for the metrics op.
  struct live_stats {
    std::int64_t connections = 0;  ///< open client connections
    std::int64_t idle = 0;         ///< of those, waiting in read
  };

  /// Binds `socket_path` (an existing stale socket file is replaced).
  /// Throws stx::invalid_argument_error when the socket cannot be bound.
  server(service& svc, std::string socket_path, options opts);
  server(service& svc, std::string socket_path);  ///< default options
  ~server();  ///< stop()s if still running

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Starts accepting connections (returns immediately).
  void start();

  /// Blocks until a client sent the "shutdown" op or stop() was called.
  void wait();

  /// Graceful drain: stops accepting new connections, closes idle ones,
  /// and gives connections with a request mid-dispatch up to
  /// `timeout_ms` to finish writing their response before they are cut.
  /// Returns true when every connection drained within the budget.
  /// Call stop() afterwards to join threads and remove the socket file.
  bool drain(int timeout_ms);

  /// Stops accepting, unblocks every connection, joins all threads and
  /// removes the socket file. Idempotent.
  void stop();

  const std::string& socket_path() const { return path_; }
  live_stats live() const;

 private:
  void accept_loop(int listen_fd);
  /// Joins the threads of connections that have ended (accept thread
  /// only).
  void reap_finished_connections();
  void serve_connection(int fd);
  /// Dispatches one request line to one response line (never throws —
  /// parse/flow errors become error responses).
  std::string dispatch(const std::string& line, bool* shutdown);

  service& svc_;
  std::string path_;
  options opts_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  bool stopped_ = false;
  bool draining_ = false;
  std::set<int> conn_fds_;
  std::set<int> busy_fds_;  ///< connections with a request mid-dispatch
  /// Connection threads by connection id; an ending thread appends its
  /// id to finished_conns_ for the accept loop to join.
  std::map<std::uint64_t, std::thread> conn_threads_;
  std::vector<std::uint64_t> finished_conns_;
  std::uint64_t next_conn_id_ = 0;
};

/// Retry policy of the request_lines client helper. Retryable events:
/// connect failure, a connection dropped mid-request (daemon restart),
/// and overload responses carrying a retry_after_ms hint. The wait
/// before attempt k is max(hint, base << k) * jitter in [0.5, 1.5),
/// capped at max_backoff_ms — exponential backoff with a fixed-seed
/// jitter, so a retry schedule is reproducible (and the same in every
/// client).
/// Design requests are idempotent and responses arrive strictly in
/// order, so resending the in-flight line after a reconnect is safe.
struct retry_options {
  int attempts = 1;         ///< total tries per line (1 = no retry)
  int base_backoff_ms = 50;
  int max_backoff_ms = 2'000;
};

/// Client side, used by the CLI --client mode, tests and the throughput
/// bench: connects to `socket_path`, sends each line, reads one response
/// line per request, returns them in order. Throws
/// stx::invalid_argument_error on connect/write/read failure once the
/// retry budget (if any) is exhausted.
std::vector<std::string> request_lines(const std::string& socket_path,
                                       const std::vector<std::string>& lines,
                                       const retry_options& retry = {});

/// request_lines for a single request.
std::string request_line(const std::string& socket_path,
                         const std::string& line,
                         const retry_options& retry = {});

}  // namespace stx::serve
