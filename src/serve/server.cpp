#include "serve/server.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>

#include "gen/json.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace stx::serve {

namespace {

/// A bound/connected AF_UNIX address for `path`; throws when the path
/// does not fit (sun_path is ~108 bytes — keep socket paths short).
sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  STX_REQUIRE(path.size() < sizeof(addr.sun_path),
              "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Writes all of `data` (+ '\n') to `fd`; false on any error. Sent with
/// MSG_NOSIGNAL: a client that disconnected mid-response must surface as
/// EPIPE on this connection's thread, not as a SIGPIPE that kills the
/// whole daemon.
bool write_line(int fd, const std::string& data) {
  std::string line = data;
  line.push_back('\n');
  std::size_t off = 0;
  while (off < line.size()) {
    const auto n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Outcome of read_line: a line was popped, the peer closed/errored,
/// the peer streamed more than max_line_bytes without a newline, or the
/// socket receive timeout (SO_RCVTIMEO) elapsed with no new bytes.
enum class read_status { line, closed, overflow, timeout };

/// Reads from `fd` into `buf` until it holds a full line; pops and
/// returns it (without the newline). A peer that never sends a newline
/// must not grow `buf` without bound, so lines are capped.
read_status read_line(int fd, std::string& buf, std::string& line) {
  while (true) {
    const auto nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return read_status::line;
    }
    if (buf.size() > max_line_bytes) return read_status::overflow;
    char chunk[4096];
    const auto n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return read_status::timeout;  // SO_RCVTIMEO tick
      }
      return read_status::closed;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Applies SO_RCVTIMEO/SO_SNDTIMEO to a connection so reads poll at the
/// idle-reap tick and writes cannot wedge a thread on a stalled peer.
void set_io_timeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

server::server(service& svc, std::string socket_path)
    : server(svc, std::move(socket_path), options()) {}

server::server(service& svc, std::string socket_path, options opts)
    : svc_(svc), path_(std::move(socket_path)), opts_(opts) {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  STX_REQUIRE(listen_fd_ >= 0, "server: cannot create socket");
  const auto addr = unix_address(path_);
  ::unlink(path_.c_str());  // replace a stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw invalid_argument_error("server: cannot bind " + path_ + ": " +
                                 std::strerror(err));
  }
}

server::~server() { stop(); }

void server::start() {
  // The accept thread gets its own copy of the descriptor: stop() and
  // drain() reset listen_fd_ from the caller's thread.
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

void server::accept_loop(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Descriptor/buffer exhaustion is transient: back off briefly
        // and keep accepting instead of silently ending the loop (which
        // would leave a daemon that looks alive but never answers).
        obs::add_counter("serve.accept_retries", 1);
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (stopped_ || draining_) return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listening socket closed by stop()/drain()
    }
    reap_finished_connections();
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ || shutdown_ || draining_) {
      ::close(fd);
      continue;
    }
    set_io_timeouts(fd, opts_.io_timeout_ms);
    conn_fds_.insert(fd);
    const auto id = next_conn_id_++;
    try {
      // The slot first: a throwing insert must not destroy a started
      // (joinable) thread.
      auto& slot = conn_threads_[id];
      if (STX_FAILPOINT_ACTION("serve.accept.spawn").kind ==
          failpoint::action_kind::error) {
        throw std::system_error(std::make_error_code(
            std::errc::resource_unavailable_try_again));
      }
      slot = std::thread([this, fd, id] {
        serve_connection(fd);
        std::lock_guard<std::mutex> done(mu_);
        finished_conns_.push_back(id);
      });
    } catch (const std::exception&) {
      // No thread for this connection (thread or memory limits): drop
      // it — the client sees EOF and may retry — and keep accepting.
      obs::add_counter("serve.accept_retries", 1);
      conn_threads_.erase(id);
      conn_fds_.erase(fd);
      ::close(fd);
    }
  }
}

void server::reap_finished_connections() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto id : finished_conns_) {
      const auto it = conn_threads_.find(id);
      done.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    finished_conns_.clear();
  }
  // Each has left serve_connection; join only waits out its exit.
  for (auto& t : done) t.join();
}

std::string server::dispatch(const std::string& line, bool* shutdown) {
  request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    obs::add_counter("serve.errors", 1);
    return serialize_error("", e.what());
  }
  switch (req.op) {
    case request_op::design:
      return serialize(svc_.submit(req.design).get());
    case request_op::ping:
      return serialize_simple(req.id, request_op::ping);
    case request_op::metrics: {
      // The cumulative obs snapshot plus instantaneous saturation
      // gauges: operators watch queue depth / in-flight / idle
      // connections to see overload building before shedding starts.
      const auto svc_live = svc_.live();
      const auto conn_live = live();
      live_gauges gauges;
      gauges.admission_queue_depth = svc_live.queue_depth;
      gauges.in_flight = svc_live.in_flight;
      gauges.connections = conn_live.connections;
      gauges.idle_connections = conn_live.idle;
      return serialize_metrics(req.id, obs::render_metrics_json(), gauges);
    }
    case request_op::trace:
      return serialize_simple(req.id, request_op::trace,
                              obs::render_trace_json());
    case request_op::shutdown:
      *shutdown = true;
      return serialize_simple(req.id, request_op::shutdown);
  }
  return serialize_error(req.id, "unhandled op");
}

void server::serve_connection(int fd) {
  obs::add_counter("serve.connections", 1);
  std::string buf, line;
  bool shutdown = false;
  const auto opened = std::chrono::steady_clock::now();
  auto last_request = opened;
  while (!shutdown) {
    if (STX_FAILPOINT_ACTION("serve.conn.read").kind ==
        failpoint::action_kind::error) {
      break;  // injected transport read failure: drop the connection
    }
    const auto status = read_line(fd, buf, line);
    if (status == read_status::overflow) {
      obs::add_counter("serve.errors", 1);
      write_line(fd, serialize_error(
                         "", "protocol error: line exceeds " +
                                 std::to_string(max_line_bytes) + " bytes"));
      break;
    }
    if (status == read_status::timeout) {
      // SO_RCVTIMEO tick with no new bytes: reap the connection once it
      // has been idle past the bound (a daemon serving heavy traffic
      // cannot let silent peers pin connection threads forever), and
      // fold idle connections during a drain.
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_ || draining_) break;
      }
      const auto idle_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - last_request)
              .count();
      if (opts_.idle_timeout_ms > 0 && idle_ms > opts_.idle_timeout_ms) {
        obs::add_counter("serve.idle_reaped", 1);
        break;
      }
      continue;
    }
    if (status != read_status::line) break;
    if (line.empty()) continue;
    last_request = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_fds_.insert(fd);
    }
    const auto response = dispatch(line, &shutdown);
    const bool write_failed =
        STX_FAILPOINT_ACTION("serve.conn.write").kind ==
            failpoint::action_kind::error ||
        !write_line(fd, response);
    bool draining = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_fds_.erase(fd);
      draining = draining_;
    }
    cv_.notify_all();  // a drain may be waiting on the busy set
    if (write_failed || draining) break;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.erase(fd);
    busy_fds_.erase(fd);
    if (shutdown) shutdown_ = true;
  }
  ::close(fd);
  cv_.notify_all();
}

void server::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return shutdown_ || stopped_; });
}

server::live_stats server::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  live_stats l;
  l.connections = static_cast<std::int64_t>(conn_fds_.size());
  l.idle = static_cast<std::int64_t>(conn_fds_.size() - busy_fds_.size());
  return l;
}

bool server::drain(int timeout_ms) {
  // Not re-entrant against a concurrent stop(): callers sequence
  // drain() then stop() from one thread (the signal watcher does).
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return true;
    draining_ = true;
    // Idle connections have no response in flight: close them now.
    // Clients with retry enabled reconnect against the next daemon.
    for (int fd : conn_fds_) {
      if (busy_fds_.count(fd) == 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  // Stop accepting new connections.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Give mid-dispatch requests the drain budget to finish writing.
  std::unique_lock<std::mutex> lock(mu_);
  const bool drained =
      cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                   [&] { return conn_fds_.empty(); });
  if (!drained) {
    obs::add_counter("serve.drain_timeouts", 1);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  return drained;
}

void server::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    // Unblock every connection thread stuck in read().
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  cv_.notify_all();
  if (listen_fd_ >= 0) {
    // Closing the listening socket makes accept() fail and ends the
    // accept loop; shutdown() first for portability with blocked accept.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& [id, t] : conn_threads_) t.join();
  conn_threads_.clear();
  finished_conns_.clear();
  ::unlink(path_.c_str());
}

namespace {

/// Connects to `socket_path`; -1 (with errno set) on failure.
int client_connect(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  STX_REQUIRE(fd >= 0, "client: cannot create socket");
  const auto addr = unix_address(socket_path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

/// The retry_after_ms hint of an overload response line; 0 when the
/// line is a success, a terminal error, or unparsable.
std::int64_t overload_hint(const std::string& response) {
  try {
    const auto doc = gen::json::parse(response);
    if (doc.contains("ok") && !doc.at("ok").as_bool() &&
        doc.contains("retry_after_ms")) {
      return doc.at("retry_after_ms").as_int();
    }
  } catch (const std::exception&) {
    // Not JSON we recognize: treat as terminal, the caller decides.
  }
  return 0;
}

}  // namespace

std::vector<std::string> request_lines(const std::string& socket_path,
                                       const std::vector<std::string>& lines,
                                       const retry_options& retry) {
  const int attempts = retry.attempts < 1 ? 1 : retry.attempts;
  rng jitter(retry.jitter_seed);
  std::vector<std::string> responses;
  int fd = -1;
  std::string buf, line;
  std::string last_error;

  // One attempt budget per request line: a line consumes an attempt on
  // a connect failure, a connection dropped mid-request, or an overload
  // response with a retry_after_ms hint. Design requests are idempotent
  // and answered strictly in order, so resending the current line on a
  // fresh connection is safe.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    bool answered = false;
    for (int attempt = 0; attempt < attempts && !answered; ++attempt) {
      const auto backoff_before_retry = [&](std::int64_t hint_ms) {
        if (attempt + 1 >= attempts) return;  // budget exhausted: no sleep
        std::int64_t wait_ms = retry.base_backoff_ms > 0
                                   ? retry.base_backoff_ms << attempt
                                   : 0;
        if (hint_ms > wait_ms) wait_ms = hint_ms;
        if (wait_ms > retry.max_backoff_ms) wait_ms = retry.max_backoff_ms;
        wait_ms = static_cast<std::int64_t>(
            static_cast<double>(wait_ms) * jitter.uniform(0.5, 1.5));
        if (wait_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
        }
      };
      if (fd < 0) {
        fd = client_connect(socket_path);
        if (fd < 0) {
          last_error = "client: cannot connect to " + socket_path + ": " +
                       std::strerror(errno);
          backoff_before_retry(0);
          continue;
        }
      }
      if (!write_line(fd, lines[i]) ||
          read_line(fd, buf, line) != read_status::line) {
        ::close(fd);
        fd = -1;
        buf.clear();
        last_error = "client: connection to " + socket_path +
                     " failed mid-request";
        backoff_before_retry(0);
        continue;
      }
      const auto hint = overload_hint(line);
      if (hint > 0 && attempt + 1 < attempts) {
        // Overload shed with a retry hint: honor it (the connection is
        // fine, only the admission queue is full).
        backoff_before_retry(hint);
        continue;
      }
      responses.push_back(line);
      answered = true;
    }
    if (!answered) {
      if (fd >= 0) ::close(fd);
      throw invalid_argument_error(last_error.empty()
                                       ? "client: request failed"
                                       : last_error);
    }
  }
  if (fd >= 0) ::close(fd);
  return responses;
}

std::string request_line(const std::string& socket_path,
                         const std::string& line,
                         const retry_options& retry) {
  return request_lines(socket_path, {line}, retry).front();
}

}  // namespace stx::serve
