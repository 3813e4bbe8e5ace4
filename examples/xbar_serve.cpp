// xbar-serve — the long-running design service daemon.
//
// Serve design requests over a local socket until a client sends the
// "shutdown" op or the process receives SIGTERM/SIGINT:
//   $ ./xbar-serve --socket=/tmp/xbar.sock --workers=4
//                  --cache-dir=/var/cache/stxbar
//
// One-shot client mode (send REQUEST, print the response line):
//   $ ./xbar-serve --socket=/tmp/xbar.sock
//       --client='{"op":"design","app":"mat2","horizon":20000}'
//
// The protocol is line-delimited JSON (see src/serve/protocol.h): ops
// design / ping / metrics / trace / shutdown. With --cache-dir, results
// are shared with every other binary pointed at the same directory
// (xbargen, xbar-sweep, xbar-fuzz): a design any of them computed is a
// warm hit here and vice versa.
//
// Shutdown semantics: SIGTERM/SIGINT triggers a graceful drain — stop
// accepting, close idle connections, give requests mid-dispatch up to
// --drain-ms to finish writing their response — then exits 0 after
// printing the final stats (and writing --metrics-out, when asked).
//
// Exit codes: 0 clean shutdown (daemon) or ok:true response (client),
// 1 runtime/protocol failure, 2 bad usage (an unknown flag, or a
// malformed or out-of-range value, refused before anything connects or
// binds).
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.h"
#include "gen/json.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/error.h"
#include "util/flags.h"

namespace {

using namespace stx;

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: xbar-serve --socket=PATH [options]\n"
      "  --socket=PATH     unix socket to listen on (or connect to,\n"
      "                    with --client); default ./xbar-serve.sock\n"
      "  --workers=N       designs computed at once, each on its\n"
      "                    connection's thread (2)\n"
      "  --queue=N         requests that may wait for a slot; more\n"
      "                    are refused with a retry hint (64)\n"
      "  --cache-dir=DIR   persistent result store shared with the\n"
      "                    other CLIs (default: in-memory only)\n"
      "  --cache-max-bytes=N  evict oldest-accessed store entries over\n"
      "                    this cap, at open and on every put\n"
      "                    (0 = unlimited)\n"
      "  --io-timeout-ms=N    per-connection socket read/write timeout\n"
      "                    (30000; 0 = none, which also stops the\n"
      "                    idle reaper: it checks on that timeout)\n"
      "  --idle-timeout-ms=N  reap connections idle this long (300000;\n"
      "                    0 = never)\n"
      "  --drain-ms=N      graceful-drain budget on SIGTERM/SIGINT:\n"
      "                    in-flight requests get this long to finish\n"
      "                    (5000; 0 = cut them at once)\n"
      "  --metrics-out=FILE   write the final stx-metrics/v1 snapshot\n"
      "                    here on shutdown\n"
      "  --client=REQUEST  send one JSON request line and print the\n"
      "                    response instead of serving\n"
      "  --retries=N       client mode: total attempts per request,\n"
      "                    with exponential backoff + jitter between\n"
      "                    them (default 1 = no retry)\n"
      "  --retry-backoff-ms=N  client mode: base backoff (50; 0 = retry\n"
      "                    at once unless the daemon sends a hint)\n"
      "Every count and time above must fit an int. A malformed or\n"
      "out-of-range value exits 2 before anything connects or binds.\n");
}

const std::vector<std::string> kKnownFlags = {
    "socket",        "workers",        "queue",
    "cache-dir",     "cache-max-bytes", "io-timeout-ms",
    "idle-timeout-ms", "drain-ms",      "metrics-out",
    "client",        "retries",         "retry-backoff-ms",
    "help",
};

int run_client(const std::string& socket_path, const std::string& line,
               const serve::retry_options& retry) {
  const auto resp = serve::request_line(socket_path, line, retry);
  std::printf("%s\n", resp.c_str());
  const auto doc = gen::json::parse(resp);
  return doc.at("ok").as_bool() ? 0 : 1;
}

/// Self-pipe for async-signal-safe shutdown: the handler writes one
/// byte; a watcher thread reads it and runs the drain on an ordinary
/// thread where locks and condition variables are allowed.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_terminate_signal(int) {
  const char byte = 's';
  // write() is async-signal-safe; the result only matters insofar as a
  // full pipe means a signal is already pending.
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Every setting of either mode, read from the flags before anything
/// connects or binds.
struct serve_config {
  serve::service::options service;
  serve::server::options server;
  int drain_ms = 0;
  serve::retry_options retry;  ///< client mode
};

/// Counts from 1, times from 0, each up to INT_MAX; throws on a
/// malformed or out-of-range value.
serve_config read_config(const flag_set& flags) {
  serve_config c;
  c.service.workers = cli::int_flag(flags, "workers", 2, 1);
  c.service.queue_depth = cli::int_flag(flags, "queue", 64, 1);
  c.service.cache_max_bytes = cli::cache_max_bytes_flag(flags);
  c.service.cache_dir = flags.get_string("cache-dir", "");
  c.server.io_timeout_ms = cli::int_flag(flags, "io-timeout-ms", 30000, 0);
  c.server.idle_timeout_ms =
      cli::int_flag(flags, "idle-timeout-ms", 300000, 0);
  c.drain_ms = cli::int_flag(flags, "drain-ms", 5000, 0);
  c.retry.attempts = cli::int_flag(flags, "retries", 1, 1);
  c.retry.base_backoff_ms = cli::int_flag(flags, "retry-backoff-ms", 50, 0);
  return c;
}

int run_daemon(const flag_set& flags, const std::string& socket_path,
               const serve_config& config) {
  const auto& sopts = config.service;
  const auto metrics_out = flags.get_string("metrics-out", "");

  // The daemon always collects counters: the "metrics" op is the
  // service's health surface (cache hit/miss rates, queue rejections).
  obs::reset();
  obs::enable();

  serve::service svc(sopts);
  serve::server srv(svc, socket_path, config.server);
  srv.start();

  // Graceful SIGTERM/SIGINT: handler -> self-pipe -> watcher thread ->
  // drain (bounded) -> stop, which unblocks wait() below.
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "xbar-serve: cannot create signal pipe\n");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_terminate_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  bool signalled = false;
  std::thread watcher([&] {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) == 1) {
      if (byte != 's') return;  // main asked the watcher to exit
      signalled = true;
      const bool drained = srv.drain(config.drain_ms);
      std::fprintf(stderr, "xbar-serve: %s drain on signal\n",
                   drained ? "clean" : "timed-out");
      srv.stop();  // unblocks wait()
      return;
    }
  });

  std::printf("xbar-serve: listening on %s (%d workers, queue %d%s%s)\n",
              srv.socket_path().c_str(), sopts.workers, sopts.queue_depth,
              sopts.cache_dir.empty() ? "" : ", cache ",
              sopts.cache_dir.c_str());
  std::fflush(stdout);
  srv.wait();
  srv.stop();
  // Unblock the watcher if no signal ever arrived, then join it.
  const char quit = 'q';
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &quit, 1);
  watcher.join();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::trunc);
    out << obs::render_metrics_json();
  }
  const auto st = svc.stats();
  std::printf(
      "xbar-serve: %s after %lld requests "
      "(%lld store hits, %lld coalesced, %lld rejected, %lld deadline-"
      "exceeded, %lld errors)\n",
      signalled ? "graceful shutdown (signal)" : "shutdown",
      static_cast<long long>(st.submitted),
      static_cast<long long>(st.store_hits),
      static_cast<long long>(st.coalesced),
      static_cast<long long>(st.rejected),
      static_cast<long long>(st.deadline_exceeded),
      static_cast<long long>(st.errors));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags(argc, argv);
  if (flags.has("help")) {
    print_usage(stdout);
    return 0;
  }
  if (report_unknown_flags(flags, kKnownFlags, "xbar-serve") > 0) {
    print_usage(stderr);
    return 2;
  }
  const auto socket_path = flags.get_string("socket", "./xbar-serve.sock");
  serve_config config;
  try {
    config = read_config(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbar-serve: %s\n", e.what());
    print_usage(stderr);
    return 2;
  }
  try {
    if (flags.has("client")) {
      return run_client(socket_path, flags.get_string("client", ""),
                        config.retry);
    }
    return run_daemon(flags, socket_path, config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbar-serve: %s\n", e.what());
    return 1;
  }
}
