// Named failpoints: deterministic fault injection for the serving and
// storage layers. A failpoint is a named site in production code where a
// test (or an operator, via the STX_FAILPOINTS environment variable) can
// inject a fault:
//
//   error       throw stx::error from the site
//   delay(MS)   sleep MS milliseconds at the site (queue/timeout tests)
//   torn-write  site-cooperative: the site receives the action and
//               deliberately corrupts its own output (e.g. truncating a
//               staged store object mid-write)
//   crash       std::_Exit(failpoint::crash_exit_code) — no destructors,
//               no atexit, no stdio flush: the closest portable stand-in
//               for kill -9 / power loss
//
// Arming:
//   stx::failpoint::arm("store.put.before_rename", "crash");   // in tests
//   STX_FAILPOINTS='store.put.fsync=error;serve.worker.execute=delay(50)'
//     ./xbar-serve ...                                          // from env
//
// Cost when disabled: every site first reads one process-wide relaxed
// atomic (armed()) and branches past the whole mechanism — the same
// predicted-not-taken discipline as the obs subsystem. Sites only take
// the registry lock while at least one failpoint is armed anywhere.
//
// Sites wired in:
//   store.put.after_tmp_write   disk_store::put, staged bytes written
//   store.put.fsync             disk_store::put, before fsync (error =>
//                               the fsync is treated as failed)
//   store.put.before_rename     disk_store::put, staged + synced
//   store.put.after_rename      disk_store::put, published, dir not yet
//                               synced
//   store.get.read              disk_store::get (error => read treated
//                               as corrupt-as-miss)
//   serve.admission             service::run, before dedup and admission
//   serve.worker.execute        service::handle, before the flow runs
//   serve.conn.read             server connection, before reading a line
//                               (error => connection dropped)
//   serve.conn.write            server connection, before writing a
//                               response (error => connection dropped)
//   serve.accept.spawn          server accept loop, before starting a
//                               connection thread (error => the start
//                               fails: connection dropped, loop goes on)
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stx::failpoint {

/// Exit code of a `crash` action, so crash-recovery tests can tell an
/// injected crash from any other child failure.
inline constexpr int crash_exit_code = 42;

enum class action_kind { none, error, delay, torn_write, crash };

struct action {
  action_kind kind = action_kind::none;
  int delay_ms = 0;  ///< meaningful when kind == delay
};

namespace detail {
extern std::atomic<int> armed_count;  ///< # of currently armed failpoints
}

/// Fast path: true iff at least one failpoint is armed anywhere in the
/// process. Relaxed read — safe (and intended) on hot paths.
inline bool armed() {
  return detail::armed_count.load(std::memory_order_relaxed) > 0;
}

/// Arms `name` with `spec` ("error", "delay(50)", "torn-write",
/// "crash"), replacing any previous arming. Throws
/// stx::invalid_argument_error on a malformed spec.
void arm(const std::string& name, const std::string& spec);

/// Disarms `name`; a site that is not armed is a no-op. Idempotent.
void disarm(const std::string& name);

/// Disarms everything (test teardown).
void disarm_all();

/// Arms every "name=spec" entry in a ';'- or ','-separated list — the
/// STX_FAILPOINTS grammar. Throws on the first malformed entry.
void arm_from_spec(const std::string& spec_list);

/// Times the named site fired since it was (last) armed; 0 when never
/// armed. Survives disarm() so tests can assert post-mortem.
std::int64_t hits(const std::string& name);

/// Evaluates the named site. Handles delay (sleeps) and crash (_Exit)
/// internally; returns error / torn-write to the caller for
/// site-specific handling. none when the site is not armed.
action eval_action(std::string_view name);

/// Like eval_action, but an armed `error` throws
/// stx::error("failpoint '<name>' injected error") instead of being
/// returned — the right shape for sites whose callers already convert
/// exceptions into error responses. torn-write is ignored here (a site
/// that cannot tear its output simply doesn't).
void eval(std::string_view name);

}  // namespace stx::failpoint

/// Fire-and-forget site: delay/crash happen, error throws, torn-write is
/// ignored. Zero-cost (one relaxed load) when nothing is armed.
#define STX_FAILPOINT(name)                               \
  do {                                                    \
    if (::stx::failpoint::armed()) ::stx::failpoint::eval(name); \
  } while (0)

/// Site-cooperative form: returns the armed action (after handling
/// delay/crash internally) so the site can implement error / torn-write
/// itself.
#define STX_FAILPOINT_ACTION(name)                     \
  (::stx::failpoint::armed() ? ::stx::failpoint::eval_action(name) \
                             : ::stx::failpoint::action{})
