// Unified observability: hierarchical spans, a process-wide metrics
// registry, and shared wall-clock accumulators for the whole design flow.
//
// Three facilities, one discipline:
//
//  * obs::span — RAII scoped timer. Spans nest per thread (the depth is
//    recorded), carry key/value attributes, and land in a global trace
//    buffer that export.h renders as Chrome-trace-event / Perfetto JSON.
//    Ending a span also feeds its duration into the registry's wall
//    section, so a metrics snapshot answers "where does a flow spend its
//    time" even without the full trace.
//
//  * metrics registry — named monotonic counters and high-water gauges
//    (the DETERMINISTIC section: values must be bit-identical across
//    thread counts and runs, because they join the testkit oracle's
//    cross-check surface; only order-independent updates — integer sums
//    and maxima — are offered) plus wall-clock accumulators (the
//    explicitly NON-deterministic section; diffing tools and goldens
//    ignore it). Snapshots are name-sorted, so rendering is
//    deterministic too.
//
//  * stopwatch / latency_accumulator — the one definition of measured
//    wall time. The registry's wall section, the bench harnesses'
//    min-of-N / median-of-N loops (bench/bench_common.h) and the trace
//    exporter all read this clock, so BENCH_*.json and interactive
//    traces agree on what a second is.
//
// The whole subsystem is OFF by default: every entry point first reads
// one relaxed atomic flag and returns, so instrumented hot paths cost a
// predicted-not-taken branch when no --trace-out/--metrics-out consumer
// asked for telemetry. stopwatch and latency_accumulator are standalone
// value types and work regardless of the flag.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace stx::obs {

// ---------------------------------------------------------------------
// Global enablement.

/// True when telemetry collection is on (relaxed read; safe anywhere).
bool enabled();
/// Turns collection on. The first enable() after a reset() (or process
/// start) anchors the trace clock's origin.
void enable();
/// Turns collection off. Spans already open keep recording when they
/// started while enabled.
void disable();
/// Clears counters, gauges, wall accumulators and the trace buffer, and
/// re-arms the clock origin. Does not change the enabled flag.
void reset();

// ---------------------------------------------------------------------
// Wall-clock primitives (standalone: not gated on enabled()).

/// Monotonic wall-clock timer; the single clock every obs consumer and
/// bench harness reads.
class stopwatch {
 public:
  stopwatch() { restart(); }
  void restart();
  /// Seconds elapsed since construction / the last restart().
  double seconds() const;

 private:
  std::int64_t start_ns_ = 0;
};

/// Sample-retaining wall-time accumulator: the one definition of
/// "minimum / median wall time over N repetitions" shared by every bench
/// harness (bench/bench_common.h) and by obs consumers that need exact
/// quantiles.
class latency_accumulator {
 public:
  latency_accumulator() : stats_(/*keep_samples=*/true) {}

  void record(double seconds) { stats_.add(seconds); }

  std::int64_t count() const { return stats_.count(); }
  double total_seconds() const { return stats_.sum(); }
  double min_seconds() const { return stats_.min(); }
  double max_seconds() const { return stats_.max(); }
  /// Exact median over the recorded samples; requires count() > 0.
  double median_seconds() const { return stats_.percentile(0.5); }
  double percentile_seconds(double p) const { return stats_.percentile(p); }

 private:
  running_stats stats_;
};

// ---------------------------------------------------------------------
// Spans.

/// One key/value span or trace-event attribute. Values are strings or
/// 64-bit integers (integers stay numbers in the exported JSON).
struct attr {
  std::string key;
  std::string str;        ///< value when !is_int
  std::int64_t num = 0;   ///< value when is_int
  bool is_int = false;

  attr(std::string k, std::string v)
      : key(std::move(k)), str(std::move(v)) {}
  attr(std::string k, const char* v) : key(std::move(k)), str(v) {}
  attr(std::string k, std::int64_t v)
      : key(std::move(k)), num(v), is_int(true) {}
  attr(std::string k, int v)
      : key(std::move(k)), num(v), is_int(true) {}

  bool operator==(const attr&) const = default;
};

/// RAII scoped timer. Construction (while enabled) records the start
/// time, the calling thread and the per-thread nesting depth;
/// destruction appends one complete event to the trace buffer and the
/// duration to the registry's wall section under the span's name.
/// No-op (no clock read, no allocation) when telemetry is disabled at
/// construction.
class span {
 public:
  explicit span(std::string_view name);
  span(std::string_view name, std::initializer_list<attr> attrs);
  ~span();

  span(const span&) = delete;
  span& operator=(const span&) = delete;

  /// Attaches one more attribute (e.g. a result computed inside the
  /// span). Ignored when the span is inactive.
  void set_attr(attr a);

 private:
  bool active_ = false;
  std::int64_t start_ns_ = 0;
  std::string name_;
  std::vector<attr> attrs_;
};

// ---------------------------------------------------------------------
// Metrics registry.

/// Adds `delta` to the named monotonic counter (deterministic section).
/// Integer addition is order-independent, so totals are bit-identical
/// across thread counts for the same work.
void add_counter(std::string_view name, std::int64_t delta);

/// Raises the named high-water gauge to at least `value` (deterministic
/// section; max-merge is order-independent like counter addition).
void gauge_max(std::string_view name, std::int64_t value);

/// Records one wall-time sample under `name` (NON-deterministic
/// section).
void record_wall(std::string_view name, double seconds);

struct counter_entry {
  std::string name;
  std::int64_t value = 0;

  bool operator==(const counter_entry&) const = default;
};

/// O(1) summary of one wall accumulator (the registry keeps no samples:
/// long campaigns must not grow memory per measurement).
struct wall_entry {
  std::string name;
  std::int64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Point-in-time view of the registry, every section sorted by name.
/// `counters` and `gauges` are the deterministic cross-check surface;
/// `wall` is explicitly non-deterministic (timing).
struct metrics_snapshot {
  std::vector<counter_entry> counters;
  std::vector<counter_entry> gauges;
  std::vector<wall_entry> wall;

  /// The named counter's value, 0 when absent.
  std::int64_t counter(std::string_view name) const;
  /// The named wall entry, or nullptr when absent.
  const wall_entry* find_wall(std::string_view name) const;
};

metrics_snapshot snapshot();

// ---------------------------------------------------------------------
// Trace buffer.

/// One finished span, as the exporter sees it. Timestamps are
/// nanoseconds since the clock origin (first enable() after reset()).
struct trace_event {
  std::string name;
  int tid = 0;    ///< dense per-thread index (first span wins 0)
  int depth = 0;  ///< per-thread nesting depth at the span's start
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::vector<attr> attrs;
};

/// Snapshot of the trace buffer in completion order. The buffer is
/// bounded (oldest-kept): events beyond the cap are dropped and counted
/// in the "obs.trace_dropped" counter instead of growing memory
/// unboundedly during long campaigns.
std::vector<trace_event> trace_events();

}  // namespace stx::obs
