#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>

namespace stx::obs {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct wall_accum {
  std::int64_t count = 0;
  double total = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double s) {
    if (count == 0) {
      min = max = s;
    } else {
      min = std::min(min, s);
      max = std::max(max, s);
    }
    ++count;
    total += s;
  }
};

/// All mutable global state behind one mutex. Telemetry writes are rare
/// relative to the work they measure (spans close per flow stage, counter
/// flushes happen per solve/run, never per pivot or event), so a single
/// lock is simpler than sharded state and nowhere near contention.
struct state {
  std::mutex mu;
  std::int64_t origin_ns = 0;  ///< 0 = not yet anchored
  int next_tid = 0;
  std::map<std::string, std::int64_t, std::less<>> counters;
  std::map<std::string, std::int64_t, std::less<>> gauges;
  std::map<std::string, wall_accum, std::less<>> wall;
  std::vector<trace_event> trace;
  std::int64_t trace_dropped = 0;
};

/// Bound on retained trace events; beyond it spans are counted, not
/// stored (long fuzz campaigns would otherwise grow without limit).
constexpr std::size_t kMaxTraceEvents = 1 << 20;

std::atomic<bool> g_enabled{false};

state& st() {
  static state s;
  return s;
}

/// Dense thread index, assigned on a thread's first finished span.
int local_tid() {
  thread_local int tid = -1;
  if (tid < 0) {
    std::lock_guard<std::mutex> lock(st().mu);
    tid = st().next_tid++;
  }
  return tid;
}

int& local_depth() {
  thread_local int depth = 0;
  return depth;
}

void anchor_origin_locked(state& s) {
  if (s.origin_ns == 0) s.origin_ns = now_ns();
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void enable() {
  auto& s = st();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    anchor_origin_locked(s);
  }
  g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
  auto& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  s.counters.clear();
  s.gauges.clear();
  s.wall.clear();
  s.trace.clear();
  s.trace_dropped = 0;
  s.origin_ns = now_ns();
}

// ---------------------------------------------------------------------
// stopwatch

void stopwatch::restart() { start_ns_ = now_ns(); }

double stopwatch::seconds() const {
  return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

// ---------------------------------------------------------------------
// span

span::span(std::string_view name) {
  if (!enabled()) return;
  active_ = true;
  name_ = name;
  start_ns_ = now_ns();
  ++local_depth();
}

span::span(std::string_view name, std::initializer_list<attr> attrs)
    : span(name) {
  if (active_) attrs_.assign(attrs.begin(), attrs.end());
}

void span::set_attr(attr a) {
  if (active_) attrs_.push_back(std::move(a));
}

span::~span() {
  if (!active_) return;
  const std::int64_t end_ns = now_ns();
  const int depth = --local_depth();
  const int tid = local_tid();
  // A disable() between construction and destruction drops the event;
  // the depth bookkeeping above must still run so sibling spans on this
  // thread stay consistent.
  if (!enabled()) return;
  auto& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  const double dur_s = static_cast<double>(end_ns - start_ns_) * 1e-9;
  s.wall[name_].add(dur_s);
  if (s.trace.size() >= kMaxTraceEvents) {
    ++s.trace_dropped;
    s.counters["obs.trace_dropped"] = s.trace_dropped;
    return;
  }
  trace_event ev;
  ev.name = std::move(name_);
  ev.tid = tid;
  ev.depth = depth;
  ev.start_ns = start_ns_ - s.origin_ns;
  ev.dur_ns = end_ns - start_ns_;
  ev.attrs = std::move(attrs_);
  s.trace.push_back(std::move(ev));
}

// ---------------------------------------------------------------------
// registry

void add_counter(std::string_view name, std::int64_t delta) {
  if (!enabled()) return;
  auto& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.counters.find(name);
  if (it == s.counters.end()) {
    s.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void gauge_max(std::string_view name, std::int64_t value) {
  if (!enabled()) return;
  auto& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.gauges.find(name);
  if (it == s.gauges.end()) {
    s.gauges.emplace(std::string(name), value);
  } else {
    it->second = std::max(it->second, value);
  }
}

void record_wall(std::string_view name, double seconds) {
  if (!enabled()) return;
  auto& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.wall.find(name);
  if (it == s.wall.end()) {
    it = s.wall.emplace(std::string(name), wall_accum{}).first;
  }
  it->second.add(seconds);
}

std::int64_t metrics_snapshot::counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const wall_entry* metrics_snapshot::find_wall(std::string_view name) const {
  for (const auto& w : wall) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

metrics_snapshot snapshot() {
  auto& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  metrics_snapshot out;
  out.counters.reserve(s.counters.size());
  for (const auto& [name, value] : s.counters) {
    out.counters.push_back({name, value});
  }
  out.gauges.reserve(s.gauges.size());
  for (const auto& [name, value] : s.gauges) {
    out.gauges.push_back({name, value});
  }
  out.wall.reserve(s.wall.size());
  for (const auto& [name, acc] : s.wall) {
    out.wall.push_back({name, acc.count, acc.total, acc.min, acc.max});
  }
  return out;
}

std::vector<trace_event> trace_events() {
  auto& s = st();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.trace;
}

}  // namespace stx::obs
