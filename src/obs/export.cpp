#include "obs/export.h"

#include <algorithm>
#include <fstream>

// GCC 12's -O2 dataflow falsely flags std::variant move internals as
// maybe-uninitialized when vectors of json::value reallocate (GCC
// PR105562); silenced at the consuming TU like the other gen::json
// consumers.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "gen/json.h"
#include "util/error.h"

namespace stx::obs {

namespace {

namespace json = gen::json;

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }
double ms(double seconds) { return seconds * 1e3; }

json::object args_json(const trace_event& ev) {
  json::object args;
  for (const auto& a : ev.attrs) {
    if (a.is_int) {
      args.emplace_back(a.key, a.num);
    } else {
      args.emplace_back(a.key, a.str);
    }
  }
  args.emplace_back("depth", ev.depth);
  return args;
}

void write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path, std::ios::binary);
  STX_REQUIRE(static_cast<bool>(out),
              std::string("cannot open ") + what + " output file '" + path +
                  "' for writing");
  out << content;
  out.flush();
  STX_REQUIRE(static_cast<bool>(out),
              std::string("failed writing ") + what + " output file '" +
                  path + "'");
}

}  // namespace

json::value trace_document(const std::vector<trace_event>& events) {
  // Sort by start time (then thread, then deeper-first so a parent
  // precedes its same-start children) — viewers accept any order, but a
  // time-sorted file diffs and greps sanely.
  std::vector<const trace_event*> order;
  order.reserve(events.size());
  for (const auto& ev : events) order.push_back(&ev);
  std::stable_sort(order.begin(), order.end(),
                   [](const trace_event* a, const trace_event* b) {
                     if (a->start_ns != b->start_ns) {
                       return a->start_ns < b->start_ns;
                     }
                     if (a->tid != b->tid) return a->tid < b->tid;
                     return a->depth < b->depth;
                   });
  json::array trace;
  trace.reserve(order.size());
  for (const auto* ev : order) {
    trace.push_back(json::object{
        {"name", ev->name},
        {"cat", "stx"},
        {"ph", "X"},
        {"ts", us(ev->start_ns)},
        {"dur", us(ev->dur_ns)},
        {"pid", 1},
        {"tid", ev->tid},
        {"args", args_json(*ev)},
    });
  }
  json::object doc;
  doc.emplace_back("traceEvents", std::move(trace));
  doc.emplace_back("displayTimeUnit", "ms");
  return json::value(std::move(doc));
}

json::value trace_document() { return trace_document(trace_events()); }

json::value metrics_document(const metrics_snapshot& snap) {
  json::object counters;
  counters.reserve(snap.counters.size());
  for (const auto& c : snap.counters) counters.emplace_back(c.name, c.value);
  json::object gauges;
  gauges.reserve(snap.gauges.size());
  for (const auto& g : snap.gauges) gauges.emplace_back(g.name, g.value);
  json::object wall;
  wall.reserve(snap.wall.size());
  for (const auto& w : snap.wall) {
    wall.emplace_back(
        w.name,
        json::object{
            {"count", w.count},
            {"total_ms", ms(w.total_seconds)},
            {"min_ms", ms(w.min_seconds)},
            {"max_ms", ms(w.max_seconds)},
            {"mean_ms",
             w.count > 0 ? ms(w.total_seconds / static_cast<double>(w.count))
                         : 0.0},
        });
  }
  json::object doc;
  doc.emplace_back("schema", "stx-metrics/v1");
  doc.emplace_back("counters", std::move(counters));
  doc.emplace_back("gauges", std::move(gauges));
  doc.emplace_back("wall_nondeterministic", std::move(wall));
  return json::value(std::move(doc));
}

json::value metrics_document() { return metrics_document(snapshot()); }

std::string render_trace_json(const std::vector<trace_event>& events) {
  return json::dump(trace_document(events));
}

std::string render_trace_json() { return json::dump(trace_document()); }

std::string render_metrics_json(const metrics_snapshot& snap) {
  return json::dump(metrics_document(snap));
}

std::string render_metrics_json() { return json::dump(metrics_document()); }

void write_trace_json(const std::string& path) {
  write_file(path, render_trace_json(), "trace");
}

void write_metrics_json(const std::string& path) {
  write_file(path, render_metrics_json(), "metrics");
}

}  // namespace stx::obs
