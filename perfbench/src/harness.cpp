#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <random>

#include "explore/codec.h"
#include "gen/json.h"
#include "util/error.h"
#include "xbar/synthesis.h"

namespace perfbench {

using namespace stx;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int tracer::open(const std::string& name, std::int64_t op, int parent,
                 bool replay) {
  span_record r;
  r.name = name;
  r.op = op;
  r.parent = parent;
  r.replay = replay;
  std::lock_guard<std::mutex> lock(mu_);
  r.start_ns = now_ns();
  spans_.push_back(std::move(r));
  return static_cast<int>(spans_.size()) - 1;
}

void tracer::close(int index) {
  const auto t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::map<std::string, std::vector<double>> tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9);
  }
  return out;
}

double tracer::replay_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    const bool outermost =
        s.parent < 0 || !spans_[static_cast<std::size_t>(s.parent)].replay;
    if (s.replay && outermost) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  gen::json::array events;
  events.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    events.push_back(gen::json::object{
        {"name", s.name},
        {"ph", "X"},
        {"pid", 1},
        {"tid", s.op},
        {"ts", static_cast<double>(s.start_ns - origin) * 1e-3},
        {"dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3},
        {"args", gen::json::object{{"span", static_cast<std::int64_t>(i)},
                                   {"parent", s.parent},
                                   {"replay", s.replay}}},
    });
  }
  std::ofstream out(path);
  STX_REQUIRE(out.good(), "cannot write " + path);
  out << gen::json::dump_compact(
      gen::json::object{{"traceEvents", std::move(events)}});
}

void pass_result::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 5) errors.push_back(why);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void set_from_repetitions(
    const std::map<std::string, obs::latency_accumulator>& per_input,
    double designs_per_op, pass_result& out) {
  obs::latency_accumulator typical;
  double total_s = 0.0;
  for (const auto& [input, reps] : per_input) {
    typical.record(reps.median_seconds());
    total_s += reps.median_seconds();
    out.latency_samples += reps.count();
  }
  if (typical.count() == 0) return;
  out.designs_per_s = designs_per_op * static_cast<double>(typical.count()) /
                      std::max(total_s, 1e-9);
  out.latency_ms_p50 = typical.median_seconds() * 1e3;
}

double speed_scale() {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> k(16'384);
    std::mt19937 rng(1);
    for (auto& x : k) x = static_cast<std::uint32_t>(rng());
    return k;
  }();
  thread_local std::vector<std::uint32_t> work;
  work = keys;
  obs::stopwatch sw;
  std::sort(work.begin(), work.end());
  const double s = sw.seconds();
  static volatile std::uint32_t sink = 0;
  sink = work[work.size() / 2];
  return kProbeNominalS / std::max(s, 1e-9);
}

namespace {

std::string check_design(const char* direction,
                         const xbar::crossbar_design& d, int full_buses) {
  const std::string dir = direction;
  if (d.num_buses < 1 || d.num_buses > full_buses) {
    return dir + ": " + std::to_string(d.num_buses) +
           " buses against a full crossbar of " + std::to_string(full_buses);
  }
  if (d.num_targets != full_buses ||
      static_cast<int>(d.binding.size()) != d.num_targets) {
    return dir + ": binding covers " + std::to_string(d.binding.size()) +
           " of " + std::to_string(full_buses) + " targets";
  }
  for (const int bus : d.binding) {
    if (bus < 0 || bus >= d.num_buses) {
      return dir + ": target bound to bus " + std::to_string(bus) + " of " +
             std::to_string(d.num_buses);
    }
  }
  return "";
}

}  // namespace

std::string check_report(const xbar::flow_report& r,
                         std::int64_t* report_bytes) {
  auto why = check_design("request", r.request_design, r.num_targets);
  if (why.empty()) {
    why = check_design("response", r.response_design, r.num_initiators);
  }
  if (why.empty() && r.designed_buses > r.full_buses) {
    why = "designed " + std::to_string(r.designed_buses) +
          " buses above the full " + std::to_string(r.full_buses);
  }
  if (!why.empty()) return r.app_name + " " + why;
  const auto blob = explore::encode_report(r);
  if (report_bytes != nullptr) {
    *report_bytes = static_cast<std::int64_t>(blob.size());
  }
  if (!(explore::decode_report(blob) == r)) {
    return r.app_name + ": decode_report(encode_report(r)) != r";
  }
  return "";
}

std::map<std::string, std::int64_t> obs_counts() {
  const auto snap = obs::snapshot();
  std::map<std::string, std::int64_t> out;
  for (const auto& c : snap.counters) out[c.name] = c.value;
  for (const auto& g : snap.gauges) out[g.name] = g.value;
  return out;
}

void add_obs_counts(const std::map<std::string, std::int64_t>& before,
                    const std::map<std::string, std::int64_t>& after,
                    pass_result& out) {
  const auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  // benchmark metric <- library counters (summed)
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      kMap = {
          {"sim.events",
           {"sim.events_processed", "sim.batch.events_processed"}},
          {"xbar.probes", {"xbar.synth.probes"}},
          {"xbar.feasibility_nodes", {"xbar.synth.feasibility_nodes"}},
          {"xbar.binding_nodes", {"xbar.synth.binding_nodes"}},
          {"milp.nodes", {"milp.nodes"}},
          {"lp.iterations", {"milp.lp_iterations"}},
          {"milp.cuts", {"milp.cuts"}},
      };
  for (const auto& [metric, sources] : kMap) {
    for (const auto& src : sources) out.counts[metric] += delta(src);
  }
}

std::pair<xbar::crossbar_design, xbar::crossbar_design> replay_synthesis(
    const xbar::collected_traces& traces, const xbar::flow_options& opts,
    tracer& tr, std::int64_t op, int parent) {
  const bool was_enabled = obs::enabled();
  obs::disable();
  auto req = opts.synth;
  req.params = xbar::effective_synthesis_params(opts, /*request=*/true);
  auto resp = opts.synth;
  resp.params = xbar::effective_synthesis_params(opts, /*request=*/false);
  std::optional<xbar::synthesis_input> in_req;
  std::optional<xbar::synthesis_input> in_resp;
  {
    scoped_span sp(&tr, "traffic.analyze", op, parent, true);
    in_req = xbar::input_from_trace(traces.request, req.params);
    in_resp = xbar::input_from_trace(traces.response, resp.params);
  }
  {
    scoped_span sp(&tr, "xbar.size_search", op, parent, true);
    xbar::min_feasible_buses(*in_req, req);
    xbar::min_feasible_buses(*in_resp, resp);
  }
  std::pair<xbar::crossbar_design, xbar::crossbar_design> out;
  {
    scoped_span sp(&tr, "xbar.synthesize", op, parent, true);
    out.first = xbar::synthesize(*in_req, req);
    out.second = xbar::synthesize(*in_resp, resp);
  }
  if (was_enabled) obs::enable();
  return out;
}

int paper_total_buses(const std::string& app) {
  static const std::map<std::string, int> kTable2 = {
      {"Mat1", 8}, {"Mat2", 6}, {"FFT", 15}, {"QSort", 6}, {"DES", 6}};
  const auto it = kTable2.find(app);
  return it == kTable2.end() ? -1 : it->second;
}

}  // namespace perfbench
