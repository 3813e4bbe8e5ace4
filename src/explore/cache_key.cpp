#include "explore/cache_key.h"

#include <cinttypes>
#include <cstdio>

namespace stx::explore {

namespace {

/// Characters that would break the one-line space-separated k=v wire
/// form; everything else passes through verbatim so keys stay readable.
bool needs_escape(char c) {
  return c == '%' || c == ' ' || c == '=' || c == '\n' || c == '\r' ||
         c == '\t';
}

std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (needs_escape(c)) {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

cache_key base_key(cache_stage stage, const std::string& app_id,
                   const xbar::flow_options& opts) {
  cache_key k;
  k.stage = stage;
  k.app = app_id;
  k.horizon = opts.horizon;
  k.seed = opts.seed;
  k.policy = static_cast<int>(opts.policy);
  k.transfer_overhead = opts.transfer_overhead;
  return k;
}

}  // namespace

const char* to_string(cache_stage s) {
  switch (s) {
    case cache_stage::trace:
      return "trace";
    case cache_stage::report:
      return "report";
    case cache_stage::metrics:
      return "metrics";
  }
  return "?";
}

cache_key trace_key(const std::string& app_id,
                    const xbar::flow_options& opts) {
  return base_key(cache_stage::trace, app_id, opts);
}

cache_key report_key(const std::string& app_id, const xbar::flow_options& opts,
                     bool validated) {
  auto k = base_key(cache_stage::report, app_id, opts);
  const auto& p = opts.synth.params;
  k.window_size = p.window_size;
  k.overlap_threshold = p.overlap_threshold;
  k.max_targets_per_bus = p.max_targets_per_bus;
  k.burst_window = p.burst_window;
  k.use_overlap_conflicts = p.use_overlap_conflicts;
  k.separate_critical = p.separate_critical;
  k.request_window = opts.request_window_override;
  k.response_window = opts.response_window_override;
  k.solver = static_cast<int>(opts.synth.solver);
  k.optimize_binding = opts.synth.optimize_binding;
  k.max_nodes = opts.synth.limits.max_nodes;
  k.time_limit_sec = opts.synth.limits.time_limit_sec;
  k.cuts = opts.synth.limits.cuts;
  k.portfolio = opts.synth.limits.portfolio;
  k.validated = validated;
  return k;
}

cache_key metrics_key(const std::string& app_id,
                      const xbar::flow_options& opts) {
  auto k = report_key(app_id, opts, /*validated=*/false);
  k.stage = cache_stage::metrics;
  return k;
}

std::string encode(const cache_key& key) {
  std::string out = "stxkey/v1";
  const auto field = [&out](const char* name, const std::string& v) {
    out += ' ';
    out += name;
    out += '=';
    out += v;
  };
  field("v", std::to_string(key.version));
  field("stage", to_string(key.stage));
  field("app", escape(key.app));
  field("horizon", std::to_string(key.horizon));
  field("seed", std::to_string(key.seed));
  field("policy", std::to_string(key.policy));
  field("overhead", std::to_string(key.transfer_overhead));
  if (key.stage == cache_stage::report || key.stage == cache_stage::metrics) {
    field("win", std::to_string(key.window_size));
    field("thr", fmt_double(key.overlap_threshold));
    field("maxtb", std::to_string(key.max_targets_per_bus));
    field("burstwin", std::to_string(key.burst_window));
    field("conflicts", key.use_overlap_conflicts ? "1" : "0");
    field("critical", key.separate_critical ? "1" : "0");
    field("reqwin", std::to_string(key.request_window));
    field("respwin", std::to_string(key.response_window));
    field("solver", std::to_string(key.solver));
    field("bindopt", key.optimize_binding ? "1" : "0");
    field("nodes", std::to_string(key.max_nodes));
    field("timelimit", fmt_double(key.time_limit_sec));
    field("cuts", key.cuts ? "1" : "0");
    field("portfolio", key.portfolio ? "1" : "0");
    field("validated", key.validated ? "1" : "0");
  }
  return out;
}

std::uint64_t hash64(const cache_key& key) {
  // FNV-1a, the offset-basis/prime constants of the 64-bit variant.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : encode(key)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hash_hex(const cache_key& key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash64(key));
  return buf;
}

}  // namespace stx::explore
