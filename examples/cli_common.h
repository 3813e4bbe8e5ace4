// Helpers shared by the xbargen / xbar-sweep / xbar-fuzz / xbar-serve CLI
// drivers.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "obs/export.h"
#include "obs/obs.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/flags.h"
#include "xbar/flow.h"

namespace stx::cli {

/// Usage lines of the flow knobs both xbargen and xbar-sweep take.
inline constexpr const char* kSharedKnobUsage =
    "  --horizon=N         simulation cycles (120000)\n"
    "  --conflicts=BOOL    overlap-conflict pre-processing (true)\n"
    "  --critical=BOOL     separate critical streams (true)\n"
    "  --solver-node-limit=N  branch & bound node budget per solve "
    "(> 0; default 20000000)\n"
    "  --solver-time-ms=N  solver wall-clock budget per solve in "
    "milliseconds (>= 0, 0 = unlimited; default 60000)\n"
    "  --solver-threads=N  branch & bound worker threads per solve (1;\n"
    "                      results are bit-identical at every count)\n"
    "  --solver-cuts=BOOL  root cover/clique cut layer (true)\n"
    "  --solver-portfolio=BOOL  race the specialized solver against\n"
    "                      the MILP on feasibility probes (false)\n";

/// A CLI's base flow options: its knob flags read by the serve
/// protocol's reader (serve::read_flow_options; a flag is its request
/// field with dashes) over xbar::flow_options{}, then
/// flow_options::validate. Throws invalid_argument_error on a malformed
/// or out-of-range value; the CLIs read every flag before any work and
/// answer that with usage and exit 2. A CLI's known-flag list names the
/// knobs it takes, so no other field reaches the reader.
inline xbar::flow_options flow_options_from_flags(const flag_set& flags) {
  auto opts = serve::read_flow_options(flags);
  opts.validate();
  return opts;
}

/// --name=N as an int from `min` to INT_MAX (`fallback` when absent);
/// throws invalid_argument_error on anything else, never narrows.
inline int int_flag(const flag_set& flags, const char* name, int fallback,
                    int min) {
  constexpr int kMax = std::numeric_limits<int>::max();
  const auto v = flags.get_int(name, fallback);
  if (v < min || v > kMax) {
    throw invalid_argument_error(std::string("--") + name + " must be from " +
                                 std::to_string(min) + " to " +
                                 std::to_string(kMax));
  }
  return static_cast<int>(v);
}

/// Parses --cache-max-bytes (the disk_store eviction cap; 0 = unlimited)
/// with the same reject-don't-default contract as the flow knobs.
inline std::uint64_t cache_max_bytes_flag(const flag_set& flags) {
  const std::int64_t cap = flags.get_int("cache-max-bytes", 0);
  if (cap < 0) {
    throw invalid_argument_error("--cache-max-bytes must be >= 0");
  }
  return static_cast<std::uint64_t>(cap);
}

/// The --trace-out / --metrics-out contract shared by all three CLIs:
/// construct after flag parsing (telemetry collection turns on only when
/// at least one output was requested — otherwise every obs entry point
/// stays a no-op), call finish() after the work completes to write the
/// requested files. Write failures throw invalid_argument_error, which
/// the drivers' existing catch blocks turn into exit 1.
class obs_output {
 public:
  explicit obs_output(const flag_set& flags)
      : trace_path_(flags.get_string("trace-out", "")),
        metrics_path_(flags.get_string("metrics-out", "")) {
    if (!trace_path_.empty() || !metrics_path_.empty()) {
      obs::reset();
      obs::enable();
    }
  }

  void finish() const {
    if (!trace_path_.empty()) obs::write_trace_json(trace_path_);
    if (!metrics_path_.empty()) obs::write_metrics_json(metrics_path_);
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

}  // namespace stx::cli
