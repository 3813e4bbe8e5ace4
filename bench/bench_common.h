// Shared defaults for the table/figure reproduction harnesses.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/flags.h"
#include "util/table.h"
#include "workloads/mpsoc_apps.h"
#include "xbar/flow.h"

namespace stx::bench {

/// Exits 2 when `flags` contains anything outside `known`: bench output
/// feeds CI artifacts (BENCH_sweep.json), so a typo'd flag must not
/// silently fall back to defaults — same contract as xbargen/xbar-sweep.
inline void require_known_flags(const flag_set& flags,
                                const std::vector<std::string>& known) {
  if (report_unknown_flags(flags, known, "bench") > 0) {
    std::fprintf(stderr, "bench: known flags:");
    for (const auto& k : known) std::fprintf(stderr, " --%s", k.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

/// Floors a measured duration away from zero so derived rates stay
/// finite (sub-resolution runs at tiny horizons would otherwise put inf
/// into the JSON, which gen::json refuses to serialise).
inline double finite_seconds(double secs) { return std::max(secs, 1e-9); }

/// The one repeated-measurement loop every bench uses: runs `fn(rep)`
/// `repeats` times (at least once) and records each returned duration —
/// `fn` measures its own timed region and returns seconds, so setup work
/// inside the callback stays out of the measurement. The returned
/// accumulator is the single definition of "minimum / median wall time
/// over N repetitions" (obs::latency_accumulator), replacing the
/// hand-rolled min-of-N loops each bench previously duplicated.
template <typename Fn>
obs::latency_accumulator time_reps(int repeats, Fn&& fn) {
  obs::latency_accumulator acc;
  for (int r = 0; r < std::max(repeats, 1); ++r) {
    acc.record(finite_seconds(fn(r)));
  }
  return acc;
}

/// Flow settings of the paper-reproduction benches: the library's
/// defaults, the design point the CLIs and the serve daemon start from
/// (window 400, ~2-4x the apps' characteristic burst length; 30% overlap
/// threshold; maxtb 4; 120k-cycle simulations).
inline xbar::flow_options default_flow() { return xbar::flow_options{}; }

/// Prints the standard bench header: what artefact is being reproduced
/// and which knobs are in force.
inline void print_header(const std::string& artefact,
                         const std::string& note) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artefact.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("==============================================================\n");
}

/// Shared-bus configurations for a given app (one bus per direction).
inline sim::crossbar_config shared_request(const workloads::app_spec& app) {
  return sim::crossbar_config::shared(app.num_targets);
}
inline sim::crossbar_config shared_response(const workloads::app_spec& app) {
  return sim::crossbar_config::shared(app.num_initiators);
}

}  // namespace stx::bench
