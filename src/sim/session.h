// Unified simulation-session API: the one place that builds an MPSoC
// system, runs it to a horizon and harvests traces + metrics.
//
// Every consumer of the simulator (the design flow's phase-1 collection
// and phase-4 validation in src/xbar, the exploration engine's trace
// cache in src/explore, the fuzz oracle's re-simulation in src/testkit)
// runs through a session, so the consumers cannot diverge on how a run
// is measured. A session is a batch of one on the simulation kernel
// (sim/batch.h); workloads::make_session builds one from an app_spec.
#pragma once

#include "sim/batch.h"

namespace stx::sim {

/// One simulation run from construction to a (resumable) horizon.
class session {
 public:
  /// `programs[i]` is the traffic program of core `i`; `num_targets` is
  /// the number of receiving endpoints on the request side.
  /// `loop_starts[i]` (optional, default all 0) marks where core i's loop
  /// body begins; earlier ops run once as a prologue. Throws on a
  /// malformed shape or config.
  session(std::vector<std::vector<core_op>> programs, int num_targets,
          const system_config& cfg, std::vector<std::size_t> loop_starts = {})
      : kernel_(std::move(programs), num_targets, std::move(loop_starts)) {
    kernel_.add_instance(cfg);
  }

  /// Advances the simulation to absolute cycle `horizon` (callable
  /// repeatedly with growing horizons); invalidates cached metrics.
  void run(cycle_t horizon) { kernel_.run(horizon); }

  cycle_t now() const { return kernel_.now(); }

  /// The harvested metrics at the current horizon (cached until the next
  /// run call).
  const run_metrics& metrics() const { return kernel_.metrics(0); }

  /// Phase-1 functional traffic traces (cfg.record_traces required for
  /// them to be non-empty). The request trace keys events by target id;
  /// the response trace keys them by initiator id — each feeds the
  /// synthesis of its own crossbar direction.
  const traffic::trace& request_trace() const {
    return kernel_.request_trace(0);
  }
  const traffic::trace& response_trace() const {
    return kernel_.response_trace(0);
  }

  /// Event-kernel counters, accumulated across runs.
  const engine_stats& stats() const { return kernel_.instance_stats(0); }

 private:
  batch kernel_;
};

}  // namespace stx::sim
