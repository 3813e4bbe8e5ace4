// Event-driven simulation kernel.
//
// A per-cycle polling loop would visit every core, bus and target every
// cycle, even when nothing can advance — O(components) per cycle no
// matter how idle the system is (the seed repo's kernel worked that way;
// it soaked one release as the differential reference and was retired).
// The engine instead keeps a calendar queue of wake
// events: components register the next cycle at which their step function
// could change state (compute completions, transfer completions, reply
// ready times, barrier poll deadlines), external interactions (a request
// enqueued, a reply delivered, a barrier arrival) push wakes for the
// affected component, and whole idle spans are skipped in O(log n) per
// event.
//
// Determinism contract: events are processed in (cycle, phase,
// component) order, where the phases replicate the retired polling
// loop's per-cycle sweep (cores -> request buses -> targets -> response
// buses) and the component id is the same iteration order that loop
// used. Because every component's step/wake function is a no-op whenever
// nothing can advance, the engine may *add* spurious wakes freely but
// must never miss a state-changing one — the discipline under which the
// retired kernel and this one produced bit-identical traces, latency
// statistics and RNG streams for a full release (testkit invariant
// "kernel-equivalence", now retired with the polling loop; tests/sim
// still enforce segmented-run determinism).
#pragma once

#include "sim/event_queue.h"
#include "sim/system.h"

namespace stx::sim {

/// Drives one mpsoc_system through its wake handlers. Stateless across
/// runs: the queue is reseeded from component state on construction, so
/// mpsoc_system::run can instantiate a fresh engine per segment and
/// resumed runs stay bit-identical to a single longer run.
class engine {
 public:
  /// An engine that will run `sys` up to `horizon`. Throws
  /// stx::invalid_argument_error when a wake of this run could not be
  /// packed into an event_queue key: a phase with more than
  /// event_queue::component_limit components, or a horizon past
  /// event_queue::cycle_limit.
  engine(mpsoc_system& sys, cycle_t horizon);

  /// Processes all events strictly before the horizon (callable once).
  void run();

  const engine_stats& stats() const { return stats_; }

 private:
  void seed();
  /// Queues a wake for (phase, comp). `cycle` may be no_wake (ignored) or
  /// lie in the past / at the event currently being processed — it is
  /// clamped forward so the wake lands strictly after the current event,
  /// exactly when the polling loop would next visit the component.
  void schedule(int phase, int comp, cycle_t cycle);
  /// Barrier arrival: re-wake every core (cores past their polling-loop
  /// slot this cycle see the change next cycle, the rest this cycle).
  void wake_all_cores();
  int gid(int phase, int comp) const;

  mpsoc_system& sys_;
  event_queue queue_;
  std::vector<cycle_t> last_stepped_;  ///< per gid, dedupes same-cycle wakes
  event_key current_{};
  cycle_t start_ = 0;
  cycle_t horizon_ = 0;
  bool processing_ = false;
  bool ran_ = false;
  int num_cores_ = 0;
  int num_request_buses_ = 0;
  int num_targets_ = 0;
  int num_response_buses_ = 0;
  engine_stats stats_;
};

}  // namespace stx::sim
