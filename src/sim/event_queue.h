// Calendar/priority event queue for the event-driven simulation kernel.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "sim/packet.h"

namespace stx::sim {

/// Sentinel returned by component next_wake() queries: nothing can make
/// this component act until an external event (a delivery, an enqueue, a
/// barrier arrival) wakes it.
inline constexpr cycle_t no_wake = -1;

/// When a component acts within a cycle. The order replicates the legacy
/// polling loop's per-cycle sweep (cores, request buses, targets,
/// response buses), which is what makes the two kernels bit-identical:
/// an event kernel that steps the same components in the same per-cycle
/// phase order — and only ever *adds* steps that are provable no-ops —
/// cannot diverge from the polling loop.
enum sim_phase : int {
  phase_core = 0,          ///< cores may issue new requests
  phase_request_bus = 1,   ///< request crossbar moves cells to targets
  phase_target = 2,        ///< targets emit ready replies
  phase_response_bus = 3,  ///< response crossbar moves cells to cores
};

/// One scheduled wake: cycle-major, then polling-phase order, then
/// component id — the stable tie-break that keeps simultaneous wakes
/// deterministic.
struct event_key {
  cycle_t cycle = 0;
  int phase = 0;
  int component = 0;

  auto operator<=>(const event_key&) const = default;
};

/// Binary min-heap of wake events, ordered by event_key. Duplicates are
/// legal — several causes may wake the same component at the same cycle
/// (its own re-arm plus a barrier arrival, say); the engine drops them at
/// pop time, so pushing is always safe and never requires a lookup.
///
/// The heap stores each key packed into one 64-bit word — cycle in the
/// high bits, then the 2-bit phase, then the component id — so that
/// ordering two keys is one integer comparison instead of three field
/// comparisons, in exactly event_key order. Keys must fit the fields:
/// 0 <= cycle < cycle_limit, 0 <= component < component_limit. The queue
/// does not check; sim::engine rejects systems and horizons that could
/// produce a key outside them.
class event_queue {
 public:
  static constexpr int component_bits = 16;
  static constexpr int phase_bits = 2;
  /// Exclusive upper bound of a key's component id.
  static constexpr int component_limit = 1 << component_bits;
  /// Exclusive upper bound of a key's cycle.
  static constexpr cycle_t cycle_limit = cycle_t{1}
                                         << (64 - phase_bits - component_bits);

  static constexpr std::uint64_t pack(const event_key& k) {
    return (static_cast<std::uint64_t>(k.cycle)
            << (phase_bits + component_bits)) |
           (static_cast<std::uint64_t>(k.phase) << component_bits) |
           static_cast<std::uint64_t>(k.component);
  }
  static constexpr event_key unpack(std::uint64_t w) {
    return {static_cast<cycle_t>(w >> (phase_bits + component_bits)),
            static_cast<int>((w >> component_bits) &
                             ((1u << phase_bits) - 1)),
            static_cast<int>(w & (component_limit - 1))};
  }

  void push(const event_key& k);
  /// Smallest pending key; queue must be non-empty.
  event_key top() const;
  /// Removes and returns the smallest pending key; queue must be
  /// non-empty.
  event_key pop();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  std::int64_t total_pushed() const { return pushed_; }

 private:
  std::vector<std::uint64_t> heap_;
  std::int64_t pushed_ = 0;
};

/// Counters describing one event-driven run; exposed through
/// mpsoc_system::event_stats() so benches and tests can see how much
/// work the kernel actually skipped.
struct engine_stats {
  std::int64_t events_processed = 0;  ///< component wake handlers executed
  std::int64_t events_skipped = 0;    ///< duplicate wakes dropped at pop
  std::int64_t cycles_visited = 0;    ///< distinct cycles with any event
};

}  // namespace stx::sim
