// The simulation kernel: cycle-accurate simulation of the Fig. 2(a)
// style MPSoC — program-driven cores issue read/write/barrier traffic
// through the request crossbar, memory targets reply through the
// response crossbar — for B independent instances of one application
// shape at a time.
//
// Event order. Every instance steps its components in (cycle, phase,
// component) order, the phases replicating a per-cycle polling sweep
// (cores -> request buses -> targets -> response buses). A component
// registers the next cycle its step could change state (compute
// completions, transfer completions, reply ready times, barrier poll
// deadlines), and external interactions (a request enqueued, a reply
// delivered, a barrier arrival) wake the component they affect. Spurious
// wakes are no-ops, so the kernel may add them freely but must never miss
// a state-changing one. Deterministic for a given (programs, config,
// seed) triple, and resumable: runs split at any horizons equal one long
// run.
//
// Layout. Component state lives in flat instance-major arrays (cores at
// [b*C + i], targets at [b*T + t], buses at per-instance base offsets,
// since designed crossbars differ in bus count), and every instance
// shares one calendar, so a sweep validates a cohort of design points in
// one pass with `run_metrics` harvested from running observers.
// Instances are mutually independent: an instance's results do not
// depend on which other instances share its batch. sim::session is a
// batch of one.
//
// Traces. Instances whose config asks for them (`record_traces`, phase 1
// of the design flow) append every delivered packet to a per-instance
// functional traffic trace at the moment it is delivered.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/config.h"
#include "traffic/trace.h"
#include "util/random.h"
#include "util/stats.h"

namespace stx::sim {

/// What a packet is doing in the transaction protocol.
enum class packet_kind {
  request_read,   ///< initiator -> target: read request (address beat)
  request_write,  ///< initiator -> target: write request carrying data
  response_read,  ///< target -> initiator: read data return
  response_ack,   ///< target -> initiator: write completion acknowledge
};

/// One packet travelling over one crossbar direction. `cells` is the
/// number of bus beats the packet occupies (one cell per cycle once
/// granted); `response_cells` on a request tells the target how large the
/// reply must be.
struct packet {
  int source = 0;          ///< sending endpoint id on this crossbar
  int dest = 0;            ///< receiving endpoint id on this crossbar
  int cells = 1;           ///< beats on the bus
  int response_cells = 1;  ///< size of the reply this request asks for
  packet_kind kind = packet_kind::request_read;
  bool critical = false;   ///< belongs to a real-time stream
  cycle_t issue = 0;       ///< cycle the packet entered the crossbar queue
  std::int64_t txn = 0;    ///< transaction id for request/response pairing
};

/// Sentinel of the components' next-wake queries: nothing can make the
/// component act until an external event (a delivery, an enqueue, a
/// barrier arrival) wakes it.
inline constexpr cycle_t no_wake = -1;

/// When a component acts within a cycle: a per-cycle polling sweep's
/// order (cores, request buses, targets, response buses).
enum sim_phase : int {
  phase_core = 0,          ///< cores may issue new requests
  phase_request_bus = 1,   ///< request crossbar moves cells to targets
  phase_target = 2,        ///< targets emit ready replies
  phase_response_bus = 3,  ///< response crossbar moves cells to cores
};

/// One scheduled wake: cycle-major, then phase order, then component id —
/// the stable tie-break that keeps simultaneous wakes deterministic.
struct event_key {
  cycle_t cycle = 0;
  int phase = 0;
  int component = 0;

  auto operator<=>(const event_key&) const = default;
};

/// Counters describing how much work the kernel did for one instance.
struct engine_stats {
  std::int64_t events_processed = 0;  ///< component steps executed
  std::int64_t events_skipped = 0;    ///< superseded wakes dropped
  std::int64_t cycles_visited = 0;    ///< distinct cycles with any event
};

/// Everything a consumer reads off one finished run, harvested from the
/// kernel's observers once per horizon.
struct run_metrics {
  double avg_latency = 0.0;   ///< mean packet latency, both crossbars
  double max_latency = 0.0;
  double p99_latency = 0.0;   ///< exact when samples kept, else max
  double avg_critical = 0.0;  ///< mean latency of critical packets (0 if none)
  double max_critical = 0.0;
  std::int64_t packets = 0;
  std::int64_t transactions = 0;
  std::int64_t iterations = 0;  ///< completed core loop iterations
  int total_buses = 0;          ///< request + response bus count

  bool operator==(const run_metrics&) const = default;
};

/// Bus arbitration (the "A" boxes of Fig. 1): the port granted among the
/// requesting ones, or -1 when none requests. Bit p of `requesting` (word
/// p / 64) is set when port p has a packet queued. Round robin grants the
/// first requester from `rr_last` + 1 on, wrapping, and records the grant
/// in `rr_last` (-1 = no grant yet); least-recently-granted grants the
/// requester with the oldest `lrg_last` stamp (-1 = never granted; ties
/// go to the lowest port) and stamps it with `now`; fixed priority grants
/// the lowest port. The kernel calls this for every grant.
int arbitrate(arbitration policy, std::span<const std::uint64_t> requesting,
              int ports, int& rr_last, std::span<cycle_t> lrg_last,
              cycle_t now);

/// Flat FIFO: a vector plus a head index, so a drained queue holds no
/// allocation chunks. Storage is recycled when the queue drains and
/// compacted when the dead prefix dominates.
template <typename T>
class flat_queue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  void push(const T& v) { items_.push_back(v); }
  const T& front() const { return items_[head_]; }
  void pop() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// Steps B independent system instances of one application shape in
/// lockstep. Construction fixes the shape (programs, target count, loop
/// starts — shared across instances); add_instance() appends one
/// (config, seed) point; run() advances every instance to the same
/// horizon (resumable).
class batch {
 public:
  /// `programs[i]` drives core i, `num_targets` receiving endpoints;
  /// `loop_starts[i]` (optional, default all 0) marks where core i's loop
  /// body begins — earlier ops run once as a prologue. At most 2^16 cores
  /// and 2^16 targets.
  batch(std::vector<std::vector<core_op>> programs, int num_targets,
        std::vector<std::size_t> loop_starts = {});

  /// Appends one instance; returns its index. Crossbar bindings are
  /// validated against the shape (at most 2^16 buses per direction).
  /// Instances can only be added before the first run().
  int add_instance(const system_config& cfg);

  /// Advances every instance to absolute cycle `horizon` (callable
  /// repeatedly with growing horizons); invalidates cached metrics.
  void run(cycle_t horizon);

  int size() const { return static_cast<int>(instances_.size()); }
  cycle_t now() const { return now_; }

  /// Harvested metrics of instance `b` at the current horizon (cached
  /// until the next run call).
  const run_metrics& metrics(int b) const;

  /// Functional traffic traces of instance `b`, extended to the current
  /// horizon (empty unless its config set record_traces). The request
  /// trace keys events by target id, the response trace by initiator id.
  const traffic::trace& request_trace(int b) const;
  const traffic::trace& response_trace(int b) const;

  /// Event-kernel counters of instance `b` (accumulated across runs).
  const engine_stats& instance_stats(int b) const;

 private:
  enum : std::uint8_t {
    st_ready = 0,
    st_computing = 1,
    st_waiting = 2,
  };
  enum : std::uint8_t {
    bp_announce = 0,
    bp_poll_wait = 1,
    bp_poll_inflight = 2,
  };

  /// Calendar ring span: one occupancy bit per slot in a 64-bit word.
  /// Wakes further ahead (long compute ops, long transfers) take the
  /// overflow heap instead.
  static constexpr cycle_t ring_size = 64;

  /// One core running its program in a loop.
  struct core_state {
    std::uint32_t pc = 0;
    std::uint8_t state = st_ready;
    std::uint8_t bphase = bp_announce;
    bool pending_arrival = false;  ///< arrival ack seen; register next step
    cycle_t compute_done = 0;
    cycle_t next_poll = 0;
    std::int64_t next_txn = 1;
    std::int64_t wait_txn = 0;
    std::int64_t iterations = 0;
    std::int64_t transactions = 0;
    rng jitter;
  };

  /// One memory target: queued requests with the cycles their replies
  /// become ready.
  struct target_job {
    packet request;
    cycle_t ready_at = 0;
  };
  struct target_state {
    flat_queue<target_job> jobs;
    cycle_t busy_until = 0;
  };

  /// One bus: the serialising resource of a crossbar.
  struct bus_state {
    packet current;            ///< the packet in flight
    cycle_t transfer_end = 0;  ///< first cycle the bus is free again
    cycle_t recv_begin = 0;    ///< first cycle of the in-flight occupancy
    cycle_t busy_from = 0;     ///< start of the unaccounted busy span
    cycle_t busy_cycles = 0;
    int rr_last = -1;          ///< round-robin pointer (-1 = none)
    int backlog = 0;           ///< non-empty port queues
    bool transferring = false;
  };

  /// One crossbar direction across every instance.
  struct direction {
    int ports = 0;                  ///< send ports per bus (C or T)
    int words = 1;                  ///< req_mask words per bus
    std::vector<bus_state> buses;   ///< [global bus index]
    std::vector<cycle_t> lrg_last;  ///< [gb*ports + p] last grant (-1)
    /// Bit p of word [gb*words + p/64] set when port p's queue is
    /// non-empty: the arbiter picks grants with bit scans instead of
    /// touching one queue header per port.
    std::vector<std::uint64_t> req_mask;
    std::vector<flat_queue<packet>> queues;  ///< [gb*ports + p]
  };

  /// One direction of one instance: its buses, routing and observers.
  struct link {
    int base = 0;                   ///< first global bus
    int count = 0;                  ///< bus count
    std::vector<int> binding;       ///< receiving endpoint -> local bus
    cycle_t overhead = 0;
    arbitration policy = arbitration::round_robin;
    running_stats latency;          ///< fed in delivery order
    running_stats critical;
    traffic::trace trace;
  };

  /// Per-instance configuration, observers and bookkeeping.
  struct instance {
    link request;
    link response;
    core_params core_cfg;
    target_params target_cfg;
    bool keep_samples = true;
    bool record_traces = true;
    /// Barrier board: arrivals per (barrier_id << 32 | epoch).
    std::vector<std::pair<std::int64_t, int>> board_counts;
    std::int64_t board_version = 0;
    /// Packed calendar entry bases, one per phase.
    std::array<std::uint64_t, 4> ebase{};
    cycle_t last_cycle = -1;  ///< stats only
    engine_stats stats;
    mutable std::optional<run_metrics> cached;
  };

  /// Lifetime totals over every instance, as last published to obs:
  /// run() publishes only the delta, so counters sum correctly across
  /// batches and resumed runs.
  struct telemetry_marks {
    std::int64_t events_processed = 0;
    std::int64_t events_skipped = 0;
    std::int64_t cycles_visited = 0;
    std::int64_t transactions = 0;
    cycle_t busy_cycles = 0;
  };

  struct ring_node {
    std::uint64_t entry;
    std::uint32_t next;
  };

  core_state& core_at(int b, int i) {
    return cores_[static_cast<std::size_t>(b) *
                      static_cast<std::size_t>(num_cores_) +
                  static_cast<std::size_t>(i)];
  }
  target_state& target_at(int b, int t) {
    return targets_[static_cast<std::size_t>(b) *
                        static_cast<std::size_t>(num_targets_) +
                    static_cast<std::size_t>(t)];
  }
  std::int64_t& barrier_visits(int b, int i, std::size_t pc) {
    return barrier_visits_[static_cast<std::size_t>(b) * ops_total_ +
                           visit_base_[static_cast<std::size_t>(i)] + pc];
  }
  const instance& instance_at(int b) const;

  void schedule(int b, int phase, int comp, cycle_t cycle);
  void ring_push(cycle_t cycle, std::uint64_t e);
  /// Moves every wake of `cycle` (ring slot and overflow) into drain_.
  void take_wakes(cycle_t cycle);
  /// The first cycle >= `from` holding a wake, or `limit` when none is
  /// earlier.
  cycle_t next_wake_cycle(cycle_t from, cycle_t limit) const;
  void seed_instance(int b);
  void process_event(int b, const event_key& key);
  telemetry_marks telemetry() const;

  // Component semantics.
  void core_step(int b, int i, cycle_t now);
  void core_advance(int b, int i);
  void core_on_response(int b, int i, const packet& p);
  cycle_t core_next_wake(int b, int i, cycle_t earliest);
  void send_request(int b, const packet& p);
  void send_response(int b, const packet& reply);
  static void board_arrive(instance& in, int barrier_id, std::int64_t epoch);
  static bool board_open(const instance& in, int barrier_id,
                         std::int64_t epoch, int group_size);

  static void bus_enqueue(direction& d, int gb, int port, const packet& p);
  static bool bus_start_transfer(direction& d, const link& l, int gb,
                                 cycle_t now);
  /// Wakes bus `gb`: returns true when a packet completed this call,
  /// filling (out, recv_begin, recv_end) — a wake delivers at most one
  /// packet. [recv_begin, recv_end) spans the packet's whole occupancy
  /// of the bus, overhead plus cells.
  static bool bus_wake(direction& d, const link& l, int gb, cycle_t now,
                       packet& out, cycle_t& rb, cycle_t& re);
  static cycle_t bus_next_wake(const bus_state& bus, cycle_t earliest);
  void target_step(int b, int t, cycle_t now);
  cycle_t target_next_wake(int b, int t, cycle_t earliest);

  run_metrics harvest(int b) const;

  // Shared shape.
  std::vector<std::vector<core_op>> programs_;
  std::vector<std::size_t> loop_starts_;
  std::vector<std::size_t> visit_base_;  ///< per core: offset into visits
  std::size_t ops_total_ = 0;            ///< sum of program lengths
  int num_cores_ = 0;
  int num_targets_ = 0;

  // Component state, instance-major.
  direction request_;
  direction response_;
  std::vector<core_state> cores_;      ///< [b*C + i]
  std::vector<target_state> targets_;  ///< [b*T + t]
  /// Barrier epoch counters, [b*ops_total + visit_base[i] + pc].
  std::vector<std::int64_t> barrier_visits_;
  std::vector<instance> instances_;

  // Shared scheduling state. Every instance shares one calendar indexed
  // by absolute cycle, and each component carries at most ONE live wake
  // (its `timer_`): schedule() supersedes later wakes instead of
  // enqueueing duplicates — a component's post-step re-arm recomputes
  // anything a dropped wake would have covered, so superseded and
  // duplicate wakes (no-ops by the component contract) never reach the
  // dispatch switch at all. Calendar entries pack (instance, phase,
  // component) into one sortable word; draining a cycle's entries in
  // sorted order replays every instance's exact (cycle, phase,
  // component) event order.
  //
  // The ring: slot `cycle & (ring_size - 1)` holds the wakes of `cycle`
  // as a linked list of pool nodes, valid because no wake is scheduled
  // ring_size or more cycles ahead without spilling to overflow_.
  // `occupied_` has one bit per non-empty slot, so the drain finds the
  // next cycle with a wake in one bit scan — idle spans cost nothing —
  // and nodes are recycled through a free list, so steady state
  // allocates nothing.
  std::array<std::uint32_t, ring_size> slot_head_{};  ///< per slot: first node
  std::uint64_t occupied_ = 0;
  std::vector<ring_node> nodes_;
  std::uint32_t free_node_ = 0;
  std::vector<std::uint64_t> drain_;  ///< scratch: the cycle being drained
  /// Far-future wakes (≥ ring_size ahead, e.g. long compute ops),
  /// min-heap by cycle; merged into the drain when reached.
  std::vector<std::pair<cycle_t, std::uint64_t>> overflow_;
  std::vector<cycle_t> timer_;  ///< per component: pending wake cycle
  std::vector<std::uint64_t> same_cycle_;  ///< min-heap: mid-drain wakes
  cycle_t ring_head_ = 0;  ///< cycle the drain is at (ring validity base)
  int total_comps_ = 0;

  cycle_t now_ = 0;
  cycle_t start_ = 0;
  cycle_t horizon_ = 0;
  event_key cur_{};
  bool processing_ = false;
  int cur_instance_ = -1;
  telemetry_marks flushed_;
};

}  // namespace stx::sim
