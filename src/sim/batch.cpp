#include "sim/batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>

#include "obs/obs.h"
#include "util/error.h"

namespace stx::sim {

namespace {

/// `timer_` value of a component with no pending wake.
constexpr cycle_t timer_none = std::numeric_limits<cycle_t>::max();

/// One calendar entry: [flat component index g : 30][instance : 16]
/// [phase : 2][component : 16]. The flat index is strictly monotone in
/// (instance, phase, component), so sorting entries as integers yields
/// exactly event_key order within a cycle while the drain reads the
/// timer_ slot straight out of the entry's high bits. The constructor and
/// add_instance() enforce the field widths. Entries are built as
/// `ebase[phase] + comp * entry_step`: the step adds comp to both the g
/// field and the comp field in one multiply.
constexpr std::uint64_t entry_step = (std::uint64_t{1} << 34) + 1;

/// Ids of one 16-bit entry field: 0 .. field_ids - 1.
constexpr int field_ids = 1 << 16;

/// End of a ring slot's node list.
constexpr std::uint32_t no_node = std::numeric_limits<std::uint32_t>::max();

}  // namespace

int arbitrate(arbitration policy, std::span<const std::uint64_t> requesting,
              int ports, int& rr_last, std::span<cycle_t> lrg_last,
              cycle_t now) {
  const auto words = requesting.size();
  const auto port_of = [](std::size_t w, std::uint64_t bits) {
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  };
  switch (policy) {
    case arbitration::fixed_priority:
      for (std::size_t w = 0; w < words; ++w) {
        if (requesting[w] != 0) return port_of(w, requesting[w]);
      }
      return -1;
    case arbitration::round_robin: {
      const int s = rr_last + 1 >= ports ? 0 : rr_last + 1;
      const auto ws = static_cast<std::size_t>(s) / 64;
      int p = -1;
      // Requesters at or after s in its own word, then the later words,
      // then wrap around through the earlier ones.
      if (const auto at = requesting[ws] & (~std::uint64_t{0} << (s % 64));
          at != 0) {
        p = port_of(ws, at);
      } else {
        for (std::size_t k = 1; k <= words && p < 0; ++k) {
          const auto w = (ws + k) % words;
          if (requesting[w] != 0) p = port_of(w, requesting[w]);
        }
      }
      if (p >= 0) rr_last = p;
      return p;
    }
    case arbitration::least_recently_granted: {
      int best = -1;
      cycle_t best_time = 0;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t m = requesting[w]; m != 0; m &= m - 1) {
          const int p = port_of(w, m);
          const cycle_t t = lrg_last[static_cast<std::size_t>(p)];
          if (best < 0 || t < best_time) {
            best = p;
            best_time = t;
          }
        }
      }
      if (best >= 0) lrg_last[static_cast<std::size_t>(best)] = now;
      return best;
    }
  }
  throw invalid_argument_error("unknown arbitration policy");
}

batch::batch(std::vector<std::vector<core_op>> programs, int num_targets,
             std::vector<std::size_t> loop_starts)
    : programs_(std::move(programs)),
      loop_starts_(std::move(loop_starts)),
      num_cores_(static_cast<int>(programs_.size())),
      num_targets_(num_targets) {
  STX_REQUIRE(!programs_.empty(), "system needs at least one core");
  STX_REQUIRE(num_targets > 0, "system needs at least one target");
  STX_REQUIRE(num_cores_ <= field_ids && num_targets <= field_ids,
              "kernel calendar packs component ids into 16 bits");
  STX_REQUIRE(loop_starts_.empty() || loop_starts_.size() == programs_.size(),
              "loop_starts must be empty or one per core");
  if (loop_starts_.empty()) loop_starts_.assign(programs_.size(), 0);

  visit_base_.reserve(programs_.size());
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    const auto& program = programs_[i];
    STX_REQUIRE(!program.empty(), "core program must not be empty");
    STX_REQUIRE(loop_starts_[i] < program.size(),
                "loop_start must index into the program");
    for (const auto& op : program) {
      if (op.op != core_op::kind::compute) {
        STX_REQUIRE(op.target >= 0 && op.target < num_targets,
                    "program references unknown target");
      }
      if (op.op == core_op::kind::barrier) {
        STX_REQUIRE(op.group_size > 0, "barrier needs a positive group size");
      }
      if (op.op == core_op::kind::read || op.op == core_op::kind::write) {
        STX_REQUIRE(op.cells > 0, "transfer ops need a positive cell count");
      }
    }
    visit_base_.push_back(ops_total_);
    ops_total_ += program.size();
  }

  request_.ports = num_cores_;
  request_.words = (num_cores_ + 63) / 64;
  response_.ports = num_targets_;
  response_.words = (num_targets_ + 63) / 64;
}

int batch::add_instance(const system_config& cfg) {
  STX_REQUIRE(now_ == 0 && !processing_,
              "batch instances must be added before the first run");
  cfg.request.validate(num_targets_);
  cfg.response.validate(num_cores_);
  STX_REQUIRE(cfg.request.num_buses <= field_ids &&
                  cfg.response.num_buses <= field_ids,
              "kernel calendar packs component ids into 16 bits");
  STX_REQUIRE(size() < field_ids,
              "kernel calendar packs instance ids into 16 bits");
  STX_REQUIRE(cfg.target.service_latency >= 0, "negative service latency");

  const int b = size();
  instance& in = instances_.emplace_back();
  const auto add_link = [&](link& l, direction& d, const crossbar_config& xb,
                            int recv, int send) {
    l.base = static_cast<int>(d.buses.size());
    l.count = xb.num_buses;
    l.binding = xb.binding;
    l.overhead = xb.transfer_overhead;
    l.policy = xb.policy;
    l.latency = running_stats(cfg.keep_latency_samples);
    l.critical = running_stats(cfg.keep_latency_samples);
    l.trace = traffic::trace(recv, send, 0);
    const auto buses = d.buses.size() + static_cast<std::size_t>(xb.num_buses);
    d.buses.resize(buses);
    d.req_mask.resize(buses * static_cast<std::size_t>(d.words), 0);
    d.lrg_last.resize(buses * static_cast<std::size_t>(d.ports), -1);
    d.queues.resize(buses * static_cast<std::size_t>(d.ports));
  };
  add_link(in.request, request_, cfg.request, num_targets_, num_cores_);
  add_link(in.response, response_, cfg.response, num_cores_, num_targets_);
  in.core_cfg = cfg.core;
  in.target_cfg = cfg.target;
  in.keep_samples = cfg.keep_latency_samples;
  in.record_traces = cfg.record_traces;

  // RNG stream discipline: one seeder per instance, one decorrelated
  // child per core.
  const rng seeder(cfg.seed);
  for (int i = 0; i < num_cores_; ++i) {
    cores_.emplace_back().jitter = seeder.split(static_cast<std::uint64_t>(i));
  }
  barrier_visits_.resize(barrier_visits_.size() + ops_total_, 0);
  targets_.resize(targets_.size() + static_cast<std::size_t>(num_targets_));

  const auto pack = [&](int phase, int gbase) {
    return (static_cast<std::uint64_t>(gbase) << 34) |
           (static_cast<std::uint64_t>(b) << 18) |
           (static_cast<std::uint64_t>(phase) << 16);
  };
  in.ebase[phase_core] = pack(phase_core, total_comps_);
  in.ebase[phase_request_bus] =
      pack(phase_request_bus, total_comps_ + num_cores_);
  in.ebase[phase_target] = pack(
      phase_target, total_comps_ + num_cores_ + cfg.request.num_buses);
  in.ebase[phase_response_bus] =
      pack(phase_response_bus,
           total_comps_ + num_cores_ + cfg.request.num_buses + num_targets_);
  total_comps_ += num_cores_ + cfg.request.num_buses + num_targets_ +
                  cfg.response.num_buses;
  STX_REQUIRE(total_comps_ < (1 << 30),
              "kernel calendar packs flat component indices into 30 bits");
  return b;
}

const batch::instance& batch::instance_at(int b) const {
  STX_REQUIRE(b >= 0 && b < size(), "batch instance out of range");
  return instances_[static_cast<std::size_t>(b)];
}

void batch::schedule(int b, int phase, int comp, cycle_t cycle) {
  if (cycle == no_wake) return;
  event_key k{std::max(cycle, start_), phase, comp};
  // A wake at or before the event being processed lands strictly after
  // it, exactly when a per-cycle sweep would next visit the component.
  if (processing_ && b == cur_instance_ && k <= cur_) {
    k.cycle = cur_.cycle + 1;
  }
  // Wakes at or past the horizon are dropped: seeding rebuilds every
  // still-needed wake from component state when the next run starts.
  if (k.cycle >= horizon_) return;
  // One live wake per component: an earlier-or-equal pending wake
  // supersedes this one. Whatever state change prompted it is already in
  // the component state, so the step at `timer_` sees it and the
  // post-step re-arm (next_wake over that state) recomputes any later
  // wake that is still needed.
  const auto e = instances_[static_cast<std::size_t>(b)]
                     .ebase[static_cast<std::size_t>(phase)] +
                 static_cast<std::uint64_t>(comp) * entry_step;
  const auto g = static_cast<std::size_t>(e >> 34);
  if (timer_[g] <= k.cycle) return;
  timer_[g] = k.cycle;
  if (processing_ && k.cycle == cur_.cycle) {
    // A later-ordered wake at the cycle being drained (request issue,
    // same-cycle delivery): the drain merges these in key order.
    same_cycle_.push_back(e);
    std::push_heap(same_cycle_.begin(), same_cycle_.end(), std::greater<>());
  } else if (k.cycle - ring_head_ < ring_size) {
    ring_push(k.cycle, e);
  } else {
    overflow_.emplace_back(k.cycle, e);
    std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>());
  }
}

void batch::ring_push(cycle_t cycle, std::uint64_t e) {
  const auto slot = static_cast<std::size_t>(cycle & (ring_size - 1));
  const std::uint64_t bit = std::uint64_t{1} << slot;
  // A slot's head is meaningful only while its occupancy bit is set.
  const std::uint32_t next =
      (occupied_ & bit) != 0 ? slot_head_[slot] : no_node;
  std::uint32_t node = free_node_;
  if (node == no_node) {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({e, next});
  } else {
    free_node_ = nodes_[node].next;
    nodes_[node] = {e, next};
  }
  slot_head_[slot] = node;
  occupied_ |= bit;
}

void batch::take_wakes(cycle_t cycle) {
  drain_.clear();
  const auto slot = static_cast<std::size_t>(cycle & (ring_size - 1));
  const std::uint64_t bit = std::uint64_t{1} << slot;
  if ((occupied_ & bit) != 0) {
    std::uint32_t last = slot_head_[slot];
    for (std::uint32_t node = last; node != no_node;
         node = nodes_[node].next) {
      drain_.push_back(nodes_[node].entry);
      last = node;
    }
    nodes_[last].next = free_node_;
    free_node_ = slot_head_[slot];
    occupied_ &= ~bit;
  }
  while (!overflow_.empty() && overflow_.front().first == cycle) {
    drain_.push_back(overflow_.front().second);
    std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>());
    overflow_.pop_back();
  }
}

cycle_t batch::next_wake_cycle(cycle_t from, cycle_t limit) const {
  if (!overflow_.empty()) limit = std::min(limit, overflow_.front().first);
  // Ring wakes all lie in [from, from + ring_size): with `from`'s slot
  // rotated to bit 0, the next occupied slot's bit index is its distance
  // in cycles.
  const std::uint64_t ahead =
      std::rotr(occupied_, static_cast<int>(from & (ring_size - 1)));
  if (ahead == 0) return limit;
  return std::min(limit, from + std::countr_zero(ahead));
}

void batch::seed_instance(int b) {
  // Wake every component once at the start cycle — one polling-equivalent
  // sweep. Each processed wake re-arms its component from its own state,
  // so this is the only place wakes are derived without observing an
  // event, which keeps segmented runs identical to one long run.
  const auto& in = instances_[static_cast<std::size_t>(b)];
  for (int i = 0; i < num_cores_; ++i) schedule(b, phase_core, i, start_);
  for (int k = 0; k < in.request.count; ++k) {
    schedule(b, phase_request_bus, k, start_);
  }
  for (int t = 0; t < num_targets_; ++t) schedule(b, phase_target, t, start_);
  for (int k = 0; k < in.response.count; ++k) {
    schedule(b, phase_response_bus, k, start_);
  }
}

// ---------------------------------------------------------------------------
// Barrier board: cores arriving at barrier (id, epoch) increment its
// count; the barrier opens when `group_size` arrived.

void batch::board_arrive(instance& in, int barrier_id, std::int64_t epoch) {
  const std::int64_t key =
      (static_cast<std::int64_t>(barrier_id) << 32) | (epoch & 0xffffffff);
  bool found = false;
  for (auto& [k, n] : in.board_counts) {
    if (k == key) {
      ++n;
      found = true;
      break;
    }
  }
  if (!found) in.board_counts.emplace_back(key, 1);
  ++in.board_version;
}

bool batch::board_open(const instance& in, int barrier_id, std::int64_t epoch,
                       int group_size) {
  const std::int64_t key =
      (static_cast<std::int64_t>(barrier_id) << 32) | (epoch & 0xffffffff);
  for (const auto& [k, n] : in.board_counts) {
    if (k == key) return n >= group_size;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Core: runs its program in a loop, blocking on each read/write until the
// response arrives. A barrier announces the arrival with a 1-cell write
// to the barrier's target, then polls it with 1-cell reads every
// barrier_poll_interval cycles until the board opens.

void batch::core_advance(int b, int i) {
  auto& c = core_at(b, i);
  const auto& program = programs_[static_cast<std::size_t>(i)];
  if (program[c.pc].op == core_op::kind::barrier) {
    ++barrier_visits(b, i, c.pc);
    c.bphase = bp_announce;
  }
  ++c.pc;
  if (c.pc == program.size()) {
    c.pc = static_cast<std::uint32_t>(
        loop_starts_[static_cast<std::size_t>(i)]);
    ++c.iterations;
  }
  c.state = st_ready;
}

void batch::core_step(int b, int i, cycle_t now) {
  auto& c = core_at(b, i);
  if (c.state == st_waiting) return;
  if (c.state == st_computing) {
    if (now < c.compute_done) return;
    c.state = st_ready;
  }
  const auto& program = programs_[static_cast<std::size_t>(i)];
  auto& in = instances_[static_cast<std::size_t>(b)];

  if (c.pending_arrival) {
    board_arrive(in, program[c.pc].barrier_id, barrier_visits(b, i, c.pc));
    c.pending_arrival = false;
    c.bphase = bp_poll_wait;
    c.next_poll = now;
  }

  const auto& op = program[c.pc];
  const auto& params = in.core_cfg;
  const auto issue = [&](packet_kind kind, int cells, int response_cells) {
    packet p;
    p.source = i;
    p.dest = op.target;
    p.kind = kind;
    p.cells = cells;
    p.response_cells = response_cells;
    p.critical = op.critical;
    p.txn = c.next_txn++;
    p.issue = now;
    c.wait_txn = p.txn;
    c.state = st_waiting;
    send_request(b, p);
  };
  switch (op.op) {
    case core_op::kind::compute: {
      const auto spread = static_cast<cycle_t>(std::llround(
          static_cast<double>(op.cycles) * params.compute_jitter));
      const cycle_t duration = c.jitter.jitter(op.cycles, spread, 0);
      core_advance(b, i);
      if (duration == 0) return;  // one op per cycle regardless
      c.compute_done = now + duration;
      c.state = st_computing;
      return;
    }
    case core_op::kind::read:
      issue(packet_kind::request_read, params.read_request_cells, op.cells);
      return;
    case core_op::kind::write:
      issue(packet_kind::request_write, op.cells, 1);
      return;
    case core_op::kind::barrier: {
      switch (c.bphase) {
        case bp_announce:
          issue(packet_kind::request_write, 1, 1);
          return;
        case bp_poll_wait:
          if (board_open(in, op.barrier_id, barrier_visits(b, i, c.pc),
                         op.group_size)) {
            core_advance(b, i);
            return;
          }
          if (now < c.next_poll) return;
          c.bphase = bp_poll_inflight;
          issue(packet_kind::request_read, 1, 1);
          return;
        case bp_poll_inflight:
          if (board_open(in, op.barrier_id, barrier_visits(b, i, c.pc),
                         op.group_size)) {
            core_advance(b, i);
          } else {
            c.bphase = bp_poll_wait;
            c.next_poll = now + params.barrier_poll_interval;
          }
          return;
      }
      return;
    }
  }
}

cycle_t batch::core_next_wake(int b, int i, cycle_t earliest) {
  const auto& c = core_at(b, i);
  switch (c.state) {
    case st_waiting:
      return no_wake;
    case st_computing:
      return std::max(c.compute_done, earliest);
    default:
      break;
  }
  if (!c.pending_arrival &&
      programs_[static_cast<std::size_t>(i)][c.pc].op ==
          core_op::kind::barrier &&
      c.bphase == bp_poll_wait) {
    return std::max(c.next_poll, earliest);
  }
  return earliest;
}

void batch::core_on_response(int b, int i, const packet& p) {
  auto& c = core_at(b, i);
  STX_ENSURE(c.state == st_waiting,
             "core received a response while not waiting");
  STX_ENSURE(p.txn == c.wait_txn, "response txn mismatch");

  if (programs_[static_cast<std::size_t>(i)][c.pc].op ==
      core_op::kind::barrier) {
    if (c.bphase == bp_announce) c.pending_arrival = true;
    c.state = st_ready;
    return;
  }
  ++c.transactions;
  core_advance(b, i);
}

// ---------------------------------------------------------------------------
// Bus: every sender has an input port; the arbiter grants one packet at a
// time, and a granted packet occupies the bus for `overhead + cells`
// cycles. Busy cycles are accounted lazily — span at completion — and
// settled at the run boundary.

void batch::bus_enqueue(direction& d, int gb, int port, const packet& p) {
  STX_REQUIRE(port >= 0 && port < d.ports, "bus port out of range");
  STX_REQUIRE(p.cells > 0, "packet must occupy at least one cell");
  const auto sgb = static_cast<std::size_t>(gb);
  auto& q = d.queues[sgb * static_cast<std::size_t>(d.ports) +
                     static_cast<std::size_t>(port)];
  if (q.empty()) {
    ++d.buses[sgb].backlog;
    d.req_mask[sgb * static_cast<std::size_t>(d.words) +
               static_cast<std::size_t>(port / 64)] |= std::uint64_t{1}
                                                       << (port % 64);
  }
  q.push(p);
}

bool batch::bus_start_transfer(direction& d, const link& l, int gb,
                               cycle_t now) {
  const auto sgb = static_cast<std::size_t>(gb);
  auto& bus = d.buses[sgb];
  if (bus.backlog == 0) return false;  // spurious wake: skip the scan
  const auto words = static_cast<std::size_t>(d.words);
  const auto ports = static_cast<std::size_t>(d.ports);
  const int granted = arbitrate(
      l.policy,
      std::span<const std::uint64_t>(d.req_mask).subspan(sgb * words, words),
      d.ports, bus.rr_last,
      std::span<cycle_t>(d.lrg_last).subspan(sgb * ports, ports), now);
  if (granted < 0) return false;
  auto& q = d.queues[sgb * ports + static_cast<std::size_t>(granted)];
  bus.current = q.front();
  q.pop();
  if (q.empty()) {
    --bus.backlog;
    d.req_mask[sgb * words + static_cast<std::size_t>(granted / 64)] &=
        ~(std::uint64_t{1} << (granted % 64));
  }
  bus.transferring = true;
  // Grant cycle is the first overhead cycle; the receive interval spans
  // the whole occupancy (overhead + cells).
  bus.recv_begin = now;
  bus.transfer_end = now + l.overhead + bus.current.cells;
  return true;
}

bool batch::bus_wake(direction& d, const link& l, int gb, cycle_t now,
                     packet& out, cycle_t& rb, cycle_t& re) {
  auto& bus = d.buses[static_cast<std::size_t>(gb)];
  if (!bus.transferring) {
    if (!bus_start_transfer(d, l, gb, now)) return false;
    bus.busy_from = now;
  }
  // Completion wake (or a transfer that fits in its grant cycle); any
  // other wake while busy is a spurious no-op.
  if (now + 1 < bus.transfer_end) return false;
  bus.busy_cycles += bus.transfer_end - bus.busy_from;
  bus.transferring = false;
  out = bus.current;
  rb = bus.recv_begin;
  re = bus.transfer_end;
  return true;
}

cycle_t batch::bus_next_wake(const bus_state& bus, cycle_t earliest) {
  if (bus.transferring) return std::max(bus.transfer_end - 1, earliest);
  if (bus.backlog > 0) return earliest;
  return no_wake;
}

// ---------------------------------------------------------------------------
// Target: serves one request at a time in arrival order; after
// `service_latency` cycles it emits the reply (read data of the requested
// size, or a 1-cell write acknowledge) into the response crossbar.

void batch::target_step(int b, int t, cycle_t now) {
  auto& jobs = target_at(b, t).jobs;
  while (!jobs.empty() && jobs.front().ready_at <= now) {
    const auto& req = jobs.front().request;
    packet reply;
    reply.source = t;
    reply.dest = req.source;
    reply.txn = req.txn;
    reply.critical = req.critical;
    if (req.kind == packet_kind::request_read) {
      reply.kind = packet_kind::response_read;
      reply.cells = req.response_cells;
    } else {
      reply.kind = packet_kind::response_ack;
      reply.cells = 1;
    }
    send_response(b, reply);
    jobs.pop();
  }
}

cycle_t batch::target_next_wake(int b, int t, cycle_t earliest) {
  const auto& jobs = target_at(b, t).jobs;
  if (jobs.empty()) return no_wake;
  return std::max(jobs.front().ready_at, earliest);
}

// ---------------------------------------------------------------------------
// Routing: a packet enters the bus its destination is bound to.

void batch::send_request(int b, const packet& p) {
  const auto& l = instances_[static_cast<std::size_t>(b)].request;
  const int k = l.binding[static_cast<std::size_t>(p.dest)];
  bus_enqueue(request_, l.base + k, p.source, p);
  schedule(b, phase_request_bus, k, cur_.cycle);
}

void batch::send_response(int b, const packet& reply) {
  const auto& l = instances_[static_cast<std::size_t>(b)].response;
  packet stamped = reply;
  stamped.issue = cur_.cycle;
  const int k = l.binding[static_cast<std::size_t>(stamped.dest)];
  bus_enqueue(response_, l.base + k, stamped.source, stamped);
  schedule(b, phase_response_bus, k, cur_.cycle);
}

// ---------------------------------------------------------------------------
// Event dispatch.

void batch::process_event(int b, const event_key& key) {
  // No pop-time dedup here: the per-component timer supersedes duplicate
  // and stale wakes before they are dispatched (the drain counts them as
  // events_skipped), so every call is a live component step.
  auto& in = instances_[static_cast<std::size_t>(b)];
  if (key.cycle != in.last_cycle) {
    in.last_cycle = key.cycle;
    ++in.stats.cycles_visited;
  }
  ++in.stats.events_processed;

  cur_ = key;
  cur_instance_ = b;
  const int comp = key.component;
  const cycle_t now = key.cycle;
  switch (key.phase) {
    case phase_core: {
      const auto board_version = in.board_version;
      core_step(b, comp, now);
      // A barrier arrival may open spinning cores' barriers: re-wake
      // every core (cores past this one's slot see it next cycle).
      if (in.board_version != board_version) {
        for (int i = 0; i < num_cores_; ++i) {
          schedule(b, phase_core, i, cur_.cycle);
        }
      }
      schedule(b, phase_core, comp, core_next_wake(b, comp, now + 1));
      break;
    }
    case phase_request_bus: {
      const int gb = in.request.base + comp;
      packet p;
      cycle_t rb = 0;
      cycle_t re = 0;
      if (bus_wake(request_, in.request, gb, now, p, rb, re)) {
        const auto lat = static_cast<double>(re - p.issue);
        in.request.latency.add(lat);
        if (p.critical) in.request.critical.add(lat);
        if (in.record_traces) {
          in.request.trace.add({p.dest, p.source, rb, re, p.critical});
        }
        auto& target = target_at(b, p.dest);
        target_job j;
        j.request = p;
        j.ready_at = std::max(re, target.busy_until) +
                     in.target_cfg.service_latency;
        target.busy_until = j.ready_at;
        target.jobs.push(j);
        schedule(b, phase_target, p.dest,
                 target_next_wake(b, p.dest, cur_.cycle));
      }
      schedule(b, phase_request_bus, comp,
               bus_next_wake(request_.buses[static_cast<std::size_t>(gb)],
                             now + 1));
      break;
    }
    case phase_target: {
      target_step(b, comp, now);
      schedule(b, phase_target, comp, target_next_wake(b, comp, now + 1));
      break;
    }
    case phase_response_bus: {
      const int gb = in.response.base + comp;
      packet p;
      cycle_t rb = 0;
      cycle_t re = 0;
      if (bus_wake(response_, in.response, gb, now, p, rb, re)) {
        const auto lat = static_cast<double>(re - p.issue);
        in.response.latency.add(lat);
        if (p.critical) in.response.critical.add(lat);
        if (in.record_traces) {
          in.response.trace.add({p.dest, p.source, rb, re, p.critical});
        }
        core_on_response(b, p.dest, p);
        schedule(b, phase_core, p.dest,
                 core_next_wake(b, p.dest, cur_.cycle + 1));
      }
      schedule(b, phase_response_bus, comp,
               bus_next_wake(response_.buses[static_cast<std::size_t>(gb)],
                             now + 1));
      break;
    }
    default:
      throw internal_error("unknown engine phase");
  }
}

void batch::run(cycle_t horizon) {
  STX_REQUIRE(horizon >= now_, "cannot run backwards");
  obs::span sp("sim.run", {{"instances", static_cast<std::int64_t>(size())},
                           {"horizon", static_cast<std::int64_t>(horizon)}});

  start_ = now_;
  horizon_ = horizon;
  if (horizon > start_ && !instances_.empty()) {
    for (auto& in : instances_) in.last_cycle = start_ - 1;
    // Fresh calendar per run: wakes past the old horizon were dropped,
    // and seeding re-derives them.
    timer_.assign(static_cast<std::size_t>(total_comps_), timer_none);
    occupied_ = 0;
    nodes_.clear();
    free_node_ = no_node;
    overflow_.clear();
    same_cycle_.clear();
    // Each component holds at most one live wake: size the pools for
    // that once, instead of growing them through the first cycles.
    const auto comps = static_cast<std::size_t>(total_comps_);
    nodes_.reserve(comps);
    drain_.reserve(comps);
    ring_head_ = start_;
    for (int b = 0; b < size(); ++b) seed_instance(b);

    // Lockstep frontier: the calendar walks every instance through cycle
    // c before any instance moves past it. Instances are independent, so
    // this grouping cannot change any per-instance event order. Sorting a
    // cycle's wakes yields (instance, phase, component) order; wakes
    // scheduled *at* the drain cycle (always later in key order, enforced
    // by the clamp in schedule) merge in from the same_cycle_ heap. The
    // frontier then jumps straight to the next cycle holding a wake.
    processing_ = true;
    for (cycle_t c = next_wake_cycle(start_, horizon); c < horizon;
         c = next_wake_cycle(c + 1, horizon)) {
      ring_head_ = c;
      take_wakes(c);
      if (drain_.size() > 1) std::sort(drain_.begin(), drain_.end());
      std::size_t idx = 0;
      while (idx < drain_.size() || !same_cycle_.empty()) {
        std::uint64_t e;
        if (!same_cycle_.empty() &&
            (idx == drain_.size() || same_cycle_.front() < drain_[idx])) {
          std::pop_heap(same_cycle_.begin(), same_cycle_.end(),
                        std::greater<>());
          e = same_cycle_.back();
          same_cycle_.pop_back();
        } else {
          e = drain_[idx++];
        }
        const int b = static_cast<int>((e >> 18) & 0xffff);
        const event_key key{c, static_cast<int>((e >> 16) & 3),
                            static_cast<int>(e & 0xffff)};
        const auto g = static_cast<std::size_t>(e >> 34);
        if (timer_[g] != c) {
          // Superseded by an earlier wake that already stepped this
          // component (and re-armed it).
          ++instances_[static_cast<std::size_t>(b)].stats.events_skipped;
          continue;
        }
        timer_[g] = timer_none;  // consumed; the step re-arms
        process_event(b, key);
      }
    }
    processing_ = false;
    cur_instance_ = -1;

    // Settle lazy busy accounting of in-flight transfers at the run
    // boundary.
    for (auto* d : {&request_, &response_}) {
      for (auto& bus : d->buses) {
        if (bus.transferring && horizon > bus.busy_from) {
          bus.busy_cycles += horizon - bus.busy_from;
          bus.busy_from = horizon;
        }
      }
    }
  }
  now_ = horizon;
  horizon_ = 0;
  for (auto& in : instances_) {
    in.request.trace.extend_horizon(now_);
    in.response.trace.extend_horizon(now_);
    in.cached.reset();
  }

  if (obs::enabled()) {
    const auto marks = telemetry();
    obs::add_counter("sim.runs", size());
    obs::add_counter("sim.events_processed",
                     marks.events_processed - flushed_.events_processed);
    obs::add_counter("sim.events_skipped",
                     marks.events_skipped - flushed_.events_skipped);
    obs::add_counter("sim.cycles_visited",
                     marks.cycles_visited - flushed_.cycles_visited);
    obs::add_counter("sim.transactions",
                     marks.transactions - flushed_.transactions);
    obs::add_counter("sim.busy_cycles", static_cast<std::int64_t>(
                                            marks.busy_cycles -
                                            flushed_.busy_cycles));
    flushed_ = marks;
  }
}

batch::telemetry_marks batch::telemetry() const {
  telemetry_marks out;
  for (const auto& in : instances_) {
    out.events_processed += in.stats.events_processed;
    out.events_skipped += in.stats.events_skipped;
    out.cycles_visited += in.stats.cycles_visited;
  }
  for (const auto& c : cores_) out.transactions += c.transactions;
  for (const auto* d : {&request_, &response_}) {
    for (const auto& bus : d->buses) out.busy_cycles += bus.busy_cycles;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Observers.

run_metrics batch::harvest(int b) const {
  const auto& in = instances_[static_cast<std::size_t>(b)];
  run_metrics out;
  // Packet latency over both crossbars combined (the paper's Table 1
  // metric): request then response, merged into a fresh accumulator.
  running_stats lat(in.keep_samples);
  lat.merge(in.request.latency);
  lat.merge(in.response.latency);
  if (lat.count() > 0) {
    out.avg_latency = lat.mean();
    out.max_latency = lat.max();
    out.p99_latency = lat.keeps_samples() ? lat.percentile(0.99) : lat.max();
  }
  running_stats crit(in.keep_samples);
  crit.merge(in.request.critical);
  crit.merge(in.response.critical);
  if (crit.count() > 0) {
    out.avg_critical = crit.mean();
    out.max_critical = crit.max();
  }
  out.packets = lat.count();
  const auto first =
      cores_.begin() + static_cast<std::ptrdiff_t>(b) * num_cores_;
  for (auto c = first; c != first + num_cores_; ++c) {
    out.transactions += c->transactions;
    out.iterations += c->iterations;
  }
  out.total_buses = in.request.count + in.response.count;
  return out;
}

const run_metrics& batch::metrics(int b) const {
  const auto& in = instance_at(b);
  if (!in.cached) in.cached = harvest(b);
  return *in.cached;
}

const traffic::trace& batch::request_trace(int b) const {
  return instance_at(b).request.trace;
}

const traffic::trace& batch::response_trace(int b) const {
  return instance_at(b).response.trace;
}

const engine_stats& batch::instance_stats(int b) const {
  return instance_at(b).stats;
}

}  // namespace stx::sim
