#include "sim/engine.h"

#include <algorithm>

#include "util/error.h"

namespace stx::sim {

engine::engine(mpsoc_system& sys, cycle_t horizon)
    : sys_(sys),
      start_(sys.now()),
      horizon_(horizon),
      num_cores_(static_cast<int>(sys.cores_.size())),
      num_request_buses_(sys.request_xbar_.num_buses()),
      num_targets_(static_cast<int>(sys.targets_.size())),
      num_response_buses_(sys.response_xbar_.num_buses()) {
  STX_REQUIRE(std::max({num_cores_, num_request_buses_, num_targets_,
                        num_response_buses_}) <= event_queue::component_limit,
              "engine: a phase has more than " +
                  std::to_string(event_queue::component_limit) +
                  " components");
  STX_REQUIRE(horizon_ <= event_queue::cycle_limit,
              "engine: horizon " + std::to_string(horizon_) + " exceeds " +
                  std::to_string(event_queue::cycle_limit) + " cycles");
  last_stepped_.assign(
      static_cast<std::size_t>(num_cores_ + num_request_buses_ +
                               num_targets_ + num_response_buses_),
      start_ - 1);
}

int engine::gid(int phase, int comp) const {
  switch (phase) {
    case phase_core: return comp;
    case phase_request_bus: return num_cores_ + comp;
    case phase_target: return num_cores_ + num_request_buses_ + comp;
    case phase_response_bus:
      return num_cores_ + num_request_buses_ + num_targets_ + comp;
  }
  throw internal_error("unknown engine phase");
}

void engine::schedule(int phase, int comp, cycle_t cycle) {
  if (cycle == no_wake) return;
  event_key k{std::max(cycle, start_), phase, comp};
  if (processing_ && k <= current_) k.cycle = current_.cycle + 1;
  // Events at or past the horizon are dropped: seed() rebuilds every
  // still-needed wake from component state when the next run() starts.
  if (k.cycle >= horizon_) return;
  queue_.push(k);
}

void engine::seed() {
  // Wake every component once at the start cycle — one polling-equivalent
  // sweep. Each processed wake re-arms the component from its own state,
  // so this is the only place wakes are derived without observing an
  // event, which keeps segmented runs identical to one long run.
  for (int i = 0; i < num_cores_; ++i) schedule(phase_core, i, start_);
  for (int k = 0; k < num_request_buses_; ++k) {
    schedule(phase_request_bus, k, start_);
  }
  for (int t = 0; t < num_targets_; ++t) schedule(phase_target, t, start_);
  for (int k = 0; k < num_response_buses_; ++k) {
    schedule(phase_response_bus, k, start_);
  }
}

void engine::wake_all_cores() {
  for (int i = 0; i < num_cores_; ++i) {
    schedule(phase_core, i, current_.cycle);
  }
}

void engine::run() {
  STX_REQUIRE(!processing_ && !ran_, "engine::run is single-use");
  ran_ = true;
  if (horizon_ <= start_) return;
  seed();

  const send_fn send_request = [&](const packet& p) {
    sys_.request_xbar_.enqueue(p);
    schedule(phase_request_bus, sys_.request_xbar_.bus_for(p.dest),
             current_.cycle);
  };

  const send_fn send_response = [&](const packet& reply) {
    packet stamped = reply;
    stamped.issue = current_.cycle;
    sys_.response_xbar_.enqueue(stamped);
    schedule(phase_response_bus, sys_.response_xbar_.bus_for(stamped.dest),
             current_.cycle);
  };

  const deliver_fn deliver_request = [&](const packet& p, cycle_t rb,
                                         cycle_t re) {
    if (sys_.cfg_.record_traces) {
      sys_.request_trace_.add({p.dest, p.source, rb, re, p.critical});
    }
    auto& target = sys_.targets_[static_cast<std::size_t>(p.dest)];
    target.on_request(p, re);
    schedule(phase_target, p.dest, target.next_wake(current_.cycle));
  };

  const deliver_fn deliver_response = [&](const packet& p, cycle_t rb,
                                          cycle_t re) {
    if (sys_.cfg_.record_traces) {
      sys_.response_trace_.add({p.dest, p.source, rb, re, p.critical});
    }
    auto& core = sys_.cores_[static_cast<std::size_t>(p.dest)];
    core.on_response(p, re);
    schedule(phase_core, p.dest, core.next_wake(current_.cycle + 1));
  };

  processing_ = true;
  cycle_t last_cycle = start_ - 1;
  while (!queue_.empty()) {
    current_ = queue_.pop();
    auto& stepped = last_stepped_[static_cast<std::size_t>(
        gid(current_.phase, current_.component))];
    if (stepped == current_.cycle) {
      ++stats_.events_skipped;
      continue;
    }
    stepped = current_.cycle;
    if (current_.cycle != last_cycle) {
      last_cycle = current_.cycle;
      ++stats_.cycles_visited;
    }
    ++stats_.events_processed;

    const int comp = current_.component;
    const cycle_t now = current_.cycle;
    switch (current_.phase) {
      case phase_core: {
        auto& c = sys_.cores_[static_cast<std::size_t>(comp)];
        const auto board_version = sys_.barriers_.version();
        c.step(now, send_request, sys_.barriers_);
        if (sys_.barriers_.version() != board_version) wake_all_cores();
        schedule(phase_core, comp, c.next_wake(now + 1));
        break;
      }
      case phase_request_bus: {
        sys_.request_xbar_.wake_bus(comp, now, deliver_request);
        schedule(phase_request_bus, comp,
                 sys_.request_xbar_.bus_next_wake(comp, now + 1));
        break;
      }
      case phase_target: {
        auto& t = sys_.targets_[static_cast<std::size_t>(comp)];
        t.step(now, send_response);
        schedule(phase_target, comp, t.next_wake(now + 1));
        break;
      }
      case phase_response_bus: {
        sys_.response_xbar_.wake_bus(comp, now, deliver_response);
        schedule(phase_response_bus, comp,
                 sys_.response_xbar_.bus_next_wake(comp, now + 1));
        break;
      }
      default:
        throw internal_error("unknown engine phase");
    }
  }
  processing_ = false;

  // Settle the lazy busy accounting of in-flight transfers so
  // utilisation queries at this horizon match the polling kernel.
  sys_.request_xbar_.sync_busy(horizon_);
  sys_.response_xbar_.sync_busy(horizon_);
}

}  // namespace stx::sim
