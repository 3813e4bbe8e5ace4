#include "sim/system.h"

#include "sim/engine.h"
#include "util/error.h"

namespace stx::sim {

mpsoc_system::mpsoc_system(std::vector<std::vector<core_op>> programs,
                           int num_targets, const system_config& cfg,
                           std::vector<std::size_t> loop_starts)
    : cfg_(cfg),
      request_xbar_(cfg.request, static_cast<int>(programs.size()),
                    num_targets, cfg.keep_latency_samples),
      response_xbar_(cfg.response, num_targets,
                     static_cast<int>(programs.size()),
                     cfg.keep_latency_samples),
      request_trace_(num_targets, static_cast<int>(programs.size()), 0),
      response_trace_(static_cast<int>(programs.size()), num_targets, 0) {
  STX_REQUIRE(!programs.empty(), "system needs at least one core");
  STX_REQUIRE(num_targets > 0, "system needs at least one target");
  STX_REQUIRE(loop_starts.empty() || loop_starts.size() == programs.size(),
              "loop_starts must be empty or one per core");

  rng seeder(cfg.seed);
  cores_.reserve(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    // Validate program target ids against this system.
    for (const auto& op : programs[i]) {
      if (op.op != core_op::kind::compute) {
        STX_REQUIRE(op.target >= 0 && op.target < num_targets,
                    "program references unknown target");
      }
    }
    const std::size_t loop_start =
        loop_starts.empty() ? 0 : loop_starts[i];
    cores_.emplace_back(static_cast<int>(i), std::move(programs[i]),
                        cfg.core, seeder.split(i), loop_start);
  }
  targets_.reserve(static_cast<std::size_t>(num_targets));
  for (int t = 0; t < num_targets; ++t) {
    targets_.emplace_back(t, cfg.target);
  }
}

void mpsoc_system::run(cycle_t horizon) {
  STX_REQUIRE(horizon >= now_, "cannot run backwards");
  run_event(horizon);
  request_trace_.extend_horizon(now_);
  response_trace_.extend_horizon(now_);
}

void mpsoc_system::run_event(cycle_t horizon) {
  engine e(*this, horizon);
  e.run();
  now_ = horizon;
  event_stats_.events_processed += e.stats().events_processed;
  event_stats_.events_skipped += e.stats().events_skipped;
  event_stats_.cycles_visited += e.stats().cycles_visited;
}

int mpsoc_system::num_components() const {
  return num_cores() + num_targets() + request_xbar_.num_buses() +
         response_xbar_.num_buses();
}

const core& mpsoc_system::core_at(int i) const {
  STX_REQUIRE(i >= 0 && i < num_cores(), "core index out of range");
  return cores_[static_cast<std::size_t>(i)];
}

const memory_target& mpsoc_system::target_at(int t) const {
  STX_REQUIRE(t >= 0 && t < num_targets(), "target index out of range");
  return targets_[static_cast<std::size_t>(t)];
}

running_stats mpsoc_system::packet_latency() const {
  running_stats all(cfg_.keep_latency_samples);
  all.merge(request_xbar_.latency());
  all.merge(response_xbar_.latency());
  return all;
}

running_stats mpsoc_system::critical_packet_latency() const {
  running_stats all(cfg_.keep_latency_samples);
  all.merge(request_xbar_.critical_latency());
  all.merge(response_xbar_.critical_latency());
  return all;
}

std::int64_t mpsoc_system::total_transactions() const {
  std::int64_t acc = 0;
  for (const auto& c : cores_) acc += c.transactions();
  return acc;
}

std::int64_t mpsoc_system::total_iterations() const {
  std::int64_t acc = 0;
  for (const auto& c : cores_) acc += c.iterations();
  return acc;
}

}  // namespace stx::sim
