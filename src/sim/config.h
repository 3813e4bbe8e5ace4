// Value types describing a simulated MPSoC: core programs and knobs,
// target service parameters, crossbar shapes and arbitration policies.
// The simulation kernel (sim/batch.h) reads these; sim::session and
// workloads::make_session are the usual way to run one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/trace.h"

namespace stx::sim {

using cycle_t = traffic::cycle_t;

/// Arbitration policy of the per-bus arbiters (the "A" boxes of Fig. 1).
/// STbus nodes support programmable arbitration; we model the three
/// classic ones.
enum class arbitration {
  fixed_priority,           ///< lowest port index wins
  round_robin,              ///< rotating priority from last grant + 1
  least_recently_granted,   ///< port that has waited longest since a grant
};

const char* to_string(arbitration a);

/// One instruction of a core's traffic program. Programs replace the ARM
/// ISS + benchmark binaries of the paper's MPARM environment: they
/// generate the same first-order traffic features (bursts, phase-aligned
/// accesses, sync traffic) while staying closed-loop — a core blocks on
/// its reads/writes, so traffic timing responds to interconnect design.
struct core_op {
  enum class kind {
    compute,  ///< stay silent for `cycles` (jittered per iteration)
    read,     ///< read `cells` data cells from `target` (blocks)
    write,    ///< write `cells` data cells to `target` (blocks on ack)
    barrier,  ///< synchronise with `group_size` cores via `target`
  };

  kind op = kind::compute;
  int target = 0;         ///< destination endpoint for read/write/barrier
  int cells = 1;          ///< payload size in bus cells
  cycle_t cycles = 0;     ///< compute duration
  bool critical = false;  ///< real-time stream marker
  int barrier_id = 0;     ///< distinct id per barrier op in the app
  int group_size = 0;     ///< cores participating in the barrier
};

/// Knobs shared by all cores of a system.
struct core_params {
  /// Request packet size for reads (address beat count).
  int read_request_cells = 1;
  /// Cycles between semaphore polls while spinning on a barrier.
  cycle_t barrier_poll_interval = 40;
  /// Fractional jitter applied to compute durations per iteration
  /// (0.1 = +-10%), decorrelating cores that run identical programs.
  double compute_jitter = 0.10;
};

/// Service parameters of a target core (private memory, shared memory,
/// semaphore, interrupt device...).
struct target_params {
  /// Pipeline setup cost charged once per request before the reply can be
  /// issued (memory access time).
  cycle_t service_latency = 4;
};

/// Static description of one crossbar direction (initiator->target or
/// target->initiator). `binding[e]` is the bus that receiving endpoint
/// `e` is connected to; every sending endpoint reaches every bus (Fig. 1).
///
/// The three STbus instantiation types map to:
///   * shared bus:    num_buses == 1
///   * full crossbar: num_buses == #endpoints, binding[e] == e
///   * partial:       anything in between (what the synthesis produces)
struct crossbar_config {
  int num_buses = 1;
  std::vector<int> binding;
  arbitration policy = arbitration::round_robin;
  /// Fixed per-packet cost (arbitration + frequency/size adapters).
  cycle_t transfer_overhead = 2;

  /// Single shared bus over `n` receiving endpoints.
  static crossbar_config shared(int n);
  /// One bus per receiving endpoint.
  static crossbar_config full(int n);
  /// Partial crossbar with an explicit binding.
  static crossbar_config partial(int num_buses, std::vector<int> binding);

  /// Validates shape: binding size n, bus ids in range, non-negative
  /// overhead. Throws on malformed configs.
  void validate(int n_endpoints) const;

  /// Human-readable summary, e.g. "partial(3 buses: [0,0,1,2,...])".
  std::string to_string() const;

  bool operator==(const crossbar_config&) const = default;
};

/// Everything needed to instantiate a system around a set of programs.
struct system_config {
  /// Initiator->target crossbar (binding size = number of targets).
  crossbar_config request;
  /// Target->initiator crossbar (binding size = number of initiators).
  crossbar_config response;
  target_params target;
  core_params core;
  /// Record delivered packets into functional traffic traces (phase 1 of
  /// the design flow). Costs memory on long runs; validation runs keep it
  /// off.
  bool record_traces = true;
  /// Retain per-packet latencies for exact percentiles.
  bool keep_latency_samples = true;
  /// Seed for per-core compute jitter.
  std::uint64_t seed = 1;
};

}  // namespace stx::sim
