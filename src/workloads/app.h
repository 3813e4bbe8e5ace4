// Application specification: an MPSoC's cores, targets and programs.
#pragma once

#include <string>
#include <vector>

#include "sim/batch.h"
#include "sim/session.h"

namespace stx::workloads {

/// A complete benchmark application: the processor cores, the memory /
/// peripheral targets they talk to, and the traffic program of each core.
/// Builders in mpsoc_apps.h / synthetic.h produce these; `make_session`
/// instantiates a simulator around one.
struct app_spec {
  std::string name;
  int num_initiators = 0;
  int num_targets = 0;
  std::vector<std::string> target_names;
  std::vector<std::vector<sim::core_op>> programs;
  /// Optional per-core loop body start (ops before it run once as a
  /// prologue, e.g. phase offsets). Empty = every program loops whole.
  std::vector<std::size_t> loop_starts;

  /// Semantic roles (or -1 / empty when absent): used by examples and
  /// reporting; the synthesis itself never looks at roles.
  std::vector<int> private_mem;  ///< private memory target of each core
  int shared_mem = -1;
  int semaphore = -1;
  int interrupt_dev = -1;

  /// Total core count as the paper counts it (initiators + targets);
  /// also the full-crossbar bus count across both directions (Table 2).
  int total_cores() const { return num_initiators + num_targets; }

  /// Shape validation: program count, target ids, names. Throws on error.
  void validate() const;
};

/// The unified sim-session entry point: builds a session around `app`
/// with the given crossbar configs and simulator knobs (arbitration,
/// overheads, seed — all carried by `base`). The design flow,
/// the exploration trace cache and the fuzz oracle all simulate through
/// this, so one semantic model serves every consumer.
sim::session make_session(const app_spec& app,
                          const sim::crossbar_config& req,
                          const sim::crossbar_config& resp,
                          const sim::system_config& base = {});

/// Full crossbars on both directions, as a session.
sim::session make_full_crossbar_session(const app_spec& app,
                                        const sim::system_config& base = {});

/// The system_config a session over `app` would run under — the exact
/// assembly make_session performs (validate, then `base` with the two
/// crossbar configs swapped in). Exposed so batch consumers instantiate
/// instances from the same config a session would use.
sim::system_config make_system_config(const app_spec& app,
                                      const sim::crossbar_config& req,
                                      const sim::crossbar_config& resp,
                                      const sim::system_config& base = {});

/// An empty lockstep batch over `app`'s shape (programs shared across
/// every instance, unlike sessions which copy them per run). Add one
/// instance per (crossbar configs, seed) point via
/// `batch.add_instance(make_system_config(app, req, resp, base))`.
sim::batch make_batch(const app_spec& app);

}  // namespace stx::workloads
