#include "workloads/app.h"

#include <utility>

#include "util/error.h"

namespace stx::workloads {

void app_spec::validate() const {
  STX_REQUIRE(num_initiators > 0, "app needs initiators: " + name);
  STX_REQUIRE(num_targets > 0, "app needs targets: " + name);
  STX_REQUIRE(static_cast<int>(programs.size()) == num_initiators,
              "one program per initiator required: " + name);
  STX_REQUIRE(target_names.empty() ||
                  static_cast<int>(target_names.size()) == num_targets,
              "target_names size mismatch: " + name);
  for (const auto& prog : programs) {
    STX_REQUIRE(!prog.empty(), "empty core program: " + name);
    for (const auto& op : prog) {
      if (op.op != sim::core_op::kind::compute) {
        STX_REQUIRE(op.target >= 0 && op.target < num_targets,
                    "program references unknown target: " + name);
      }
    }
  }
  for (int pm : private_mem) {
    STX_REQUIRE(pm >= 0 && pm < num_targets,
                "private_mem out of range: " + name);
  }
  STX_REQUIRE(loop_starts.empty() || loop_starts.size() == programs.size(),
              "loop_starts must be empty or one per core: " + name);
  for (std::size_t i = 0; i < loop_starts.size(); ++i) {
    STX_REQUIRE(loop_starts[i] < programs[i].size(),
                "loop_start out of range: " + name);
  }
}

namespace {

/// Validates the app and assembles the system_config every entry point
/// (session or batch instance) instantiates from.
sim::system_config assemble_config(const app_spec& app,
                                   const sim::crossbar_config& req,
                                   const sim::crossbar_config& resp,
                                   const sim::system_config& base) {
  app.validate();
  sim::system_config cfg = base;
  cfg.request = req;
  cfg.response = resp;
  return cfg;
}

/// Full crossbars on both directions, inheriting the per-direction
/// policy/overhead knobs from `base`.
std::pair<sim::crossbar_config, sim::crossbar_config> full_crossbar_configs(
    const app_spec& app, const sim::system_config& base) {
  auto req = sim::crossbar_config::full(app.num_targets);
  auto resp = sim::crossbar_config::full(app.num_initiators);
  req.policy = base.request.policy;
  req.transfer_overhead = base.request.transfer_overhead;
  resp.policy = base.response.policy;
  resp.transfer_overhead = base.response.transfer_overhead;
  return {std::move(req), std::move(resp)};
}

}  // namespace

sim::session make_session(const app_spec& app,
                          const sim::crossbar_config& req,
                          const sim::crossbar_config& resp,
                          const sim::system_config& base) {
  const auto cfg = assemble_config(app, req, resp, base);
  return sim::session(app.programs, app.num_targets, cfg, app.loop_starts);
}

sim::session make_full_crossbar_session(const app_spec& app,
                                        const sim::system_config& base) {
  const auto [req, resp] = full_crossbar_configs(app, base);
  return make_session(app, req, resp, base);
}

sim::system_config make_system_config(const app_spec& app,
                                      const sim::crossbar_config& req,
                                      const sim::crossbar_config& resp,
                                      const sim::system_config& base) {
  return assemble_config(app, req, resp, base);
}

sim::batch make_batch(const app_spec& app) {
  app.validate();
  return sim::batch(app.programs, app.num_targets, app.loop_starts);
}

}  // namespace stx::workloads
