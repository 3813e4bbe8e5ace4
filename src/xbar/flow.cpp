#include "xbar/flow.h"

#include <cmath>
#include <optional>
#include <string>

#include "gen/backends.h"
#include "obs/obs.h"
#include "util/error.h"

namespace stx::xbar {

namespace {

/// Busy-cycle totals per (sender, receiver) link of one direction's trace.
std::vector<std::vector<traffic::cycle_t>> link_totals(
    const traffic::trace& t) {
  std::vector<std::vector<traffic::cycle_t>> out(
      static_cast<std::size_t>(t.num_initiators()),
      std::vector<traffic::cycle_t>(static_cast<std::size_t>(t.num_targets()),
                                    0));
  for (const auto& e : t.events()) {
    out[static_cast<std::size_t>(e.initiator)]
       [static_cast<std::size_t>(e.target)] += e.end - e.begin;
  }
  return out;
}

sim::system_config base_system_config(const flow_options& opts,
                                      bool record_traces) {
  sim::system_config cfg;
  cfg.record_traces = record_traces;
  cfg.keep_latency_samples = true;
  cfg.seed = opts.seed;
  cfg.request.policy = opts.policy;
  cfg.request.transfer_overhead = opts.transfer_overhead;
  cfg.response.policy = opts.policy;
  cfg.response.transfer_overhead = opts.transfer_overhead;
  return cfg;
}

/// Full crossbars on both directions, run to the horizon: phase 1 with
/// `record_traces`, the phase-4 reference without (same metrics either
/// way — recording only appends to the traces).
sim::session run_full_crossbars(const workloads::app_spec& app,
                                const flow_options& opts, bool record_traces) {
  auto session = workloads::make_full_crossbar_session(
      app, base_system_config(opts, record_traces));
  session.run(opts.horizon);
  return session;
}

}  // namespace

void flow_options::validate() const {
  const auto& p = synth.params;
  std::string bad;
  if (horizon < 1) {
    bad = "horizon must be >= 1, got " + std::to_string(horizon);
  } else if (p.window_size < 1) {
    bad = "window size must be >= 1, got " + std::to_string(p.window_size);
  } else if (!std::isfinite(p.overlap_threshold) ||
             p.overlap_threshold < 0.0) {
    bad = "overlap threshold must be finite and >= 0, got " +
          std::to_string(p.overlap_threshold);
  } else if (p.burst_window < 0) {
    bad = "burst window must be >= 0, got " + std::to_string(p.burst_window);
  }
  if (!bad.empty()) {
    throw invalid_argument_error("invalid flow options: " + bad);
  }
}

design_params effective_synthesis_params(const flow_options& opts,
                                         bool request_direction) {
  auto params = opts.synth.params;
  const auto override_win = request_direction ? opts.request_window_override
                                              : opts.response_window_override;
  if (override_win > 0) params.window_size = override_win;
  return params;
}

collected_traces collect_traces(const workloads::app_spec& app,
                                const flow_options& opts) {
  obs::span sp("flow.collect", {{"app", app.name}});
  const auto session = run_full_crossbars(app, opts, /*record_traces=*/true);
  return {session.request_trace(), session.response_trace(),
          session.metrics()};
}

validation_metrics validate_configuration(const workloads::app_spec& app,
                                          const sim::crossbar_config& req,
                                          const sim::crossbar_config& resp,
                                          const flow_options& opts) {
  auto session = workloads::make_session(
      app, req, resp, base_system_config(opts, /*record_traces=*/false));
  session.run(opts.horizon);
  return session.metrics();
}

std::vector<validation_metrics> validate_configurations(
    const workloads::app_spec& app, const std::vector<validation_job>& jobs) {
  std::vector<validation_metrics> out;
  if (jobs.empty()) return out;
  obs::span sp("flow.validate_batch",
               {{"app", app.name},
                {"instances", static_cast<std::int64_t>(jobs.size())}});
  auto batch = workloads::make_batch(app);
  const auto horizon = jobs.front().opts.horizon;
  for (const auto& job : jobs) {
    STX_REQUIRE(job.opts.horizon == horizon,
                "batched validation jobs must share one horizon");
    batch.add_instance(workloads::make_system_config(
        app, job.request, job.response,
        base_system_config(job.opts, /*record_traces=*/false)));
  }
  batch.run(horizon);
  out.reserve(jobs.size());
  for (int b = 0; b < batch.size(); ++b) {
    out.push_back(batch.metrics(b));
  }
  return out;
}

validation_metrics validate_full_crossbars(const workloads::app_spec& app,
                                           const flow_options& opts) {
  return run_full_crossbars(app, opts, /*record_traces=*/false).metrics();
}

flow_report report_from_designs(const workloads::app_spec& app,
                                const collected_traces& traces,
                                crossbar_design request,
                                crossbar_design response) {
  flow_report report;
  report.app_name = app.name;
  report.num_initiators = app.num_initiators;
  report.num_targets = app.num_targets;
  report.target_names = app.target_names;
  for (int t = static_cast<int>(report.target_names.size());
       t < app.num_targets; ++t) {
    report.target_names.push_back("tgt" + std::to_string(t));
  }
  report.request_traffic = link_totals(traces.request);
  report.response_traffic = link_totals(traces.response);
  report.request_design = std::move(request);
  report.response_design = std::move(response);
  report.full_buses = app.total_cores();
  report.designed_buses =
      report.request_design.num_buses + report.response_design.num_buses;
  return report;
}

flow_report synthesize_design(const workloads::app_spec& app,
                              const collected_traces& traces,
                              const flow_options& opts) {
  app.validate();
  // ---- Phases 2+3: window analysis, pre-processing, synthesis — run
  // independently per direction, as the paper does.
  synthesis_options req_opts = opts.synth;
  req_opts.params = effective_synthesis_params(opts, /*request=*/true);
  synthesis_options resp_opts = opts.synth;
  resp_opts.params = effective_synthesis_params(opts, /*request=*/false);
  std::optional<synthesis_input> req_input;
  std::optional<synthesis_input> resp_input;
  {
    obs::span sp("flow.analyze", {{"app", app.name}});
    req_input = input_from_trace(traces.request, req_opts.params);
    resp_input = input_from_trace(traces.response, resp_opts.params);
  }
  crossbar_design request;
  crossbar_design response;
  {
    obs::span sp("flow.synthesize", {{"app", app.name}});
    request = synthesize(*req_input, req_opts);
    response = synthesize(*resp_input, resp_opts);
  }
  return report_from_designs(app, traces, std::move(request),
                             std::move(response));
}

void validate_design(const workloads::app_spec& app, const flow_options& opts,
                     const std::optional<validation_metrics>& full,
                     flow_report& report) {
  // ---- Phase 4: validation simulations.
  obs::span sp("flow.validate", {{"app", app.name}});
  const auto req_cfg =
      report.request_design.to_config(opts.policy, opts.transfer_overhead);
  const auto resp_cfg =
      report.response_design.to_config(opts.policy, opts.transfer_overhead);
  report.designed = validate_configuration(app, req_cfg, resp_cfg, opts);
  report.full = full.has_value() ? *full : validate_full_crossbars(app, opts);
}

flow_report run_design_flow(const workloads::app_spec& app,
                            const flow_options& opts) {
  app.validate();
  opts.validate();
  // ---- Phase 1: cycle-accurate simulation with full crossbars. Its
  // metrics are phase 4's full-crossbar reference, so validation only
  // simulates the designed configuration.
  const auto traces = collect_traces(app, opts);
  auto report = synthesize_design(app, traces, opts);
  validate_design(app, opts, traces.full, report);
  return report;
}

std::vector<gen::artifact> generate_artifacts(
    const flow_report& report, const gen::generate_options& opts) {
  obs::span sp("flow.generate", {{"app", report.app_name}});
  auto artifacts = gen::generate(report, opts);
  obs::add_counter("gen.artifacts",
                   static_cast<std::int64_t>(artifacts.size()));
  return artifacts;
}

}  // namespace stx::xbar
