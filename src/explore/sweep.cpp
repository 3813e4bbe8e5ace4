#include "explore/sweep.h"

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstddef>
#include <exception>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "explore/codec.h"
#include "obs/obs.h"
#include "util/error.h"

namespace stx::explore {

std::vector<sweep_point> sweep_points(const sweep_spec& spec) {
  auto points = expand_grid(spec.grid);
  for (const auto& p : spec.extra_points) {
    if (std::find(points.begin(), points.end(), p) == points.end()) {
      points.push_back(p);
    }
  }
  // An all-default grid is meaningful only when the caller asked for it
  // via extra_points; expand_grid of an empty grid yields the single
  // default point, which run_sweep accepts (one-point "sweep").
  return points;
}

xbar::flow_options options_for(const sweep_spec& spec,
                               const sweep_point& point) {
  xbar::flow_options opts;
  opts.horizon = spec.horizon;
  opts.seed = spec.seed;
  opts.transfer_overhead = spec.transfer_overhead;
  opts.policy = point.policy;
  opts.synth = spec.synth_base;
  opts.synth.params.window_size = point.window_size;
  opts.synth.params.overlap_threshold = point.overlap_threshold;
  opts.synth.params.max_targets_per_bus = point.max_targets_per_bus;
  opts.synth.params.burst_window = point.burst_window;
  opts.synth.solver = point.solver;
  opts.request_window_override = point.request_window;
  opts.response_window_override = point.response_window;
  return opts;
}

namespace {

/// Phase-4 validation cohort width: run_sweep simulates up to this many
/// distinct same-app instances as one kernel batch. Results do not depend
/// on it — batch instances are independent.
constexpr std::size_t cohort_size = 32;

/// One stage of the sweep: calls `fn(k)` once for every k in [0, n), on
/// up to `threads` workers (inline when that is one) that claim the next
/// k in order. `fn` records its own failures; it must not throw.
template <typename Fn>
void run_stage(int threads, std::size_t n, const Fn& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&](int worker_index) {
    // One span per worker thread and stage: its duration against the
    // sweep span's is the worker's utilization.
    obs::span wsp("explore.worker", {{"worker", worker_index}});
    std::int64_t claimed = 0;
    for (std::size_t k = next.fetch_add(1); k < n; k = next.fetch_add(1)) {
      ++claimed;
      fn(k);
    }
    wsp.set_attr({"jobs", claimed});
  };
  const int workers =
      std::min<int>(std::max(threads, 1), static_cast<int>(n));
  if (workers <= 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();
}

/// What one window analysis depends on inside a sweep. Horizon, seed and
/// transfer overhead are sweep-wide, so the app and the policy name the
/// phase-1 trace (exactly what trace_cache keys it by); the direction
/// picks one of its two traces; the effective window and burst_window
/// are all analysis_partition reads.
struct analysis_key {
  std::size_t app = 0;
  sim::arbitration policy = sim::arbitration::round_robin;
  bool request = true;
  cycle_t window_size = 0;
  cycle_t burst_window = 0;

  auto operator<=>(const analysis_key&) const = default;
};

}  // namespace

sweep_report run_sweep(const sweep_spec& spec, trace_cache& cache) {
  STX_REQUIRE(!spec.apps.empty(), "sweep spec has no applications");
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    spec.apps[i].validate();
    for (std::size_t j = i + 1; j < spec.apps.size(); ++j) {
      STX_REQUIRE(spec.apps[i].name != spec.apps[j].name,
                  "duplicate app name '" + spec.apps[i].name +
                      "' in sweep spec (names key the trace cache)");
    }
  }
  const auto points = sweep_points(spec);
  STX_REQUIRE(!points.empty(), "sweep spec expands to zero points");
  for (const auto& point : points) options_for(spec, point).validate();

  // Flattened job list, app-major then grid order: results land at their
  // job index, so the report order never depends on scheduling.
  struct job {
    std::size_t app;
    const sweep_point* point;
    xbar::flow_options opts;
  };
  const std::size_t num_apps = spec.apps.size();
  const std::size_t num_points = points.size();
  std::vector<job> jobs;
  jobs.reserve(num_apps * num_points);
  for (std::size_t a = 0; a < num_apps; ++a) {
    for (const auto& point : points) {
      jobs.push_back({a, &point, options_for(spec, point)});
    }
  }
  const std::size_t num_jobs = jobs.size();

  obs::span sweep_span("explore.sweep",
                       {{"apps", static_cast<std::int64_t>(num_apps)},
                        {"jobs", static_cast<std::int64_t>(num_jobs)}});
  obs::add_counter("explore.points", static_cast<std::int64_t>(num_jobs));

  const auto stats_before = cache.stats();
  const auto by_app_before = cache.stats_by_app();
  std::vector<sweep_result> results(num_jobs);
  std::vector<std::exception_ptr> errors(num_jobs);

  // Every stage below computes each distinct key once, on whichever
  // worker claims it: the keys are grouped serially in job order before
  // the stage runs, so the work done (and every obs counter) is the same
  // at any thread count. A failing shared item fails every point that
  // shares it.

  // ---- Phase 1: one trace_cache lookup per point, as a per-point flow
  // would make (the report's cache section counts them). Workers CLAIM
  // jobs app-interleaved: app-major claiming would pile every early
  // worker onto app 0's trace future while its one loader simulates,
  // serialising the expensive per-app phase-1 runs.
  std::vector<std::shared_ptr<const xbar::collected_traces>> traces(num_jobs);
  run_stage(spec.threads, num_jobs, [&](std::size_t k) {
    // k-th claim -> app (k mod A), point (k div A).
    const std::size_t i = (k % num_apps) * num_points + k / num_apps;
    const auto& app = spec.apps[jobs[i].app];
    try {
      traces[i] = cache.traces(app, jobs[i].opts);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });

  // ---- Phases 2-3: one window analysis per analysis_key, and within it
  // one synthesis per distinct (synthesis options without the overlap
  // threshold, conflict matrix): the threshold reaches the solvers only
  // through the conflict matrix. A direction of job i is 2i (request) or
  // 2i + 1 (response).
  std::map<analysis_key, std::size_t> analysis_index;
  std::vector<std::vector<std::size_t>> analyses;  // directions, job order
  for (std::size_t i = 0; i < num_jobs; ++i) {
    if (errors[i] != nullptr) continue;
    for (const bool request : {true, false}) {
      const auto params = xbar::effective_synthesis_params(jobs[i].opts,
                                                           request);
      const analysis_key key{jobs[i].app, jobs[i].opts.policy, request,
                             params.window_size, params.burst_window};
      const auto [it, added] = analysis_index.emplace(key, analyses.size());
      if (added) analyses.emplace_back();
      analyses[it->second].push_back(2 * i + (request ? 0 : 1));
    }
  }
  const auto direction = [&](std::size_t d) {
    auto opts = jobs[d / 2].opts.synth;
    opts.params =
        xbar::effective_synthesis_params(jobs[d / 2].opts, d % 2 == 0);
    return opts;
  };
  struct synthesis {
    std::size_t analysis = 0;
    xbar::synthesis_options opts;  // overlap_threshold zeroed
    std::vector<std::vector<bool>> conflicts;
    std::vector<std::size_t> members;  // directions sharing it, job order
  };
  std::vector<std::optional<traffic::window_analysis>> analysis(
      analyses.size());
  std::vector<std::vector<synthesis>> found(analyses.size());
  std::vector<xbar::crossbar_design> designs(2 * num_jobs);
  std::vector<std::exception_ptr> design_errors(2 * num_jobs);
  run_stage(spec.threads, analyses.size(), [&](std::size_t g) {
    const auto& members = analyses[g];
    // Every member shares the first one's trace and partition (the key
    // says so).
    try {
      const auto d = members.front();
      obs::span sp("flow.analyze",
                   {{"app", spec.apps[jobs[d / 2].app].name}});
      const auto& trace =
          d % 2 == 0 ? traces[d / 2]->request : traces[d / 2]->response;
      analysis[g].emplace(
          trace, xbar::analysis_partition(trace, direction(d).params));
    } catch (...) {
      for (const auto d : members) design_errors[d] = std::current_exception();
      return;
    }
    // Each member's own pre-processing gives its synthesis key.
    for (const auto d : members) {
      try {
        auto opts = direction(d);
        const xbar::synthesis_input input(*analysis[g], opts.params);
        opts.params.overlap_threshold = 0.0;
        const auto it =
            std::find_if(found[g].begin(), found[g].end(), [&](const auto& s) {
              return s.opts == opts && s.conflicts == input.conflicts();
            });
        if (it != found[g].end()) {
          it->members.push_back(d);
        } else {
          found[g].push_back({g, std::move(opts), input.conflicts(), {d}});
        }
      } catch (...) {
        design_errors[d] = std::current_exception();
      }
    }
  });
  // The distinct syntheses run as their own stage, so the points that
  // share one analysis still spread over the workers. Each rebuilds its
  // first member's input; every member gets the design back with its own
  // design_params.
  std::vector<synthesis> syntheses;
  for (auto& group : found) {
    for (auto& item : group) syntheses.push_back(std::move(item));
  }
  run_stage(spec.threads, syntheses.size(), [&](std::size_t k) {
    const auto& item = syntheses[k];
    try {
      const auto opts = direction(item.members.front());
      const auto design = xbar::synthesize(
          xbar::synthesis_input(*analysis[item.analysis], opts.params), opts);
      for (const auto d : item.members) {
        designs[d] = design;
        designs[d].params = direction(d).params;
      }
    } catch (...) {
      for (const auto d : item.members) {
        design_errors[d] = std::current_exception();
      }
    }
  });
  analysis.clear();

  // Report assembly, one code path with xbar::synthesize_design.
  run_stage(spec.threads, num_jobs, [&](std::size_t i) {
    if (errors[i] == nullptr) {
      errors[i] = design_errors[2 * i] != nullptr ? design_errors[2 * i]
                                                  : design_errors[2 * i + 1];
    }
    if (errors[i] != nullptr) return;
    auto& result = results[i];
    try {
      result.app_name = spec.apps[jobs[i].app].name;
      result.point = *jobs[i].point;
      result.validated = spec.validate;
      result.report = xbar::report_from_designs(
          spec.apps[jobs[i].app], *traces[i], std::move(designs[2 * i]),
          std::move(designs[2 * i + 1]));
      if (spec.validate) result.report.full = traces[i]->full;
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });

  std::int64_t designed_store_hits = 0;
  if (spec.validate) {
    // ---- Phase 4: one simulated instance per distinct (app, request
    // config, response config); seed, horizon and overhead are
    // sweep-wide, and each config carries its policy. Each app's
    // instances pack into cohorts of cohort_size, each cohort one kernel
    // batch. Per-instance results are independent of cohort membership,
    // so the report does not depend on which worker claims which cohort.
    //
    // With a persistent store behind the cache, each point's designed
    // metrics are content-addressed under its stage=metrics key: hits
    // drop out before instances are formed (a re-run of the same sweep
    // skips the whole re-simulation), and every simulated result is
    // written through under every key that shares it. Safe because a
    // warm result is bit-identical to a fresh one by the codec
    // round-trip contract.
    kv_store* const store = cache.backing();
    struct instance {
      xbar::validation_job job;         // opts of the first sharing point
      std::vector<std::size_t> points;  // every point it serves, job order
    };
    std::vector<instance> instances;  // app-major
    std::vector<std::pair<std::size_t, std::size_t>> cohorts;  // [begin, end)
    for (std::size_t a = 0; a < num_apps; ++a) {
      const std::size_t first = instances.size();
      for (std::size_t p = 0; p < num_points; ++p) {
        const std::size_t i = a * num_points + p;
        if (errors[i] != nullptr) continue;
        const auto& opts = jobs[i].opts;
        if (store != nullptr) {
          if (auto blob = store->get(metrics_key(spec.apps[a].name, opts))) {
            try {
              results[i].report.designed = decode_metrics(*blob);
              ++designed_store_hits;
              continue;
            } catch (const std::exception&) {
              // Undecodable object: re-simulate (the put below heals it).
            }
          }
        }
        try {
          const auto& report = results[i].report;
          auto request = report.request_design.to_config(
              opts.policy, opts.transfer_overhead);
          auto response = report.response_design.to_config(
              opts.policy, opts.transfer_overhead);
          const auto it = std::find_if(
              instances.begin() + static_cast<std::ptrdiff_t>(first),
              instances.end(), [&](const instance& in) {
                return in.job.request == request &&
                       in.job.response == response;
              });
          if (it != instances.end()) {
            it->points.push_back(i);
          } else {
            instances.push_back(
                {{std::move(request), std::move(response), opts}, {i}});
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
      for (std::size_t off = first; off < instances.size();
           off += cohort_size) {
        cohorts.emplace_back(off,
                             std::min(instances.size(), off + cohort_size));
      }
    }
    run_stage(spec.threads, cohorts.size(), [&](std::size_t c) {
      const auto [begin, end] = cohorts[c];
      const auto& app = spec.apps[jobs[instances[begin].points.front()].app];
      try {
        std::vector<xbar::validation_job> vjobs;
        vjobs.reserve(end - begin);
        for (std::size_t n = begin; n < end; ++n) {
          vjobs.push_back(instances[n].job);
        }
        const auto metrics = xbar::validate_configurations(app, vjobs);
        for (std::size_t n = begin; n < end; ++n) {
          const auto& m = metrics[n - begin];
          const std::string blob = store != nullptr ? encode_metrics(m) : "";
          for (const std::size_t i : instances[n].points) {
            results[i].report.designed = m;
            if (store == nullptr) continue;
            try {
              store->put(metrics_key(app.name, jobs[i].opts), blob);
            } catch (const std::exception&) {
              // A failed write-through only loses persistence: the
              // point's metrics are computed, as in trace_cache.
              obs::add_counter("explore.cache.put_dropped", 1);
            }
          }
        }
      } catch (...) {
        for (std::size_t n = begin; n < end; ++n) {
          for (const std::size_t i : instances[n].points) {
            errors[i] = std::current_exception();
          }
        }
      }
    });
    if (designed_store_hits > 0) {
      obs::add_counter("explore.designed.store_hits", designed_store_hits);
    }
  }

  // Rethrow the first failure in job order (deterministic, like the
  // serial loop would have).
  for (const auto& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }

  sweep_report report;
  report.results = std::move(results);
  report.horizon = spec.horizon;
  report.seed = spec.seed;
  const auto stats_after = cache.stats();
  report.phase1_simulations =
      stats_after.trace_misses - stats_before.trace_misses;
  report.designed_store_hits = designed_store_hits;
  // Per-app cache activity for THIS sweep: delta against the pre-sweep
  // per-app totals, reported in spec order (deterministic; a shared cache
  // may carry counts from earlier sweeps).
  const auto by_app_after = cache.stats_by_app();
  report.cache.reserve(spec.apps.size());
  for (const auto& app : spec.apps) {
    trace_cache::cache_stats before;
    if (const auto it = by_app_before.find(app.name);
        it != by_app_before.end()) {
      before = it->second;
    }
    trace_cache::cache_stats after;
    if (const auto it = by_app_after.find(app.name);
        it != by_app_after.end()) {
      after = it->second;
    }
    app_cache_stats entry;
    entry.app_name = app.name;
    entry.trace_hits = after.trace_hits - before.trace_hits;
    entry.trace_misses = after.trace_misses - before.trace_misses;
    report.cache.push_back(std::move(entry));
  }
  if (spec.validate) {
    report.pareto = pareto_front(report.results);
  }
  return report;
}

sweep_report run_sweep(const sweep_spec& spec) {
  trace_cache cache;
  return run_sweep(spec, cache);
}

}  // namespace stx::explore
