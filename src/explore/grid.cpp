#include "explore/grid.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace stx::explore {

namespace {

const char* policy_short_name(sim::arbitration p) {
  switch (p) {
    case sim::arbitration::fixed_priority: return "fixed";
    case sim::arbitration::round_robin: return "rr";
    case sim::arbitration::least_recently_granted: return "lrg";
  }
  return "?";
}

cycle_t parse_cycles(const std::string& key, const std::string& v,
                     cycle_t min_value = 0,
                     cycle_t max_value = std::numeric_limits<cycle_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const auto n = std::strtoll(v.c_str(), &end, 10);
  STX_REQUIRE(end != v.c_str() && *end == '\0' && errno != ERANGE &&
                  n >= min_value && n <= max_value,
              "grid axis " + key + ": bad value '" + v + "'");
  return n;
}

double parse_fraction(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  STX_REQUIRE(end != v.c_str() && *end == '\0' && std::isfinite(d) &&
                  d >= 0.0,
              "grid axis " + key + ": bad value '" + v + "'");
  return d;
}

/// Iterates an axis: the axis's values, or the one fallback when empty.
template <typename T, typename Fn>
void each(const std::vector<T>& axis, const T& fallback, Fn&& fn) {
  if (axis.empty()) {
    fn(fallback);
    return;
  }
  for (const auto& v : axis) fn(v);
}

}  // namespace

sim::arbitration parse_policy(const std::string& v) {
  if (v == "fixed" || v == "fixed_priority") {
    return sim::arbitration::fixed_priority;
  }
  if (v == "rr" || v == "round_robin") return sim::arbitration::round_robin;
  if (v == "lrg" || v == "least_recently_granted") {
    return sim::arbitration::least_recently_granted;
  }
  throw invalid_argument_error("unknown arbitration policy '" + v +
                               "' (fixed|rr|lrg)");
}

xbar::solver_kind parse_solver(const std::string& v) {
  if (v == "specialized") return xbar::solver_kind::specialized;
  if (v == "milp") return xbar::solver_kind::generic_milp;
  throw invalid_argument_error("unknown solver '" + v +
                               "' (specialized|milp)");
}

std::string sweep_point::to_string() const {
  std::ostringstream out;
  out << "win=" << window_size;
  char thr[32];
  std::snprintf(thr, sizeof(thr), "%.2f", overlap_threshold);
  out << " thr=" << thr << " maxtb=" << max_targets_per_bus;
  if (burst_window > 0) out << " burstwin=" << burst_window;
  out << " policy=" << policy_short_name(policy);
  if (solver != xbar::solver_kind::specialized) out << " solver=milp";
  if (request_window > 0) out << " reqwin=" << request_window;
  if (response_window > 0) out << " respwin=" << response_window;
  return out.str();
}

bool sweep_grid::empty() const {
  return window_sizes.empty() && overlap_thresholds.empty() &&
         max_targets_per_bus.empty() && burst_windows.empty() &&
         policies.empty() && solvers.empty() && request_windows.empty() &&
         response_windows.empty();
}

std::size_t sweep_grid::num_points() const {
  const auto axis = [](std::size_t n) { return n == 0 ? 1 : n; };
  return axis(window_sizes.size()) * axis(overlap_thresholds.size()) *
         axis(max_targets_per_bus.size()) * axis(burst_windows.size()) *
         axis(policies.size()) * axis(solvers.size()) *
         axis(request_windows.size()) * axis(response_windows.size());
}

std::vector<sweep_point> expand_grid(const sweep_grid& grid) {
  const sweep_point def;
  std::vector<sweep_point> out;
  out.reserve(grid.num_points());
  each(grid.window_sizes, def.window_size, [&](cycle_t win) {
    each(grid.overlap_thresholds, def.overlap_threshold, [&](double thr) {
      each(grid.max_targets_per_bus, def.max_targets_per_bus, [&](int maxtb) {
        each(grid.burst_windows, def.burst_window, [&](cycle_t bw) {
          each(grid.policies, def.policy, [&](sim::arbitration pol) {
            each(grid.solvers, def.solver, [&](xbar::solver_kind sol) {
              each(grid.request_windows, def.request_window,
                   [&](cycle_t req) {
                each(grid.response_windows, def.response_window,
                     [&](cycle_t resp) {
                  sweep_point p;
                  p.window_size = win;
                  p.overlap_threshold = thr;
                  p.max_targets_per_bus = maxtb;
                  p.burst_window = bw;
                  p.policy = pol;
                  p.solver = sol;
                  p.request_window = req;
                  p.response_window = resp;
                  out.push_back(p);
                });
              });
            });
          });
        });
      });
    });
  });
  // Deduplicate, keeping first occurrences: a value listed twice on an
  // axis must not evaluate (and bill) the same point twice.
  std::vector<sweep_point> unique;
  unique.reserve(out.size());
  for (const auto& p : out) {
    bool seen = false;
    for (const auto& q : unique) {
      if (p == q) {
        seen = true;
        break;
      }
    }
    if (!seen) unique.push_back(p);
  }
  return unique;
}

const std::vector<std::string>& grid_keys() {
  static const std::vector<std::string> keys = {
      "win",    "thr",    "maxtb",  "burstwin",
      "policy", "solver", "reqwin", "respwin",
  };
  return keys;
}

void parse_grid_axis(const std::string& spec, sweep_grid& grid) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) {
    throw invalid_argument_error("grid axis '" + spec +
                                 "' is not of the form key=v1,v2,...");
  }
  const auto key = spec.substr(0, eq);
  const auto values = split_list(spec.substr(eq + 1));
  if (values.empty()) {
    throw invalid_argument_error("grid axis '" + spec +
                                 "' has an empty value list");
  }
  for (const auto& v : values) {
    if (key == "win") {
      // Reject what flow_options::validate would, at parse time.
      grid.window_sizes.push_back(parse_cycles(key, v, /*min_value=*/1));
    } else if (key == "thr") {
      grid.overlap_thresholds.push_back(parse_fraction(key, v));
    } else if (key == "maxtb") {
      // An `int` knob: a wider value is refused, never narrowed.
      grid.max_targets_per_bus.push_back(static_cast<int>(
          parse_cycles(key, v, 0, std::numeric_limits<int>::max())));
    } else if (key == "burstwin") {
      grid.burst_windows.push_back(parse_cycles(key, v));
    } else if (key == "policy") {
      grid.policies.push_back(parse_policy(v));
    } else if (key == "solver") {
      grid.solvers.push_back(parse_solver(v));
    } else if (key == "reqwin") {
      grid.request_windows.push_back(parse_cycles(key, v));
    } else if (key == "respwin") {
      grid.response_windows.push_back(parse_cycles(key, v));
    } else {
      std::string known;
      for (const auto& k : grid_keys()) known += " " + k;
      throw invalid_argument_error("unknown grid axis key '" + key +
                                   "' (valid:" + known + ")");
    }
  }
}

sweep_grid parse_grid(const std::vector<std::string>& specs) {
  sweep_grid grid;
  for (const auto& spec : specs) parse_grid_axis(spec, grid);
  return grid;
}

}  // namespace stx::explore
