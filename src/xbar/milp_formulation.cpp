#include "xbar/milp_formulation.h"

#include <cmath>
#include <string>

#include "util/error.h"

namespace stx::xbar {

int xbar_milp::pair_index(int i, int j) const {
  STX_REQUIRE(i >= 0 && j >= 0 && i < num_targets && j < num_targets &&
                  i != j,
              "pair index out of range");
  if (i > j) std::swap(i, j);
  return i * num_targets - i * (i + 1) / 2 + (j - i - 1);
}

std::vector<int> xbar_milp::decode_binding(
    const std::vector<double>& solution) const {
  std::vector<int> binding(static_cast<std::size_t>(num_targets), -1);
  for (int i = 0; i < num_targets; ++i) {
    for (int k = 0; k < num_buses; ++k) {
      const double v = solution[static_cast<std::size_t>(
          x[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)])];
      if (v > 0.5) {
        STX_ENSURE(binding[static_cast<std::size_t>(i)] < 0,
                   "target bound to two buses in MILP solution");
        binding[static_cast<std::size_t>(i)] = k;
      }
    }
    STX_ENSURE(binding[static_cast<std::size_t>(i)] >= 0,
               "target unbound in MILP solution");
  }
  return binding;
}

namespace {

/// Shared construction of Eq. 3-9; the binding variant adds maxov rows.
/// Without the objective the sharing variables sb/s exist ONLY to let
/// Eq. 7 forbid conflicting pairs from sharing — which the compact form
/// states directly as x_i_k + x_j_k <= 1 per conflicting pair per bus,
/// dropping all T(T-1)/2 * (B+1) sharing variables and their Eq. 5/6
/// linearisation rows. The two feasibility models have identical integer
/// solution sets; the compact rows are also exactly the 2-variable shape
/// the branch & bound's clique-cut separator feeds on.
xbar_milp build_common(const synthesis_input& input, int num_buses,
                       bool with_objective) {
  STX_REQUIRE(num_buses >= 1, "need at least one bus");
  xbar_milp out;
  out.num_targets = input.num_targets();
  out.num_buses = num_buses;

  const int T = out.num_targets;
  const int B = num_buses;
  auto& m = out.model;

  // Definition 3: binding variables x[i][k].
  out.x.assign(static_cast<std::size_t>(T), {});
  for (int i = 0; i < T; ++i) {
    for (int k = 0; k < B; ++k) {
      out.x[static_cast<std::size_t>(i)].push_back(m.add_binary(
          0.0, "x_" + std::to_string(i) + "_" + std::to_string(k)));
    }
  }

  // Definition 4: sharing variables sb[(i,j)][k] and s[(i,j)], i < j.
  // Only the objective needs them (compact feasibility: see above).
  if (with_objective) {
    const int pairs = T * (T - 1) / 2;
    out.sb.assign(static_cast<std::size_t>(pairs), {});
    out.s.assign(static_cast<std::size_t>(pairs), -1);
    for (int i = 0; i < T; ++i) {
      for (int j = i + 1; j < T; ++j) {
        const auto p = static_cast<std::size_t>(out.pair_index(i, j));
        for (int k = 0; k < B; ++k) {
          out.sb[p].push_back(m.add_binary(
              0.0, "sb_" + std::to_string(i) + "_" + std::to_string(j) +
                       "_" + std::to_string(k)));
        }
        out.s[p] = m.add_binary(
            0.0, "s_" + std::to_string(i) + "_" + std::to_string(j));
      }
    }
  }

  // Eq. 3: each target on exactly one bus.
  for (int i = 0; i < T; ++i) {
    std::vector<lp::term> terms;
    for (int k = 0; k < B; ++k) {
      terms.push_back({out.x[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(k)],
                       1.0});
    }
    m.add_row(terms, lp::relation::equal, 1.0, "assign_" + std::to_string(i));
  }

  // Eq. 4: window bandwidth per bus per window.
  for (int k = 0; k < B; ++k) {
    for (int w = 0; w < input.num_windows(); ++w) {
      std::vector<lp::term> terms;
      for (int i = 0; i < T; ++i) {
        const auto c = static_cast<double>(input.comm(i, w));
        if (c > 0.0) {
          terms.push_back({out.x[static_cast<std::size_t>(i)]
                                [static_cast<std::size_t>(k)],
                           c});
        }
      }
      if (terms.empty()) continue;
      m.add_row(terms, lp::relation::less_equal,
                static_cast<double>(input.capacity(w)),
                "bw_" + std::to_string(k) + "_" + std::to_string(w));
    }
  }

  if (with_objective) {
    // Eq. 5: linearised sb = x_i * x_j, and Eq. 6: s = sum_k sb.
    for (int i = 0; i < T; ++i) {
      for (int j = i + 1; j < T; ++j) {
        const auto p = static_cast<std::size_t>(out.pair_index(i, j));
        std::vector<lp::term> sum_terms;
        for (int k = 0; k < B; ++k) {
          const int xi = out.x[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(k)];
          const int xj = out.x[static_cast<std::size_t>(j)]
                              [static_cast<std::size_t>(k)];
          const int sbv = out.sb[p][static_cast<std::size_t>(k)];
          // x_i + x_j - 1 <= sb
          m.add_row({{xi, 1.0}, {xj, 1.0}, {sbv, -1.0}},
                    lp::relation::less_equal, 1.0);
          // sb <= 0.5 x_i + 0.5 x_j
          m.add_row({{sbv, 1.0}, {xi, -0.5}, {xj, -0.5}},
                    lp::relation::less_equal, 0.0);
          sum_terms.push_back({sbv, 1.0});
        }
        sum_terms.push_back({out.s[p], -1.0});
        m.add_row(sum_terms, lp::relation::equal, 0.0);  // Eq. 6

        // Eq. 7: conflicting pairs must not share (c_ij * s_ij = 0).
        if (input.conflict(i, j)) {
          m.add_row({{out.s[p], 1.0}}, lp::relation::equal, 0.0);
        }
      }
    }
  } else {
    // Compact Eq. 7: conflicting pairs may not land on the same bus.
    for (int i = 0; i < T; ++i) {
      for (int j = i + 1; j < T; ++j) {
        if (!input.conflict(i, j)) continue;
        for (int k = 0; k < B; ++k) {
          m.add_row({{out.x[static_cast<std::size_t>(i)]
                           [static_cast<std::size_t>(k)],
                      1.0},
                     {out.x[static_cast<std::size_t>(j)]
                           [static_cast<std::size_t>(k)],
                      1.0}},
                    lp::relation::less_equal, 1.0,
                    "conflict_" + std::to_string(i) + "_" +
                        std::to_string(j) + "_" + std::to_string(k));
        }
      }
    }
  }

  // Eq. 8: at most maxtb targets per bus.
  if (input.params().max_targets_per_bus > 0) {
    for (int k = 0; k < B; ++k) {
      std::vector<lp::term> terms;
      for (int i = 0; i < T; ++i) {
        terms.push_back({out.x[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(k)],
                         1.0});
      }
      m.add_row(terms, lp::relation::less_equal,
                static_cast<double>(input.params().max_targets_per_bus),
                "maxtb_" + std::to_string(k));
    }
  }

  // Bus-index symmetry: the buses of Eq. 3-9 are fully interchangeable
  // (permuting k permutes x and sb columns together and fixes the
  // objective), so declare the x columns as a symmetry group. Presolve
  // turns the declaration into lexicographic bus-ordering rows and, since
  // Eq. 3 puts each target on one bus, fixes target i off the buses
  // k > i (CPLEX applies comparable symmetry reductions internally).
  if (B > 1) {
    std::vector<std::vector<int>> blocks(static_cast<std::size_t>(B));
    for (int k = 0; k < B; ++k) {
      auto& block = blocks[static_cast<std::size_t>(k)];
      block.reserve(static_cast<std::size_t>(T));
      for (int i = 0; i < T; ++i) {
        block.push_back(out.x[static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(k)]);
      }
    }
    m.add_symmetry_group(std::move(blocks));
  }

  if (with_objective) {
    out.maxov = m.add_continuous(0.0, lp::infinity, 1.0, "maxov");
    for (int k = 0; k < B; ++k) {
      std::vector<lp::term> terms;
      for (int i = 0; i < T; ++i) {
        for (int j = i + 1; j < T; ++j) {
          const auto omv = static_cast<double>(input.om(i, j));
          if (omv <= 0.0) continue;
          terms.push_back(
              {out.sb[static_cast<std::size_t>(out.pair_index(i, j))]
                     [static_cast<std::size_t>(k)],
               omv});
        }
      }
      if (terms.empty()) continue;
      terms.push_back({out.maxov, -1.0});
      m.add_row(terms, lp::relation::less_equal, 0.0,
                "maxov_" + std::to_string(k));
    }
  }
  return out;
}

}  // namespace

xbar_milp build_feasibility_milp(const synthesis_input& input,
                                 int num_buses) {
  return build_common(input, num_buses, /*with_objective=*/false);
}

xbar_milp build_binding_milp(const synthesis_input& input, int num_buses) {
  return build_common(input, num_buses, /*with_objective=*/true);
}

std::optional<std::vector<int>> solve_feasibility_milp(
    const synthesis_input& input, int num_buses,
    const milp::bb_options& opts) {
  auto fm = build_feasibility_milp(input, num_buses);
  milp::bb_options o = opts;
  o.feasibility_only = true;  // MILP (10): "obj: Feasibility Analysis"
  const auto res = milp::solve_branch_bound(fm.model, o);
  if (res.status == milp::milp_status::infeasible) return std::nullopt;
  STX_REQUIRE(res.status == milp::milp_status::optimal ||
                  res.status == milp::milp_status::feasible,
              "feasibility MILP hit solver limits; raise bb_options");
  auto binding = fm.decode_binding(res.x);
  STX_ENSURE(input.binding_feasible(binding, num_buses),
             "MILP returned an infeasible binding");
  return binding;
}

std::optional<milp_binding_result> solve_binding_milp(
    const synthesis_input& input, int num_buses,
    const milp::bb_options& opts) {
  auto bm = build_binding_milp(input, num_buses);
  const auto res = milp::solve_branch_bound(bm.model, opts);
  if (res.status == milp::milp_status::infeasible) return std::nullopt;
  STX_REQUIRE(res.status == milp::milp_status::optimal,
              "binding MILP not solved to optimality; raise bb_options");
  milp_binding_result out;
  out.binding = bm.decode_binding(res.x);
  out.max_overlap = input.max_bus_overlap(out.binding, num_buses);
  STX_ENSURE(input.binding_feasible(out.binding, num_buses),
             "binding MILP returned an infeasible binding");
  return out;
}

}  // namespace stx::xbar
