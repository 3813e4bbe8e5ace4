#include "milp/presolve.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace stx::milp {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();
constexpr double tol = 1e-9;

struct work_row {
  std::vector<lp::term> terms;
  lp::relation rel = lp::relation::less_equal;
  double rhs = 0.0;
  bool active = true;
};

struct work_state {
  std::vector<double> lower, upper;
  std::vector<bool> integer;
  std::vector<work_row> rows;
  bool changed = false;
  bool infeasible = false;

  bool fixed(int v) const {
    return upper[static_cast<std::size_t>(v)] -
               lower[static_cast<std::size_t>(v)] <
           tol;
  }

  void tighten_upper(int v, double ub) {
    auto& u = upper[static_cast<std::size_t>(v)];
    if (integer[static_cast<std::size_t>(v)]) ub = std::floor(ub + tol);
    if (ub < u - tol) {
      u = ub;
      changed = true;
      if (u < lower[static_cast<std::size_t>(v)] - tol) infeasible = true;
    }
  }

  void tighten_lower(int v, double lb) {
    auto& l = lower[static_cast<std::size_t>(v)];
    if (integer[static_cast<std::size_t>(v)]) lb = std::ceil(lb - tol);
    if (lb > l + tol) {
      l = lb;
      changed = true;
      if (l > upper[static_cast<std::size_t>(v)] + tol) infeasible = true;
    }
  }
};

/// Substitute fixed variables into the row, shrinking terms / rhs.
void substitute_fixed(work_state& st, work_row& row) {
  std::vector<lp::term> kept;
  kept.reserve(row.terms.size());
  for (const auto& t : row.terms) {
    if (st.fixed(t.var)) {
      row.rhs -= t.value * st.lower[static_cast<std::size_t>(t.var)];
      st.changed = true;
    } else {
      kept.push_back(t);
    }
  }
  row.terms = std::move(kept);
}

/// Interval propagation for `sum terms <= rhs` over current bounds.
void propagate_le(work_state& st, const std::vector<lp::term>& terms,
                  double rhs) {
  double min_activity = 0.0;
  int infinite_contribs = 0;
  int infinite_var = -1;
  for (const auto& t : terms) {
    const double lb = st.lower[static_cast<std::size_t>(t.var)];
    const double ub = st.upper[static_cast<std::size_t>(t.var)];
    const double contrib = t.value > 0.0 ? t.value * lb : t.value * ub;
    if (contrib == -inf) {
      ++infinite_contribs;
      infinite_var = t.var;
    } else {
      min_activity += contrib;
    }
  }
  if (infinite_contribs > 1) return;  // nothing can be derived
  if (infinite_contribs == 1) {
    // Only the variable owning the infinite contribution can be bounded.
    for (const auto& t : terms) {
      if (t.var != infinite_var) continue;
      const double slack = rhs - min_activity;
      if (t.value > 0.0) {
        st.tighten_upper(t.var, slack / t.value);
      } else if (t.value < 0.0) {
        st.tighten_lower(t.var, slack / t.value);
      }
    }
    return;
  }
  if (min_activity > rhs + 1e-7 * std::max(1.0, std::abs(rhs))) {
    st.infeasible = true;
    return;
  }
  for (const auto& t : terms) {
    if (t.value == 0.0) continue;
    const double lb = st.lower[static_cast<std::size_t>(t.var)];
    const double ub = st.upper[static_cast<std::size_t>(t.var)];
    const double own_min = t.value > 0.0 ? t.value * lb : t.value * ub;
    const double slack = rhs - (min_activity - own_min);
    if (t.value > 0.0) {
      st.tighten_upper(t.var, slack / t.value);
    } else {
      st.tighten_lower(t.var, slack / t.value);
    }
  }
}

/// Max activity of a row over current bounds (+inf possible).
double max_activity(const work_state& st, const std::vector<lp::term>& terms) {
  double acc = 0.0;
  for (const auto& t : terms) {
    const double lb = st.lower[static_cast<std::size_t>(t.var)];
    const double ub = st.upper[static_cast<std::size_t>(t.var)];
    const double contrib = t.value > 0.0 ? t.value * ub : t.value * lb;
    if (contrib == inf) return inf;
    acc += contrib;
  }
  return acc;
}

double min_activity(const work_state& st, const std::vector<lp::term>& terms) {
  double acc = 0.0;
  for (const auto& t : terms) {
    const double lb = st.lower[static_cast<std::size_t>(t.var)];
    const double ub = st.upper[static_cast<std::size_t>(t.var)];
    const double contrib = t.value > 0.0 ? t.value * lb : t.value * ub;
    if (contrib == -inf) return -inf;
    acc += contrib;
  }
  return acc;
}

/// True when no two blocks of `group` can both be 1 at `position`: some
/// <= or = row with rhs at most 1 holds each block's entry there with
/// coefficient 1, and its other terms are non-negative on non-negative
/// variables (the crossbar's "each target on one bus" row).
bool packs_position(const model& m, const std::vector<std::vector<int>>& group,
                    int position) {
  const auto p = static_cast<std::size_t>(position);
  std::vector<bool> held(group.size());
  for (int r = 0; r < m.num_rows(); ++r) {
    const auto& row = m.relaxation().constraint(r);
    if (row.rel == lp::relation::greater_equal || row.rhs > 1.0) continue;
    std::fill(held.begin(), held.end(), false);
    bool packing = true;
    for (const auto& t : row.terms) {
      if (t.value < 0.0 || m.relaxation().var(t.var).lower < 0.0) {
        packing = false;
        break;
      }
      for (std::size_t k = 0; k < group.size(); ++k) {
        if (group[k][p] == t.var && t.value == 1.0) held[k] = true;
      }
    }
    if (packing &&
        std::find(held.begin(), held.end(), false) == held.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<double> presolved_model::expand(
    const std::vector<double>& reduced_x) const {
  std::vector<double> x(var_map.size(), 0.0);
  for (std::size_t v = 0; v < var_map.size(); ++v) {
    if (var_map[v] < 0) {
      x[v] = fixed_value[v];
    } else {
      x[v] = reduced_x[static_cast<std::size_t>(var_map[v])];
    }
  }
  return x;
}

presolved_model presolve(const model& m, int max_passes) {
  work_state st;
  const int n = m.num_variables();
  st.lower.resize(static_cast<std::size_t>(n));
  st.upper.resize(static_cast<std::size_t>(n));
  st.integer.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    st.lower[static_cast<std::size_t>(v)] = m.relaxation().var(v).lower;
    st.upper[static_cast<std::size_t>(v)] = m.relaxation().var(v).upper;
    st.integer[static_cast<std::size_t>(v)] = m.is_integer(v);
  }
  st.rows.reserve(static_cast<std::size_t>(m.num_rows()));
  for (int r = 0; r < m.num_rows(); ++r) {
    const auto& rr = m.relaxation().constraint(r);
    st.rows.push_back(work_row{rr.terms, rr.rel, rr.rhs, true});
  }

  // Symmetry breaking: each declared group of interchangeable binary
  // blocks (the crossbar's bus columns) gets lexicographic ordering rows
  // between consecutive blocks,
  //
  //   sum_i 2^(L-1-i) * (block_k[i] - block_{k+1}[i]) >= 0,
  //
  // selecting the lex-descending representative of every permutation
  // orbit. Power-of-two weights encode the full lex order exactly; the
  // prefix is capped at 53 bits so the weights stay exact in doubles
  // (beyond that the order is only partially broken, still valid). These
  // are ordinary rows from here on: substitution and redundancy dropping
  // apply to them like to any model row.
  for (const auto& group : m.symmetry_groups()) {
    const int len =
        std::min(static_cast<int>(group.front().size()), 53);
    for (std::size_t k = 0; k + 1 < group.size(); ++k) {
      std::vector<lp::term> terms;
      terms.reserve(static_cast<std::size_t>(2 * len));
      for (int i = 0; i < len; ++i) {
        const double w = std::ldexp(1.0, len - 1 - i);
        terms.push_back(lp::term{group[k][static_cast<std::size_t>(i)], w});
        terms.push_back(
            lp::term{group[k + 1][static_cast<std::size_t>(i)], -w});
      }
      st.rows.push_back(
          work_row{std::move(terms), lp::relation::greater_equal, 0.0, true});
    }
    // Orbitope fixing: while no two blocks can both hold a 1 at a
    // position (a model row packs them), the ordered blocks' first ones
    // sit at strictly increasing positions, so block k is zero at every
    // position before k.
    for (int i = 0; i < std::min(len, static_cast<int>(group.size()) - 1);
         ++i) {
      if (!packs_position(m, group, i)) break;
      for (std::size_t k = static_cast<std::size_t>(i) + 1; k < group.size();
           ++k) {
        st.tighten_upper(group[k][static_cast<std::size_t>(i)], 0.0);
      }
    }
  }

  // Round integer bounds inward once up front.
  for (int v = 0; v < n; ++v) {
    if (!st.integer[static_cast<std::size_t>(v)]) continue;
    auto& lb = st.lower[static_cast<std::size_t>(v)];
    auto& ub = st.upper[static_cast<std::size_t>(v)];
    if (lb != -inf) lb = std::ceil(lb - tol);
    if (ub != inf) ub = std::floor(ub + tol);
    if (lb > ub + tol) st.infeasible = true;
  }

  int dropped = 0;
  for (int pass = 0; pass < max_passes && !st.infeasible; ++pass) {
    st.changed = false;
    for (auto& row : st.rows) {
      if (!row.active) continue;
      substitute_fixed(st, row);

      if (row.terms.empty()) {
        const bool ok =
            (row.rel == lp::relation::less_equal && 0.0 <= row.rhs + 1e-7) ||
            (row.rel == lp::relation::greater_equal &&
             0.0 >= row.rhs - 1e-7) ||
            (row.rel == lp::relation::equal && std::abs(row.rhs) <= 1e-7);
        if (!ok) st.infeasible = true;
        row.active = false;
        ++dropped;
        continue;
      }

      // Propagate bounds through the row in both directions.
      if (row.rel == lp::relation::less_equal ||
          row.rel == lp::relation::equal) {
        propagate_le(st, row.terms, row.rhs);
      }
      if ((row.rel == lp::relation::greater_equal ||
           row.rel == lp::relation::equal) &&
          !st.infeasible) {
        std::vector<lp::term> negated = row.terms;
        for (auto& t : negated) t.value = -t.value;
        propagate_le(st, negated, -row.rhs);
      }
      if (st.infeasible) break;

      // Drop rows that can no longer be violated.
      const double hi = max_activity(st, row.terms);
      const double lo = min_activity(st, row.terms);
      const double slack_tol = 1e-7 * std::max(1.0, std::abs(row.rhs));
      bool redundant = false;
      switch (row.rel) {
        case lp::relation::less_equal:
          redundant = hi <= row.rhs + slack_tol;
          break;
        case lp::relation::greater_equal:
          redundant = lo >= row.rhs - slack_tol;
          break;
        case lp::relation::equal:
          redundant = hi <= row.rhs + slack_tol && lo >= row.rhs - slack_tol;
          break;
      }
      if (redundant) {
        row.active = false;
        ++dropped;
        st.changed = true;
      }
    }
    if (!st.changed) break;
  }

  presolved_model out;
  out.var_map.assign(static_cast<std::size_t>(n), -1);
  out.fixed_value.assign(static_cast<std::size_t>(n), 0.0);
  out.dropped_rows = dropped;
  if (st.infeasible) {
    out.proven_infeasible = true;
    return out;
  }

  for (int v = 0; v < n; ++v) {
    const double lb = st.lower[static_cast<std::size_t>(v)];
    const double ub = st.upper[static_cast<std::size_t>(v)];
    const auto& orig = m.relaxation().var(v);
    if (ub - lb < tol) {
      out.var_map[static_cast<std::size_t>(v)] = -1;
      out.fixed_value[static_cast<std::size_t>(v)] = lb;
      out.fixed_objective += orig.objective * lb;
      continue;
    }
    int rv;
    if (m.is_integer(v)) {
      rv = out.reduced.add_integer(lb, ub, orig.objective, orig.name);
    } else {
      rv = out.reduced.add_continuous(lb, ub, orig.objective, orig.name);
    }
    out.var_map[static_cast<std::size_t>(v)] = rv;
  }

  for (auto& row : st.rows) {
    if (!row.active) continue;
    std::vector<lp::term> terms;
    double rhs = row.rhs;
    for (const auto& t : row.terms) {
      const int rv = out.var_map[static_cast<std::size_t>(t.var)];
      if (rv < 0) {
        rhs -= t.value * out.fixed_value[static_cast<std::size_t>(t.var)];
      } else {
        terms.push_back(lp::term{rv, t.value});
      }
    }
    if (terms.empty()) continue;  // verified above / by bounds
    out.reduced.add_row(std::move(terms), row.rel, rhs);
  }
  return out;
}

}  // namespace stx::milp
