#include "tableau_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace stx::lp {

namespace {

enum class var_state { basic, at_lower, at_upper, free_nb };

/// Internal dense working form of the LP:
///   min c'x  s.t.  [A | I_slack | I_art] x = b
/// with the tableau maintained as B^-1 [A | b] and variable bounds kept
/// implicit (nonbasic variables rest at a bound).
class simplex_engine {
 public:
  simplex_engine(const model& m, const tableau_options& opts)
      : m_(m), opts_(opts) {
    build();
  }

  solve_result run() {
    solve_result res;
    // ---- Phase 1: minimize the sum of artificials.
    for (int j = 0; j < total_; ++j) cost_[j] = 0.0;
    for (int a = art_begin_; a < total_; ++a) cost_[a] = 1.0;
    reset_reduced_costs();
    const auto p1 = optimize();
    res.phase1_iterations = iterations_;
    if (p1 == solve_status::iteration_limit) {
      res.status = p1;
      res.iterations = iterations_;
      return res;
    }
    if (objective_ > phase1_tol()) {
      res.status = solve_status::infeasible;
      res.iterations = iterations_;
      return res;
    }
    pivot_out_artificials();
    // Freeze artificials at zero so phase 2 cannot reuse them.
    for (int a = art_begin_; a < total_; ++a) {
      lower_[a] = 0.0;
      upper_[a] = 0.0;
      if (state_[a] != var_state::basic) {
        state_[a] = var_state::at_lower;
        value_[a] = 0.0;
      }
    }

    // ---- Phase 2: the real objective.
    for (int j = 0; j < total_; ++j) cost_[j] = 0.0;
    for (int v = 0; v < m_.num_variables(); ++v) {
      cost_[v] = m_.var(v).objective;
    }
    reset_reduced_costs();
    const auto p2 = optimize();
    res.status = p2;
    res.iterations = iterations_;
    if (p2 == solve_status::optimal) {
      res.x.assign(static_cast<std::size_t>(m_.num_variables()), 0.0);
      for (int v = 0; v < m_.num_variables(); ++v) {
        res.x[static_cast<std::size_t>(v)] = value_[v];
      }
      res.objective = m_.objective_value(res.x);
    }
    return res;
  }

 private:
  static constexpr double inf = std::numeric_limits<double>::infinity();

  double phase1_tol() const { return opts_.tol * std::max(1, rows_); }

  void build() {
    rows_ = m_.num_rows();
    const int n_struct = m_.num_variables();
    slack_begin_ = n_struct;
    art_begin_ = n_struct + rows_;
    total_ = art_begin_ + rows_;

    lower_.assign(static_cast<std::size_t>(total_), 0.0);
    upper_.assign(static_cast<std::size_t>(total_), inf);
    cost_.assign(static_cast<std::size_t>(total_), 0.0);
    value_.assign(static_cast<std::size_t>(total_), 0.0);
    state_.assign(static_cast<std::size_t>(total_), var_state::at_lower);
    d_.assign(static_cast<std::size_t>(total_), 0.0);

    for (int v = 0; v < n_struct; ++v) {
      lower_[v] = m_.var(v).lower;
      upper_[v] = m_.var(v).upper;
    }

    tab_.assign(static_cast<std::size_t>(rows_),
                std::vector<double>(static_cast<std::size_t>(total_), 0.0));
    rhs_.assign(static_cast<std::size_t>(rows_), 0.0);

    // Row equilibration: divide each row (and rhs) by its largest
    // magnitude so tolerances behave uniformly across cycle-count scales.
    for (int r = 0; r < rows_; ++r) {
      const auto& rr = m_.constraint(r);
      auto& row_vec = tab_[static_cast<std::size_t>(r)];
      double scale = std::abs(rr.rhs);
      for (const auto& t : rr.terms) scale = std::max(scale, std::abs(t.value));
      if (scale < 1.0) scale = 1.0;
      for (const auto& t : rr.terms) {
        row_vec[static_cast<std::size_t>(t.var)] = t.value / scale;
      }
      row_vec[static_cast<std::size_t>(slack_begin_ + r)] = 1.0;
      rhs_[static_cast<std::size_t>(r)] = rr.rhs / scale;
      const int s = slack_begin_ + r;
      switch (rr.rel) {
        case relation::less_equal:
          lower_[s] = 0.0;
          upper_[s] = inf;
          break;
        case relation::equal:
          lower_[s] = 0.0;
          upper_[s] = 0.0;
          break;
        case relation::greater_equal:
          lower_[s] = -inf;
          upper_[s] = 0.0;
          break;
      }
    }

    // Initial nonbasic point: every structural/slack variable at its
    // finite bound of smallest magnitude (or 0 when free).
    for (int j = 0; j < art_begin_; ++j) {
      if (lower_[j] == -inf && upper_[j] == inf) {
        state_[j] = var_state::free_nb;
        value_[j] = 0.0;
      } else if (lower_[j] == -inf) {
        state_[j] = var_state::at_upper;
        value_[j] = upper_[j];
      } else if (upper_[j] == inf) {
        state_[j] = var_state::at_lower;
        value_[j] = lower_[j];
      } else if (std::abs(lower_[j]) <= std::abs(upper_[j])) {
        state_[j] = var_state::at_lower;
        value_[j] = lower_[j];
      } else {
        state_[j] = var_state::at_upper;
        value_[j] = upper_[j];
      }
    }

    // Artificial basis absorbing each row's residual. The basis must be
    // the identity for the maintained tableau to equal B^-1 A, so rows
    // with a negative residual are negated (their artificial then enters
    // with coefficient +1 and a non-negative value).
    basic_.assign(static_cast<std::size_t>(rows_), -1);
    for (int r = 0; r < rows_; ++r) {
      auto& row_vec = tab_[static_cast<std::size_t>(r)];
      double residual = rhs_[static_cast<std::size_t>(r)];
      for (int j = 0; j < art_begin_; ++j) {
        const double a = row_vec[static_cast<std::size_t>(j)];
        if (a != 0.0 && value_[j] != 0.0) residual -= a * value_[j];
      }
      if (residual < 0.0) {
        for (int j = 0; j < art_begin_; ++j) {
          row_vec[static_cast<std::size_t>(j)] =
              -row_vec[static_cast<std::size_t>(j)];
        }
        rhs_[static_cast<std::size_t>(r)] = -rhs_[static_cast<std::size_t>(r)];
        residual = -residual;
      }
      const int a = art_begin_ + r;
      tab_[static_cast<std::size_t>(r)][static_cast<std::size_t>(a)] = 1.0;
      value_[a] = residual;
      state_[a] = var_state::basic;
      basic_[static_cast<std::size_t>(r)] = a;
    }

    max_iterations_ = opts_.max_iterations > 0
                          ? opts_.max_iterations
                          : 40 * (rows_ + total_) + 1000;
  }

  /// Recomputes reduced costs and the objective from the current tableau.
  void reset_reduced_costs() {
    for (int j = 0; j < total_; ++j) d_[j] = cost_[j];
    for (int r = 0; r < rows_; ++r) {
      const double cb = cost_[basic_[static_cast<std::size_t>(r)]];
      if (cb == 0.0) continue;
      const auto& row_vec = tab_[static_cast<std::size_t>(r)];
      for (int j = 0; j < total_; ++j) {
        d_[j] -= cb * row_vec[static_cast<std::size_t>(j)];
      }
    }
    recompute_objective();
  }

  void recompute_objective() {
    objective_ = 0.0;
    for (int j = 0; j < total_; ++j) objective_ += cost_[j] * value_[j];
  }

  /// Recomputes basic variable values from the transformed rhs to cap
  /// accumulated floating point drift.
  void refresh_basic_values() {
    for (int r = 0; r < rows_; ++r) {
      double v = rhs_[static_cast<std::size_t>(r)];
      const auto& row_vec = tab_[static_cast<std::size_t>(r)];
      for (int j = 0; j < total_; ++j) {
        if (state_[j] == var_state::basic) continue;
        const double xj = value_[j];
        if (xj != 0.0) v -= row_vec[static_cast<std::size_t>(j)] * xj;
      }
      value_[basic_[static_cast<std::size_t>(r)]] = v;
    }
    recompute_objective();
  }

  /// One simplex phase: iterate until optimal / unbounded / out of budget.
  solve_status optimize() {
    int degenerate_streak = 0;
    const int bland_trigger = 2 * rows_ + 64;
    while (true) {
      if (iterations_ >= max_iterations_) {
        return solve_status::iteration_limit;
      }
      const bool bland = degenerate_streak > bland_trigger;
      const int q = choose_entering(bland);
      if (q < 0) return solve_status::optimal;
      const double sigma =
          (state_[q] == var_state::at_upper ||
           (state_[q] == var_state::free_nb && d_[q] > 0.0))
              ? -1.0
              : 1.0;

      // Ratio test over basic variables.
      const double entering_range =
          (lower_[q] > -inf && upper_[q] < inf) ? upper_[q] - lower_[q] : inf;
      double t_max = inf;
      int leave_row = -1;
      bool leave_to_upper = false;
      for (int r = 0; r < rows_; ++r) {
        const double a =
            tab_[static_cast<std::size_t>(r)][static_cast<std::size_t>(q)];
        if (std::abs(a) < pivot_tol_) continue;
        const int b = basic_[static_cast<std::size_t>(r)];
        const double delta = -sigma * a;  // d(value_[b]) / dt
        double limit = 0.0;
        bool to_upper = false;
        if (delta > 0.0) {
          if (upper_[b] == inf) continue;
          limit = (upper_[b] - value_[b]) / delta;
          to_upper = true;
        } else {
          if (lower_[b] == -inf) continue;
          limit = (lower_[b] - value_[b]) / delta;
        }
        if (limit < 0.0) limit = 0.0;  // numerical guard
        bool take = false;
        if (leave_row < 0 || limit < t_max - 1e-12) {
          take = true;
        } else if (limit <= t_max + 1e-12) {
          // Tie: Bland keeps the smallest basic index (anti-cycling);
          // otherwise keep the larger pivot magnitude (stability).
          if (bland) {
            take = b < basic_[static_cast<std::size_t>(leave_row)];
          } else {
            const double cur = std::abs(
                tab_[static_cast<std::size_t>(leave_row)]
                    [static_cast<std::size_t>(q)]);
            take = std::abs(a) > cur;
          }
        }
        if (take) {
          t_max = std::min(t_max, limit);
          leave_row = r;
          leave_to_upper = to_upper;
        }
      }

      if (entering_range <= t_max) {
        // The entering variable reaches its opposite bound first.
        if (entering_range == inf) return solve_status::unbounded;
        move(q, sigma, entering_range);
        state_[q] = sigma > 0.0 ? var_state::at_upper : var_state::at_lower;
        value_[q] = sigma > 0.0 ? upper_[q] : lower_[q];
        degenerate_streak =
            entering_range <= opts_.tol ? degenerate_streak + 1 : 0;
      } else if (leave_row < 0) {
        return solve_status::unbounded;
      } else {
        move(q, sigma, t_max);
        const int leaving = basic_[static_cast<std::size_t>(leave_row)];
        state_[leaving] =
            leave_to_upper ? var_state::at_upper : var_state::at_lower;
        value_[leaving] = leave_to_upper ? upper_[leaving] : lower_[leaving];
        state_[q] = var_state::basic;
        basic_[static_cast<std::size_t>(leave_row)] = q;
        pivot(leave_row, q);
        degenerate_streak = t_max <= opts_.tol ? degenerate_streak + 1 : 0;
      }

      ++iterations_;
      if (iterations_ % opts_.refresh_interval == 0) {
        refresh_basic_values();
        reset_reduced_costs();
      }
    }
  }

  int choose_entering(bool bland) const {
    int best = -1;
    double best_score = opts_.tol;
    for (int j = 0; j < total_; ++j) {
      if (state_[j] == var_state::basic) continue;
      if (upper_[j] - lower_[j] < 1e-15 && state_[j] != var_state::free_nb) {
        continue;  // fixed variable can never move
      }
      double score = 0.0;
      switch (state_[j]) {
        case var_state::at_lower: score = -d_[j]; break;
        case var_state::at_upper: score = d_[j]; break;
        case var_state::free_nb: score = std::abs(d_[j]); break;
        case var_state::basic: break;
      }
      if (score > best_score) {
        best = j;
        best_score = score;
        if (bland) break;  // first eligible index suffices
      }
    }
    return best;
  }

  /// Advances the entering variable by sigma*t and adjusts basic values
  /// and the objective accordingly (no basis change here).
  void move(int q, double sigma, double t) {
    if (t <= 0.0) return;  // degenerate step: values unchanged
    for (int r = 0; r < rows_; ++r) {
      const double a =
          tab_[static_cast<std::size_t>(r)][static_cast<std::size_t>(q)];
      if (a == 0.0) continue;
      value_[basic_[static_cast<std::size_t>(r)]] += -sigma * a * t;
    }
    value_[q] += sigma * t;
    objective_ += d_[q] * sigma * t;
  }

  /// Gauss pivot of the tableau (and rhs and reduced costs) on (r, q).
  void pivot(int r, int q) {
    auto& prow = tab_[static_cast<std::size_t>(r)];
    const double piv = prow[static_cast<std::size_t>(q)];
    STX_ENSURE(std::abs(piv) > 1e-12, "simplex pivot on ~zero element");
    const double inv = 1.0 / piv;
    for (int j = 0; j < total_; ++j) prow[static_cast<std::size_t>(j)] *= inv;
    rhs_[static_cast<std::size_t>(r)] *= inv;
    prow[static_cast<std::size_t>(q)] = 1.0;  // exact

    for (int i = 0; i < rows_; ++i) {
      if (i == r) continue;
      auto& row_vec = tab_[static_cast<std::size_t>(i)];
      const double f = row_vec[static_cast<std::size_t>(q)];
      if (f == 0.0) continue;
      for (int j = 0; j < total_; ++j) {
        row_vec[static_cast<std::size_t>(j)] -=
            f * prow[static_cast<std::size_t>(j)];
      }
      row_vec[static_cast<std::size_t>(q)] = 0.0;  // exact
      rhs_[static_cast<std::size_t>(i)] -=
          f * rhs_[static_cast<std::size_t>(r)];
    }

    const double dq = d_[q];
    if (dq != 0.0) {
      for (int j = 0; j < total_; ++j) {
        d_[j] -= dq * prow[static_cast<std::size_t>(j)];
      }
      d_[q] = 0.0;
    }
  }

  /// After phase 1, drive any artificial that is still basic (at value 0)
  /// out of the basis via a degenerate pivot where possible. Rows whose
  /// artificial cannot be replaced are linearly dependent; their artificial
  /// stays basic, pinned at zero by its [0,0] bounds.
  void pivot_out_artificials() {
    for (int r = 0; r < rows_; ++r) {
      const int b = basic_[static_cast<std::size_t>(r)];
      if (b < art_begin_) continue;
      const auto& row_vec = tab_[static_cast<std::size_t>(r)];
      int replacement = -1;
      for (int j = 0; j < art_begin_; ++j) {
        if (state_[j] == var_state::basic) continue;
        if (std::abs(row_vec[static_cast<std::size_t>(j)]) > 1e-7) {
          replacement = j;
          break;
        }
      }
      if (replacement < 0) continue;
      state_[b] = var_state::at_lower;
      value_[b] = 0.0;
      state_[replacement] = var_state::basic;
      basic_[static_cast<std::size_t>(r)] = replacement;
      pivot(r, replacement);
    }
    refresh_basic_values();
  }

  const model& m_;
  const tableau_options& opts_;
  int rows_ = 0;
  int slack_begin_ = 0;
  int art_begin_ = 0;
  int total_ = 0;
  int max_iterations_ = 0;
  int iterations_ = 0;
  double objective_ = 0.0;
  double pivot_tol_ = 1e-9;

  std::vector<std::vector<double>> tab_;
  std::vector<double> rhs_;
  std::vector<double> lower_, upper_, cost_, value_, d_;
  std::vector<var_state> state_;
  std::vector<int> basic_;
};

}  // namespace

solve_result solve_simplex(const model& m, const tableau_options& opts) {
  if (m.num_rows() == 0) {
    // Pure bound problem: each variable sits at its cheaper bound.
    solve_result res;
    res.status = solve_status::optimal;
    res.x.assign(static_cast<std::size_t>(m.num_variables()), 0.0);
    for (int v = 0; v < m.num_variables(); ++v) {
      const auto& vv = m.var(v);
      double x = 0.0;
      if (vv.objective > 0.0) {
        if (vv.lower == -infinity) {
          return {solve_status::unbounded, 0.0, {}, 0, 0};
        }
        x = vv.lower;
      } else if (vv.objective < 0.0) {
        if (vv.upper == infinity) {
          return {solve_status::unbounded, 0.0, {}, 0, 0};
        }
        x = vv.upper;
      } else {
        x = std::clamp(0.0, vv.lower, vv.upper);
      }
      res.x[static_cast<std::size_t>(v)] = x;
      res.objective += vv.objective * x;
    }
    return res;
  }
  simplex_engine engine(m, opts);
  return engine.run();
}

}  // namespace stx::lp
