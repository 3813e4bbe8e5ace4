#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "lp/lu_factor.h"
#include "util/error.h"

namespace stx::lp {

namespace {
constexpr double inf = std::numeric_limits<double>::infinity();
}  // namespace

/// Internal working form. Columns are [structural | slack | artificial]
/// with each row (and its rhs) divided by its largest magnitude; slacks
/// carry the row's relation as bounds. The basis lives in a sparse LU
/// factor plus eta file; A is also kept row-wise for pricing.
class revised_solver::impl {
 public:
  impl(const model& m, const solve_options& opts) : m_(m), opts_(opts) {
    build();
  }

  void set_bounds(int var, double lower, double upper) {
    STX_REQUIRE(var >= 0 && var < n_struct_,
                "set_bounds: structural variable index out of range");
    STX_REQUIRE(lower <= upper, "set_bounds: crossing bounds");
    lower_[static_cast<std::size_t>(var)] = lower;
    upper_[static_cast<std::size_t>(var)] = upper;
  }

  solve_result solve() {
    fell_back_ = false;
    return cold_solve();
  }

  solve_result solve_from(const basis_state& from) {
    iterations_ = 0;
    phase1_iterations_ = 0;
    fell_back_ = false;
    // Reset the drift flag like cold_solve does: every solve must be a
    // pure function of (bounds, warm basis), never of a previous solve's
    // failure — per-worker solver reuse in the parallel branch & bound
    // depends on it.
    failed_ = false;
    if (!from.compatible(rows_, total_)) return fall_back();
    basis_ = from;
    // Artificials are a phase-1 device; in any adopted basis they are
    // pinned to zero (dependent rows keep them basic at value zero).
    for (int a = art_begin_; a < total_; ++a) {
      lower_[static_cast<std::size_t>(a)] = 0.0;
      upper_[static_cast<std::size_t>(a)] = 0.0;
    }
    rest_nonbasic_values();
    if (!refactorize()) return fall_back();
    compute_basic_values();
    load_phase2_costs();
    auto status = dual_optimize();
    if (status == solve_status::optimal) {
      // Drift guard: the dual run ends primal feasible; a reduced-cost
      // violation can only come from numerical drift or an adopted basis
      // that was not optimal. A primal pass from here is warm either way.
      status = primal_optimize();
    }
    if (status == solve_status::iteration_limit ||
        status == solve_status::unbounded) {
      // A warm start must never be WORSE than a cold solve: unbounded
      // cannot arise from tightened bounds unless the adopted basis was
      // stale, and an iteration-limited dual run may still cold-solve
      // within budget. Restart from scratch before giving up.
      return fall_back();
    }
    return finish(status);
  }

  void add_row(const std::vector<term>& terms, relation rel, double rhs) {
    for (const auto& t : terms) {
      STX_REQUIRE(t.var >= 0 && t.var < n_struct_,
                  "add_row: term names an unknown structural variable");
    }
    // Equilibrate exactly like build() so a freshly constructed solver on
    // the extended model sees the same scaled numbers.
    double scale = std::abs(rhs);
    for (const auto& t : terms) scale = std::max(scale, std::abs(t.value));
    if (scale < 1.0) scale = 1.0;

    const int r = rows_;
    const int slack = art_begin_;  // the new slack slides in at the old
                                   // artificial block's start
    cols_.insert(cols_.begin() + slack,
                 std::vector<std::pair<int, double>>{{r, 1.0}});
    double slo = 0.0, shi = inf;
    switch (rel) {
      case relation::less_equal: slo = 0.0; shi = inf; break;
      case relation::equal: slo = 0.0; shi = 0.0; break;
      case relation::greater_equal: slo = -inf; shi = 0.0; break;
    }
    lower_.insert(lower_.begin() + slack, slo);
    upper_.insert(upper_.begin() + slack, shi);
    cost_.insert(cost_.begin() + slack, 0.0);
    value_.insert(value_.begin() + slack, slo == -inf ? 0.0 : slo);
    for (const auto& t : terms) {
      cols_[static_cast<std::size_t>(t.var)].push_back({r, t.value / scale});
    }
    rhs_.push_back(rhs / scale);
    // The new artificial goes at the very end of the (shifted) block.
    cols_.push_back({{r, 1.0}});
    lower_.push_back(0.0);
    upper_.push_back(0.0);
    cost_.push_back(0.0);
    value_.push_back(0.0);
    // Remap the basis: every artificial index moved one right, the new
    // row's slack is its basic variable, and inserting the slack's status
    // at its own index keeps every other status aligned.
    for (auto& b : basis_.basic) {
      if (b >= slack) ++b;
    }
    basis_.status.insert(basis_.status.begin() + slack, var_status::basic);
    basis_.status.push_back(var_status::at_lower);
    basis_.basic.push_back(slack);

    rows_ += 1;
    art_begin_ += 1;
    total_ += 2;
    size_work();
    if (opts_.max_iterations <= 0) {
      max_iterations_ = 40 * (rows_ + total_) + 1000;
    }
    // The factorization is stale; the next solve path refactorizes.
  }

  bool last_solve_fell_back() const { return fell_back_; }

  const basis_state& last_basis() const { return basis_; }
  std::int64_t factorizations() const { return factorizations_; }
  std::int64_t dual_pivots() const { return dual_pivots_; }

 private:
  // ---------------------------------------------------------------- setup
  void build() {
    rows_ = m_.num_rows();
    n_struct_ = m_.num_variables();
    slack_begin_ = n_struct_;
    art_begin_ = n_struct_ + rows_;
    total_ = art_begin_ + rows_;

    lower_.assign(static_cast<std::size_t>(total_), 0.0);
    upper_.assign(static_cast<std::size_t>(total_), inf);
    cost_.assign(static_cast<std::size_t>(total_), 0.0);
    value_.assign(static_cast<std::size_t>(total_), 0.0);
    cols_.assign(static_cast<std::size_t>(total_), {});
    rhs_.assign(static_cast<std::size_t>(rows_), 0.0);

    for (int v = 0; v < n_struct_; ++v) {
      lower_[static_cast<std::size_t>(v)] = m_.var(v).lower;
      upper_[static_cast<std::size_t>(v)] = m_.var(v).upper;
    }

    // Row equilibration identical to the legacy engine: divide each row
    // (and its rhs) by its largest magnitude.
    for (int r = 0; r < rows_; ++r) {
      const auto& rr = m_.constraint(r);
      double scale = std::abs(rr.rhs);
      for (const auto& t : rr.terms) scale = std::max(scale, std::abs(t.value));
      if (scale < 1.0) scale = 1.0;
      for (const auto& t : rr.terms) {
        cols_[static_cast<std::size_t>(t.var)].push_back(
            {r, t.value / scale});
      }
      rhs_[static_cast<std::size_t>(r)] = rr.rhs / scale;
      const int s = slack_begin_ + r;
      cols_[static_cast<std::size_t>(s)].push_back({r, 1.0});
      switch (rr.rel) {
        case relation::less_equal:
          lower_[static_cast<std::size_t>(s)] = 0.0;
          upper_[static_cast<std::size_t>(s)] = inf;
          break;
        case relation::equal:
          lower_[static_cast<std::size_t>(s)] = 0.0;
          upper_[static_cast<std::size_t>(s)] = 0.0;
          break;
        case relation::greater_equal:
          lower_[static_cast<std::size_t>(s)] = -inf;
          upper_[static_cast<std::size_t>(s)] = 0.0;
          break;
      }
      const int a = art_begin_ + r;
      cols_[static_cast<std::size_t>(a)].push_back({r, 1.0});
      lower_[static_cast<std::size_t>(a)] = 0.0;
      upper_[static_cast<std::size_t>(a)] = 0.0;
    }

    basis_.basic.assign(static_cast<std::size_t>(rows_), -1);
    basis_.status.assign(static_cast<std::size_t>(total_),
                         var_status::at_lower);
    size_work();

    max_iterations_ = opts_.max_iterations > 0
                          ? opts_.max_iterations
                          : 40 * (rows_ + total_) + 1000;
    refactor_interval_ = std::max(1, opts_.refactor_interval);
  }

  double feas_tol() const { return opts_.tol; }
  double phase1_tol() const { return opts_.tol * std::max(1, rows_); }

  double resting_value(int j) const {
    switch (basis_.status[static_cast<std::size_t>(j)]) {
      case var_status::at_lower: return lower_[static_cast<std::size_t>(j)];
      case var_status::at_upper: return upper_[static_cast<std::size_t>(j)];
      case var_status::free_nb: return 0.0;
      case var_status::basic: break;
    }
    return value_[static_cast<std::size_t>(j)];
  }

  /// Snaps every nonbasic variable to the bound its status names (the
  /// CURRENT bound — this is where a warm start picks up a child node's
  /// tightened bounds). Statuses inconsistent with the bounds are
  /// repaired toward a finite bound.
  void rest_nonbasic_values() {
    for (int j = 0; j < total_; ++j) {
      auto& st = basis_.status[static_cast<std::size_t>(j)];
      if (st == var_status::basic) continue;
      const double lo = lower_[static_cast<std::size_t>(j)];
      const double hi = upper_[static_cast<std::size_t>(j)];
      if (st == var_status::at_lower && lo == -inf) {
        st = hi < inf ? var_status::at_upper : var_status::free_nb;
      } else if (st == var_status::at_upper && hi == inf) {
        st = lo > -inf ? var_status::at_lower : var_status::free_nb;
      } else if (st == var_status::free_nb && (lo > -inf || hi < inf)) {
        st = lo > -inf ? var_status::at_lower : var_status::at_upper;
      }
      value_[static_cast<std::size_t>(j)] = resting_value(j);
    }
  }

  // ------------------------------------------------------- factorization
  /// Sizes the per-row and per-column work vectors, rebuilds the row-wise
  /// copy of the columns.
  void size_work() {
    w_.assign(static_cast<std::size_t>(rows_), 0.0);
    y_.assign(static_cast<std::size_t>(rows_), 0.0);
    rho_.assign(static_cast<std::size_t>(rows_), 0.0);
    d_.assign(static_cast<std::size_t>(total_), 0.0);
    alpha_.assign(static_cast<std::size_t>(total_), 0.0);
    row_start_.assign(static_cast<std::size_t>(rows_) + 1, 0);
    for (const auto& col : cols_) {
      for (const auto& e : col) {
        ++row_start_[static_cast<std::size_t>(e.first) + 1];
      }
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r) {
      row_start_[r + 1] += row_start_[r];
    }
    row_col_.resize(static_cast<std::size_t>(row_start_.back()));
    row_val_.resize(static_cast<std::size_t>(row_start_.back()));
    std::vector<int> next(row_start_.begin(), row_start_.end() - 1);
    for (int j = 0; j < total_; ++j) {
      for (const auto& [r, a] : cols_[static_cast<std::size_t>(j)]) {
        const auto at =
            static_cast<std::size_t>(next[static_cast<std::size_t>(r)]++);
        row_col_[at] = j;
        row_val_[at] = a;
      }
    }
  }

  /// Factorizes the ordered basis afresh, dropping the eta file. Returns
  /// false on a (numerically) singular basis; callers fall back to a cold
  /// restart.
  bool refactorize() {
    ++factorizations_;
    return factor_.factorize(rows_, basis_.basic, cols_);
  }

  /// x_B = B^-1 (b - N x_N) for the current nonbasic resting values.
  void compute_basic_values() {
    resid_.assign(rhs_.begin(), rhs_.end());
    for (int j = 0; j < total_; ++j) {
      if (basis_.status[static_cast<std::size_t>(j)] == var_status::basic) {
        continue;
      }
      const double xj = value_[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (const auto& [r, a] : cols_[static_cast<std::size_t>(j)]) {
        resid_[static_cast<std::size_t>(r)] -= a * xj;
      }
    }
    factor_.ftran(resid_);
    for (int p = 0; p < rows_; ++p) {
      value_[static_cast<std::size_t>(
          basis_.basic[static_cast<std::size_t>(p)])] =
          resid_[static_cast<std::size_t>(p)];
    }
  }

  /// w = B^-1 a_j (FTRAN).
  void ftran(int j) {
    std::fill(w_.begin(), w_.end(), 0.0);
    for (const auto& [i, a] : cols_[static_cast<std::size_t>(j)]) {
      w_[static_cast<std::size_t>(i)] += a;
    }
    factor_.ftran(w_);
  }

  /// out[j] += sign * v a_j for every column j, row by row over the rows
  /// where v is nonzero (sign is +1 or -1, so each term is exactly +-v_r
  /// a_rj and every out[j] sums in increasing row order).
  void add_row_products(const std::vector<double>& v, double sign,
                        std::vector<double>& out) {
    for (int r = 0; r < rows_; ++r) {
      const double vr = sign * v[static_cast<std::size_t>(r)];
      if (vr == 0.0) continue;
      for (int e = row_start_[static_cast<std::size_t>(r)];
           e < row_start_[static_cast<std::size_t>(r) + 1]; ++e) {
        out[static_cast<std::size_t>(row_col_[static_cast<std::size_t>(e)])] +=
            vr * row_val_[static_cast<std::size_t>(e)];
      }
    }
  }

  /// y = c_B^T B^-1 (BTRAN) then d_j = c_j - y a_j for every column.
  void price() {
    bool any = false;
    for (int p = 0; p < rows_; ++p) {
      const double cb = cost_[static_cast<std::size_t>(
          basis_.basic[static_cast<std::size_t>(p)])];
      y_[static_cast<std::size_t>(p)] = cb;
      any = any || cb != 0.0;
    }
    d_.assign(cost_.begin(), cost_.end());
    if (!any) return;  // y = 0
    factor_.btran(y_);
    add_row_products(y_, -1.0, d_);
  }

  /// Product-form update after column `q` (spike w_) replaced the basic
  /// variable of row `r`; every `refactor_interval` updates the basis is
  /// factorized afresh and the basic values recomputed from it (returns
  /// true then).
  bool eta_update(int r) {
    factor_.update(r, w_);
    if (factor_.updates() < refactor_interval_) return false;
    if (!refactorize()) {
      failed_ = true;  // singular after drift: callers cold-restart
      return false;
    }
    compute_basic_values();
    return true;
  }

  // ------------------------------------------------------- primal method
  int choose_entering(bool bland) const {
    int best = -1;
    double best_score = opts_.tol;
    for (int j = 0; j < total_; ++j) {
      const auto st = basis_.status[static_cast<std::size_t>(j)];
      if (st == var_status::basic) continue;
      if (upper_[static_cast<std::size_t>(j)] -
                  lower_[static_cast<std::size_t>(j)] <
              1e-15 &&
          st != var_status::free_nb) {
        continue;  // fixed variable can never move
      }
      double score = 0.0;
      switch (st) {
        case var_status::at_lower: score = -d_[static_cast<std::size_t>(j)]; break;
        case var_status::at_upper: score = d_[static_cast<std::size_t>(j)]; break;
        case var_status::free_nb:
          score = std::abs(d_[static_cast<std::size_t>(j)]);
          break;
        case var_status::basic: break;
      }
      if (score > best_score) {
        best = j;
        best_score = score;
        if (bland) break;  // first eligible index suffices
      }
    }
    return best;
  }

  bool cancelled() const {
    return opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_relaxed);
  }

  /// One primal phase on the current costs: iterate until optimal /
  /// unbounded / out of budget. Mirrors the legacy tableau loop, with the
  /// tableau column replaced by an FTRAN.
  solve_status primal_optimize() {
    int degenerate_streak = 0;
    const int bland_trigger = 2 * rows_ + 64;
    while (true) {
      if (failed_ || cancelled()) return solve_status::iteration_limit;
      if (iterations_ >= max_iterations_) return solve_status::iteration_limit;
      price();
      const bool bland = degenerate_streak > bland_trigger;
      const int q = choose_entering(bland);
      if (q < 0) return solve_status::optimal;
      const auto qst = basis_.status[static_cast<std::size_t>(q)];
      const double sigma =
          (qst == var_status::at_upper ||
           (qst == var_status::free_nb && d_[static_cast<std::size_t>(q)] > 0.0))
              ? -1.0
              : 1.0;

      ftran(q);

      const double qlo = lower_[static_cast<std::size_t>(q)];
      const double qhi = upper_[static_cast<std::size_t>(q)];
      const double entering_range =
          (qlo > -inf && qhi < inf) ? qhi - qlo : inf;
      double t_max = inf;
      int leave_row = -1;
      bool leave_to_upper = false;
      for (int r = 0; r < rows_; ++r) {
        const double a = w_[static_cast<std::size_t>(r)];
        if (std::abs(a) < pivot_tol_) continue;
        const int b = basis_.basic[static_cast<std::size_t>(r)];
        const double delta = -sigma * a;  // d(value_[b]) / dt
        double limit = 0.0;
        bool to_upper = false;
        if (delta > 0.0) {
          if (upper_[static_cast<std::size_t>(b)] == inf) continue;
          limit = (upper_[static_cast<std::size_t>(b)] -
                   value_[static_cast<std::size_t>(b)]) /
                  delta;
          to_upper = true;
        } else {
          if (lower_[static_cast<std::size_t>(b)] == -inf) continue;
          limit = (lower_[static_cast<std::size_t>(b)] -
                   value_[static_cast<std::size_t>(b)]) /
                  delta;
        }
        if (limit < 0.0) limit = 0.0;  // numerical guard
        bool take = false;
        if (leave_row < 0 || limit < t_max - 1e-12) {
          take = true;
        } else if (limit <= t_max + 1e-12) {
          if (bland) {
            take = b < basis_.basic[static_cast<std::size_t>(leave_row)];
          } else {
            take = std::abs(a) >
                   std::abs(w_[static_cast<std::size_t>(leave_row)]);
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
        move_entering(q, sigma, entering_range);
        basis_.status[static_cast<std::size_t>(q)] =
            sigma > 0.0 ? var_status::at_upper : var_status::at_lower;
        value_[static_cast<std::size_t>(q)] = sigma > 0.0 ? qhi : qlo;
        degenerate_streak =
            entering_range <= opts_.tol ? degenerate_streak + 1 : 0;
      } else if (leave_row < 0) {
        return solve_status::unbounded;
      } else {
        move_entering(q, sigma, t_max);
        const int leaving =
            basis_.basic[static_cast<std::size_t>(leave_row)];
        basis_.status[static_cast<std::size_t>(leaving)] =
            leave_to_upper ? var_status::at_upper : var_status::at_lower;
        value_[static_cast<std::size_t>(leaving)] =
            leave_to_upper ? upper_[static_cast<std::size_t>(leaving)]
                           : lower_[static_cast<std::size_t>(leaving)];
        basis_.status[static_cast<std::size_t>(q)] = var_status::basic;
        basis_.basic[static_cast<std::size_t>(leave_row)] = q;
        eta_update(leave_row);
        degenerate_streak = t_max <= opts_.tol ? degenerate_streak + 1 : 0;
      }
      ++iterations_;
    }
  }

  /// Advances the entering variable by sigma*t, adjusting basic values
  /// along the FTRAN spike (no basis change here).
  void move_entering(int q, double sigma, double t) {
    if (t <= 0.0) return;  // degenerate step: values unchanged
    for (int r = 0; r < rows_; ++r) {
      const double a = w_[static_cast<std::size_t>(r)];
      if (a == 0.0) continue;
      value_[static_cast<std::size_t>(
          basis_.basic[static_cast<std::size_t>(r)])] += -sigma * a * t;
    }
    value_[static_cast<std::size_t>(q)] += sigma * t;
  }

  // --------------------------------------------------------- dual method
  /// Dual simplex on the phase-2 costs: starting from a dual-feasible
  /// basis whose basic values violate bounds (the warm-start state after
  /// branching), pivot the worst violation out until primal feasible.
  /// Returns infeasible when a violated row admits no entering column —
  /// the dual ray proves the (child) LP empty, which is the common prune.
  solve_status dual_optimize() {
    int degenerate_streak = 0;
    const int bland_trigger = 2 * rows_ + 64;
    price();
    while (true) {
      if (failed_ || cancelled()) return solve_status::iteration_limit;
      if (iterations_ >= max_iterations_) return solve_status::iteration_limit;
      const bool bland = degenerate_streak > bland_trigger;

      // Leaving row: largest bound violation (Bland: smallest basic
      // index among violated rows).
      int r = -1;
      double worst = feas_tol();
      bool above = false;
      for (int i = 0; i < rows_; ++i) {
        const int b = basis_.basic[static_cast<std::size_t>(i)];
        const double v = value_[static_cast<std::size_t>(b)];
        const double lo = lower_[static_cast<std::size_t>(b)];
        const double hi = upper_[static_cast<std::size_t>(b)];
        double viol = 0.0;
        bool over = false;
        if (v < lo - feas_tol()) {
          viol = lo - v;
        } else if (v > hi + feas_tol()) {
          viol = v - hi;
          over = true;
        } else {
          continue;
        }
        bool take = false;
        if (r < 0) {
          take = true;
        } else if (bland) {
          take = b < basis_.basic[static_cast<std::size_t>(r)];
        } else {
          take = viol > worst;
        }
        if (take) {
          r = i;
          worst = viol;
          above = over;
        }
      }
      if (r < 0) return solve_status::optimal;  // primal feasible

      // Entering column: bounded-variable dual ratio test along B^-1
      // row r (rho, by BTRAN), with alpha_j = rho a_j. delta_j is the
      // rate at which d_j would move if the leaving variable's violation
      // were being repaired.
      std::fill(rho_.begin(), rho_.end(), 0.0);
      rho_[static_cast<std::size_t>(r)] = 1.0;
      factor_.btran(rho_);
      std::fill(alpha_.begin(), alpha_.end(), 0.0);
      add_row_products(rho_, 1.0, alpha_);
      int q = -1;
      double best_ratio = inf;
      double best_alpha = 0.0;
      double alpha_q = 0.0;
      for (int j = 0; j < total_; ++j) {
        const auto st = basis_.status[static_cast<std::size_t>(j)];
        if (st == var_status::basic) continue;
        if (upper_[static_cast<std::size_t>(j)] -
                    lower_[static_cast<std::size_t>(j)] <
                1e-15 &&
            st != var_status::free_nb) {
          continue;  // fixed: can never enter
        }
        const double alpha = alpha_[static_cast<std::size_t>(j)];
        const double delta = above ? alpha : -alpha;
        double ratio;
        if (st == var_status::at_lower && delta > pivot_tol_) {
          ratio = std::max(0.0, d_[static_cast<std::size_t>(j)]) / delta;
        } else if (st == var_status::at_upper && delta < -pivot_tol_) {
          ratio = std::min(0.0, d_[static_cast<std::size_t>(j)]) / delta;
        } else if (st == var_status::free_nb &&
                   std::abs(delta) > pivot_tol_) {
          ratio = std::abs(d_[static_cast<std::size_t>(j)]) /
                  std::abs(delta);
        } else {
          continue;
        }
        bool take = false;
        if (q < 0 || ratio < best_ratio - 1e-12) {
          take = true;
        } else if (ratio <= best_ratio + 1e-12) {
          // Tie: Bland keeps the smallest column index (anti-cycling);
          // otherwise the larger pivot magnitude (stability).
          take = bland ? j < q : std::abs(alpha) > std::abs(best_alpha);
        }
        if (take) {
          q = j;
          best_ratio = std::min(best_ratio, ratio);
          best_alpha = alpha;
          alpha_q = alpha;
        }
      }
      if (q < 0) return solve_status::infeasible;  // dual ray: LP empty

      // Pivot: recompute the spike through a fresh FTRAN (alpha_q from
      // the pricing row can have drifted; the FTRAN value is the one the
      // eta update uses).
      ftran(q);
      const double piv = w_[static_cast<std::size_t>(r)];
      if (std::abs(piv) < pivot_tol_ ||
          std::abs(piv - alpha_q) > 1e-6 * std::max(1.0, std::abs(piv))) {
        // Factorization drift: rebuild and retry this iteration.
        if (!refactorize()) return solve_status::iteration_limit;
        compute_basic_values();
        price();
        ++degenerate_streak;
        if (degenerate_streak > bland_trigger + rows_ + 16) {
          return solve_status::iteration_limit;  // stuck: cold restart
        }
        continue;
      }

      const int b = basis_.basic[static_cast<std::size_t>(r)];
      const double target = above ? upper_[static_cast<std::size_t>(b)]
                                  : lower_[static_cast<std::size_t>(b)];
      const double t = (value_[static_cast<std::size_t>(b)] - target) / piv;
      for (int i = 0; i < rows_; ++i) {
        const double a = w_[static_cast<std::size_t>(i)];
        if (a == 0.0) continue;
        value_[static_cast<std::size_t>(
            basis_.basic[static_cast<std::size_t>(i)])] -= t * a;
      }
      value_[static_cast<std::size_t>(q)] = resting_value(q) + t;
      basis_.status[static_cast<std::size_t>(b)] =
          above ? var_status::at_upper : var_status::at_lower;
      value_[static_cast<std::size_t>(b)] = target;
      basis_.status[static_cast<std::size_t>(q)] = var_status::basic;
      basis_.basic[static_cast<std::size_t>(r)] = q;
      // Reduced costs follow the pivot row: d_j -= theta alpha_j with
      // theta = d_q / alpha_q, so d_q becomes 0 and the leaving column's
      // -theta. A refactorization prices afresh instead.
      const double theta = d_[static_cast<std::size_t>(q)] / alpha_q;
      for (int j = 0; j < total_; ++j) {
        d_[static_cast<std::size_t>(j)] -=
            theta * alpha_[static_cast<std::size_t>(j)];
      }
      d_[static_cast<std::size_t>(q)] = 0.0;
      d_[static_cast<std::size_t>(b)] = -theta;
      if (eta_update(r)) price();
      degenerate_streak = std::abs(t) <= opts_.tol ? degenerate_streak + 1 : 0;
      ++iterations_;
      ++dual_pivots_;
    }
  }

  // ---------------------------------------------------------- cold solve
  /// Warm-start failure path: cold-restart WITHOUT dropping the pivots
  /// already spent — the work happened, so the caller's LP-iteration
  /// telemetry (the perf guard's currency) must include it.
  solve_result fall_back() {
    fell_back_ = true;
    const int spent = iterations_;
    auto res = cold_solve();
    res.iterations += spent;
    return res;
  }

  void load_phase2_costs() {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int v = 0; v < n_struct_; ++v) {
      cost_[static_cast<std::size_t>(v)] = m_.var(v).objective;
    }
  }

  solve_result cold_solve() {
    iterations_ = 0;
    phase1_iterations_ = 0;
    failed_ = false;

    // Crash point: every structural/slack variable at its finite bound of
    // smallest magnitude (legacy rule), artificials basic absorbing the
    // residual of their row.
    for (int j = 0; j < art_begin_; ++j) {
      const double lo = lower_[static_cast<std::size_t>(j)];
      const double hi = upper_[static_cast<std::size_t>(j)];
      auto& st = basis_.status[static_cast<std::size_t>(j)];
      if (lo == -inf && hi == inf) {
        st = var_status::free_nb;
        value_[static_cast<std::size_t>(j)] = 0.0;
      } else if (lo == -inf) {
        st = var_status::at_upper;
        value_[static_cast<std::size_t>(j)] = hi;
      } else if (hi == inf) {
        st = var_status::at_lower;
        value_[static_cast<std::size_t>(j)] = lo;
      } else if (std::abs(lo) <= std::abs(hi)) {
        st = var_status::at_lower;
        value_[static_cast<std::size_t>(j)] = lo;
      } else {
        st = var_status::at_upper;
        value_[static_cast<std::size_t>(j)] = hi;
      }
    }
    std::vector<double> resid = rhs_;
    for (int j = 0; j < art_begin_; ++j) {
      const double xj = value_[static_cast<std::size_t>(j)];
      if (xj == 0.0) continue;
      for (const auto& [r, a] : cols_[static_cast<std::size_t>(j)]) {
        resid[static_cast<std::size_t>(r)] -= a * xj;
      }
    }
    // Phase-1 sign trick: an artificial with a negative residual lives in
    // (-inf, 0] with cost -1, so phase 1 minimizes sum |artificial| as a
    // plain linear objective over an identity basis.
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int r = 0; r < rows_; ++r) {
      const int a = art_begin_ + r;
      const double res = resid[static_cast<std::size_t>(r)];
      basis_.basic[static_cast<std::size_t>(r)] = a;
      basis_.status[static_cast<std::size_t>(a)] = var_status::basic;
      value_[static_cast<std::size_t>(a)] = res;
      if (res >= 0.0) {
        lower_[static_cast<std::size_t>(a)] = 0.0;
        upper_[static_cast<std::size_t>(a)] = inf;
        cost_[static_cast<std::size_t>(a)] = 1.0;
      } else {
        lower_[static_cast<std::size_t>(a)] = -inf;
        upper_[static_cast<std::size_t>(a)] = 0.0;
        cost_[static_cast<std::size_t>(a)] = -1.0;
      }
    }
    if (!refactorize()) {  // identity basis: cannot fail, but be safe
      return finish(solve_status::iteration_limit);
    }

    const auto p1 = primal_optimize();
    phase1_iterations_ = iterations_;
    if (p1 == solve_status::iteration_limit) return finish(p1);
    double infeas = 0.0;
    for (int a = art_begin_; a < total_; ++a) {
      infeas += std::abs(value_[static_cast<std::size_t>(a)]);
    }
    if (infeas > phase1_tol()) return finish(solve_status::infeasible);

    // Pin artificials to zero so phase 2 cannot reuse them; basic
    // artificials on dependent rows stay basic at value zero.
    for (int a = art_begin_; a < total_; ++a) {
      lower_[static_cast<std::size_t>(a)] = 0.0;
      upper_[static_cast<std::size_t>(a)] = 0.0;
      if (basis_.status[static_cast<std::size_t>(a)] != var_status::basic) {
        basis_.status[static_cast<std::size_t>(a)] = var_status::at_lower;
        value_[static_cast<std::size_t>(a)] = 0.0;
      }
    }

    load_phase2_costs();
    const auto p2 = primal_optimize();
    return finish(p2);
  }

  solve_result finish(solve_status status) {
    solve_result res;
    res.status = status;
    res.iterations = iterations_;
    res.phase1_iterations = phase1_iterations_;
    if (status == solve_status::optimal) {
      res.x.assign(static_cast<std::size_t>(n_struct_), 0.0);
      for (int v = 0; v < n_struct_; ++v) {
        res.x[static_cast<std::size_t>(v)] =
            value_[static_cast<std::size_t>(v)];
      }
      res.objective = m_.objective_value(res.x);
    }
    return res;
  }

  const model& m_;
  const solve_options opts_;
  int rows_ = 0;
  int n_struct_ = 0;
  int slack_begin_ = 0;
  int art_begin_ = 0;
  int total_ = 0;
  int max_iterations_ = 0;
  int refactor_interval_ = 64;
  int iterations_ = 0;
  int phase1_iterations_ = 0;
  bool failed_ = false;
  bool fell_back_ = false;
  double pivot_tol_ = 1e-9;

  std::int64_t factorizations_ = 0;
  std::int64_t dual_pivots_ = 0;

  /// Sparse columns of the scaled [A | I_slack | I_art] system, and the
  /// same entries row-wise: row r's columns and values over
  /// [row_start_[r], row_start_[r + 1]).
  std::vector<std::vector<std::pair<int, double>>> cols_;
  std::vector<int> row_start_, row_col_;
  std::vector<double> row_val_;
  std::vector<double> rhs_;
  std::vector<double> lower_, upper_, cost_, value_;
  basis_state basis_;

  /// LU of the basis as last factorized plus the eta updates since.
  lu_factor factor_;
  /// Per-row work: the FTRAN spike, y = c_B^T B^-1, rho = e_r^T B^-1 and
  /// the residual b - N x_N; per column: reduced costs and rho a_j.
  std::vector<double> w_, y_, rho_, resid_;
  std::vector<double> d_, alpha_;
};

revised_solver::revised_solver(const model& m, const solve_options& opts)
    : impl_(new impl(m, opts)) {}

revised_solver::~revised_solver() { delete impl_; }

void revised_solver::set_bounds(int var, double lower, double upper) {
  impl_->set_bounds(var, lower, upper);
}

void revised_solver::add_row(const std::vector<term>& terms, relation rel,
                             double rhs) {
  impl_->add_row(terms, rel, rhs);
}

solve_result revised_solver::solve() { return impl_->solve(); }

solve_result revised_solver::solve_from(const basis_state& from) {
  return impl_->solve_from(from);
}

const basis_state& revised_solver::last_basis() const {
  return impl_->last_basis();
}

bool revised_solver::last_solve_fell_back() const {
  return impl_->last_solve_fell_back();
}

std::int64_t revised_solver::factorizations() const {
  return impl_->factorizations();
}

std::int64_t revised_solver::dual_pivots() const {
  return impl_->dual_pivots();
}

solve_result solve_revised(const model& m, const solve_options& opts) {
  revised_solver solver(m, opts);
  return solver.solve();
}

}  // namespace stx::lp
