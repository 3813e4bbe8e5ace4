// Revised bounded-variable simplex with an explicit, warm-startable basis.
//
// The engine keeps a sparse LU factorization of the basis (lp/lu_factor.h)
// instead of a tableau or an inverse, exposes the basis as a first-class
// snapshot (lp/basis.h), and supports DUAL simplex re-solves from a
// foreign basis after bound changes. That combination is what turns the
// MILP branch & bound from one full two-phase solve per node into a
// handful of dual pivots per node: a child node inherits its parent's
// optimal basis — still dual feasible, because branching only moves
// bounds — and the dual method repairs primal feasibility.
//
// Slack and artificial unit columns pivot on their own rows at no cost,
// so only the kernel of the other basic columns is eliminated (in
// Markowitz order with threshold pivoting). On the generic-MILP synthesis
// inputs a basis of m ~ 220 rows has a kernel of ~45 columns with ~110
// nonzeros, and the whole factor holds ~590. Each pivot appends its
// FTRAN'd spike to a product-form eta file. FTRAN and BTRAN go through
// the factors: BTRAN gives row r of B^-1 for the dual ratio test and
// c_B^T B^-1 for pricing, and the pivot row and reduced costs come from
// a row-wise copy of A that visits only those vectors' nonzeros. The
// dual simplex then updates its reduced costs along the pivot row
// instead of pricing afresh.
//
// Termination and conditioning: Bland's rule engages under prolonged
// degeneracy, the basis is refactorized and the basic values refreshed
// every `refactor_interval` pivots, and any singular or drifted
// factorization falls back to a cold restart. tests/lp cross-checks the
// engine against a dense tableau reference on random models.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "lp/basis.h"
#include "lp/model.h"

namespace stx::lp {

/// Terminal state of a simplex solve.
enum class solve_status {
  optimal,          ///< proven optimal within tolerance
  infeasible,       ///< phase 1 could not reach feasibility
  unbounded,        ///< objective unbounded below on the feasible set
  iteration_limit,  ///< gave up; solution vector is not meaningful
};

const char* to_string(solve_status s);

/// Solver knobs. Defaults are tuned for the small/medium 0-1 models the
/// crossbar formulation produces.
struct solve_options {
  /// Hard cap on simplex pivots across both phases; 0 = automatic
  /// (40 * (rows + columns) + 1000).
  int max_iterations = 0;
  /// Feasibility / reduced-cost tolerance (applied after row scaling).
  double tol = 1e-7;
  /// Refactorize the basis from scratch every this many eta updates (and
  /// refresh basic values from it). The drift bound tests shrink this to
  /// 1; raising it trades accuracy checks for speed.
  int refactor_interval = 64;
  /// Cooperative cancellation. When non-null and it reads true, the
  /// pivot loops stop before their next pivot and the solve ends with
  /// iteration_limit (milp::bb_options::cancel reaches the branch &
  /// bound's LP solves this way). The caller keeps ownership.
  const std::atomic<bool>* cancel = nullptr;
};

/// Solve outcome. `x` holds structural variable values (phase-2 basic
/// solution) when status is optimal.
struct solve_result {
  solve_status status = solve_status::iteration_limit;
  double objective = 0.0;
  std::vector<double> x;
  int iterations = 0;
  int phase1_iterations = 0;
};

/// Revised simplex solver bound to one model. The model's ROWS, objective
/// and column set are fixed at construction; variable BOUNDS may change
/// between solves through set_bounds — the branch & bound mutates bounds
/// thousands of times against a single revised_solver instance.
class revised_solver {
 public:
  explicit revised_solver(const model& m, const solve_options& opts = {});
  ~revised_solver();

  revised_solver(const revised_solver&) = delete;
  revised_solver& operator=(const revised_solver&) = delete;

  /// Replaces the bounds of structural variable `var` for subsequent
  /// solves. Does not touch the underlying model.
  void set_bounds(int var, double lower, double upper);

  /// Appends one constraint row to the working system WITHOUT rebuilding
  /// the solver. The row is equilibrated exactly as at construction, its
  /// slack becomes the new row's basic variable, and artificial column
  /// indices shift one slot right inside the stored basis; the next
  /// solve/solve_from refactorizes against the extended system (a warm
  /// dual re-solve from last_basis() repairs the feasibility the row
  /// broke — the cut-separation loop in milp/branch_bound runs on this).
  /// Column geometry after N add_row calls is identical to a solver
  /// freshly built from the model with the same rows appended in the same
  /// order, so basis snapshots are interchangeable between the two.
  /// Does not touch the underlying model.
  void add_row(const std::vector<term>& terms, relation rel, double rhs);

  /// Cold solve: artificial crash basis, two-phase primal simplex.
  solve_result solve();

  /// Warm solve: adopt `from` (typically the parent node's optimal
  /// basis), refactorize, and run the dual simplex to repair the primal
  /// infeasibilities the bound changes introduced; a primal clean-up pass
  /// runs only if numerical drift left a reduced-cost violation. Falls
  /// back to a cold solve when the snapshot is incompatible or the
  /// factorization is singular, so the call never fails where solve()
  /// would succeed.
  solve_result solve_from(const basis_state& from);

  /// Basis after the most recent successful (status optimal) solve.
  /// Empty before the first solve.
  const basis_state& last_basis() const;

  /// True when the most recent solve_from call had to restart cold
  /// (incompatible snapshot, singular factorization, or a dual run that
  /// exhausted its budget). The iterations of the abandoned warm attempt
  /// are still included in that solve's result; callers use this flag to
  /// attribute the solve to the right engine in telemetry.
  bool last_solve_fell_back() const;

  /// Total refactorizations across all solves (telemetry).
  std::int64_t factorizations() const;

  /// Dual-simplex pivots across all solves (telemetry; also counted in
  /// each solve_result's `iterations`).
  std::int64_t dual_pivots() const;

 private:
  class impl;
  impl* impl_;
};

/// One-shot convenience: cold-solves `m` with the revised engine.
solve_result solve_revised(const model& m, const solve_options& opts = {});

}  // namespace stx::lp
