// Revised bounded-variable simplex with an explicit, warm-startable basis.
//
// The legacy engine (lp/simplex.h) maintains the full dense tableau
// B^-1 [A | I] and can only cold-solve; this engine maintains B^-1 alone
// (product-form eta updates with periodic refactorization), exposes the
// basis as a first-class snapshot (lp/basis.h), and supports DUAL simplex
// re-solves from a foreign basis after bound changes. That combination is
// what turns the MILP branch & bound from one full two-phase solve per
// node into a handful of dual pivots per node: a child node inherits its
// parent's optimal basis — still dual feasible, because branching only
// moves bounds — and the dual method repairs primal feasibility.
//
// B^-1 is stored dense but computed on its nonzeros. Refactorization is
// Gauss-Jordan elimination with partial pivoting that visits only the
// rows holding a nonzero in the pivot column and, in each, only the pivot
// row's nonzeros; eta updates touch only the nonzero columns of the pivot
// row. Each computed entry sees exactly the floating-point operations of
// the dense loops, so B^-1, every pivot choice and every iteration count
// are those of a dense implementation. The solver also remembers the
// last fresh factorization: re-adopting that ordered basis (sibling nodes
// share their parent's) copies it instead of eliminating again. Both
// count as refactorizations in factorizations().
//
// Termination and conditioning use the same defences as the legacy
// engine: Bland's rule engages under prolonged degeneracy, basic values
// are refreshed from a fresh factorization every `refactor_interval`
// pivots, and any singular or drifted factorization falls back to a cold
// restart. The two engines agree on every solve outcome (status and
// objective); tests/lp cross-checks them on random models.
#pragma once

#include <cstdint>

#include "lp/basis.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace stx::lp {

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

/// One-shot convenience mirroring solve_simplex: cold-solves `m` with the
/// revised engine.
solve_result solve_revised(const model& m, const solve_options& opts = {});

}  // namespace stx::lp
