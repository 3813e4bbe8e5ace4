// Bounded-variable two-phase primal simplex (legacy cold-solve engine).
//
// This is the tableau-based reference path: every solve is from scratch.
// The warm-startable revised-simplex engine (lp/revised_simplex.h) is
// the production path everywhere — branch & bound included; this engine
// survives only as the LP-level differential reference (tests/lp
// cross-checks the two on random models).
#pragma once

#include <atomic>
#include <string>
#include <vector>

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
  /// Recompute basic values from the transformed rhs every this many
  /// pivots to cap numerical drift.
  int refresh_interval = 256;
  /// Revised engine only: rebuild the basis factorization from scratch
  /// every this many eta updates (and refresh basic values from it). The
  /// drift bound tests shrink this to 1; raising it trades accuracy
  /// checks for speed.
  int refactor_interval = 64;
  /// Revised engine only: cooperative cancellation. When non-null and it
  /// reads true, the pivot loops stop before their next pivot and the
  /// solve ends with iteration_limit (milp::bb_options::cancel reaches
  /// the branch & bound's LP solves this way). The caller keeps
  /// ownership.
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

/// Solves `m` with the bounded-variable two-phase tableau simplex method.
///
/// Upper/lower variable bounds are handled implicitly (nonbasic variables
/// rest at either bound), so models with thousands of 0-1 variables do not
/// pay for explicit bound rows. Equality rows are handled through phase-1
/// artificials; Bland's rule engages automatically under prolonged
/// degeneracy so the method always terminates.
solve_result solve_simplex(const model& m, const solve_options& opts = {});

}  // namespace stx::lp
