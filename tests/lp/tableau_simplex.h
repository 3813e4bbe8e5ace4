// Bounded-variable two-phase primal simplex on a dense tableau.
//
// Every solve is from scratch, on the full tableau B^-1 [A | b]. The
// library's engine is the warm-startable revised simplex
// (lp/revised_simplex.h); this one is its test-only differential
// reference (the tests in this directory cross-check the two on random
// models).
#pragma once

#include "lp/model.h"
#include "lp/revised_simplex.h"

namespace stx::lp {

/// The revised engine's knobs (max_iterations and tol apply; the rest are
/// ignored) plus the tableau's own refresh period.
struct tableau_options : solve_options {
  /// Recompute basic values from the transformed rhs every this many
  /// pivots to cap numerical drift.
  int refresh_interval = 256;
};

/// Solves `m` with the bounded-variable two-phase tableau simplex method.
///
/// Upper/lower variable bounds are handled implicitly (nonbasic variables
/// rest at either bound), so models with thousands of 0-1 variables do not
/// pay for explicit bound rows. Equality rows are handled through phase-1
/// artificials; Bland's rule engages automatically under prolonged
/// degeneracy so the method always terminates.
solve_result solve_simplex(const model& m, const tableau_options& opts = {});

}  // namespace stx::lp
