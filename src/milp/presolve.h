// Bound-tightening presolve for MILP models.
#pragma once

#include <optional>
#include <vector>

#include "milp/model.h"

namespace stx::milp {

/// Result of presolving: a smaller model plus bookkeeping to map a reduced
/// solution back to the original variable space.
struct presolved_model {
  model reduced;
  /// original variable index -> reduced index, or -1 when fixed.
  std::vector<int> var_map;
  /// original variable index -> fixed value (meaningful when var_map < 0).
  std::vector<double> fixed_value;
  /// Objective contribution of the fixed variables: the original
  /// objective of a point is the reduced objective plus this constant.
  double fixed_objective = 0.0;
  /// True when presolve alone proved the model infeasible; `reduced` is
  /// then empty and must not be solved.
  bool proven_infeasible = false;
  /// Rows dropped because they became trivially satisfied.
  int dropped_rows = 0;

  /// Expands a solution of `reduced` to the original variable space.
  std::vector<double> expand(const std::vector<double>& reduced_x) const;
};

/// Iterated presolve:
///  * each symmetry group declared on the model (interchangeable binary
///    blocks — the crossbar formulation's bus columns) is rewritten into
///    lexicographic ordering rows between consecutive blocks, pruning the
///    factorially-symmetric part of the branch & bound tree up front;
///    where rows also keep the blocks from sharing a 1 at the leading
///    positions (each target on one bus), block k is fixed to zero at
///    positions before k;
///  * variables with equal bounds are fixed and substituted into rows;
///  * singleton rows tighten the bounds of their single variable and are
///    dropped;
///  * integer variable bounds are rounded inward;
///  * knapsack-style fixing on <= rows whose unfixed coefficients are all
///    non-negative: a variable whose own minimum contribution already
///    exceeds the residual rhs is fixed at its lower bound;
///  * rows whose worst-case activity can never violate the relation are
///    dropped; rows whose best case still violates prove infeasibility.
///
/// This mirrors (a small slice of) what CPLEX does before branch & bound
/// and is what makes the paper-faithful Eq. 3-9 formulation tractable:
/// conflict rows (Eq. 7) fix sharing variables to zero, which cascades
/// into the Eq. 5 linearization rows.
presolved_model presolve(const model& m, int max_passes = 12);

}  // namespace stx::milp
