// Mixed integer linear program model.
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"

namespace stx::milp {

/// A mixed integer linear program: an LP plus integrality marks.
///
/// The crossbar formulation (paper Eq. 3-9 and Eq. 11) is expressed on
/// this type and handed to `solve_branch_bound`. The class wraps
/// `stx::lp::model` so the LP relaxation is available for free.
class model {
 public:
  /// Continuous variable in [lower, upper].
  int add_continuous(double lower, double upper, double objective,
                     std::string name = {});

  /// Integer variable in [lower, upper] (bounds are rounded outward to
  /// integers by the solver's branching, not here).
  int add_integer(double lower, double upper, double objective,
                  std::string name = {});

  /// Binary (0/1) variable.
  int add_binary(double objective, std::string name = {});

  /// Adds a linear constraint row; see lp::model::add_row.
  int add_row(std::vector<lp::term> terms, lp::relation rel, double rhs,
              std::string name = {});

  int num_variables() const { return relaxation_.num_variables(); }
  int num_rows() const { return relaxation_.num_rows(); }

  bool is_integer(int var) const;

  /// The LP relaxation (same variables and rows, integrality dropped).
  const lp::model& relaxation() const { return relaxation_; }
  lp::model& relaxation() { return relaxation_; }

  /// True when `x` satisfies rows, bounds and integrality within `tol`.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Declares that the equal-sized variable BLOCKS of `blocks` are
  /// pairwise interchangeable: permuting the blocks of any feasible
  /// solution (together with whatever auxiliary variables the caller's
  /// formulation permutes alongside) yields another feasible solution
  /// with the same objective. All listed variables must be binary.
  ///
  /// This is the crossbar formulation's bus symmetry (Eq. 3-9: block k =
  /// the x[i][k] column of bus k): any binding survives a bus
  /// relabelling. `presolve` turns each declared group into lexicographic
  /// ordering rows between consecutive blocks, pruning the factorially
  /// many permuted copies from the branch & bound tree while keeping at
  /// least one optimal representative (the blocks sorted lex-descending).
  void add_symmetry_group(std::vector<std::vector<int>> blocks);

  const std::vector<std::vector<std::vector<int>>>& symmetry_groups() const {
    return symmetry_groups_;
  }

 private:
  lp::model relaxation_;
  std::vector<bool> integer_;
  std::vector<std::vector<std::vector<int>>> symmetry_groups_;
};

}  // namespace stx::milp
