// Sparse LU factorization of a simplex basis, with product-form updates.
//
// factorize() takes the basis B as m sparse columns over m rows. Columns
// with one nonzero (the slack and artificial unit columns, and any
// structural singleton) pivot on their own row at no cost and create no
// fill. What is left, the kernel (the other columns restricted to the
// rows no singleton claimed), is eliminated in Markowitz order: each step
// takes, among the active entries of magnitude at least `threshold` times
// their column's largest, the one with the smallest (row count - 1) *
// (column count - 1), ties going to the smallest column, then row, index.
// The factors are a pure function of the ordered columns.
//
// Between factorizations update() appends the FTRAN'd entering column
// (the spike) to a product-form eta file, which ftran applies after the
// LU solve and btran before it.
#pragma once

#include <utility>
#include <vector>

namespace stx::lp {

class lu_factor {
 public:
  /// A sparse column: (row, value) pairs.
  using column = std::vector<std::pair<int, double>>;

  /// Factorizes the m x m basis whose column p is cols[basic[p]] and
  /// drops the eta file. Returns false when the basis is (numerically)
  /// singular; the factor is then unusable until the next factorize.
  bool factorize(int m, const std::vector<int>& basic,
                 const std::vector<column>& cols);

  /// Solves B w = a in place. On entry `x` (size m) holds a by row; on
  /// exit it holds w by basis position.
  void ftran(std::vector<double>& x);

  /// Solves y^T B = c^T in place. On entry `x` (size m) holds c by basis
  /// position; on exit it holds y by row.
  void btran(std::vector<double>& x);

  /// Records that basis position r now holds the column whose FTRAN
  /// through the current factor is `w` (by position, w[r] != 0).
  void update(int r, const std::vector<double>& w);

  /// Eta updates since the last factorize.
  int updates() const { return static_cast<int>(eta_pos_.size()); }

 private:
  /// Relative pivot threshold of the kernel's Markowitz search.
  static constexpr double threshold = 0.1;
  /// A pivot below this magnitude makes the basis singular.
  static constexpr double singular_tol = 1e-11;

  bool eliminate_kernel();

  /// Order of the factored basis; 0 while no factorization holds.
  int m_ = 0;
  /// Steps 0..singletons_-1 pivot a singleton column; the rest the
  /// kernel. Step t pivots on row prow_[t] of basis position pcol_[t].
  int singletons_ = 0;
  std::vector<int> prow_, pcol_;
  std::vector<double> diag_;
  /// L column of step t: rows l_idx_ and multipliers l_val_ over
  /// [l_start_[t - singletons_], l_start_[t - singletons_ + 1]).
  std::vector<int> l_start_, l_idx_;
  std::vector<double> l_val_;
  /// U row of step t, off the diagonal: positions u_idx_ and values u_val_
  /// over [u_start_[t], u_start_[t + 1]), all pivoted after step t.
  std::vector<int> u_start_, u_idx_;
  std::vector<double> u_val_;
  /// Eta e: pivot position eta_pos_[e] and value eta_piv_[e], and the
  /// spike's other nonzeros over [eta_start_[e], eta_start_[e + 1]).
  std::vector<int> eta_pos_, eta_start_, eta_idx_;
  std::vector<double> eta_piv_, eta_val_;

  /// Solve scratch (size m), swapped with the caller's vector.
  std::vector<double> work_;
  /// Factorization scratch: the step of the singleton pivoting on each
  /// row (-1: none); the kernel's active columns (by position) and row
  /// patterns; the kernel positions not yet pivoted, in increasing order;
  /// a row -> entry index map (-1 between uses, U fill cursors before).
  std::vector<int> row_owner_;
  std::vector<column> kcol_;
  std::vector<std::vector<int>> krow_;
  std::vector<int> kpos_, where_;
};

}  // namespace stx::lp
