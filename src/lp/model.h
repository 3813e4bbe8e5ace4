// Linear program model builder.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace stx::lp {

/// Row sense of a linear constraint.
enum class relation { less_equal, equal, greater_equal };

/// +infinity bound sentinel.
inline constexpr double infinity = std::numeric_limits<double>::infinity();

/// One nonzero coefficient `value` of variable `var` in some row.
struct term {
  int var = 0;
  double value = 0.0;
};

/// A linear constraint: sum of terms (rel) rhs.
struct row {
  std::vector<term> terms;
  relation rel = relation::less_equal;
  double rhs = 0.0;
  std::string name;
};

/// Variable metadata: bounds and objective coefficient.
struct variable {
  double lower = 0.0;
  double upper = infinity;
  double objective = 0.0;
  std::string name;
};

/// Builder for a linear program in the form
///
///     minimize    c' x
///     subject to  A x (<=, =, >=) b
///                 l <= x <= u
///
/// Construction is row-oriented: declare variables first, then add rows
/// referring to variable indices. The model is a plain data holder; the
/// solver (`stx::lp::revised_solver`) never mutates it.
class model {
 public:
  /// Declares a variable and returns its index.
  int add_variable(double lower, double upper, double objective,
                   std::string name = {});

  /// Adds a constraint row and returns its index. Terms may mention each
  /// variable at most once; variable indices must be valid.
  int add_row(std::vector<term> terms, relation rel, double rhs,
              std::string name = {});

  /// Tightens (replaces) the bounds of `var`.
  void set_bounds(int var, double lower, double upper);

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  const variable& var(int v) const;
  const row& constraint(int r) const;

  /// Evaluates the left-hand side of row `r` at assignment `x`.
  double row_activity(int r, const std::vector<double>& x) const;

  /// True when `x` satisfies every row and every bound within `tol`.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Objective value c'x.
  double objective_value(const std::vector<double>& x) const;

  /// Human-readable dump (small models; used by tests and debugging).
  std::string to_string() const;

 private:
  std::vector<variable> variables_;
  std::vector<row> rows_;
};

}  // namespace stx::lp
