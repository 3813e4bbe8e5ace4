#include "milp/model.h"

#include <cmath>

#include "util/error.h"

namespace stx::milp {

int model::add_continuous(double lower, double upper, double objective,
                          std::string name) {
  const int v = relaxation_.add_variable(lower, upper, objective,
                                         std::move(name));
  integer_.push_back(false);
  return v;
}

int model::add_integer(double lower, double upper, double objective,
                       std::string name) {
  const int v = relaxation_.add_variable(lower, upper, objective,
                                         std::move(name));
  integer_.push_back(true);
  return v;
}

int model::add_binary(double objective, std::string name) {
  return add_integer(0.0, 1.0, objective, std::move(name));
}

int model::add_row(std::vector<lp::term> terms, lp::relation rel, double rhs,
                   std::string name) {
  return relaxation_.add_row(std::move(terms), rel, rhs, std::move(name));
}

bool model::is_integer(int var) const {
  STX_REQUIRE(var >= 0 && var < num_variables(), "is_integer: bad index");
  return integer_[static_cast<std::size_t>(var)];
}

void model::add_symmetry_group(std::vector<std::vector<int>> blocks) {
  STX_REQUIRE(blocks.size() >= 2,
              "a symmetry group needs at least two blocks");
  const std::size_t len = blocks.front().size();
  STX_REQUIRE(len > 0, "symmetry blocks must not be empty");
  for (const auto& block : blocks) {
    STX_REQUIRE(block.size() == len,
                "symmetry blocks must all have the same size");
    for (const int v : block) {
      STX_REQUIRE(v >= 0 && v < num_variables(),
                  "symmetry block names an unknown variable");
      STX_REQUIRE(is_integer(v) && relaxation_.var(v).lower >= 0.0 &&
                      relaxation_.var(v).upper <= 1.0,
                  "symmetry blocks must consist of binary variables");
    }
  }
  symmetry_groups_.push_back(std::move(blocks));
}

bool model::is_feasible(const std::vector<double>& x, double tol) const {
  if (!relaxation_.is_feasible(x, tol)) return false;
  for (int v = 0; v < num_variables(); ++v) {
    if (!is_integer(v)) continue;
    const double xv = x[static_cast<std::size_t>(v)];
    if (std::abs(xv - std::round(xv)) > tol) return false;
  }
  return true;
}

}  // namespace stx::milp
