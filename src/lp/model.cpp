#include "lp/model.h"

#include <cmath>
#include <set>
#include <sstream>

#include "util/error.h"

namespace stx::lp {

int model::add_variable(double lower, double upper, double objective,
                        std::string name) {
  STX_REQUIRE(lower <= upper, "variable bounds crossed: " + name);
  STX_REQUIRE(!std::isnan(lower) && !std::isnan(upper) && !std::isnan(objective),
              "NaN in variable definition: " + name);
  variables_.push_back(variable{lower, upper, objective, std::move(name)});
  return static_cast<int>(variables_.size()) - 1;
}

int model::add_row(std::vector<term> terms, relation rel, double rhs,
                   std::string name) {
  std::set<int> seen;
  for (const auto& t : terms) {
    STX_REQUIRE(t.var >= 0 && t.var < num_variables(),
                "row term references unknown variable in row " + name);
    STX_REQUIRE(seen.insert(t.var).second,
                "row mentions a variable twice in row " + name);
    STX_REQUIRE(!std::isnan(t.value), "NaN coefficient in row " + name);
  }
  STX_REQUIRE(!std::isnan(rhs), "NaN rhs in row " + name);
  rows_.push_back(row{std::move(terms), rel, rhs, std::move(name)});
  return static_cast<int>(rows_.size()) - 1;
}

void model::set_bounds(int var, double lower, double upper) {
  STX_REQUIRE(var >= 0 && var < num_variables(), "set_bounds: bad index");
  STX_REQUIRE(lower <= upper, "set_bounds: bounds crossed");
  auto& v = variables_[static_cast<std::size_t>(var)];
  v.lower = lower;
  v.upper = upper;
}

const variable& model::var(int v) const {
  STX_REQUIRE(v >= 0 && v < num_variables(), "var: bad index");
  return variables_[static_cast<std::size_t>(v)];
}

const row& model::constraint(int r) const {
  STX_REQUIRE(r >= 0 && r < num_rows(), "constraint: bad index");
  return rows_[static_cast<std::size_t>(r)];
}

double model::row_activity(int r, const std::vector<double>& x) const {
  const auto& rr = constraint(r);
  double acc = 0.0;
  for (const auto& t : rr.terms) {
    acc += t.value * x[static_cast<std::size_t>(t.var)];
  }
  return acc;
}

bool model::is_feasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != num_variables()) return false;
  for (int v = 0; v < num_variables(); ++v) {
    const auto& vv = var(v);
    const double xv = x[static_cast<std::size_t>(v)];
    if (xv < vv.lower - tol || xv > vv.upper + tol) return false;
  }
  for (int r = 0; r < num_rows(); ++r) {
    const double act = row_activity(r, x);
    const auto& rr = constraint(r);
    switch (rr.rel) {
      case relation::less_equal:
        if (act > rr.rhs + tol) return false;
        break;
      case relation::equal:
        if (std::abs(act - rr.rhs) > tol) return false;
        break;
      case relation::greater_equal:
        if (act < rr.rhs - tol) return false;
        break;
    }
  }
  return true;
}

double model::objective_value(const std::vector<double>& x) const {
  double acc = 0.0;
  for (int v = 0; v < num_variables(); ++v) {
    acc += var(v).objective * x[static_cast<std::size_t>(v)];
  }
  return acc;
}

std::string model::to_string() const {
  std::ostringstream out;
  out << "min ";
  bool first = true;
  for (int v = 0; v < num_variables(); ++v) {
    if (var(v).objective == 0.0) continue;
    if (!first) out << " + ";
    out << var(v).objective << "*x" << v;
    first = false;
  }
  if (first) out << "0";
  out << "\n";
  for (int r = 0; r < num_rows(); ++r) {
    const auto& rr = constraint(r);
    out << "  ";
    for (std::size_t t = 0; t < rr.terms.size(); ++t) {
      if (t > 0) out << " + ";
      out << rr.terms[t].value << "*x" << rr.terms[t].var;
    }
    switch (rr.rel) {
      case relation::less_equal: out << " <= "; break;
      case relation::equal: out << " == "; break;
      case relation::greater_equal: out << " >= "; break;
    }
    out << rr.rhs << "\n";
  }
  for (int v = 0; v < num_variables(); ++v) {
    out << "  " << var(v).lower << " <= x" << v << " <= " << var(v).upper
        << "\n";
  }
  return out.str();
}

}  // namespace stx::lp
