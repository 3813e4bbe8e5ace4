// Sparse LU basis factor: FTRAN/BTRAN residuals on random sparse bases
// that mix unit and structural columns, before and after product-form
// updates, and singular bases reported as such (so warm solves fall back
// to a cold solve).
#include "lp/lu_factor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "util/random.h"

namespace stx::lp {
namespace {

using column = lu_factor::column;

/// A column pool over m rows, laid out like the solver's: the unit
/// columns e_0..e_{m-1} first, then random sparse structural columns.
/// `basic` picks one column per position.
struct basis_case {
  int m = 0;
  std::vector<column> cols;
  std::vector<int> basic;
};

column random_structural(rng& r, int m, double density) {
  column c;
  for (int i = 0; i < m; ++i) {
    if (r.chance(density)) c.push_back({i, r.uniform(-1.0, 1.0)});
  }
  return c;
}

/// A nonsingular basis: `units` unit columns on distinct random rows; on
/// each remaining row a structural column whose entry there (magnitude
/// 2-6) gives the pattern a perfect matching, plus random entries in
/// [-1, 1] on other rows. The basis order is shuffled.
basis_case make_basis(rng& r, int m, int units, double density) {
  basis_case b;
  b.m = m;
  for (int i = 0; i < m; ++i) b.cols.push_back({{i, 1.0}});
  std::vector<int> rows(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) rows[static_cast<std::size_t>(i)] = i;
  r.shuffle(rows);
  for (int k = 0; k < m; ++k) {
    const int row = rows[static_cast<std::size_t>(k)];
    if (k < units) {
      b.basic.push_back(row);
      continue;
    }
    column c = random_structural(r, m, density);
    const double v = r.uniform(2.0, 6.0) * (r.chance(0.5) ? 1.0 : -1.0);
    auto at = std::find_if(c.begin(), c.end(),
                           [&](const auto& e) { return e.first == row; });
    if (at != c.end()) {
      at->second = v;
    } else {
      c.push_back({row, v});
      std::sort(c.begin(), c.end());
    }
    b.basic.push_back(static_cast<int>(b.cols.size()));
    b.cols.push_back(std::move(c));
  }
  r.shuffle(b.basic);
  return b;
}

/// ||B x - a||_inf for x by position and a by row.
double ftran_residual(const basis_case& b, const std::vector<double>& x,
                      const std::vector<double>& a) {
  std::vector<double> bx(static_cast<std::size_t>(b.m), 0.0);
  for (int p = 0; p < b.m; ++p) {
    for (const auto& [i, v] : b.cols[static_cast<std::size_t>(
             b.basic[static_cast<std::size_t>(p)])]) {
      bx[static_cast<std::size_t>(i)] += v * x[static_cast<std::size_t>(p)];
    }
  }
  double worst = 0.0;
  for (int i = 0; i < b.m; ++i) {
    worst = std::max(worst, std::abs(bx[static_cast<std::size_t>(i)] -
                                     a[static_cast<std::size_t>(i)]));
  }
  return worst;
}

/// ||y^T B - e_r^T||_inf for y by row.
double btran_residual(const basis_case& b, const std::vector<double>& y,
                      int r) {
  double worst = 0.0;
  for (int p = 0; p < b.m; ++p) {
    double s = 0.0;
    for (const auto& [i, v] : b.cols[static_cast<std::size_t>(
             b.basic[static_cast<std::size_t>(p)])]) {
      s += y[static_cast<std::size_t>(i)] * v;
    }
    worst = std::max(worst, std::abs(s - (p == r ? 1.0 : 0.0)));
  }
  return worst;
}

/// FTRAN of a random sparse and a random dense right-hand side, and BTRAN
/// of every unit vector, all against the explicit basis.
void expect_solves_accurate(lu_factor& f, const basis_case& b, rng& r,
                            int step) {
  for (const double density : {0.2, 1.0}) {
    std::vector<double> a(static_cast<std::size_t>(b.m), 0.0);
    for (auto& v : a) {
      if (r.chance(density)) v = r.uniform(-3.0, 3.0);
    }
    std::vector<double> x = a;
    f.ftran(x);
    EXPECT_LT(ftran_residual(b, x, a), 1e-9) << "step " << step;
  }
  for (int row = 0; row < b.m; ++row) {
    std::vector<double> y(static_cast<std::size_t>(b.m), 0.0);
    y[static_cast<std::size_t>(row)] = 1.0;
    f.btran(y);
    EXPECT_LT(btran_residual(b, y, row), 1e-9)
        << "step " << step << " row " << row;
  }
}

class LuFactor : public ::testing::TestWithParam<int> {};

TEST_P(LuFactor, SolvesStayAccurateThroughARefactorIntervalOfUpdates) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 6151 + 29);
  const int m = static_cast<int>(r.uniform_int(1, 40));
  const int units = static_cast<int>(r.uniform_int(0, m));
  auto b = make_basis(r, m, units, r.uniform(0.05, 0.3));
  // Entering candidates: more random structurals and every unit column.
  for (int k = 0; k < m; ++k) b.cols.push_back(random_structural(r, m, 0.25));

  lu_factor f;
  ASSERT_TRUE(f.factorize(b.m, b.basic, b.cols)) << "seed " << GetParam();
  expect_solves_accurate(f, b, r, 0);

  const int interval = solve_options{}.refactor_interval;
  int updates = 0;
  for (int step = 1; step <= interval; ++step) {
    // Enter a random non-basic column at a position where its spike is
    // not small against its largest entry, as a ratio test would.
    const int q = static_cast<int>(
        r.uniform_int(0, static_cast<std::int64_t>(b.cols.size()) - 1));
    if (std::find(b.basic.begin(), b.basic.end(), q) != b.basic.end()) {
      continue;
    }
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    for (const auto& [i, v] : b.cols[static_cast<std::size_t>(q)]) {
      w[static_cast<std::size_t>(i)] += v;
    }
    f.ftran(w);
    double wmax = 0.0;
    for (const double v : w) wmax = std::max(wmax, std::abs(v));
    if (wmax < 1e-6) continue;
    std::vector<int> ok;
    for (int p = 0; p < m; ++p) {
      if (std::abs(w[static_cast<std::size_t>(p)]) >= 0.1 * wmax) {
        ok.push_back(p);
      }
    }
    const int pos = ok[static_cast<std::size_t>(r.uniform_int(
        0, static_cast<std::int64_t>(ok.size()) - 1))];
    f.update(pos, w);
    b.basic[static_cast<std::size_t>(pos)] = q;
    EXPECT_EQ(f.updates(), ++updates);
    expect_solves_accurate(f, b, r, step);
  }

  // A fresh factorization of the updated basis agrees, and refactorizing
  // drops the eta file.
  lu_factor fresh;
  ASSERT_TRUE(fresh.factorize(b.m, b.basic, b.cols));
  expect_solves_accurate(fresh, b, r, interval + 1);
  ASSERT_TRUE(f.factorize(b.m, b.basic, b.cols));
  EXPECT_EQ(f.updates(), 0);
  expect_solves_accurate(f, b, r, interval + 2);
}

TEST_P(LuFactor, RankDeficientBasesAreReportedSingular) {
  rng r(static_cast<std::uint64_t>(GetParam()) * 7927 + 5);
  const int m = static_cast<int>(r.uniform_int(3, 30));
  const int units = static_cast<int>(r.uniform_int(0, m - 2));
  auto b = make_basis(r, m, units, r.uniform(0.05, 0.3));
  lu_factor f;
  ASSERT_TRUE(f.factorize(b.m, b.basic, b.cols));

  // Replace one basic column by a combination of two others.
  std::vector<int> order(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p) order[static_cast<std::size_t>(p)] = p;
  r.shuffle(order);
  const int target = order[0];
  const double s = r.uniform(0.5, 2.0);
  const double t = r.uniform(-2.0, -0.5);
  std::vector<double> dense(static_cast<std::size_t>(m), 0.0);
  for (const auto& [i, v] : b.cols[static_cast<std::size_t>(
           b.basic[static_cast<std::size_t>(order[1])])]) {
    dense[static_cast<std::size_t>(i)] += s * v;
  }
  for (const auto& [i, v] : b.cols[static_cast<std::size_t>(
           b.basic[static_cast<std::size_t>(order[2])])]) {
    dense[static_cast<std::size_t>(i)] += t * v;
  }
  column combo;
  for (int i = 0; i < m; ++i) {
    if (dense[static_cast<std::size_t>(i)] != 0.0) {
      combo.push_back({i, dense[static_cast<std::size_t>(i)]});
    }
  }
  b.basic[static_cast<std::size_t>(target)] = static_cast<int>(b.cols.size());
  b.cols.push_back(combo);
  EXPECT_FALSE(f.factorize(b.m, b.basic, b.cols)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuFactor, ::testing::Range(0, 40));

TEST(LuFactorSingular, StructuralSingularitiesAreReported) {
  // Columns: e0, e1, e2, then structurals.
  const std::vector<column> cols = {
      {{0, 1.0}},            // 0: e0
      {{1, 1.0}},            // 1: e1
      {{2, 1.0}},            // 2: e2
      {{0, 2.0}, {1, 3.0}},  // 3: lives on rows e0 and e1 claim
      {},                    // 4: empty
      {{2, 1e-13}},          // 5: a negligible singleton
      {{1, 1.0}, {2, 1.0}},  // 6
      {{1, 2.0}, {2, 2.0}},  // 7: twice column 6
  };
  lu_factor f;
  EXPECT_TRUE(f.factorize(3, {0, 1, 2}, cols));
  EXPECT_FALSE(f.factorize(3, {0, 1, 1}, cols));  // two units on row 1
  EXPECT_FALSE(f.factorize(3, {0, 1, 3}, cols));  // nothing left on row 2
  EXPECT_FALSE(f.factorize(3, {0, 1, 4}, cols));  // an empty column
  EXPECT_FALSE(f.factorize(3, {0, 1, 5}, cols));  // a tiny pivot
  EXPECT_FALSE(f.factorize(3, {0, 6, 7}, cols));  // dependent kernel
  EXPECT_TRUE(f.factorize(3, {6, 0, 2}, cols));
  EXPECT_TRUE(f.factorize(0, {}, cols));
}

TEST(LuFactorSingular, SolveFromASingularBasisFallsBackToTheColdSolve) {
  // A basis holding both the slack and the artificial of row 0 is
  // compatible in shape but singular: the warm solve must restart cold
  // and answer exactly like a cold solve.
  model m;
  const int x = m.add_variable(0.0, 4.0, -1.0, "x");
  const int y = m.add_variable(0.0, 4.0, -1.0, "y");
  m.add_row({{x, 1.0}, {y, 2.0}}, relation::less_equal, 6.0);
  m.add_row({{x, 3.0}, {y, 1.0}}, relation::less_equal, 9.0);
  // Columns: x, y, slacks 2-3, artificials 4-5.
  basis_state singular;
  singular.basic = {2, 4};
  singular.status = {var_status::at_lower, var_status::at_lower,
                     var_status::basic,    var_status::at_lower,
                     var_status::basic,    var_status::at_lower};
  ASSERT_TRUE(singular.compatible(2, 6));

  revised_solver fresh(m, {});
  const auto cold = fresh.solve();
  ASSERT_EQ(cold.status, solve_status::optimal);

  revised_solver solver(m, {});
  const auto res = solver.solve_from(singular);
  EXPECT_TRUE(solver.last_solve_fell_back());
  EXPECT_EQ(res.status, cold.status);
  EXPECT_EQ(res.iterations, cold.iterations);
  EXPECT_EQ(res.objective, cold.objective);
  EXPECT_EQ(res.x, cold.x);
}

}  // namespace
}  // namespace stx::lp
