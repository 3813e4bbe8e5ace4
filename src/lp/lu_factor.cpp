#include "lp/lu_factor.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace stx::lp {

namespace {

std::size_t ix(int i) { return static_cast<std::size_t>(i); }

/// Removes one occurrence of `v` from `list` (order is not kept).
void erase_value(std::vector<int>& list, int v) {
  for (auto& x : list) {
    if (x == v) {
      x = list.back();
      list.pop_back();
      return;
    }
  }
}

}  // namespace

bool lu_factor::factorize(int m, const std::vector<int>& basic,
                          const std::vector<column>& cols) {
  m_ = 0;  // solves are no-ops until the factorization succeeds
  prow_.clear();
  pcol_.clear();
  diag_.clear();
  l_start_.assign(1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_idx_.clear();
  u_val_.clear();
  eta_pos_.clear();
  eta_piv_.clear();
  eta_start_.assign(1, 0);
  eta_idx_.clear();
  eta_val_.clear();
  work_.assign(ix(m), 0.0);
  row_owner_.assign(ix(m), -1);
  kpos_.clear();

  // Singleton columns pivot on their own row, in position order; two of
  // them on one row make B singular.
  for (int p = 0; p < m; ++p) {
    int nonzeros = 0;
    int row = -1;
    double value = 0.0;
    for (const auto& [i, a] : cols[ix(basic[ix(p)])]) {
      if (a == 0.0) continue;
      ++nonzeros;
      row = i;
      value = a;
    }
    if (nonzeros == 0) return false;
    if (nonzeros > 1) {
      kpos_.push_back(p);
      continue;
    }
    if (row_owner_[ix(row)] >= 0 || std::abs(value) < singular_tol) {
      return false;
    }
    row_owner_[ix(row)] = static_cast<int>(prow_.size());
    prow_.push_back(row);
    pcol_.push_back(p);
    diag_.push_back(value);
  }
  singletons_ = static_cast<int>(prow_.size());

  // A singleton step's U row is its row's entries in the kernel columns;
  // the kernel keeps the entries on unclaimed rows. Counted first, so the
  // U rows fill in place (in position order).
  u_start_.assign(ix(singletons_) + 1, 0);
  for (const int p : kpos_) {
    for (const auto& [i, a] : cols[ix(basic[ix(p)])]) {
      if (a != 0.0 && row_owner_[ix(i)] >= 0) {
        ++u_start_[ix(row_owner_[ix(i)]) + 1];
      }
    }
  }
  for (std::size_t t = 0; t < ix(singletons_); ++t) {
    u_start_[t + 1] += u_start_[t];
  }
  u_idx_.resize(ix(u_start_.back()));
  u_val_.resize(ix(u_start_.back()));
  where_.assign(u_start_.begin(), u_start_.end() - 1);  // fill cursors
  kcol_.resize(ix(m));
  krow_.resize(ix(m));
  for (auto& r : krow_) r.clear();
  for (const int p : kpos_) {
    auto& col = kcol_[ix(p)];
    col.clear();
    for (const auto& [i, a] : cols[ix(basic[ix(p)])]) {
      if (a == 0.0) continue;
      const int owner = row_owner_[ix(i)];
      if (owner >= 0) {
        const int at = where_[ix(owner)]++;
        u_idx_[ix(at)] = p;
        u_val_[ix(at)] = a;
      } else {
        col.push_back({i, a});
        krow_[ix(i)].push_back(p);
      }
    }
  }
  where_.assign(ix(m), -1);
  if (!eliminate_kernel()) return false;
  m_ = m;
  return true;
}

/// Right-looking elimination of the kernel in Markowitz order. Active
/// entries live in kcol_ (by column, with values) and krow_ (by row,
/// pattern only); each step moves the pivot column's other entries into
/// L, the pivot row's other entries into U, and subtracts their outer
/// product from the active entries (adding fill where there were none).
bool lu_factor::eliminate_kernel() {
  while (!kpos_.empty()) {
    std::size_t best_k = 0;
    int best_p = -1;
    int best_i = -1;
    double best_a = 0.0;
    long long best_cost = std::numeric_limits<long long>::max();
    for (std::size_t k = 0; k < kpos_.size(); ++k) {
      const int p = kpos_[k];
      const auto& col = kcol_[ix(p)];
      if (col.empty()) return false;  // stays empty: B is singular
      double cmax = 0.0;
      for (const auto& e : col) cmax = std::max(cmax, std::abs(e.second));
      if (cmax < singular_tol) continue;
      const double floor = std::max(singular_tol, threshold * cmax);
      const auto cc = static_cast<long long>(col.size()) - 1;
      for (const auto& [i, a] : col) {
        if (std::abs(a) < floor) continue;
        const long long cost =
            cc * (static_cast<long long>(krow_[ix(i)].size()) - 1);
        // Columns arrive in increasing position order, so a tie goes to
        // this column only against a larger row of the same column.
        if (cost < best_cost ||
            (cost == best_cost && p == best_p && i < best_i)) {
          best_cost = cost;
          best_k = k;
          best_p = p;
          best_i = i;
          best_a = a;
        }
      }
      if (best_cost == 0) break;  // no later column can beat it
    }
    if (best_p < 0) return false;  // every remaining entry is tiny

    const int r = best_i;
    const int p = best_p;
    prow_.push_back(r);
    pcol_.push_back(p);
    diag_.push_back(best_a);
    kpos_.erase(kpos_.begin() + static_cast<std::ptrdiff_t>(best_k));

    const std::size_t l0 = l_idx_.size();
    for (const auto& [i, a] : kcol_[ix(p)]) {
      if (i == r) continue;
      l_idx_.push_back(i);
      l_val_.push_back(a / best_a);
      erase_value(krow_[ix(i)], p);
    }
    kcol_[ix(p)].clear();
    l_start_.push_back(static_cast<int>(l_idx_.size()));

    const std::size_t u0 = u_idx_.size();
    for (const int q : krow_[ix(r)]) {
      if (q == p) continue;
      auto& col = kcol_[ix(q)];
      for (auto& e : col) {
        if (e.first != r) continue;
        u_idx_.push_back(q);
        u_val_.push_back(e.second);
        e = col.back();
        col.pop_back();
        break;
      }
    }
    krow_[ix(r)].clear();
    u_start_.push_back(static_cast<int>(u_idx_.size()));

    for (std::size_t e = u0; e < u_idx_.size(); ++e) {
      const int q = u_idx_[e];
      const double u = u_val_[e];
      auto& col = kcol_[ix(q)];
      for (std::size_t k = 0; k < col.size(); ++k) {
        where_[ix(col[k].first)] = static_cast<int>(k);
      }
      for (std::size_t f = l0; f < l_idx_.size(); ++f) {
        const int i = l_idx_[f];
        const int at = where_[ix(i)];
        if (at >= 0) {
          col[ix(at)].second -= l_val_[f] * u;
        } else {
          col.push_back({i, -(l_val_[f] * u)});
          krow_[ix(i)].push_back(q);
        }
      }
      for (const auto& entry : col) where_[ix(entry.first)] = -1;
    }
  }
  return true;
}

void lu_factor::ftran(std::vector<double>& x) {
  // L (kernel steps only): forward, skipping zero pivot entries.
  for (int t = singletons_; t < m_; ++t) {
    const double xr = x[ix(prow_[ix(t)])];
    if (xr == 0.0) continue;
    const auto k = ix(t - singletons_);
    for (int e = l_start_[k]; e < l_start_[k + 1]; ++e) {
      x[ix(l_idx_[ix(e)])] -= l_val_[ix(e)] * xr;
    }
  }
  // U: backward; each step reads only positions pivoted after it.
  for (int t = m_ - 1; t >= 0; --t) {
    double s = x[ix(prow_[ix(t)])];
    for (int e = u_start_[ix(t)]; e < u_start_[ix(t) + 1]; ++e) {
      s -= u_val_[ix(e)] * work_[ix(u_idx_[ix(e)])];
    }
    work_[ix(pcol_[ix(t)])] = s / diag_[ix(t)];
  }
  x.swap(work_);
  for (std::size_t e = 0; e < eta_pos_.size(); ++e) {
    const auto r = ix(eta_pos_[e]);
    if (x[r] == 0.0) continue;
    const double xr = x[r] / eta_piv_[e];
    x[r] = xr;
    for (int f = eta_start_[e]; f < eta_start_[e + 1]; ++f) {
      x[ix(eta_idx_[ix(f)])] -= eta_val_[ix(f)] * xr;
    }
  }
}

void lu_factor::btran(std::vector<double>& x) {
  for (std::size_t e = eta_pos_.size(); e-- > 0;) {
    const auto r = ix(eta_pos_[e]);
    double s = x[r];
    for (int f = eta_start_[e]; f < eta_start_[e + 1]; ++f) {
      s -= eta_val_[ix(f)] * x[ix(eta_idx_[ix(f)])];
    }
    x[r] = s / eta_piv_[e];
  }
  // U^T: forward, scattering each solved entry into later positions.
  for (int t = 0; t < m_; ++t) {
    const double z = x[ix(pcol_[ix(t)])] / diag_[ix(t)];
    work_[ix(prow_[ix(t)])] = z;
    if (z == 0.0) continue;
    for (int e = u_start_[ix(t)]; e < u_start_[ix(t) + 1]; ++e) {
      x[ix(u_idx_[ix(e)])] -= u_val_[ix(e)] * z;
    }
  }
  // L^T (kernel steps only): backward.
  for (int t = m_ - 1; t >= singletons_; --t) {
    const auto k = ix(t - singletons_);
    double s = work_[ix(prow_[ix(t)])];
    for (int e = l_start_[k]; e < l_start_[k + 1]; ++e) {
      s -= l_val_[ix(e)] * work_[ix(l_idx_[ix(e)])];
    }
    work_[ix(prow_[ix(t)])] = s;
  }
  x.swap(work_);
}

void lu_factor::update(int r, const std::vector<double>& w) {
  eta_pos_.push_back(r);
  eta_piv_.push_back(w[ix(r)]);
  for (int i = 0; i < m_; ++i) {
    if (i == r || w[ix(i)] == 0.0) continue;
    eta_idx_.push_back(i);
    eta_val_.push_back(w[ix(i)]);
  }
  eta_start_.push_back(static_cast<int>(eta_idx_.size()));
}

}  // namespace stx::lp
