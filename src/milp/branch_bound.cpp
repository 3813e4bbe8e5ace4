#include "milp/branch_bound.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lp/revised_simplex.h"
#include "milp/presolve.h"
#include "obs/obs.h"
#include "util/error.h"

namespace stx::milp {

const char* to_string(milp_status s) {
  switch (s) {
    case milp_status::optimal: return "optimal";
    case milp_status::feasible: return "feasible";
    case milp_status::infeasible: return "infeasible";
    case milp_status::unbounded: return "unbounded";
    case milp_status::limit: return "limit";
  }
  return "?";
}

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Incumbent bookkeeping: one best integer point, mutated only from the
/// sequential merge step.
struct incumbent_pool {
  bool have = false;
  std::vector<double> x;
  double objective = inf;

  /// Snap integers exactly and keep on strict improvement.
  bool accept(const model& m, const std::vector<double>& raw, double obj,
              double gap_abs) {
    std::vector<double> snapped = raw;
    for (int v = 0; v < m.num_variables(); ++v) {
      if (m.is_integer(v)) {
        snapped[static_cast<std::size_t>(v)] =
            std::round(snapped[static_cast<std::size_t>(v)]);
      }
    }
    if (!have || obj < objective - gap_abs) {
      x = std::move(snapped);
      objective = obj;
      have = true;
      return true;
    }
    return false;
  }

  /// Round-to-nearest heuristic: cheap incumbent seeding.
  bool try_rounding(const model& m, const std::vector<double>& raw,
                    double gap_abs) {
    std::vector<double> rounded = raw;
    for (int v = 0; v < m.num_variables(); ++v) {
      if (!m.is_integer(v)) continue;
      auto& xv = rounded[static_cast<std::size_t>(v)];
      xv = std::round(xv);
      xv = std::clamp(xv, m.relaxation().var(v).lower,
                      m.relaxation().var(v).upper);
    }
    if (m.is_feasible(rounded, 1e-6)) {
      return accept(m, rounded, m.relaxation().objective_value(rounded),
                    gap_abs);
    }
    return false;
  }
};

/// Persistent pool of helper threads for the bulk-synchronous waves.
/// run() executes `fn(w)` on every helper (w = 1..n) and the caller
/// (w = 0) and returns once all of them finished; the internal mutex
/// publishes everything the workers wrote to the coordinator.
class worker_pool {
 public:
  explicit worker_pool(int helpers) {
    threads_.reserve(static_cast<std::size_t>(helpers));
    for (int i = 0; i < helpers; ++i) {
      threads_.emplace_back([this, w = i + 1] { loop(w); });
    }
  }

  ~worker_pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_start_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void run(const std::function<void(int)>& fn) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      work_ = &fn;
      ++generation_;
      busy_ = static_cast<int>(threads_.size());
    }
    cv_start_.notify_all();
    fn(0);
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return busy_ == 0; });
    work_ = nullptr;
  }

 private:
  void loop(int w) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_start_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        job = work_;
      }
      (*job)(w);
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--busy_ == 0) cv_done_.notify_one();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  std::vector<std::thread> threads_;
  const std::function<void(int)>* work_ = nullptr;
  std::uint64_t generation_ = 0;
  int busy_ = 0;
  bool shutdown_ = false;
};

// ===================================================================
// Wave-parallel warm-started branch & bound with a root cut layer.
//
// The coordinator pops a wave of the globally best open nodes (size
// depends on the heap only), workers claim wave slots via an atomic
// cursor (work stealing) and run pure LP solves on per-worker solvers,
// and merge() — sequential, in slot order — performs every state
// mutation. That split is the whole determinism argument: LP solves are
// pure functions of (bounds, warm basis), and everything order-sensitive
// happens in a fixed order that never depends on the thread count.
// ===================================================================
class wave_bb_engine {
 public:
  wave_bb_engine(const model& m, const bb_options& opts)
      : m_(m),
        opts_(opts),
        num_workers_(std::clamp(opts.threads, 1, kMaxThreads)) {
    start_ = std::chrono::steady_clock::now();
    const int n = m_.num_variables();
    root_lo_.resize(static_cast<std::size_t>(n));
    root_hi_.resize(static_cast<std::size_t>(n));
    pc_down_.resize(static_cast<std::size_t>(n));
    pc_up_.resize(static_cast<std::size_t>(n));
    pc_down_n_.assign(static_cast<std::size_t>(n), 0);
    pc_up_n_.assign(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      const auto& vv = m_.relaxation().var(v);
      root_lo_[static_cast<std::size_t>(v)] = vv.lower;
      root_hi_[static_cast<std::size_t>(v)] = vv.upper;
      // Pseudocost initialisation: the objective coefficient is the
      // first-order estimate of the degradation one unit of bound
      // movement causes; +1 keeps zero-cost variables (the feasibility
      // MILP) rankable by fractionality alone.
      pc_down_[static_cast<std::size_t>(v)] = std::abs(vv.objective) + 1.0;
      pc_up_[static_cast<std::size_t>(v)] = std::abs(vv.objective) + 1.0;
    }
  }

  bb_result run() {
    // A solve cancelled before it starts (the portfolio's loser usually
    // is) returns before building and factorizing the root LP.
    if (cancelled()) {
      limit_hit_ = true;
      return assemble();
    }
    // Root solve + cut separation: sequential, on a dedicated solver
    // whose add_row-extended geometry matches a fresh build against the
    // extended model (the basis handshake below relies on it).
    lp::revised_solver sep(m_.relaxation(), lp_options());
    lp::solve_result root_rel = sep.solve();
    ++cold_solves_;
    lp_iterations_ += root_rel.iterations;
    if (root_rel.status == lp::solve_status::optimal && opts_.cuts) {
      separate_root_cuts(sep, root_rel);
    }
    dual_pivots_ += sep.dual_pivots();
    refactorizations_ += sep.factorizations();

    if (root_rel.status != lp::solve_status::optimal) {
      nodes_ = 1;
      if (root_rel.status == lp::solve_status::unbounded) {
        hit_unbounded_ = true;
      } else if (root_rel.status == lp::solve_status::iteration_limit) {
        limit_hit_ = true;
      }
      return assemble();
    }

    // Per-worker solvers against the relaxation + pooled cuts. All of
    // them share column geometry with `sep`, so the separation solver's
    // final basis warm-starts the root node on any worker.
    ext_model_ = m_.relaxation();
    for (const auto& c : cuts_) {
      ext_model_.add_row(c.terms, lp::relation::less_equal, c.rhs);
    }
    workers_.resize(static_cast<std::size_t>(num_workers_));
    for (auto& w : workers_) {
      w.solver = std::make_unique<lp::revised_solver>(ext_model_,
                                                      lp_options());
    }
    if (num_workers_ > 1) {
      pool_ = std::make_unique<worker_pool>(num_workers_ - 1);
    }

    {
      auto root = std::make_shared<node>();
      root->bound = root_rel.objective;
      root->id = next_id_++;
      root->warm = std::make_shared<const lp::basis_state>(sep.last_basis());
      open_.push(std::move(root));
    }

    std::vector<node_ptr> wave;
    std::vector<slot_result> results;
    while (!open_.empty() && !stop_) {
      if (out_of_budget()) {
        limit_hit_ = true;
        break;
      }
      // Wave composition: the best open nodes, pruned against the
      // incumbent as of the wave boundary. Width policy: until an
      // incumbent exists, an optimizing search runs width-1 waves — the
      // plunge is the fastest route to a first incumbent, and breadth
      // before one can never be bound-pruned, only wasted. Once an
      // incumbent bounds the speculation (or under feasibility_only,
      // where breadth IS the hunt and the search stops at the first
      // integer point), the width ramps geometrically (1, 2, 4, ... up
      // to kWaveCap), further capped at half the frontier. Depends on
      // the wave count, the heap, and the incumbent only — never on the
      // thread count.
      const bool speculate = opts_.feasibility_only || incumbent_.have;
      const std::size_t cap = std::min<std::size_t>(
          speculate ? wave_ramp_ : 1,
          std::max<std::size_t>(1, (open_.size() + 1) / 2));
      if (speculate) {
        wave_ramp_ = std::min<std::size_t>(kWaveCap, wave_ramp_ * 2);
      }
      wave.clear();
      while (!open_.empty() && wave.size() < cap) {
        node_ptr nd = open_.top();
        open_.pop();
        if (incumbent_.have && !opts_.feasibility_only &&
            nd->bound >= incumbent_.objective - opts_.gap_abs) {
          continue;  // pruned without an LP solve
        }
        wave.push_back(std::move(nd));
      }
      if (wave.empty()) continue;
      ++waves_;
      results.assign(wave.size(), slot_result{});
      run_wave(wave, results);
      // Sequential merge in slot order; a feasibility stop discards the
      // remaining slots (deterministically — the stop decision depends
      // only on the merged prefix).
      for (std::size_t i = 0; i < wave.size() && !stop_; ++i) {
        merge(wave[i], results[i]);
      }
    }
    return assemble();
  }

 private:
  struct node {
    double bound = -inf;   ///< parent's LP objective: lower bound here
    std::int64_t id = 0;   ///< creation order; larger = newer
    int depth = 0;
    int var = -1;          ///< bound change vs the parent (none at root)
    double lo = 0.0, hi = 0.0;
    bool up = false;              ///< which side of the split this is
    double frac_moved = 0.0;      ///< fractional distance the bound moved
    std::shared_ptr<const node> parent;
    std::shared_ptr<const lp::basis_state> warm;  ///< parent's basis
  };
  using node_ptr = std::shared_ptr<const node>;

  /// Everything one wave slot produces; written by exactly one worker,
  /// read only by the sequential merge.
  struct slot_result {
    lp::solve_result rel;
    std::shared_ptr<const lp::basis_state> basis;  ///< set iff optimal
    bool warm = false;  ///< warm-start succeeded (no internal fallback)
    std::int64_t dual_pivots = 0;
    std::int64_t refactorizations = 0;
  };

  struct worker_state {
    std::unique_ptr<lp::revised_solver> solver;
    std::vector<int> applied;  ///< vars whose bounds differ from root
  };

  /// Min-heap on the bound; ties pop the NEWEST node first — the
  /// deterministic DFS plunge that keeps the warm basis one bound-change
  /// away from the node it is applied to whenever bounds tie (the common
  /// case on the feasibility MILP, where every bound is zero).
  struct node_order {
    bool operator()(const node_ptr& a, const node_ptr& b) const {
      if (a->bound != b->bound) return a->bound > b->bound;
      return a->id < b->id;
    }
  };

  bool cancelled() const {
    return opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_relaxed);
  }

  /// LP knobs for every solver the search builds: the defaults plus the
  /// cancel flag, so a raised flag also stops an LP between pivots.
  lp::solve_options lp_options() const {
    lp::solve_options o;
    o.cancel = opts_.cancel;
    return o;
  }

  bool out_of_budget() const {
    if (nodes_ >= opts_.max_nodes) return true;
    if (cancelled()) return true;
    if (opts_.time_limit_sec > 0.0) {
      const auto elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
      if (elapsed > opts_.time_limit_sec) return true;
    }
    return false;
  }

  // ------------------------------------------------------ cut separation

  /// Scans the model once for the structures cuts come from: knapsack
  /// rows (<= with positive coefficients on binary variables — Eq. 4/8
  /// bandwidth and maxtb rows) and the pairwise conflict graph (2-term
  /// rows that imply x_i + x_j <= 1 — Eq. 5/7 overlap rows).
  void collect_cut_sources() {
    const auto& rel = m_.relaxation();
    const auto binary = [&](int v) {
      return m_.is_integer(v) && rel.var(v).lower >= -1e-9 &&
             rel.var(v).upper <= 1.0 + 1e-9;
    };
    for (int r = 0; r < rel.num_rows(); ++r) {
      const auto& row = rel.constraint(r);
      if (row.rel != lp::relation::less_equal) continue;
      if (row.rhs <= 1e-9 || row.terms.size() < 2) continue;
      bool ok = true;
      double coeff_sum = 0.0;
      for (const auto& t : row.terms) {
        if (t.value <= 1e-9 || !binary(t.var)) {
          ok = false;
          break;
        }
        coeff_sum += t.value;
      }
      if (!ok) continue;
      if (row.terms.size() == 2) {
        const auto& a = row.terms[0];
        const auto& b = row.terms[1];
        if (a.value <= row.rhs + 1e-9 && b.value <= row.rhs + 1e-9 &&
            a.value + b.value > row.rhs + 1e-9) {
          add_conflict_edge(a.var, b.var);
        }
      }
      if (coeff_sum > row.rhs + 1e-9) {
        knapsacks_.push_back({row.terms, row.rhs});
      }
    }
    for (auto& [v, nbrs] : adj_) {
      std::sort(nbrs.begin(), nbrs.end());
      nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    }
  }

  void add_conflict_edge(int a, int b) {
    const int lo = std::min(a, b), hi = std::max(a, b);
    const std::int64_t key =
        static_cast<std::int64_t>(lo) * m_.num_variables() + hi;
    if (!edges_.insert(key).second) return;
    adj_[lo].push_back(hi);
    adj_[hi].push_back(lo);
  }

  bool conflicting(int a, int b) const {
    const int lo = std::min(a, b), hi = std::max(a, b);
    return edges_.count(static_cast<std::int64_t>(lo) * m_.num_variables() +
                        hi) > 0;
  }

  /// One violated-cut candidate: sum over `vars` of x <= rhs.
  struct candidate {
    std::vector<int> vars;  ///< sorted ascending (the canonical key)
    double rhs = 0.0;
    double violation = 0.0;
    std::string key;
  };

  /// All cover + clique cuts violated by `x`, deduplicated against the
  /// pool and each other, most violated first (ties broken on the
  /// canonical member list — fully deterministic). Candidates the
  /// per-round cap drops keep their eligibility for later rounds: only
  /// cuts that actually enter the pool get a permanent dedup key.
  std::vector<candidate> find_violated(const std::vector<double>& x) {
    std::vector<candidate> out;
    std::unordered_set<std::string> round_keys;
    const auto xv = [&](int v) { return x[static_cast<std::size_t>(v)]; };
    const auto emit = [&](std::vector<int> vars, double rhs, double lhs) {
      std::sort(vars.begin(), vars.end());
      auto key = cut_key(vars, rhs);
      if (pooled_cut_keys_.count(key) > 0) return;
      if (!round_keys.insert(key).second) return;
      out.push_back({std::move(vars), rhs, lhs - rhs, std::move(key)});
    };

    // Cover cuts: a greedy x-descending cover of each knapsack row,
    // minimalized from the least fractional end.
    for (const auto& kr : knapsacks_) {
      std::vector<int> ord(kr.items.size());
      for (std::size_t i = 0; i < ord.size(); ++i) {
        ord[i] = static_cast<int>(i);
      }
      std::stable_sort(ord.begin(), ord.end(), [&](int a, int b) {
        const double xa = xv(kr.items[static_cast<std::size_t>(a)].var);
        const double xb = xv(kr.items[static_cast<std::size_t>(b)].var);
        if (xa != xb) return xa > xb;
        return kr.items[static_cast<std::size_t>(a)].var <
               kr.items[static_cast<std::size_t>(b)].var;
      });
      std::vector<int> cover;
      double wsum = 0.0;
      for (const int i : ord) {
        cover.push_back(i);
        wsum += kr.items[static_cast<std::size_t>(i)].value;
        if (wsum > kr.cap + 1e-9) break;
      }
      if (wsum <= kr.cap + 1e-9) continue;  // row admits no cover
      for (int j = static_cast<int>(cover.size()) - 1;
           j >= 0 && cover.size() > 2; --j) {
        const double a =
            kr.items[static_cast<std::size_t>(cover[static_cast<std::size_t>(
                         j)])]
                .value;
        if (wsum - a > kr.cap + 1e-9) {
          wsum -= a;
          cover.erase(cover.begin() + j);
        }
      }
      std::vector<int> vars;
      double lhs = 0.0;
      for (const int i : cover) {
        vars.push_back(kr.items[static_cast<std::size_t>(i)].var);
        lhs += xv(kr.items[static_cast<std::size_t>(i)].var);
      }
      const double rhs = static_cast<double>(cover.size()) - 1.0;
      if (lhs > rhs + kMinViolation) emit(std::move(vars), rhs, lhs);
    }

    // Clique cuts: grow a clique greedily around each active conflict
    // vertex, highest x first; pairwise rows allow each pair sum <= 1
    // but a clique of size >= 3 tightens the whole set to sum <= 1.
    if (!adj_.empty()) {
      std::vector<int> active;
      for (const auto& [v, nbrs] : adj_) {
        if (xv(v) > 1e-6) active.push_back(v);
      }
      std::stable_sort(active.begin(), active.end(), [&](int a, int b) {
        if (xv(a) != xv(b)) return xv(a) > xv(b);
        return a < b;
      });
      for (const int seed : active) {
        std::vector<int> clique{seed};
        double lhs = xv(seed);
        for (const int u : active) {
          if (u == seed) continue;
          bool adjacent_all = true;
          for (const int c : clique) {
            if (!conflicting(u, c)) {
              adjacent_all = false;
              break;
            }
          }
          if (adjacent_all) {
            clique.push_back(u);
            lhs += xv(u);
          }
        }
        if (clique.size() >= 3 && lhs > 1.0 + kMinViolation) {
          emit(std::move(clique), 1.0, lhs);
        }
      }
    }

    std::stable_sort(out.begin(), out.end(),
                     [](const candidate& a, const candidate& b) {
                       if (a.violation != b.violation) {
                         return a.violation > b.violation;
                       }
                       if (a.rhs != b.rhs) return a.rhs < b.rhs;
                       return a.vars < b.vars;
                     });
    const std::size_t room = static_cast<std::size_t>(
        std::max<std::int64_t>(0, kMaxCuts - static_cast<std::int64_t>(
                                                 cuts_.size())));
    if (out.size() > std::min<std::size_t>(room, kMaxCutsPerRound)) {
      out.resize(std::min<std::size_t>(room, kMaxCutsPerRound));
    }
    return out;
  }

  static std::string cut_key(const std::vector<int>& vars, double rhs) {
    std::string key = std::to_string(rhs);
    for (const int v : vars) {
      key += ',';
      key += std::to_string(v);
    }
    return key;
  }

  /// Root separation rounds: find violated cuts against the current
  /// fractional point, append them to the working LP through add_row,
  /// and dual re-solve warm. Updates `rel` to the final root relaxation
  /// (infeasible = the cuts proved the MILP infeasible, which is a valid
  /// conclusion — cuts never remove integer points).
  void separate_root_cuts(lp::revised_solver& sep, lp::solve_result& rel) {
    collect_cut_sources();
    if (knapsacks_.empty() && adj_.empty()) return;
    for (int round = 0;
         round < kCutRounds &&
         static_cast<std::int64_t>(cuts_.size()) < kMaxCuts && !cancelled();
         ++round) {
      const auto found = find_violated(rel.x);
      if (found.empty()) break;
      for (const auto& c : found) {
        bb_cut cut;
        cut.terms.reserve(c.vars.size());
        for (const int v : c.vars) cut.terms.push_back({v, 1.0});
        cut.rhs = c.rhs;
        sep.add_row(cut.terms, lp::relation::less_equal, cut.rhs);
        cuts_.push_back(std::move(cut));
        pooled_cut_keys_.insert(c.key);
      }
      const lp::basis_state warm = sep.last_basis();
      const auto next = sep.solve_from(warm);
      if (sep.last_solve_fell_back()) {
        ++cold_solves_;
      } else {
        ++warm_solves_;
      }
      lp_iterations_ += next.iterations;
      rel = next;
      if (next.status != lp::solve_status::optimal) return;
    }
  }

  /// Asserts the invariant the cut layer is built on: every pooled cut
  /// is a valid inequality, so no accepted incumbent may violate one.
  void check_cuts(const std::vector<double>& x) const {
    for (const auto& c : cuts_) {
      double lhs = 0.0;
      for (const auto& t : c.terms) {
        lhs += t.value * x[static_cast<std::size_t>(t.var)];
      }
      STX_ENSURE(lhs <= c.rhs + 1e-6,
                 "branch & bound incumbent violates a separated cut");
    }
  }

  // ------------------------------------------------------- wave workers

  /// Moves `ws`'s solver bounds from whatever node it last solved to
  /// `nd`'s (reset what the previous chain touched, apply this chain;
  /// child-deepest setting wins within the chain).
  void apply_bounds(worker_state& ws, const node& nd) {
    std::unordered_map<int, std::pair<double, double>> wanted;
    for (const node* cur = &nd; cur != nullptr; cur = cur->parent.get()) {
      if (cur->var < 0) continue;
      wanted.emplace(cur->var, std::make_pair(cur->lo, cur->hi));
    }
    for (const int v : ws.applied) {
      if (wanted.find(v) == wanted.end()) {
        ws.solver->set_bounds(v, root_lo_[static_cast<std::size_t>(v)],
                              root_hi_[static_cast<std::size_t>(v)]);
      }
    }
    ws.applied.clear();
    for (const auto& [v, b] : wanted) {
      ws.solver->set_bounds(v, b.first, b.second);
      ws.applied.push_back(v);
    }
  }

  /// The per-node LP solve: a pure function of (node bounds, warm basis)
  /// — the solver refactorizes fresh on every path and carries no state
  /// between solves — so WHICH worker runs it never matters.
  void solve_node(worker_state& ws, const node& nd, slot_result& out) {
    apply_bounds(ws, nd);
    const std::int64_t dp0 = ws.solver->dual_pivots();
    const std::int64_t rf0 = ws.solver->factorizations();
    if (nd.warm != nullptr) {
      out.rel = ws.solver->solve_from(*nd.warm);
      out.warm = !ws.solver->last_solve_fell_back();
    } else {
      out.rel = ws.solver->solve();
      out.warm = false;
    }
    out.dual_pivots = ws.solver->dual_pivots() - dp0;
    out.refactorizations = ws.solver->factorizations() - rf0;
    if (out.rel.status == lp::solve_status::optimal) {
      // Snapshot now: the solver is reused for other slots before the
      // merge decides whether the children keep this basis.
      out.basis =
          std::make_shared<const lp::basis_state>(ws.solver->last_basis());
    }
  }

  void run_wave(const std::vector<node_ptr>& wave,
                std::vector<slot_result>& results) {
    if (num_workers_ == 1) {
      for (std::size_t i = 0; i < wave.size(); ++i) {
        solve_node(workers_[0], *wave[i], results[i]);
      }
      return;
    }
    next_slot_.store(0, std::memory_order_relaxed);
    pool_->run([&](int w) {
      auto& ws = workers_[static_cast<std::size_t>(w)];
      while (true) {
        const int i = next_slot_.fetch_add(1, std::memory_order_relaxed);
        if (i >= static_cast<int>(wave.size())) break;
        if (i % num_workers_ != w) {
          // A slot claimed off a worker's home stride is a steal —
          // timing-dependent, so it reports to the obs wall section,
          // never into bb_result.
          steals_.fetch_add(1, std::memory_order_relaxed);
        }
        solve_node(ws, *wave[static_cast<std::size_t>(i)],
                   results[static_cast<std::size_t>(i)]);
      }
    });
  }

  // ------------------------------------------------------------- merge

  std::pair<double, double> node_bounds(const node* nd, int v) const {
    for (const node* cur = nd; cur != nullptr; cur = cur->parent.get()) {
      if (cur->var == v) return {cur->lo, cur->hi};
    }
    return {root_lo_[static_cast<std::size_t>(v)],
            root_hi_[static_cast<std::size_t>(v)]};
  }

  void merge(const node_ptr& nd, const slot_result& out) {
    ++nodes_;
    const auto& rel = out.rel;
    lp_iterations_ += rel.iterations;
    dual_pivots_ += out.dual_pivots;
    refactorizations_ += out.refactorizations;
    // An internal cold restart (stale basis, singular factorization)
    // counts as a cold solve: the telemetry must name the engine that
    // actually produced the answer.
    if (out.warm) {
      ++warm_solves_;
    } else {
      ++cold_solves_;
    }

    if (rel.status == lp::solve_status::infeasible) return;
    if (rel.status == lp::solve_status::unbounded) {
      if (nd->depth == 0) {
        hit_unbounded_ = true;
      } else {
        limit_hit_ = true;  // deeper: cannot conclude, treat as limit
      }
      return;
    }
    if (rel.status == lp::solve_status::iteration_limit) {
      limit_hit_ = true;
      return;
    }

    // Pseudocost update: observed objective degradation per unit of
    // fractional distance the branching bound moved.
    if (nd->var >= 0 && nd->bound > -inf &&
        nd->frac_moved > opts_.int_tol) {
      const double gain =
          std::max(0.0, rel.objective - nd->bound) / nd->frac_moved;
      auto& pc = nd->up ? pc_up_ : pc_down_;
      auto& cnt = nd->up ? pc_up_n_ : pc_down_n_;
      const auto sv = static_cast<std::size_t>(nd->var);
      pc[sv] = (pc[sv] * cnt[sv] + gain) / (cnt[sv] + 1);
      ++cnt[sv];
      ++pseudocost_updates_;
    }

    if (incumbent_.have && !opts_.feasibility_only &&
        rel.objective >= incumbent_.objective - opts_.gap_abs) {
      return;  // bound prune on the solved objective
    }
    open_bound_ = std::min(open_bound_, rel.objective);

    // Pseudocost-weighted most-fractional branching: rank fractional
    // integer variables by estimated two-sided degradation; break ties
    // toward higher fractionality, then the smallest index (all
    // deterministic).
    int branch_var = -1;
    double best_score = 0.0;
    double best_dist = 0.0;
    for (int v = 0; v < m_.num_variables(); ++v) {
      if (!m_.is_integer(v)) continue;
      const double xv = rel.x[static_cast<std::size_t>(v)];
      const double f = xv - std::floor(xv);
      const double dist = std::min(f, 1.0 - f);
      if (dist <= opts_.int_tol) continue;
      const double est_down =
          std::max(pc_down_[static_cast<std::size_t>(v)] * f, 1e-6);
      const double est_up =
          std::max(pc_up_[static_cast<std::size_t>(v)] * (1.0 - f), 1e-6);
      const double score = est_down * est_up;
      if (branch_var < 0 || score > best_score + 1e-12 ||
          (score > best_score - 1e-12 && dist > best_dist + 1e-12)) {
        branch_var = v;
        best_score = score;
        best_dist = dist;
      }
    }

    if (branch_var < 0) {
      if (incumbent_.accept(m_, rel.x, rel.objective, opts_.gap_abs)) {
        check_cuts(incumbent_.x);
        // A fresh incumbent is about to prune the frontier: restart the
        // wave ramp so the next waves run near-sequentially instead of
        // speculating past the not-yet-applied bound.
        wave_ramp_ = 1;
      }
      if (opts_.feasibility_only) stop_ = true;
      return;
    }

    if (opts_.rounding_heuristic && !incumbent_.have) {
      if (incumbent_.try_rounding(m_, rel.x, opts_.gap_abs)) {
        check_cuts(incumbent_.x);
      }
      if (incumbent_.have && opts_.feasibility_only) {
        stop_ = true;
        return;
      }
    }

    const double xv = rel.x[static_cast<std::size_t>(branch_var)];
    const double floor_v = std::floor(xv);
    const double ceil_v = floor_v + 1.0;
    const auto [cur_lo, cur_hi] = node_bounds(nd.get(), branch_var);
    const double f = xv - floor_v;

    // Children inherit this node's optimal basis; the heap caps how many
    // snapshots stay alive (beyond that, a child simply cold-solves —
    // correctness never depends on the warm path).
    std::shared_ptr<const lp::basis_state> basis;
    if (open_.size() < kMaxOpenWithBases) basis = out.basis;

    // Push the farther-from-LP-value side first: the nearer side gets
    // the larger id and wins the tie-break, preserving the plunge order
    // under equal bounds.
    const bool up_first = f >= 0.5;
    for (int side = 0; side < 2; ++side) {
      const bool up = (side == 1) == up_first;
      auto child = std::make_shared<node>();
      child->bound = rel.objective;
      child->depth = nd->depth + 1;
      child->var = branch_var;
      child->up = up;
      child->parent = nd;
      child->warm = basis;
      if (up) {
        if (ceil_v > cur_hi + opts_.int_tol) continue;
        child->lo = ceil_v;
        child->hi = cur_hi;
        child->frac_moved = 1.0 - f;
      } else {
        if (floor_v < cur_lo - opts_.int_tol) continue;
        child->lo = cur_lo;
        child->hi = floor_v;
        child->frac_moved = f;
      }
      child->id = next_id_++;
      open_.push(std::move(child));
    }
    max_heap_depth_ = std::max(
        max_heap_depth_, static_cast<std::int64_t>(open_.size()));
  }

  // ------------------------------------------------------------ results

  bb_result assemble() {
    bb_result res;
    res.nodes = nodes_;
    res.lp_iterations = lp_iterations_;
    res.warm_solves = warm_solves_;
    res.cold_solves = cold_solves_;
    res.pseudocost_updates = pseudocost_updates_;
    res.max_heap_depth = max_heap_depth_;
    res.dual_pivots = dual_pivots_;
    res.refactorizations = refactorizations_;
    res.cuts_added = static_cast<std::int64_t>(cuts_.size());
    res.cuts = cuts_;
    res.waves = waves_;
    const bool complete = !limit_hit_ && !stop_;
    if (incumbent_.have && (complete || opts_.feasibility_only)) {
      res.best_bound = incumbent_.objective;
    } else if (!open_.empty()) {
      // Best-bound order: the top of the heap IS the global lower bound
      // over the unexplored frontier.
      res.best_bound = std::min(open_.top()->bound, open_bound_);
    } else {
      res.best_bound = open_bound_;
    }
    if (incumbent_.have) {
      res.x = incumbent_.x;
      res.objective = incumbent_.objective;
      res.status =
          complete ? milp_status::optimal : milp_status::feasible;
      if (opts_.feasibility_only) res.status = milp_status::optimal;
    } else if (hit_unbounded_) {
      res.status = milp_status::unbounded;
    } else if (complete) {
      res.status = milp_status::infeasible;
    } else {
      res.status = milp_status::limit;
    }
    const auto steals = steals_.load(std::memory_order_relaxed);
    if (obs::enabled() && steals > 0) {
      // Count, not seconds: steals are timing-dependent, so they live in
      // the explicitly non-deterministic wall section.
      obs::record_wall("milp.steals", static_cast<double>(steals));
    }
    return res;
  }

  static constexpr std::size_t kMaxOpenWithBases = 65'536;
  static constexpr std::size_t kWaveCap = 16;
  static constexpr int kMaxThreads = 64;
  static constexpr int kCutRounds = 8;
  static constexpr std::int64_t kMaxCuts = 64;
  static constexpr std::size_t kMaxCutsPerRound = 16;
  static constexpr double kMinViolation = 1e-4;

  const model& m_;
  const bb_options& opts_;
  const int num_workers_;
  std::chrono::steady_clock::time_point start_;

  std::vector<double> root_lo_, root_hi_;
  std::vector<double> pc_down_, pc_up_;
  std::vector<std::int64_t> pc_down_n_, pc_up_n_;

  lp::model ext_model_;  ///< relaxation + pooled cuts; workers solve this
  std::vector<worker_state> workers_;
  std::unique_ptr<worker_pool> pool_;
  std::atomic<int> next_slot_{0};
  std::atomic<std::int64_t> steals_{0};

  struct knapsack {
    std::vector<lp::term> items;
    double cap = 0.0;
  };
  std::vector<knapsack> knapsacks_;
  std::unordered_map<int, std::vector<int>> adj_;
  std::unordered_set<std::int64_t> edges_;
  std::unordered_set<std::string> pooled_cut_keys_;
  std::vector<bb_cut> cuts_;

  std::priority_queue<node_ptr, std::vector<node_ptr>, node_order> open_;
  std::int64_t next_id_ = 0;

  std::int64_t nodes_ = 0;
  std::int64_t lp_iterations_ = 0;
  std::int64_t warm_solves_ = 0;
  std::int64_t cold_solves_ = 0;
  std::int64_t pseudocost_updates_ = 0;
  std::int64_t max_heap_depth_ = 0;
  std::int64_t dual_pivots_ = 0;
  std::int64_t refactorizations_ = 0;
  std::int64_t waves_ = 0;
  std::size_t wave_ramp_ = 1;  ///< geometric wave-width ramp (≤ kWaveCap)
  incumbent_pool incumbent_;
  double open_bound_ = inf;
  bool limit_hit_ = false;
  bool stop_ = false;
  bool hit_unbounded_ = false;
};

bb_result solve_impl(const model& m, const bb_options& opts) {
  if (!opts.use_presolve) {
    wave_bb_engine engine(m, opts);
    return engine.run();
  }

  const auto pre = presolve(m);
  if (pre.proven_infeasible) {
    bb_result res;
    res.status = milp_status::infeasible;
    return res;
  }

  if (pre.reduced.num_variables() == 0) {
    // Everything fixed by presolve; validate the point.
    bb_result res;
    const auto x = pre.expand({});
    if (m.is_feasible(x, 1e-6)) {
      res.status = milp_status::optimal;
      res.x = x;
      res.objective = m.relaxation().objective_value(x);
      res.best_bound = res.objective;
    } else {
      res.status = milp_status::infeasible;
    }
    return res;
  }

  wave_bb_engine engine(pre.reduced, opts);
  auto res = engine.run();
  // The engine bounds the reduced objective; the fixed variables' terms
  // complete it to the original one.
  res.best_bound += pre.fixed_objective;
  if (res.status == milp_status::optimal ||
      res.status == milp_status::feasible) {
    res.x = pre.expand(res.x);
    res.objective = m.relaxation().objective_value(res.x);
    STX_ENSURE(m.is_feasible(res.x, 1e-5),
               "branch & bound produced an infeasible incumbent");
  }
  return res;
}

}  // namespace

bb_result solve_branch_bound(const model& m, const bb_options& opts) {
  obs::span sp("milp.solve", {{"vars", m.num_variables()},
                              {"threads", std::clamp(opts.threads, 1, 64)}});
  auto res = solve_impl(m, opts);
  if (obs::enabled() && opts.cancel == nullptr) {
    // Flushed post-hoc from the result so the node loop stays clean; all
    // fields are deterministic for a given model, so the counters stay
    // bit-identical across runs and thread counts. A cancellable solve
    // (portfolio racing) may be truncated at a timing-dependent point,
    // so it must not contribute to the deterministic counter section —
    // its span still lands in the wall-clock trace.
    obs::add_counter("milp.solves", 1);
    obs::add_counter("milp.nodes", res.nodes);
    obs::add_counter("milp.lp_iterations", res.lp_iterations);
    obs::add_counter("milp.warm_solves", res.warm_solves);
    obs::add_counter("milp.cold_solves", res.cold_solves);
    obs::add_counter("milp.pseudocost_updates", res.pseudocost_updates);
    obs::add_counter("milp.cuts", res.cuts_added);
    obs::add_counter("milp.waves", res.waves);
    obs::add_counter("lp.dual_pivots", res.dual_pivots);
    obs::add_counter("lp.refactorizations", res.refactorizations);
    obs::gauge_max("milp.heap_depth_max", res.max_heap_depth);
    sp.set_attr({"status", to_string(res.status)});
    sp.set_attr({"nodes", res.nodes});
  }
  return res;
}

}  // namespace stx::milp
