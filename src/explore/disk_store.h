// Persistent content-addressed result store: the kv_store that survives
// the process. Phase-1 results (the traces with their full-crossbar
// reference metrics, one object per key), designed-configuration metrics
// and whole flow reports land here keyed by their canonical stxkey/v1
// line, shared by xbargen, xbar-sweep, xbar-fuzz and the xbar-serve
// daemon pointed at the same cache directory.
//
// On-disk layout (all under the cache directory):
//   objects/<16-hex fnv1a of the key line>.stx   one entry per key
//   tmp/                                          atomic-write staging
//
// Entry format — a self-describing envelope so integrity is checkable
// without any external index:
//   stxstore/v1\n
//   key=<stxkey/v1 line>\n
//   bytes=<payload size>\n
//   \n
//   <payload bytes>
//
// Guarantees:
//  * Atomic writes: entries are staged in tmp/ and renamed into place,
//    so readers never observe a half-written object (POSIX rename).
//  * Durable writes: the staged object is fsync()ed before the rename
//    and the objects/ directory is fsync()ed after it, so a power loss
//    after put() returns cannot roll back or tear the entry. A write /
//    fsync / rename failure withholds the object (tmp cleaned up, put
//    throws, stats().put_failures counts it) — never a torn publish.
//  * Corruption tolerance: a truncated, garbage, or wrong-key (hash
//    collision) object is treated as a miss and counted in
//    stats().corrupt; the next put simply overwrites it. Never a crash,
//    never a wrong answer.
//  * Concurrency: safe across threads and across processes (last
//    complete writer wins; both write identical bytes for the same key
//    by construction — results are deterministic in the key).
//  * Self-cleaning: opening the store sweeps tmp/ staging files whose
//    writer process is provably dead (or that are over an hour old), so
//    crashes cannot grow the staging area without bound. Swept files are
//    counted in stats().tmp_swept.
//  * Bounded (opt-in): with a byte cap, opening the store evicts whole
//    objects oldest-access-first until the objects/ total fits the cap.
//    A long-running daemon can additionally opt into a periodic
//    in-process eviction sweep (`sweep_interval_ms`), so the cap holds
//    between opens too. Eviction only ever drops cached results — every
//    consumer treats an absent key as a miss and recomputes. Counted in
//    stats().evicted.
//
// Fault injection: put() and get() carry STX_FAILPOINT sites
// (store.put.after_tmp_write, store.put.fsync, store.put.before_rename,
// store.put.after_rename, store.get.read) — see util/failpoint.h.
#pragma once

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "explore/kv_store.h"

namespace stx::explore {

class disk_store final : public kv_store {
 public:
  /// Opens (creating if needed) the store rooted at `dir`. Throws
  /// stx::invalid_argument_error when the directories cannot be created.
  /// `max_bytes` caps the objects/ payload total: when the existing
  /// contents exceed it, the open evicts oldest-access-first down to the
  /// cap (0 = unlimited, the default). `sweep_interval_ms` > 0 starts a
  /// background thread re-running the eviction sweep every interval, so
  /// a long-running process honors the cap between opens (0 = at open
  /// only, the default).
  explicit disk_store(const std::string& dir, std::uint64_t max_bytes = 0,
                      int sweep_interval_ms = 0);
  ~disk_store() override;  ///< stops the periodic sweep thread, if any

  std::optional<std::string> get(const cache_key& key) override;
  void put(const cache_key& key, std::string_view value) override;
  bool contains(const cache_key& key) override;
  kv_stats stats() const override;

  const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path object_path(const cache_key& key) const;
  /// Removes orphaned tmp/ staging files — writer pid provably dead, or
  /// older than an hour — and returns how many went (stats().tmp_swept).
  std::int64_t sweep_tmp();
  /// Evicts objects oldest-access-first until objects/ totals at most
  /// max_bytes_; returns how many went (stats().evicted). No-op at 0.
  std::int64_t evict_over_cap();

  std::filesystem::path root_;
  std::uint64_t max_bytes_ = 0;
  std::atomic<std::uint64_t> tmp_seq_{0};
  mutable std::mutex mu_;  ///< guards stats_ only; file ops are lock-free
  kv_stats stats_;

  /// Periodic eviction sweep (opt-in). Removal races with concurrent
  /// get()s are benign: a reader that loses its object mid-read sees a
  /// plain miss and recomputes.
  std::mutex sweep_mu_;
  std::condition_variable sweep_cv_;
  bool sweep_stop_ = false;
  std::thread sweep_thread_;
};

}  // namespace stx::explore
