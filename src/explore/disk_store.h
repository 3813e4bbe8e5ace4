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
//    objects oldest-access-first until the objects/ total fits the cap,
//    and so does every put that takes the store past it — sparing the
//    object that put just wrote. The open-time scan seeds a running byte
//    total that each put updates, so puts under the cap never scan the
//    directory. The total counts this process's puts; objects other
//    processes add are seen by the next scan. Eviction only ever drops
//    cached results — every consumer treats an absent key as a miss and
//    recomputes. Counted in stats().evicted.
//
// Fault injection: put() and get() carry STX_FAILPOINT sites
// (store.put.after_tmp_write, store.put.fsync, store.put.before_rename,
// store.put.after_rename, store.get.read) — see util/failpoint.h.
#pragma once

#include <atomic>
#include <filesystem>
#include <mutex>

#include "explore/kv_store.h"

namespace stx::explore {

class disk_store final : public kv_store {
 public:
  /// Opens (creating if needed) the store rooted at `dir`. Throws
  /// stx::invalid_argument_error when the directories cannot be created.
  /// `max_bytes` caps the objects/ file total: when the existing contents
  /// exceed it, the open evicts oldest-access-first down to the cap, and
  /// so does a put that takes the total past it (0 = unlimited, the
  /// default).
  explicit disk_store(const std::string& dir, std::uint64_t max_bytes = 0);

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
  /// Scans objects/ and evicts oldest-access-first, never the object
  /// named `keep`, until the scanned total is at most max_bytes_; then
  /// reseeds bytes_ with what is left and counts the evictions in
  /// stats(). put() calls it under cap_mu_, the constructor before any
  /// other thread can reach the store. Removal races with concurrent
  /// get()s are benign: a reader that loses its object mid-read sees a
  /// plain miss and recomputes.
  void evict_over_cap(const std::filesystem::path& keep = {});

  std::filesystem::path root_;
  std::uint64_t max_bytes_ = 0;
  std::atomic<std::uint64_t> tmp_seq_{0};
  mutable std::mutex mu_;  ///< guards stats_ only; file ops are lock-free
  kv_stats stats_;
  /// Serialises the cap's bookkeeping and scans (capped stores only).
  std::mutex cap_mu_;
  std::uint64_t bytes_ = 0;  ///< running objects/ total; guarded by cap_mu_
};

}  // namespace stx::explore
