// The narrow blob-store interface every result cache is written against:
// get / put / contains / stats over (stxkey -> opaque bytes). Two
// implementations ship — the in-process memory_store and the persistent
// content-addressed disk_store — so whether results survive the process
// is a constructor choice of the consumer (explore::trace_cache,
// serve::service, the CLIs' --cache-dir), never a code path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "explore/cache_key.h"

namespace stx::explore {

class kv_store {
 public:
  /// Activity totals since construction. `corrupt` counts entries that
  /// existed but failed integrity checks and were treated as misses;
  /// `put_failures` counts puts that could not durably publish (write /
  /// fsync / rename failure — the entry is withheld, never published
  /// torn); `tmp_swept` counts orphaned staging files removed when the
  /// store opened (crashed writers leave them behind); `evicted` counts
  /// objects removed to hold the size cap (at open, and by puts that
  /// take the store past it) — all always 0 for the memory store.
  struct kv_stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t puts = 0;
    std::int64_t corrupt = 0;
    std::int64_t put_failures = 0;
    std::int64_t tmp_swept = 0;
    std::int64_t evicted = 0;

    bool operator==(const kv_stats&) const = default;
  };

  virtual ~kv_store() = default;

  /// The stored bytes for `key`, or nullopt on a miss. A present but
  /// unreadable/corrupt entry is a miss (counted in stats().corrupt),
  /// never an error: the caller recomputes and put() overwrites it.
  virtual std::optional<std::string> get(const cache_key& key) = 0;

  /// Stores `value` under `key`, replacing any existing entry. Last
  /// writer wins; concurrent puts of the same key must each leave a
  /// complete, uncorrupted entry.
  virtual void put(const cache_key& key, std::string_view value) = 0;

  /// True when `key` currently resolves (does not count as a hit).
  virtual bool contains(const cache_key& key) = 0;

  virtual kv_stats stats() const = 0;
};

/// In-process map-backed store; thread-safe, contents die with the
/// process. The zero-configuration default backing.
class memory_store final : public kv_store {
 public:
  std::optional<std::string> get(const cache_key& key) override;
  void put(const cache_key& key, std::string_view value) override;
  bool contains(const cache_key& key) override;
  kv_stats stats() const override;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> entries_;  ///< encode(key) -> bytes
  kv_stats stats_;
};

}  // namespace stx::explore
