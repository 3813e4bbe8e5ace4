#include "explore/disk_store.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <system_error>
#include <vector>

#include "obs/obs.h"
#include "util/error.h"
#include "util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace stx::explore {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "stxstore/v1";

std::uint64_t process_id() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

/// Reads the whole file; nullopt when it does not exist or cannot be
/// read (both are plain misses at this layer).
std::optional<std::string> slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buf).str();
}

/// Parses the envelope; nullopt on any integrity failure.
std::optional<std::string> extract_payload(const std::string& file,
                                           const std::string& key_line) {
  // Header: three lines plus the blank separator, each ended by '\n'.
  std::size_t pos = 0;
  const auto next_line = [&](std::string& out) {
    const auto nl = file.find('\n', pos);
    if (nl == std::string::npos) return false;
    out = file.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  };
  std::string magic, key_field, bytes_field, blank;
  if (!next_line(magic) || magic != kMagic) return std::nullopt;
  if (!next_line(key_field) || key_field.rfind("key=", 0) != 0) {
    return std::nullopt;
  }
  if (key_field.substr(4) != key_line) return std::nullopt;
  if (!next_line(bytes_field) || bytes_field.rfind("bytes=", 0) != 0) {
    return std::nullopt;
  }
  std::size_t declared = 0;
  try {
    declared = static_cast<std::size_t>(std::stoull(bytes_field.substr(6)));
  } catch (...) {
    return std::nullopt;
  }
  if (!next_line(blank) || !blank.empty()) return std::nullopt;
  if (file.size() - pos != declared) return std::nullopt;
  return file.substr(pos);
}

/// Staging files older than this are stale regardless of their name: a
/// healthy put() renames within milliseconds of creating them.
constexpr auto stale_tmp_age = std::chrono::hours(1);

/// Whether the writer encoded in a staging-file name is still alive.
/// Names are "<hash>.<pid>.<seq>"; nullopt when the name does not parse
/// (foreign file — fall back to the age gate alone).
std::optional<bool> tmp_writer_alive(const std::string& name) {
  const auto first = name.find('.');
  if (first == std::string::npos) return std::nullopt;
  const auto second = name.find('.', first + 1);
  if (second == std::string::npos) return std::nullopt;
  std::uint64_t pid = 0;
  try {
    std::size_t used = 0;
    const auto field = name.substr(first + 1, second - first - 1);
    pid = std::stoull(field, &used);
    if (used != field.size() || pid == 0) return std::nullopt;
  } catch (...) {
    return std::nullopt;
  }
#if defined(__unix__) || defined(__APPLE__)
  if (pid == process_id()) return true;
  // Signal 0 probes existence; EPERM still means "exists".
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
#else
  return std::nullopt;
#endif
}

#if defined(__unix__) || defined(__APPLE__)
/// write()s all of [data, data+size) to fd; false on any error.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const auto n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync()s a directory so a rename into it is durable; false on error.
bool sync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}
#endif

/// Best-effort access time for the eviction order: true atime where the
/// platform exposes one (POSIX stat), otherwise the write time. On
/// relatime/noatime mounts atime degrades toward mtime, which still
/// yields a sane oldest-first order — eviction is a cache policy, not a
/// correctness surface.
std::int64_t access_stamp(const fs::path& p) {
#if defined(__APPLE__)
  struct ::stat st{};
  if (::stat(p.c_str(), &st) == 0) {
    return static_cast<std::int64_t>(st.st_atimespec.tv_sec) *
               1'000'000'000 +
           st.st_atimespec.tv_nsec;
  }
#elif defined(__unix__)
  struct ::stat st{};
  if (::stat(p.c_str(), &st) == 0) {
    return static_cast<std::int64_t>(st.st_atim.tv_sec) * 1'000'000'000 +
           st.st_atim.tv_nsec;
  }
#endif
  std::error_code ec;
  const auto mtime = fs::last_write_time(p, ec);
  if (ec) return 0;
  return static_cast<std::int64_t>(mtime.time_since_epoch().count());
}

}  // namespace

void disk_store::evict_over_cap(const fs::path& keep) {
  struct entry {
    fs::path path;
    std::uint64_t bytes = 0;
    std::int64_t stamp = 0;
  };
  std::vector<entry> entries;
  std::uint64_t total = 0;
  const auto keep_name = keep.filename();
  std::error_code ec;
  for (fs::directory_iterator it(root_ / "objects", ec), end;
       !ec && it != end; it.increment(ec)) {
    std::error_code fec;
    if (!it->is_regular_file(fec)) continue;
    entry e;
    e.path = it->path();
    e.bytes = static_cast<std::uint64_t>(it->file_size(fec));
    if (fec) continue;
    total += e.bytes;
    if (e.path.filename() == keep_name) continue;
    e.stamp = access_stamp(e.path);
    entries.push_back(std::move(e));
  }
  std::int64_t evicted = 0;
  if (total > max_bytes_) {
    // Oldest access first; tie-break on the (hash) filename so the sweep
    // order is stable across runs.
    std::sort(entries.begin(), entries.end(),
              [](const entry& a, const entry& b) {
                if (a.stamp != b.stamp) return a.stamp < b.stamp;
                return a.path.filename() < b.path.filename();
              });
    for (const auto& e : entries) {
      if (total <= max_bytes_) break;
      std::error_code rm;
      if (fs::remove(e.path, rm) && !rm) {
        total -= e.bytes;
        ++evicted;
      }
    }
  }
  bytes_ = total;
  if (evicted > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.evicted += evicted;
    }
    obs::add_counter("store.disk.evicted", evicted);
  }
}

std::int64_t disk_store::sweep_tmp() {
  std::int64_t swept = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (fs::directory_iterator it(root_ / "tmp", ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const auto alive = tmp_writer_alive(it->path().filename().string());
    bool stale = alive.has_value() && !*alive;  // writer is provably dead
    if (!stale) {
      // Live or unknown writer: only the age gate may reclaim it, so an
      // in-flight put() of a running process is never pulled out from
      // under the rename.
      const auto mtime = fs::last_write_time(it->path(), ec);
      stale = !ec && now - mtime > stale_tmp_age;
    }
    if (!stale) continue;
    std::error_code rm;
    if (fs::remove(it->path(), rm) && !rm) ++swept;
  }
  return swept;
}

disk_store::disk_store(const std::string& dir, std::uint64_t max_bytes)
    : root_(dir), max_bytes_(max_bytes) {
  STX_REQUIRE(!dir.empty(), "disk_store: empty cache directory");
  std::error_code ec;
  fs::create_directories(root_ / "objects", ec);
  STX_REQUIRE(!ec, "disk_store: cannot create " +
                       (root_ / "objects").string() + ": " + ec.message());
  fs::create_directories(root_ / "tmp", ec);
  STX_REQUIRE(!ec, "disk_store: cannot create " + (root_ / "tmp").string() +
                       ": " + ec.message());
  // Reclaim staging files orphaned by crashed/killed writers, so tmp/
  // cannot grow without bound across daemon restarts.
  stats_.tmp_swept = sweep_tmp();
  if (stats_.tmp_swept > 0) {
    obs::add_counter("store.disk.tmp_swept", stats_.tmp_swept);
  }
  // Pull the store under its cap and seed the running total that puts
  // keep up to date.
  if (max_bytes_ > 0) evict_over_cap();
}

fs::path disk_store::object_path(const cache_key& key) const {
  return root_ / "objects" / (hash_hex(key) + ".stx");
}

std::optional<std::string> disk_store::get(const cache_key& key) {
  const auto fp = STX_FAILPOINT_ACTION("store.get.read");
  if (fp.kind == failpoint::action_kind::error) {
    // Injected unreadable object: corrupt-as-miss, exactly like a real
    // I/O failure — the caller recomputes, the next put heals.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    ++stats_.corrupt;
    obs::add_counter("store.disk.misses", 1);
    obs::add_counter("store.disk.corrupt", 1);
    return std::nullopt;
  }
  const auto file = slurp(object_path(key));
  if (!file.has_value()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    obs::add_counter("store.disk.misses", 1);
    return std::nullopt;
  }
  auto payload = extract_payload(*file, encode(key));
  if (!payload.has_value()) {
    // Truncated / garbage / hash-collision entry: a miss, never an
    // error. The next put overwrites it with a complete object.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    ++stats_.corrupt;
    obs::add_counter("store.disk.misses", 1);
    obs::add_counter("store.disk.corrupt", 1);
    return std::nullopt;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
  }
  obs::add_counter("store.disk.hits", 1);
  return payload;
}

void disk_store::put(const cache_key& key, std::string_view value) {
  const auto key_line = encode(key);
  // Stage the complete envelope under tmp/ with a per-process unique
  // name, fsync it, then rename into place and fsync the directory:
  // readers see the old object or the new one, never a prefix, and a
  // power loss after put() returns cannot roll the entry back.
  const auto tmp =
      root_ / "tmp" /
      (hash_hex(key) + "." + std::to_string(process_id()) + "." +
       std::to_string(tmp_seq_.fetch_add(1)));
  // Any failure from here on is a put failure: the staged file is
  // removed, nothing is published (or an already-renamed entry of
  // unknown durability is withdrawn), and the caller sees the throw —
  // never a silently torn object.
  const auto fail = [&](const std::string& what) {
    std::error_code rm;
    fs::remove(tmp, rm);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.put_failures;
    }
    obs::add_counter("store.disk.put_failures", 1);
    throw invalid_argument_error("disk_store: " + what);
  };

  // A capped store counts the bytes of the object this put replaces.
  std::uint64_t replaced = 0;
  if (max_bytes_ > 0) {
    std::error_code sec;
    const auto size = fs::file_size(object_path(key), sec);
    if (!sec) replaced = static_cast<std::uint64_t>(size);
  }

  std::string envelope;
  envelope.reserve(value.size() + key_line.size() + 64);
  envelope += kMagic;
  envelope += "\nkey=";
  envelope += key_line;
  envelope += "\nbytes=";
  envelope += std::to_string(value.size());
  envelope += "\n\n";
  envelope += value;

#if defined(__unix__) || defined(__APPLE__)
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot write " + tmp.string());
  bool ok = write_all(fd, envelope.data(), envelope.size());
  const auto torn = STX_FAILPOINT_ACTION("store.put.after_tmp_write");
  if (torn.kind == failpoint::action_kind::torn_write) {
    // Injected torn write: keep only a prefix of the staged bytes. The
    // crash matrix then proves a torn object is never served whole.
    (void)::ftruncate(fd, static_cast<off_t>(envelope.size() / 2));
  } else if (torn.kind == failpoint::action_kind::error) {
    ok = false;
  }
  if (ok) {
    const auto fsf = STX_FAILPOINT_ACTION("store.put.fsync");
    ok = fsf.kind != failpoint::action_kind::error && ::fsync(fd) == 0;
  }
  ::close(fd);
  if (!ok) fail("write/fsync failed for " + tmp.string());
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) fail("cannot write " + tmp.string());
    out.write(envelope.data(), static_cast<std::streamsize>(envelope.size()));
    out.flush();
    if (!out.good()) fail("write failed for " + tmp.string());
  }
#endif
  STX_FAILPOINT("store.put.before_rename");
  std::error_code ec;
  fs::rename(tmp, object_path(key), ec);
  if (ec) fail("cannot publish " + object_path(key).string());
  STX_FAILPOINT("store.put.after_rename");
#if defined(__unix__) || defined(__APPLE__)
  if (!sync_dir(root_ / "objects")) {
    // The rename itself may not survive a power loss: withdraw the
    // entry so "put failed" always implies "not published".
    fs::remove(object_path(key), ec);
    fail("cannot fsync " + (root_ / "objects").string());
  }
#endif
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.puts;
  }
  obs::add_counter("store.disk.puts", 1);
  if (max_bytes_ > 0) {
    std::lock_guard<std::mutex> lock(cap_mu_);
    bytes_ += envelope.size();
    bytes_ -= std::min(bytes_, replaced);
    if (bytes_ > max_bytes_) evict_over_cap(object_path(key));
  }
}

bool disk_store::contains(const cache_key& key) {
  const auto file = slurp(object_path(key));
  return file.has_value() && extract_payload(*file, encode(key)).has_value();
}

kv_store::kv_stats disk_store::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace stx::explore
