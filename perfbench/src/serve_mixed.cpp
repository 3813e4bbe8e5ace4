// serve_mixed: an in-process serve::service on a disk_store in a fresh
// directory, behind serve::server on AF_UNIX. A closed loop of 2 client
// connections against 2 service workers (4 threads, the machine's
// vCPUs): each client sends its next request only after the previous
// reply, as the daemon's callers (CLIs, sweep drivers) do. Request i is
// a miss on a fresh seed when i % 10 == 9, else a hit on one of 20 keys
// (5 paper apps x flow seeds 1-4) preloaded during set-up; all at
// horizon 8k.
// obs stays enabled in every pass, because the daemon forces it on.
//
// Host time is speed-scaled (see set_from_repetitions): every 400
// requests, both clients pause with no request in flight and
// speed_scale() is probed once for both; the run is cut into 0.5 s
// slices, and designs_per_s / latency_ms_p50 are the medians over slices
// of the scaled throughput and the scaled median latency.
// The service's trace_cache keeps every miss's phase-1 traces, so RSS
// grows with the misses served; peak_rss_mb is taken when response
// kRssMark completes, a fixed amount of work.
//
// Each client holds one connection for the whole pass, as the daemon's
// callers do (serve::request_lines sends all its lines over one). A
// connection per request would also spawn a server thread per request,
// which the server joins only at stop(): tens of thousands of unjoined
// thread stacks exhaust the process's memory maps, and the server's
// accept loop then aborts the process when it cannot start a thread.
//
// Why: the only workload that reaches the store, the codec, the protocol
// and the server. Hits are reads (get, decode, serialize, transport);
// misses are writes (collect, synthesize, validate, encode, fsync'd
// put). A change that speeds hits by slowing puts, or that makes hits
// queue behind misses, shows up here.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "explore/cache_key.h"
#include "explore/codec.h"
#include "gen/json.h"
#include "harness.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/error.h"
#include "workloads/mpsoc_apps.h"

namespace perfbench {
namespace {

using namespace stx;
namespace fs = std::filesystem;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kSeedsPerApp = 4;
constexpr std::int64_t kMissEvery = 10;
constexpr double kSliceS = 0.5;
constexpr std::int64_t kProbeEvery = 400;  ///< requests between probes
constexpr std::int64_t kRssMark = 4000;
const std::vector<std::string> kApps = {"mat1", "mat2", "fft", "qsort",
                                        "des"};
const int kHitKeys = static_cast<int>(kApps.size()) * kSeedsPerApp;

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string design_line(const std::string& app, std::uint64_t seed,
                        std::int64_t id) {
  return "{\"op\":\"design\",\"id\":\"r" + std::to_string(id) +
         "\",\"app\":\"" + app +
         "\",\"horizon\":8000,\"seed\":" + std::to_string(seed) +
         ",\"window\":400,\"threshold\":0.3,\"maxtb\":4}";
}

/// A client's connection to the server: one request line out, one
/// response line back, in order. Connects on first use and again after a
/// failure; a failed request throws std::runtime_error.
class connection {
 public:
  explicit connection(std::string path) : path_(std::move(path)) {}
  ~connection() { close(); }
  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  std::string request(const std::string& line) {
    try {
      if (fd_ < 0) open();
      send_all(line + "\n");
      return read_line();
    } catch (...) {
      close();
      throw;
    }
  }

 private:
  void open() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path)) {
      errno = ENAMETOOLONG;
      fail("socket path");
    }
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) fail("socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      fail("connect");
    }
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }
  void send_all(const std::string& data) {
    for (std::size_t off = 0; off < data.size();) {
      const auto n = ::send(fd_, data.data() + off, data.size() - off,
                            MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) fail("send");
      off += static_cast<std::size_t>(n);
    }
  }
  std::string read_line() {
    for (std::size_t scanned = 0;;) {
      const auto nl = buf_.find('\n', scanned);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      scanned = buf_.size();
      char chunk[16384];
      const auto n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) errno = ECONNRESET;  // the server closed it
      if (n <= 0) fail("read");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("client " + path_ + ": " + what + ": " +
                             std::strerror(errno));
  }

  std::string path_;
  int fd_ = -1;
  std::string buf_;
};

/// One checked response: when it completed (seconds into the pass), its
/// round trip, and the client's current speed_scale().
struct completion {
  double at_s = 0.0;
  double latency_s = 0.0;
  double scale = 1.0;
};

/// One completed request of a traced pass, kept for the stage replays.
struct sample {
  std::int64_t op = 0;
  bool hit = true;
  std::string line;
  std::string response;
  double rtt_s = 0.0;
};

class serve_mixed final : public workload {
 public:
  explicit serve_mixed(std::string scratch_dir)
      : scratch_(std::move(scratch_dir)) {}
  ~serve_mixed() override { teardown(); }

  bool forces_obs() const override { return true; }
  int traced_ops() const override { return 2000; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    dir_ = fs::path(scratch_) / ("serve-" + std::to_string(::getpid()) +
                                 "-" + std::to_string(setups_++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    serve::service::options so;
    so.workers = kWorkers;
    so.cache_dir = (dir_ / "store").string();
    svc_ = std::make_unique<serve::service>(so);
    socket_ = (dir_ / "s.sock").string();
    srv_ = std::make_unique<serve::server>(*svc_, socket_);
    srv_->start();
    reference_.clear();
    for (int k = 0; k < kHitKeys; ++k) {
      const auto req = serve::parse_request(hit_line(k, -1 - k));
      // The worker body on this thread: set-up time then carries no
      // thread hand-offs, whose wake-up latency swings with machine load.
      const auto resp = svc_->handle(req.design);
      STX_REQUIRE(resp.ok && resp.report.has_value(),
                  "serve_mixed: preload failed: " + resp.error);
      reference_.push_back(explore::encode_report(*resp.report));
    }
  }

  void teardown() override {
    if (srv_ != nullptr) srv_->stop();
    srv_.reset();
    svc_.reset();
    if (!dir_.empty()) fs::remove_all(dir_);
    dir_.clear();
  }

  pass_result run(double seconds, int ops, tracer* tr) override {
    pass_result out;
    std::mutex mu;  // guards out, the accumulators and samples below
    obs::latency_accumulator hit_lat;
    obs::latency_accumulator miss_lat;
    std::vector<sample> samples;
    std::vector<completion> done;
    std::int64_t report_bytes = 0;

    const auto before = obs_counts();
    std::atomic<std::int64_t> next{0};
    // The speed probe runs only while no request is in flight. Taking
    // request index k * kProbeEvery makes a probe due; each client meets
    // the other at the barrier once its current reply is in, and the
    // barrier's completion step probes once before either sends again.
    // A client that ends drops out of the barrier.
    std::atomic<std::int64_t> probes_due{1};
    double shared_scale = 1.0;
    std::barrier probe_point(kClients,
                             [&]() noexcept { shared_scale = speed_scale(); });
    obs::stopwatch sw;
    const auto client = [&] {
      connection conn(socket_);
      double scale = 1.0;
      for (std::int64_t probes_seen = 0;;) {
        if (probes_due.load() > probes_seen) {
          ++probes_seen;
          probe_point.arrive_and_wait();
          scale = shared_scale;
        }
        const std::int64_t i = next.fetch_add(1);
        if (ops > 0 ? i >= ops : sw.seconds() >= seconds) {
          probe_point.arrive_and_drop();
          return;
        }
        if (i > 0 && i % kProbeEvery == 0) probes_due.fetch_add(1);
        const bool hit = i % kMissEvery != kMissEvery - 1;
        const int key = hit ? hit_key(i) : -1;
        sample s{i, hit, hit ? hit_line(key, i) : miss_line(i), "", 0.0};
        std::string why;
        std::int64_t bytes = 0;
        try {
          obs::stopwatch op_sw;
          {
            scoped_span sp(tr, hit ? "serve.rtt_hit" : "serve.rtt_miss", i);
            s.response = conn.request(s.line);
          }
          s.rtt_s = op_sw.seconds();
          why = check(serve::parse_response(s.response), key, &bytes);
        } catch (const std::exception& e) {
          why = e.what();
        }
        std::lock_guard<std::mutex> lock(mu);
        ++out.attempted;
        if (!why.empty()) {
          out.fail("request " + std::to_string(i) + ": " + why);
          continue;
        }
        (hit ? hit_lat : miss_lat).record(s.rtt_s);
        done.push_back({sw.seconds(), s.rtt_s, scale});
        if (static_cast<std::int64_t>(done.size()) == kRssMark) {
          out.peak_rss_mb = peak_rss_mb();
        }
        report_bytes += bytes;
        if (tr != nullptr) samples.push_back(std::move(s));
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
    for (auto& t : clients) t.join();
    out.elapsed_s = sw.seconds();
    set_from_slices(done, out);

    add_obs_counts(before, obs_counts(), out);
    out.counts["explore.report_bytes"] = static_cast<double>(report_bytes);
    read_live_gauges(out);
    if (hit_lat.count() > 0 && miss_lat.count() > 0) {
      const std::vector<std::pair<std::string, double>> split = {
          {"hit_ms_p50", hit_lat.median_seconds() * 1e3},
          {"hit_ms_p99", hit_lat.percentile_seconds(0.99) * 1e3},
          {"miss_ms_p50", miss_lat.median_seconds() * 1e3},
      };
      for (const auto& [name, ms] : split) {
        out.extra.push_back({name, {ms, "ms"}});
        out.layer["serve." + name] = ms;
      }
      out.extra.push_back(
          {"hits", {static_cast<double>(hit_lat.count()), "count"}});
      out.extra.push_back(
          {"misses", {static_cast<double>(miss_lat.count()), "count"}});
    }
    if (tr != nullptr) replay(samples, *tr, out);
    return out;
  }

 private:
  /// Per full slice: throughput divided by the slice's median speed
  /// scale, and the median speed-scaled latency; reports the median of
  /// each over the slices.
  static void set_from_slices(const std::vector<completion>& done,
                              pass_result& out) {
    out.latency_samples = static_cast<std::int64_t>(done.size());
    struct slice_t {
      obs::latency_accumulator latency;
      obs::latency_accumulator scale;
    };
    std::map<std::int64_t, slice_t> slices;
    double last = 0.0;
    for (const auto& c : done) last = std::max(last, c.at_s);
    for (const auto& c : done) {
      const auto slice = static_cast<std::int64_t>(c.at_s / kSliceS);
      if (static_cast<double>(slice + 1) * kSliceS > last) continue;
      slices[slice].latency.record(c.latency_s * c.scale);
      slices[slice].scale.record(c.scale);
    }
    obs::latency_accumulator rate;
    obs::latency_accumulator median;
    for (const auto& [index, s] : slices) {
      rate.record(static_cast<double>(s.latency.count()) / kSliceS /
                  s.scale.median_seconds());
      median.record(s.latency.median_seconds());
    }
    if (rate.count() == 0) return;
    out.designs_per_s = rate.median_seconds();
    out.latency_ms_p50 = median.median_seconds() * 1e3;
  }

  int hit_key(std::int64_t i) const {
    return static_cast<int>(mix(seed_ * 1'000'003ULL +
                                static_cast<std::uint64_t>(i)) %
                            static_cast<std::uint64_t>(kHitKeys));
  }
  /// Hit keys use flow seeds 1-4 whatever the run seed: set-up computes
  /// them, and cold-design cost varies with the flow seed, so set-up time
  /// would otherwise vary with the run seed. The run seed still picks the
  /// order of hits and the misses' flow seeds.
  std::string hit_line(int key, std::int64_t id) const {
    const auto& app = kApps[static_cast<std::size_t>(key) % kApps.size()];
    const auto seed = 1 + static_cast<std::uint64_t>(key) / kApps.size();
    return design_line(app, seed, id);
  }
  std::string miss_line(std::int64_t i) const {
    const auto& app = kApps[static_cast<std::size_t>(i / kMissEvery) %
                            kApps.size()];
    return design_line(app, seed_ * 100'000 + 1000 +
                                static_cast<std::uint64_t>(i),
                       i);
  }

  /// A hit must come from the store, byte-identical (by encode_report) to
  /// the report computed for its key during set-up; a miss must have been
  /// computed. Either must pass check_report.
  std::string check(const serve::design_response& resp, int key,
                    std::int64_t* bytes) const {
    if (!resp.ok || !resp.report.has_value()) return "error: " + resp.error;
    const bool hit = key >= 0;
    if (resp.source != (hit ? "store" : "computed")) {
      return std::string(hit ? "hit" : "miss") + " served from '" +
             resp.source + "'";
    }
    if (hit && explore::encode_report(*resp.report) !=
                   reference_[static_cast<std::size_t>(key)]) {
      return "hit report differs from the set-up report";
    }
    return check_report(*resp.report, bytes);
  }

  /// Saturation gauges and shedding counters, read through the metrics op.
  void read_live_gauges(pass_result& out) const {
    const auto doc = gen::json::parse(
        serve::request_line(socket_, "{\"op\":\"metrics\",\"id\":\"m\"}"));
    const auto& metrics = doc.at("metrics");
    const auto read = [&](const char* section, const std::string& name) {
      const auto& sec = metrics.at(section);
      return sec.contains(name) ? static_cast<double>(sec.at(name).as_int())
                                : 0.0;
    };
    out.layer["serve.queue_depth_max"] =
        read("gauges", "serve.queue_depth_max");
    out.layer["serve.in_flight_max"] = read("gauges", "serve.in_flight_max");
    out.layer["serve.coalesced"] = read("counters", "serve.coalesced");
    out.layer["serve.rejected"] = read("counters", "serve.rejected");
  }

  /// Replays each request's stages through their public functions, as
  /// spans sharing the request's op id. Hits: parse_request,
  /// service::handle, cached_design, kv_store::get, decode_report,
  /// serialize, parse_response; transport self time = RTT minus
  /// parse_request, handle and serialize (the RTT ends when the reply
  /// line is read, before the client parses it). Misses: encode_report,
  /// kv_store::put (fsync'd), collect_traces, validate_design.
  void replay(const std::vector<sample>& samples, tracer& tr,
              pass_result& out) {
    obs::latency_accumulator transport;
    for (const auto& s : samples) {
      const auto timed = [&](const char* name, const auto& fn) {
        scoped_span sp(&tr, name, s.op, -1, true);
        obs::stopwatch t;
        fn();
        return t.seconds();
      };
      serve::request req;
      double stages = timed("serve.parse_request",
                            [&] { req = serve::parse_request(s.line); });
      const auto& d = req.design;
      const auto app = workloads::make_app_by_name(d.app);
      STX_REQUIRE(app.has_value(), "unknown app " + d.app);
      const auto key = explore::report_key(d.app, d.opts, d.validate);
      if (s.hit) {
        serve::design_response resp;
        stages += timed("serve.handle_hit", [&] { resp = svc_->handle(d); });
        if (resp.source != "store") out.fail("replayed hit not from store");
        timed("explore.cached_design_hit", [&] {
          serve::cached_design(*app, d.app, d.opts, d.validate, svc_->cache(),
                               &svc_->store());
        });
        std::optional<std::string> blob;
        timed("explore.store_get", [&] { blob = svc_->store().get(key); });
        if (!blob.has_value()) {
          out.fail("replayed store get missed");
          continue;
        }
        timed("explore.decode_report",
              [&] { explore::decode_report(*blob); });
        stages += timed("serve.serialize", [&] { serve::serialize(resp); });
        timed("serve.parse_response",
              [&] { serve::parse_response(s.response); });
        transport.record(s.rtt_s - stages);
      } else {
        const auto resp = serve::parse_response(s.response);
        std::string blob;
        timed("explore.encode_report",
              [&] { blob = explore::encode_report(*resp.report); });
        timed("explore.store_put", [&] { svc_->store().put(key, blob); });
        timed("sim.collect", [&] { xbar::collect_traces(*app, d.opts); });
        auto report = *resp.report;
        timed("sim.validate", [&] {
          xbar::validate_design(*app, d.opts, std::nullopt, report);
        });
        if (!(report == *resp.report)) {
          out.fail("replayed validation differs for request " +
                   std::to_string(s.op));
        }
      }
    }
    if (transport.count() > 0) {
      out.layer["serve.transport_hit_us"] = transport.median_seconds() * 1e6;
    }
  }

  std::string scratch_;
  std::uint64_t seed_ = 1;
  int setups_ = 0;
  fs::path dir_;
  std::string socket_;
  std::unique_ptr<serve::service> svc_;
  std::unique_ptr<serve::server> srv_;
  std::vector<std::string> reference_;  ///< encode_report per hit key
};

}  // namespace

std::unique_ptr<workload> make_serve_mixed(const std::string& scratch_dir) {
  return std::make_unique<serve_mixed>(scratch_dir);
}

}  // namespace perfbench
