// Design-service throughput: designs/second through a live xbar-serve
// server at client concurrency 1 / 4 / 16, cold cache vs warm cache
// (BENCH_serve.json, schema stx-bench-serve/v1). Each client connection
// runs its requests on its own server thread; --workers bounds how many
// of them compute a design at once.
//
//   $ ./serve_throughput [--horizon=20000] [--requests=48]
//                        [--workers=4] [--json=BENCH_serve.json]
//
// Each round submits `requests` distinct design requests (the five paper
// apps x a small horizon ladder, so no two requests dedup onto each
// other) from N concurrent client threads over the socket transport:
//   cold — fresh cache directory; every request runs the full staged
//          flow (phase-1 collection, synthesis, validation).
//   warm — same requests against the same directory; every report is
//          served from the content-addressed store without touching the
//          simulator or the solver.
// The cold/warm designs/sec ratio is the headline number: what the
// persistent store buys a design-service deployment.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gen/json.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/error.h"

namespace {

using namespace stx;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The request mix: every paper app across a horizon ladder, encoded as
/// protocol lines. Distinct (app, horizon) pairs → distinct cache keys.
std::vector<std::string> request_mix(int requests, std::int64_t horizon) {
  static const std::vector<std::string> apps = {"mat1", "mat2", "fft",
                                                "qsort", "des"};
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const auto& app = apps[static_cast<std::size_t>(i) % apps.size()];
    // Each wrap of the app list shifts the horizon so requests stay
    // unique (no in-flight dedup within a round).
    const auto h = horizon + 1000 * (i / static_cast<int>(apps.size()));
    lines.push_back("{\"op\":\"design\",\"id\":\"q" + std::to_string(i) +
                    "\",\"app\":\"" + app +
                    "\",\"horizon\":" + std::to_string(h) + "}");
  }
  return lines;
}

struct round_result {
  double seconds = 0.0;
  int completed = 0;
  int store_hits = 0;  ///< responses with source == "store"
};

/// Plays `lines` against the server from `concurrency` client
/// connections (each thread its own socket, requests round-robined) and
/// checks every response.
round_result run_round(const std::string& socket_path,
                       const std::vector<std::string>& lines,
                       int concurrency) {
  std::atomic<int> completed{0}, store_hits{0}, failures{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::string> mine;
      for (std::size_t i = static_cast<std::size_t>(c); i < lines.size();
           i += static_cast<std::size_t>(concurrency)) {
        mine.push_back(lines[i]);
      }
      if (mine.empty()) return;
      try {
        for (const auto& resp_line : serve::request_lines(socket_path, mine)) {
          const auto resp = serve::parse_response(resp_line);
          if (!resp.ok || !resp.report.has_value()) {
            ++failures;
            continue;
          }
          ++completed;
          if (resp.source == "store") ++store_hits;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  round_result r;
  r.seconds = bench::finite_seconds(seconds_since(t0));
  r.completed = completed.load();
  r.store_hits = store_hits.load();
  if (failures.load() > 0) {
    std::fprintf(stderr, "serve_throughput: %d request(s) failed\n",
                 failures.load());
    std::exit(1);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const flag_set flags(argc, argv);
  bench::require_known_flags(
      flags, {"horizon", "requests", "workers", "json", "help"});
  const auto horizon = flags.get_int("horizon", 20'000);
  const int requests = static_cast<int>(flags.get_int("requests", 48));
  const int workers = static_cast<int>(flags.get_int("workers", 4));
  const std::vector<int> concurrencies = {1, 4, 16};

  bench::print_header(
      "Design-service throughput (xbar-serve)",
      "designs/sec at client concurrency 1/4/16, cold vs warm cache; " +
          std::to_string(requests) + " requests, horizon " +
          std::to_string(horizon) + ", " + std::to_string(workers) +
          " workers");

  const auto lines = request_mix(requests, horizon);
  namespace fs = std::filesystem;
  const auto root = fs::temp_directory_path() / "stx-serve-bench";
  fs::remove_all(root);
  fs::create_directories(root);

  gen::json::array results;
  std::printf("%-12s %-6s %12s %12s %10s\n", "phase", "conc", "designs/s",
              "wall_s", "store_hits");
  for (const int conc : concurrencies) {
    // A fresh cache directory per concurrency level: the cold round
    // really is cold, and its warm twin covers exactly its keys.
    const auto cache_dir = root / ("c" + std::to_string(conc));
    const auto socket_path =
        (root / ("s" + std::to_string(conc) + ".sock")).string();
    serve::service::options sopts;
    sopts.workers = workers;
    sopts.queue_depth = requests + 16;
    sopts.cache_dir = cache_dir.string();
    serve::service svc(sopts);
    serve::server srv(svc, socket_path);
    srv.start();

    for (const bool warm : {false, true}) {
      const auto r = run_round(socket_path, lines, conc);
      const double rate = static_cast<double>(r.completed) / r.seconds;
      const double hit_ratio =
          static_cast<double>(r.store_hits) /
          static_cast<double>(std::max(r.completed, 1));
      std::printf("%-12s %-6d %12.1f %12.3f %10d\n",
                  warm ? "warm" : "cold", conc, rate, r.seconds,
                  r.store_hits);
      results.push_back(gen::json::object{
          {"phase", warm ? "warm" : "cold"},
          {"concurrency", conc},
          {"requests", r.completed},
          {"designs_per_sec_nondeterministic", rate},
          {"wall_seconds_nondeterministic", r.seconds},
          {"store_hits", r.store_hits},
          {"store_hit_ratio", hit_ratio},
      });
      if (warm && r.store_hits != r.completed) {
        std::fprintf(stderr,
                     "serve_throughput: warm round expected %d store "
                     "hits, saw %d\n",
                     r.completed, r.store_hits);
        return 1;
      }
    }
    srv.stop();
  }

  const auto json_path = flags.get_string("json", "");
  if (!json_path.empty()) {
    const gen::json::value doc = gen::json::object{
        {"schema", "stx-bench-serve/v1"},
        {"horizon", horizon},
        {"requests", requests},
        {"workers", workers},
        {"results", std::move(results)},
    };
    std::ofstream out(json_path);
    STX_REQUIRE(out.good(), "cannot write " + json_path);
    out << gen::json::dump(doc);
    std::printf("wrote %s\n", json_path.c_str());
  }
  fs::remove_all(root);
  return 0;
}
