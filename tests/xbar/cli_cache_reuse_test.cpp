// Cross-process cache reuse through the real xbargen binary: a second
// run with the same --cache-dir emits byte-identical artifacts without
// re-running the simulator or the solver (its metrics snapshot contains
// no sim.* / milp.* counters at all), proving the persistent store is
// shared across processes, not just across calls. And the design service
// on the same directory answers the request that names the same knobs —
// none, since the CLI and the protocol start from one default — from the
// store.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include <sys/wait.h>

#include "serve/protocol.h"
#include "serve/service.h"

namespace {

namespace fs = std::filesystem;

const std::string kXbargen = STX_XBARGEN_BIN;

int run(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// filename -> bytes for every regular file under `dir`.
std::map<std::string, std::string> dir_contents(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) {
      out[e.path().filename().string()] = slurp(e.path());
    }
  }
  return out;
}

TEST(CliCacheReuse, SecondRunIsBitIdenticalWithoutSimulatingOrSolving) {
  const auto root = fs::temp_directory_path() / "stx-cli-cache-test";
  fs::remove_all(root);
  fs::create_directories(root);
  const auto cache = (root / "cache").string();
  const auto base = kXbargen +
                    " --app=qsort --horizon=6000 --emit=json,report"
                    " --cache-dir=" + cache;

  // Cold process: computes and fills the store.
  const auto out1 = (root / "out1").string();
  const auto log1 = (root / "run1.log").string();
  ASSERT_EQ(run(base + " --out-dir=" + out1 +
                " --metrics-out=" + (root / "m1.json").string() + " > " +
                log1 + " 2>&1"),
            0)
      << slurp(root / "run1.log");
  EXPECT_NE(slurp(root / "run1.log").find("miss — computed"),
            std::string::npos);
  EXPECT_NE(slurp(root / "m1.json").find("sim.runs"), std::string::npos);

  // Warm process: a brand-new xbargen invocation against the same
  // directory serves the whole report from the store.
  const auto out2 = (root / "out2").string();
  const auto log2 = (root / "run2.log").string();
  ASSERT_EQ(run(base + " --out-dir=" + out2 +
                " --metrics-out=" + (root / "m2.json").string() + " > " +
                log2 + " 2>&1"),
            0)
      << slurp(root / "run2.log");
  EXPECT_NE(slurp(root / "run2.log").find("hit — reused stored design"),
            std::string::npos);

  // Byte-identical artifacts from the two processes.
  const auto first = dir_contents(out1);
  const auto second = dir_contents(out2);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // And the warm process never touched the simulator or a solver: its
  // metrics snapshot has no sim.* / milp.* / synthesis counters at all.
  const auto warm_metrics = slurp(root / "m2.json");
  EXPECT_NE(warm_metrics.find("stx-metrics/v1"), std::string::npos);
  EXPECT_NE(warm_metrics.find("serve.report.store_hits"),
            std::string::npos);
  EXPECT_EQ(warm_metrics.find("sim.runs"), std::string::npos);
  EXPECT_EQ(warm_metrics.find("milp."), std::string::npos);
  EXPECT_EQ(warm_metrics.find("xbar.synth.runs"), std::string::npos);

  fs::remove_all(root);
}

TEST(CliCacheReuse, DaemonRequestWithNoKnobsHitsTheCliDesign) {
  const auto root = fs::temp_directory_path() / "stx-cli-serve-share-test";
  fs::remove_all(root);
  fs::create_directories(root);
  const auto cache = (root / "cache").string();
  const auto log = (root / "run.log").string();
  // No knob flag: xbargen designs at the library defaults.
  ASSERT_EQ(run(kXbargen + " --app=qsort --horizon=6000 --cache-dir=" +
                cache + " > " + log + " 2>&1"),
            0)
      << slurp(log);

  stx::serve::service::options opts;
  opts.workers = 1;
  opts.cache_dir = cache;
  stx::serve::service svc(opts);
  const auto req = stx::serve::parse_request(
      R"({"op":"design","app":"qsort","horizon":6000})");
  const auto resp = svc.run(req.design);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.source, "store");
  fs::remove_all(root);
}

TEST(CliCacheReuse, DifferentOptionsMissTheStore) {
  const auto root = fs::temp_directory_path() / "stx-cli-cache-miss-test";
  fs::remove_all(root);
  fs::create_directories(root);
  const auto cache = (root / "cache").string();
  const auto log = (root / "run.log").string();
  ASSERT_EQ(run(kXbargen + " --app=qsort --horizon=6000 --cache-dir=" +
                cache + " > " + log + " 2>&1"),
            0);
  // Any keyed option change (here the analysis window) is a fresh design.
  ASSERT_EQ(run(kXbargen + " --app=qsort --horizon=6000 --window=300"
                " --cache-dir=" + cache + " > " + log + " 2>&1"),
            0);
  EXPECT_NE(slurp(root / "run.log").find("miss — computed"),
            std::string::npos);
  fs::remove_all(root);
}

}  // namespace
