#include "testkit/golden.h"

#include "gen/artifact.h"
#include "gen/backends.h"
#include "gen/json.h"
#include "util/error.h"
#include "workloads/mpsoc_apps.h"

namespace stx::testkit {

const std::vector<std::string>& golden_apps() {
  static const std::vector<std::string> apps = {"mat1", "mat2", "fft",
                                                "qsort", "des"};
  return apps;
}

xbar::flow_options golden_options() {
  xbar::flow_options opts;
  // Short enough to keep the regression suite quick, long enough that
  // every app completes iterations and the designs are non-trivial.
  opts.horizon = 30'000;
  opts.synth.params.window_size = 400;
  opts.seed = 1;
  return opts;
}

xbar::flow_report golden_report(const std::string& app_name) {
  auto app = workloads::make_app_by_name(app_name);
  STX_REQUIRE(app.has_value(),
              "unknown golden app '" + app_name + "' (" +
                  workloads::app_name_list() + ")");
  return xbar::run_design_flow(*app, golden_options());
}

std::string golden_json(const xbar::flow_report& report) {
  return gen::emit_json(report);
}

std::string golden_filename(const std::string& app_name) {
  return gen::sanitize_basename(app_name) + ".json";
}

std::vector<std::string> golden_diff(const std::string& expected,
                                     const std::string& actual) {
  gen::json::value want, got;
  try {
    want = gen::json::parse(expected);
  } catch (const std::exception& e) {
    return {std::string("golden snapshot is not valid JSON: ") + e.what()};
  }
  try {
    got = gen::json::parse(actual);
  } catch (const std::exception& e) {
    return {std::string("flow output is not valid JSON: ") + e.what()};
  }
  return gen::json::diff(want, got);
}

}  // namespace stx::testkit
