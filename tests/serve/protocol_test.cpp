// The xbar-serve wire protocol: request parsing (defaults, overrides,
// scenario canonicalization, strict rejection) and the exact
// response round-trip that makes warm answers byte-identical.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include "explore/codec.h"
#include "gen/json.h"
#include "testkit/scenario.h"
#include "util/error.h"
#include "workloads/mpsoc_apps.h"
#include "workloads/synthetic.h"
#include "xbar/flow.h"

namespace stx::serve {
namespace {

TEST(Protocol, MinimalAppRequestGetsFlowDefaults) {
  const auto req =
      parse_request(R"({"op":"design","id":"r1","app":"mat2"})");
  EXPECT_EQ(req.op, request_op::design);
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.design.app, "mat2");
  EXPECT_TRUE(req.design.scenario.empty());
  EXPECT_TRUE(req.design.validate);
  EXPECT_TRUE(req.design.artifacts.empty());
  const xbar::flow_options defaults;
  EXPECT_EQ(req.design.opts.horizon, defaults.horizon);
  EXPECT_EQ(req.design.opts.synth.params.window_size,
            defaults.synth.params.window_size);
}

TEST(Protocol, OptionFieldsOverrideTheDefaults) {
  const auto req = parse_request(
      R"({"op":"design","app":"fft","horizon":9000,"window":250,)"
      R"("threshold":0.4,"maxtb":3,"policy":"fixed_priority",)"
      R"("solver":"milp","solver_node_limit":5000,"solver_time_ms":1500,)"
      R"("solver_threads":4,"solver_cuts":false,"solver_portfolio":true,)"
      R"("validate":false,"artifacts":["sv","dot"]})");
  const auto& d = req.design;
  EXPECT_EQ(d.opts.horizon, 9'000);
  EXPECT_EQ(d.opts.synth.params.window_size, 250);
  EXPECT_DOUBLE_EQ(d.opts.synth.params.overlap_threshold, 0.4);
  EXPECT_EQ(d.opts.synth.params.max_targets_per_bus, 3);
  EXPECT_EQ(d.opts.policy, sim::arbitration::fixed_priority);
  EXPECT_EQ(d.opts.synth.solver, xbar::solver_kind::generic_milp);
  EXPECT_EQ(d.opts.synth.limits.max_nodes, 5'000);
  EXPECT_DOUBLE_EQ(d.opts.synth.limits.time_limit_sec, 1.5);
  EXPECT_EQ(d.opts.synth.limits.threads, 4);
  EXPECT_FALSE(d.opts.synth.limits.cuts);
  EXPECT_TRUE(d.opts.synth.limits.portfolio);
  EXPECT_FALSE(d.validate);
  EXPECT_EQ(d.artifacts, (std::vector<std::string>{"sv", "dot"}));
}

TEST(Protocol, ScenarioRequestsCanonicalizeAndDefaultFromTheScenario) {
  // A partial token: omitted keys take the scenario defaults, and the
  // parsed request carries the canonical (fully spelled) encoding so
  // every spelling of one scenario shares one cache identity.
  const std::string token = "stxfuzz/v1 seed=7 ini=3 tgt=3";
  const auto canonical = testkit::encode(testkit::decode(token));
  ASSERT_NE(canonical, token);

  const auto req = parse_request(
      R"({"op":"design","scenario":")" + token + R"("})");
  EXPECT_EQ(req.design.scenario, canonical);
  EXPECT_TRUE(req.design.app.empty());
  // Flow options come from the scenario, not from xbar::flow_options{}.
  const auto s = testkit::decode(token);
  EXPECT_EQ(req.design.opts.horizon, s.make_flow_options().horizon);

  // Explicit fields still override on top of the scenario's options.
  const auto over = parse_request(
      R"({"op":"design","scenario":")" + token + R"(","horizon":12345})");
  EXPECT_EQ(over.design.opts.horizon, 12'345);
  EXPECT_EQ(over.design.scenario, canonical);
}

TEST(Protocol, NonDesignOpsParseWithoutDesignFields) {
  EXPECT_EQ(parse_request(R"({"op":"ping","id":"p"})").op, request_op::ping);
  EXPECT_EQ(parse_request(R"({"op":"metrics"})").op, request_op::metrics);
  EXPECT_EQ(parse_request(R"({"op":"trace"})").op, request_op::trace);
  EXPECT_EQ(parse_request(R"({"op":"shutdown"})").op, request_op::shutdown);
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request("this is not json"), std::exception);
  EXPECT_THROW(parse_request(R"(["not","an","object"])"),
               invalid_argument_error);
  EXPECT_THROW(parse_request(R"({"id":"x"})"), invalid_argument_error);
  EXPECT_THROW(parse_request(R"({"op":"dance"})"), invalid_argument_error);
  // Exactly one of app / scenario.
  EXPECT_THROW(parse_request(R"({"op":"design"})"), invalid_argument_error);
  EXPECT_THROW(
      parse_request(
          R"({"op":"design","app":"mat2","scenario":"stxfuzz/v1 seed=1"})"),
      invalid_argument_error);
  // Unknown fields are errors, never silently ignored.
  EXPECT_THROW(parse_request(R"({"op":"design","app":"mat2","horizn":1})"),
               invalid_argument_error);
  // Out-of-range or unknown option values.
  EXPECT_THROW(
      parse_request(
          R"({"op":"design","app":"mat2","solver_node_limit":0})"),
      invalid_argument_error);
  EXPECT_THROW(
      parse_request(R"({"op":"design","app":"mat2","solver_time_ms":-5})"),
      invalid_argument_error);
  EXPECT_THROW(parse_request(R"({"op":"design","app":"mat2","solver":"z3"})"),
               invalid_argument_error);
  EXPECT_THROW(
      parse_request(R"({"op":"design","app":"mat2","policy":"coin_flip"})"),
      invalid_argument_error);
  EXPECT_THROW(parse_request(R"({"op":"design","scenario":"garbage"})"),
               invalid_argument_error);
}

TEST(Protocol, RejectsFlowKnobsNoFlowCanRun) {
  // flow_options::validate runs at parse time, so these are error
  // responses before admission, not simulations that fail (or, for
  // one-cycle burst windows, run for seconds) on a worker.
  for (const char* fields :
       {R"("horizon":0)", R"("window":0)", R"("window":-5,"burst_window":100)",
        R"("threshold":-0.1)", R"("threshold":1e999)",
        R"("burst_window":-1)"}) {
    const auto line =
        std::string(R"({"op":"design","app":"fft",)") + fields + "}";
    EXPECT_THROW(parse_request(line), invalid_argument_error) << line;
  }
  EXPECT_THROW(parse_request(R"({"op":"design","scenario":"stxfuzz/v1 seed=1",)"
                             R"("window":0})"),
               invalid_argument_error);
  // The boundary values are valid.
  const auto edge = parse_request(
      R"({"op":"design","app":"fft","horizon":1,"window":1,"threshold":0,)"
      R"("burst_window":0})");
  EXPECT_EQ(edge.design.opts.horizon, 1);
}

TEST(Protocol, RejectsIntegersThatDoNotFitAnInt) {
  // These fields land in an `int`; a wider value must not wrap into a
  // different, valid one (2^32 + 1 would read as 1, 2^31 as INT_MIN).
  for (const char* field : {"maxtb", "solver_threads"}) {
    SCOPED_TRACE(field);
    for (const char* value : {"4294967297", "2147483648", "-2147483649"}) {
      const auto line = std::string(R"({"op":"design","app":"mat2",")") +
                        field + "\":" + value + "}";
      EXPECT_THROW(parse_request(line), invalid_argument_error) << line;
    }
  }
  EXPECT_THROW(
      parse_request(
          R"({"op":"design","scenario":"stxfuzz/v1 seed=1 tgt=4294967299"})"),
      invalid_argument_error);
  const auto widest = parse_request(
      R"({"op":"design","app":"mat2","maxtb":2147483647,)"
      R"("solver_threads":2147483647})");
  EXPECT_EQ(widest.design.opts.synth.params.max_targets_per_bus, 2147483647);
  EXPECT_EQ(widest.design.opts.synth.limits.threads, 2147483647);
}

TEST(Protocol, DesignResponseRoundTripsByteExactly) {
  workloads::synthetic_params params;
  params.num_cores = 8;
  const auto app = workloads::make_synthetic(params);
  xbar::flow_options opts;
  opts.horizon = 8'000;

  design_response resp;
  resp.id = "r9";
  resp.ok = true;
  resp.app_id = app.name;
  resp.source = "computed";
  resp.elapsed_ms = 12.625;  // binary-exact double survives %.17g
  resp.report = xbar::run_design_flow(app, opts);
  gen::artifact art;
  art.backend = "report";
  art.filename = "design.md";
  art.content = "# line one\nline \"two\"\n";
  resp.artifacts.push_back(art);

  const auto line = serialize(resp);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line on the wire

  const auto back = parse_response(line);
  EXPECT_EQ(back.id, "r9");
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.app_id, resp.app_id);
  EXPECT_EQ(back.source, "computed");
  EXPECT_EQ(back.elapsed_ms, resp.elapsed_ms);
  ASSERT_TRUE(back.report.has_value());
  EXPECT_EQ(*back.report, *resp.report);  // field-exact, doubles included
  ASSERT_EQ(back.artifacts.size(), 1u);
  EXPECT_EQ(back.artifacts[0].backend, art.backend);
  EXPECT_EQ(back.artifacts[0].filename, art.filename);
  EXPECT_EQ(back.artifacts[0].content, art.content);
  // The whole loop is byte-stable: re-serializing reproduces the line.
  EXPECT_EQ(serialize(back), line);
}

TEST(Protocol, ResponseEmbedsTheStoredReportMinified) {
  // For every built-in app: the wire line carries the stored report form
  // (encode_report), minified, and the client gets back the same report
  // and artifacts.
  for (const auto& name : workloads::app_names()) {
    SCOPED_TRACE(name);
    const auto app = workloads::make_app_by_name(name);
    ASSERT_TRUE(app.has_value());
    xbar::flow_options opts;
    opts.horizon = 3'000;
    design_response resp;
    resp.id = "w-" + name;
    resp.ok = true;
    resp.app_id = name;
    resp.source = "store";
    resp.elapsed_ms = 0.5;
    resp.report = xbar::run_design_flow(*app, opts);
    resp.artifacts = xbar::generate_artifacts(*resp.report, {});
    ASSERT_FALSE(resp.artifacts.empty());

    const auto line = serialize(resp);
    const auto stored = gen::json::dump_compact(
        gen::json::parse(explore::encode_report(*resp.report)));
    EXPECT_NE(line.find("\"report\":" + stored + ",\"artifacts\":["),
              std::string::npos);

    const auto back = parse_response(line);
    ASSERT_TRUE(back.report.has_value());
    EXPECT_EQ(*back.report, *resp.report);
    ASSERT_EQ(back.artifacts.size(), resp.artifacts.size());
    for (std::size_t i = 0; i < resp.artifacts.size(); ++i) {
      EXPECT_EQ(back.artifacts[i].backend, resp.artifacts[i].backend);
      EXPECT_EQ(back.artifacts[i].filename, resp.artifacts[i].filename);
      EXPECT_EQ(back.artifacts[i].content, resp.artifacts[i].content);
    }
  }
}

TEST(Protocol, DeeplyNestedRequestIsRejected) {
  EXPECT_THROW(parse_request(std::string(200'000, '[')),
               invalid_argument_error);
  EXPECT_THROW(parse_request(R"({"op":"ping","id":)" +
                             std::string(300, '[') + std::string(300, ']') +
                             "}"),
               invalid_argument_error);
}

TEST(Protocol, ErrorAndSimpleResponses) {
  const auto err = parse_response(serialize_error("r2", "queue full"));
  EXPECT_EQ(err.id, "r2");
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.error, "queue full");

  const auto pong = serialize_simple("p1", request_op::ping);
  EXPECT_NE(pong.find("\"op\":\"ping\""), std::string::npos);
  EXPECT_NE(pong.find("\"ok\":true"), std::string::npos);
  const auto metrics = serialize_simple(
      "m1", request_op::metrics, R"({"schema":"stx-metrics/v1"})");
  EXPECT_NE(metrics.find("\"metrics\":{\"schema\":\"stx-metrics/v1\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace stx::serve
