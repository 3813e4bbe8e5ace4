// Unit tests for the fuzzing scenario model: sampling, expansion,
// encode/decode round-trips.
#include "testkit/scenario.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace stx::testkit {
namespace {

TEST(Scenario, EncodeDecodeRoundTripsDefaults) {
  const scenario s;
  EXPECT_EQ(decode(encode(s)), s);
}

TEST(Scenario, EncodeDecodeRoundTripsSampled) {
  rng r(99);
  for (int k = 0; k < 200; ++k) {
    rng child = r.split(static_cast<std::uint64_t>(k));
    const auto s = sample_scenario(child);
    const auto line = encode(s);
    EXPECT_EQ(decode(line), s) << line;
    // One line, no embedded whitespace surprises.
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
}

TEST(Scenario, SamplingIsDeterministic) {
  rng a(7), b(7);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(sample_scenario(a), sample_scenario(b));
  }
}

TEST(Scenario, SampledAppsValidateAndMatchShape) {
  rng r(5);
  for (int k = 0; k < 50; ++k) {
    const auto s = sample_scenario(r);
    const auto app = s.make_app();
    EXPECT_EQ(app.num_initiators, s.num_initiators);
    EXPECT_EQ(app.num_targets, s.num_targets);
    EXPECT_NO_THROW(app.validate());
  }
}

TEST(Scenario, MakeAppIsAPureFunctionOfTheRecord) {
  rng r(11);
  const auto s = sample_scenario(r);
  const auto a = s.make_app();
  const auto b = s.make_app();
  ASSERT_EQ(a.programs.size(), b.programs.size());
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    ASSERT_EQ(a.programs[i].size(), b.programs[i].size());
    for (std::size_t p = 0; p < a.programs[i].size(); ++p) {
      EXPECT_EQ(a.programs[i][p].target, b.programs[i][p].target);
      EXPECT_EQ(a.programs[i][p].op, b.programs[i][p].op);
    }
  }
}

TEST(Scenario, CriticalCoresMarkTheirHomeStreams) {
  scenario s;
  s.critical_cores = 2;
  s.num_initiators = 4;
  const auto app = s.make_app();
  for (int i = 0; i < app.num_initiators; ++i) {
    bool any = false;
    for (const auto& op : app.programs[static_cast<std::size_t>(i)]) {
      any |= op.critical;
    }
    EXPECT_EQ(any, i < 2) << "core " << i;
  }
}

TEST(Scenario, HotspotRedirectsSomeTraffic) {
  scenario s;
  s.hotspot_fraction = 0.5;
  s.hotspot_target = 3;
  s.num_initiators = 2;
  s.num_targets = 4;
  s.burst_cycles = 800;
  s.packet_cells = 4;
  const auto app = s.make_app();
  bool hits_hotspot = false;
  for (const auto& op : app.programs[0]) {
    if (op.op != sim::core_op::kind::compute && op.target == 3) {
      hits_hotspot = true;
    }
  }
  EXPECT_TRUE(hits_hotspot);
}

TEST(Scenario, DecodeRejectsMalformedInput) {
  EXPECT_THROW(decode(""), invalid_argument_error);
  EXPECT_THROW(decode("not-a-scenario seed=1"), invalid_argument_error);
  EXPECT_THROW(decode("stxfuzz/v1 bogus=3"), invalid_argument_error);
  EXPECT_THROW(decode("stxfuzz/v1 seed"), invalid_argument_error);
  EXPECT_THROW(decode("stxfuzz/v1 ini=abc"), invalid_argument_error);
  // Out-of-range fields fail validation even when well-formed.
  EXPECT_THROW(decode("stxfuzz/v1 ini=0"), invalid_argument_error);
  EXPECT_THROW(decode("stxfuzz/v1 spread=1.5"), invalid_argument_error);
  EXPECT_THROW(decode("stxfuzz/v1 hot=7 tgt=4"), invalid_argument_error);
}

TEST(Scenario, DecodeRejectsIntegersThatDoNotFitAnInt) {
  // These fields are `int`s; a wider value must not wrap into a different,
  // valid record (tgt=2^32+3 would read as tgt=3).
  for (const char* field : {"ini", "tgt", "cells", "hot", "crit", "maxtb"}) {
    SCOPED_TRACE(field);
    for (const char* value : {"4294967299", "2147483648", "-2147483649"}) {
      const auto line = std::string("stxfuzz/v1 ") + field + "=" + value;
      EXPECT_THROW(decode(line), invalid_argument_error) << line;
    }
  }
  EXPECT_EQ(decode("stxfuzz/v1 maxtb=2147483647").max_targets_per_bus,
            2147483647);
}

TEST(Scenario, DecodeFillsOmittedFieldsWithDefaults) {
  const auto s = decode("stxfuzz/v1 seed=42 ini=3");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.num_initiators, 3);
  EXPECT_EQ(s.num_targets, scenario{}.num_targets);
  EXPECT_EQ(s.window_size, scenario{}.window_size);
}

TEST(Scenario, ValidateRejectsDegenerateRecords) {
  scenario s;
  s.horizon = 10;
  EXPECT_THROW(s.validate(), invalid_argument_error);
  s = scenario{};
  s.critical_cores = s.num_initiators + 1;
  EXPECT_THROW(s.validate(), invalid_argument_error);
  s = scenario{};
  s.burst_cycles = 0;
  EXPECT_THROW(s.validate(), invalid_argument_error);
}

TEST(Scenario, ValidateRejectsAbsurdlyLargeFields) {
  // Upper bounds guard the reproduction contract: a scenario that would
  // overflow downstream arithmetic must be rejected at decode time, not
  // silently simulated as something else.
  EXPECT_THROW(decode("stxfuzz/v1 burst=8589934592"),
               invalid_argument_error);
  EXPECT_THROW(decode("stxfuzz/v1 horizon=999999999999"),
               invalid_argument_error);
  EXPECT_THROW(decode("stxfuzz/v1 ini=5000"), invalid_argument_error);
}

}  // namespace
}  // namespace stx::testkit
