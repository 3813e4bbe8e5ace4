// The store's stage=metrics blob: built from the design document's
// metrics members after a schema tag, with bytes pinned so store entries
// written by earlier builds keep decoding to the same values.
#include "explore/codec.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace stx::explore {
namespace {

xbar::validation_metrics sample_metrics() {
  xbar::validation_metrics m;
  m.avg_latency = 10.0 / 3.0;
  m.max_latency = 91.0;
  m.p99_latency = 55.5;
  m.avg_critical = 0.0;
  m.max_critical = 1e-7;
  m.packets = 1234;
  m.transactions = 345;
  m.iterations = 5;
  m.total_buses = 7;
  return m;
}

TEST(Codec, MetricsBlobBytesArePinned) {
  const auto blob = encode_metrics(sample_metrics());
  EXPECT_EQ(blob,
            "{\n"
            "  \"schema\": \"stx-validation-metrics/v1\",\n"
            "  \"avg_latency\": 3.3333333333333335,\n"
            "  \"max_latency\": 91.0,\n"
            "  \"p99_latency\": 55.5,\n"
            "  \"avg_critical\": 0.0,\n"
            "  \"max_critical\": 9.9999999999999995e-08,\n"
            "  \"packets\": 1234,\n"
            "  \"transactions\": 345,\n"
            "  \"iterations\": 5,\n"
            "  \"total_buses\": 7\n"
            "}\n");
  EXPECT_EQ(decode_metrics(blob), sample_metrics());
}

TEST(Codec, MetricsBlobNeedsItsSchemaTag) {
  EXPECT_THROW(decode_metrics("{}"), invalid_argument_error);
  EXPECT_THROW(decode_metrics(R"({"schema": "stx-crossbar-design/v1"})"),
               invalid_argument_error);
}

}  // namespace
}  // namespace stx::explore
