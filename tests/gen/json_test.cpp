// Unit tests for the minimal JSON document model, writer and parser.
#include "gen/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#include "util/error.h"

namespace stx::gen::json {
namespace {

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(parse("null"), value(nullptr));
  EXPECT_EQ(parse("true"), value(true));
  EXPECT_EQ(parse("false"), value(false));
  EXPECT_EQ(parse("42"), value(42));
  EXPECT_EQ(parse("-7"), value(-7));
  EXPECT_EQ(parse("\"hi\\nthere\""), value("hi\nthere"));
}

TEST(Json, IntegersStayIntegers) {
  const auto v = parse("9007199254740993");  // not representable as double
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 9007199254740993LL);
}

TEST(Json, AwkwardDoublesRoundTripExactly) {
  for (double d : {0.1 + 0.2, 1.0 / 3.0, 1e-17, 1.7976931348623157e308,
                   -2.2250738585072014e-308, 123456.789}) {
    const auto text = dump(value(d));
    const auto back = parse(text);
    ASSERT_TRUE(back.is_double()) << text;
    EXPECT_EQ(back.as_double(), d) << text;
  }
}

TEST(Json, WholeDoublesKeepDoubleness) {
  // 2.0 must not come back as the integer 2.
  const auto back = parse(dump(value(2.0)));
  ASSERT_TRUE(back.is_double());
  EXPECT_EQ(back.as_double(), 2.0);
}

TEST(Json, NestedStructureRoundTrip) {
  const value doc(object{
      {"name", "mat2"},
      {"buses", 4},
      {"ratio", 1.75},
      {"ok", true},
      {"binding", array{value(0), value(1), value(0)}},
      {"nested", object{{"empty_arr", array{}}, {"empty_obj", object{}}}},
  });
  EXPECT_EQ(parse(dump(doc)), doc);
}

TEST(Json, ObjectLookup) {
  const auto v = parse(R"({"a": 1, "b": {"c": "x"}})");
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("z"));
  EXPECT_THROW(v.at("z"), invalid_argument_error);
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(parse("3").as_string(), invalid_argument_error);
  EXPECT_THROW(parse("3.5").as_int(), invalid_argument_error);
  EXPECT_THROW(parse("\"s\"").as_array(), invalid_argument_error);
  // as_double accepts integers.
  EXPECT_EQ(parse("3").as_double(), 3.0);
}

TEST(Json, MalformedInputThrows) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1,}", "[1 2]", "nan", "--3"}) {
    EXPECT_THROW(parse(bad), invalid_argument_error) << bad;
  }
}

TEST(Json, StringEscapes) {
  const std::string s = "tab\t quote\" slash\\ nl\n ctrl\x01";
  EXPECT_EQ(parse(dump(value(s))).as_string(), s);
}

TEST(Json, WhitespaceTolerated) {
  const auto v = parse("  { \"a\" : [ 1 , 2 ] }\n");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

/// The parent writer's rule: printf "%.17g", plus ".0" when that reads
/// as an integer.
std::string printf_reference(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  std::string s(buf);
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos) {
    s += ".0";
  }
  return s;
}

TEST(Json, DoublesAreWrittenAsPrintfWrites) {
  std::mt19937_64 rng(20261017);
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.1, 1e21, 1e-7,
                                5e-324, 1.7976931348623157e308};
  while (values.size() < 100'000) {
    const auto bits = rng();
    double d = 0.0;
    switch (values.size() % 4) {
      case 0:  // any finite bit pattern
        std::memcpy(&d, &bits, sizeof(d));
        break;
      case 1:  // integers, up to 2^63
        d = static_cast<double>(static_cast<std::int64_t>(bits) >>
                                (bits % 64));
        break;
      case 2:  // short mantissas over the whole exponent range
        d = std::ldexp(static_cast<double>(bits % 100'000),
                       static_cast<int>(bits >> 40) % 2'200 - 1'100);
        break;
      default:  // decimal fractions
        d = static_cast<double>(bits % 1'000'000) / 1'000.0;
        break;
    }
    if (std::isfinite(d)) values.push_back(d);
  }
  for (double d : values) {
    ASSERT_EQ(dump_compact(value(d)), printf_reference(d)) << d;
  }
}

TEST(Json, IntegersAreWrittenInDecimal) {
  for (std::int64_t i : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(dump_compact(value(i)), std::to_string(i));
  }
}

TEST(Json, NumberFormsReadAsBefore) {
  // Forms std::from_chars reads differently from strtoll/strtod keep the
  // values the C library gives them.
  EXPECT_EQ(parse("+5"), value(5));
  EXPECT_EQ(parse("+.5"), value(0.5));
  EXPECT_EQ(parse("00012"), value(12));
  EXPECT_EQ(parse("-0"), value(0));
  const auto neg_zero = parse("-0.0");
  ASSERT_TRUE(neg_zero.is_double());
  EXPECT_TRUE(std::signbit(neg_zero.as_double()));
  const auto past_int64 = parse("9223372036854775808");
  ASSERT_TRUE(past_int64.is_double());
  EXPECT_EQ(past_int64.as_double(), 9223372036854775808.0);
  EXPECT_EQ(parse("-9223372036854775808"),
            value(std::numeric_limits<std::int64_t>::min()));
  const auto underflow = parse("1e-400");
  ASSERT_TRUE(underflow.is_double());
  EXPECT_EQ(underflow.as_double(), 0.0);
  EXPECT_FALSE(std::signbit(underflow.as_double()));
  for (const char* bad : {"1e", "-", "5-3", "1.5.3", "+-5"}) {
    EXPECT_THROW(parse(bad), invalid_argument_error) << bad;
  }
  try {
    (void)parse("1e");
    FAIL() << "1e parsed";
  } catch (const invalid_argument_error& e) {
    EXPECT_STREQ(e.what(), "JSON parse error at offset 2: invalid number '1e'");
  }
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(Json, NestingIsCappedAtMaxDepth) {
  EXPECT_NO_THROW(parse(nested_arrays(max_depth)));
  EXPECT_THROW(parse(nested_arrays(max_depth + 1)), invalid_argument_error);
  std::string objects;
  for (int i = 0; i < max_depth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(static_cast<std::size_t>(max_depth), '}');
  EXPECT_NO_THROW(parse(objects));
  EXPECT_THROW(parse("[" + objects + "]"), invalid_argument_error);
  // Deep enough to overflow the stack of a recursive parser with no cap.
  EXPECT_THROW(parse(std::string(200'000, '[')), invalid_argument_error);
}

TEST(JsonDiff, EqualDocumentsProduceNoLines) {
  const auto v = parse(R"({"a": [1, 2], "b": {"c": 3.5}})");
  EXPECT_TRUE(diff(v, v).empty());
}

TEST(JsonDiff, ScalarMismatchIsPathAnchored) {
  const auto a = parse(R"({"a": {"b": [1, 2, 3]}})");
  const auto b = parse(R"({"a": {"b": [1, 9, 3]}})");
  const auto d = diff(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], "$.a.b[1]: expected 2, got 9");
}

TEST(JsonDiff, ReportsMissingAndUnexpectedMembers) {
  const auto a = parse(R"({"keep": 1, "gone": 2})");
  const auto b = parse(R"({"keep": 1, "new": 3})");
  const auto d = diff(a, b);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], "$.gone: missing in actual");
  EXPECT_EQ(d[1], "$.new: unexpected member in actual");
}

TEST(JsonDiff, ReportsArrayLengthDrift) {
  const auto a = parse("[1, 2, 3]");
  const auto b = parse("[1, 2]");
  const auto d = diff(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], "$[2]: missing in actual");
}

TEST(JsonDiff, TypeMismatchSummarisesContainers) {
  const auto a = parse(R"({"x": [1, 2]})");
  const auto b = parse(R"({"x": {"y": 1}})");
  const auto d = diff(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], "$.x: expected array[2], got object{1 members}");
}

TEST(JsonDiff, CapsTheNumberOfLines) {
  std::string sa = "[", sb = "[";
  for (int i = 0; i < 50; ++i) {
    if (i > 0) {
      sa += ",";
      sb += ",";
    }
    sa += std::to_string(i);
    sb += std::to_string(i + 1000);
  }
  const auto d = diff(parse(sa + "]"), parse(sb + "]"), 10);
  ASSERT_EQ(d.size(), 11u);
  EXPECT_EQ(d.back(), "... and 40 more differences");
}

}  // namespace
}  // namespace stx::gen::json
