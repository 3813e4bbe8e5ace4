// Minimal JSON document model, writer and parser for the gen subsystem.
//
// Scope: exactly what the JSON backend needs — objects (insertion-ordered),
// arrays, strings, 64-bit integers, doubles, booleans, null. Doubles are
// written with 17 significant digits (the bytes of printf's "%.17g") so
// every finite value round-trips bit-exactly through dump() + parse(). No
// external dependencies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace stx::gen::json {

class value;

/// Insertion-ordered key/value list (keys are unique by construction in
/// emitted documents; lookup returns the first match).
using object = std::vector<std::pair<std::string, value>>;
using array = std::vector<value>;

class value {
 public:
  value() : v_(nullptr) {}
  value(std::nullptr_t) : v_(nullptr) {}
  value(bool b) : v_(b) {}
  value(std::int64_t i) : v_(i) {}
  value(int i) : v_(static_cast<std::int64_t>(i)) {}
  value(double d) : v_(d) {}
  value(const char* s) : v_(std::string(s)) {}
  value(std::string s) : v_(std::move(s)) {}
  value(array a) : v_(std::move(a)) {}
  value(object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<array>(v_); }
  bool is_object() const { return std::holds_alternative<object>(v_); }

  /// Typed accessors; throw stx::invalid_argument_error on mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;      ///< integers only
  double as_double() const;         ///< accepts integers too
  const std::string& as_string() const;
  const array& as_array() const;
  const object& as_object() const;

  /// Object member lookup; throws when not an object or key is missing.
  const value& at(std::string_view key) const;
  /// True when this is an object holding `key`.
  bool contains(std::string_view key) const;

  bool operator==(const value& other) const { return v_ == other.v_; }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               array, object>
      v_;
};

/// Serialises `v` as pretty-printed JSON (2-space indent, trailing newline).
std::string dump(const value& v);

/// Serialises `v` on one line with no insignificant whitespace and no
/// trailing newline — the wire form of line-delimited protocols
/// (xbar-serve). Number formatting matches dump(), so
/// parse(dump_compact(v)) == v holds whenever parse(dump(v)) == v does.
std::string dump_compact(const value& v);

/// Deepest nesting of arrays and objects parse() accepts. The parser
/// recurses once per level, so without a cap a line of '[' from a client
/// would overflow the stack; the repository's own documents nest about 5
/// levels deep.
inline constexpr int max_depth = 256;

/// Parses one JSON document; trailing non-whitespace, malformed input or
/// nesting deeper than max_depth throws stx::invalid_argument_error with
/// position information.
value parse(std::string_view text);

/// Structural comparison for regression diffs: walks `expected` and
/// `actual` in parallel and returns one human-readable line per
/// difference, anchored by JSON path ("$.designed.avg_latency: expected
/// 3.25, got 4.5"; "$.failures[2]: missing in actual"). Empty when the
/// documents are equal. At most `max_entries` lines are produced; a
/// final "... and N more differences" line reports the overflow.
std::vector<std::string> diff(const value& expected, const value& actual,
                              std::size_t max_entries = 40);

}  // namespace stx::gen::json
