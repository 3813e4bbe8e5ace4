#include "gen/json.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/error.h"
#include "util/strings.h"

namespace stx::gen::json {

bool value::as_bool() const {
  STX_REQUIRE(is_bool(), "JSON value is not a boolean");
  return std::get<bool>(v_);
}

std::int64_t value::as_int() const {
  STX_REQUIRE(is_int(), "JSON value is not an integer");
  return std::get<std::int64_t>(v_);
}

double value::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  STX_REQUIRE(is_double(), "JSON value is not a number");
  return std::get<double>(v_);
}

const std::string& value::as_string() const {
  STX_REQUIRE(is_string(), "JSON value is not a string");
  return std::get<std::string>(v_);
}

const array& value::as_array() const {
  STX_REQUIRE(is_array(), "JSON value is not an array");
  return std::get<array>(v_);
}

const object& value::as_object() const {
  STX_REQUIRE(is_object(), "JSON value is not an object");
  return std::get<object>(v_);
}

const value& value::at(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return v;
  }
  throw invalid_argument_error("JSON object has no member '" +
                               std::string(key) + "'");
}

bool value::contains(std::string_view key) const {
  if (!is_object()) return false;
  for (const auto& [k, v] : std::get<object>(v_)) {
    if (k == key) return true;
  }
  return false;
}

namespace {

/// Appends `s` quoted, copying each run of characters that need no escape
/// in one call.
void write_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        // Other control characters as \u00xx (lowercase hex).
        constexpr char hex[] = "0123456789abcdef";
        const char u[] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xf]};
        out.append(u, sizeof(u));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

void write_double(std::string& out, double d) {
  STX_REQUIRE(std::isfinite(d), "JSON cannot represent non-finite numbers");
  // The same bytes as printf's "%.17g" (the standard defines to_chars with
  // a precision that way), without the format-string machinery.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d,
                                 std::chars_format::general, 17);
  out.append(buf, res.ptr);
  // Keep the number recognisable as a double after a round-trip.
  if (std::none_of(buf, res.ptr, [](char c) { return c == '.' || c == 'e'; })) {
    out += ".0";
  }
}

/// Writes a null, boolean, number or string.
void write_scalar(std::string& out, const value& v) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    append_int(out, v.as_int());
  } else if (v.is_double()) {
    write_double(out, v.as_double());
  } else {
    write_escaped(out, v.as_string());
  }
}

void newline_indent(std::string& out, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

void write_value(std::string& out, const value& v, int depth) {
  if (v.is_array()) {
    const auto& a = v.as_array();
    if (a.empty()) {
      out += "[]";
      return;
    }
    // Arrays of scalars stay on one line; nested structures get one
    // element per line for readable diffs.
    const bool scalar = std::none_of(a.begin(), a.end(), [](const value& e) {
      return e.is_array() || e.is_object();
    });
    out.push_back('[');
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (scalar) {
        if (i > 0) out += ", ";
      } else {
        if (i > 0) out.push_back(',');
        newline_indent(out, depth + 1);
      }
      write_value(out, a[i], depth + 1);
    }
    if (!scalar) newline_indent(out, depth);
    out.push_back(']');
  } else if (v.is_object()) {
    const auto& o = v.as_object();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i > 0) out.push_back(',');
      newline_indent(out, depth + 1);
      write_escaped(out, o[i].first);
      out += ": ";
      write_value(out, o[i].second, depth + 1);
    }
    newline_indent(out, depth);
    out.push_back('}');
  } else {
    write_scalar(out, v);
  }
}

void write_value_compact(std::string& out, const value& v) {
  if (v.is_array()) {
    out.push_back('[');
    const auto& a = v.as_array();
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) out.push_back(',');
      write_value_compact(out, a[i]);
    }
    out.push_back(']');
  } else if (v.is_object()) {
    out.push_back('{');
    const auto& o = v.as_object();
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i > 0) out.push_back(',');
      write_escaped(out, o[i].first);
      out.push_back(':');
      write_value_compact(out, o[i].second);
    }
    out.push_back('}');
  } else {
    write_scalar(out, v);
  }
}

class parser {
 public:
  explicit parser(std::string_view text) : text_(text) {}

  value run() {
    skip_ws();
    auto v = parse_value();
    skip_ws();
    STX_REQUIRE(pos_ == text_.size(),
                "trailing characters after JSON document at offset " +
                    std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw invalid_argument_error("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  /// Enters one array or object level; the parser recurses per level, so
  /// the cap is what keeps hostile input off the end of the stack.
  void descend() {
    if (++depth_ > max_depth) {
      fail("nesting deeper than " + std::to_string(max_depth) + " levels");
    }
  }

  value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return value(parse_string());
      case 't':
        if (consume_literal("true")) return value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return value(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  value parse_object() {
    expect('{');
    descend();
    object o;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return value(std::move(o));
    }
    while (true) {
      skip_ws();
      auto key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      o.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    --depth_;
    return value(std::move(o));
  }

  value parse_array() {
    expect('[');
    descend();
    array a;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return value(std::move(a));
    }
    while (true) {
      skip_ws();
      a.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    --depth_;
    return value(std::move(a));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
        ++end;
      }
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (take() == '"') break;
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape");
          }
          // Only the BMP subset our writer emits (control characters).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else {
            fail("non-ASCII \\u escapes are not supported");
          }
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
    return out;
  }

  value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("invalid number");
    // The token is read in place. from_chars reads exactly what strtoll /
    // strtod read, except a leading '+' (strtoll/strtod accept it) and a
    // value out of range (strtod still returns one); those two take the C
    // library path.
    if (tok.front() != '+') {
      const char* last = tok.data() + tok.size();
      if (!is_double) {
        std::int64_t i = 0;
        const auto res = std::from_chars(tok.data(), last, i);
        if (res.ec == std::errc() && res.ptr == last) return value(i);
      }
      double d = 0.0;
      const auto res = std::from_chars(tok.data(), last, d);
      if (res.ec == std::errc() && res.ptr == last) return value(d);
      if (res.ec != std::errc::result_out_of_range) {
        fail("invalid number '" + std::string(tok) + "'");
      }
    }
    return parse_number_libc(std::string(tok), is_double);
  }

  value parse_number_libc(const std::string& tok, bool is_double) {
    char* end = nullptr;
    if (!is_double) {
      errno = 0;
      const auto i = std::strtoll(tok.c_str(), &end, 10);
      if (end == tok.c_str() + tok.size() && errno == 0) {
        return value(static_cast<std::int64_t>(i));
      }
    }
    end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("invalid number '" + tok + "'");
    return value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string dump(const value& v) {
  std::string out;
  write_value(out, v, 0);
  out.push_back('\n');
  return out;
}

std::string dump_compact(const value& v) {
  std::string out;
  write_value_compact(out, v);
  return out;
}

value parse(std::string_view text) { return parser(text).run(); }

namespace {

/// Single-line rendering for diff messages: scalars verbatim, containers
/// summarised by shape so one mismatch line stays one line.
std::string summarise(const value& v) {
  if (v.is_array()) {
    return "array[" + std::to_string(v.as_array().size()) + "]";
  }
  if (v.is_object()) {
    return "object{" + std::to_string(v.as_object().size()) + " members}";
  }
  std::string out;
  write_scalar(out, v);
  return out;
}

struct diff_state {
  std::vector<std::string>& out;
  std::size_t max_entries;
  std::size_t overflow = 0;

  void add(const std::string& path, const std::string& what) {
    if (out.size() < max_entries) {
      out.push_back(path + ": " + what);
    } else {
      ++overflow;
    }
  }
};

void diff_value(const value& expected, const value& actual,
                const std::string& path, diff_state& st) {
  if (expected == actual) return;
  if (expected.is_object() && actual.is_object()) {
    const auto& eo = expected.as_object();
    for (const auto& [key, ev] : eo) {
      if (!actual.contains(key)) {
        st.add(path + "." + key, "missing in actual");
        continue;
      }
      diff_value(ev, actual.at(key), path + "." + key, st);
    }
    for (const auto& [key, av] : actual.as_object()) {
      (void)av;
      if (!expected.contains(key)) {
        st.add(path + "." + key, "unexpected member in actual");
      }
    }
    return;
  }
  if (expected.is_array() && actual.is_array()) {
    const auto& ea = expected.as_array();
    const auto& aa = actual.as_array();
    const std::size_t common = std::min(ea.size(), aa.size());
    for (std::size_t i = 0; i < common; ++i) {
      diff_value(ea[i], aa[i], path + "[" + std::to_string(i) + "]", st);
    }
    for (std::size_t i = common; i < ea.size(); ++i) {
      st.add(path + "[" + std::to_string(i) + "]", "missing in actual");
    }
    for (std::size_t i = common; i < aa.size(); ++i) {
      st.add(path + "[" + std::to_string(i) + "]",
             "unexpected element in actual");
    }
    return;
  }
  st.add(path, "expected " + summarise(expected) + ", got " +
                   summarise(actual));
}

}  // namespace

std::vector<std::string> diff(const value& expected, const value& actual,
                              std::size_t max_entries) {
  std::vector<std::string> out;
  diff_state st{out, max_entries};
  diff_value(expected, actual, "$", st);
  if (st.overflow > 0) {
    out.push_back("... and " + std::to_string(st.overflow) +
                  " more differences");
  }
  return out;
}

}  // namespace stx::gen::json
