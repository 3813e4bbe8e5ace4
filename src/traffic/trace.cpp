#include "traffic/trace.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>

#include "util/error.h"
#include "util/strings.h"

namespace stx::traffic {

trace::trace(int num_targets, int num_initiators, cycle_t horizon)
    : num_targets_(num_targets),
      num_initiators_(num_initiators),
      horizon_(horizon) {
  STX_REQUIRE(num_targets >= 0 && num_initiators >= 0 && horizon >= 0,
              "trace dimensions must be non-negative");
}

void trace::add(const stream_event& e) {
  STX_REQUIRE(e.target >= 0 && e.target < num_targets_,
              "event target out of range");
  STX_REQUIRE(e.initiator >= 0 && e.initiator < num_initiators_,
              "event initiator out of range");
  STX_REQUIRE(e.begin >= 0 && e.begin < e.end, "event interval malformed");
  horizon_ = std::max(horizon_, e.end);
  events_.push_back(e);
}

void trace::extend_horizon(cycle_t h) { horizon_ = std::max(horizon_, h); }

std::vector<cycle_t> trace::total_busy_per_target() const {
  std::vector<cycle_t> out(static_cast<std::size_t>(num_targets_), 0);
  for (int t = 0; t < num_targets_; ++t) {
    for (const auto& [b, e] : busy_intervals(t)) {
      out[static_cast<std::size_t>(t)] += e - b;
    }
  }
  return out;
}

bool trace::target_has_critical(int target) const {
  for (const auto& e : events_) {
    if (e.target == target && e.critical) return true;
  }
  return false;
}

void merge_intervals(interval_list& spans) {
  std::sort(spans.begin(), spans.end());
  std::size_t kept = 0;
  for (const auto& s : spans) {
    if (kept > 0 && s.first <= spans[kept - 1].second) {
      spans[kept - 1].second = std::max(spans[kept - 1].second, s.second);
    } else {
      spans[kept++] = s;
    }
  }
  spans.resize(kept);
}

interval_list trace::busy_intervals(int target, bool critical_only) const {
  STX_REQUIRE(target >= 0 && target < num_targets_, "target out of range");
  interval_list spans;
  for (const auto& e : events_) {
    if (e.target != target) continue;
    if (critical_only && !e.critical) continue;
    spans.emplace_back(e.begin, e.end);
  }
  merge_intervals(spans);
  return spans;
}

namespace {

/// Room for one event field and the space after it: an int64 takes at
/// most 20 characters ("-9223372036854775808").
constexpr std::size_t kFieldChars = 21;

/// Writes `v` and a space at `p`, which has kFieldChars of room; returns
/// the next write position.
char* put_field(char* p, std::int64_t v) {
  p = std::to_chars(p, p + kFieldChars - 1, v).ptr;
  *p = ' ';
  return p + 1;
}

/// The characters `>>` skips (the C locale's isspace).
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// A signed decimal at the start of [first, last): an optional '+' or '-',
/// then digits, as `>>` and std::stoll read it. Returns the first unread
/// character, or nullptr when there are no digits or the value does not
/// fit `Int`.
template <class Int>
const char* read_signed(const char* first, const char* last, Int& out) {
  // from_chars takes a '-' but not a '+'.
  if (first != last && *first == '+') {
    ++first;
    if (first == last || *first < '0' || *first > '9') return nullptr;
  }
  const auto res = std::from_chars(first, last, out);
  return res.ec == std::errc() ? res.ptr : nullptr;
}

/// `in >> field` for an integer field: skips whitespace, then reads a
/// signed decimal that must fit the field's type.
template <class Int>
bool read_field(std::string_view text, std::size_t& pos, Int& out) {
  while (pos < text.size() && is_space(text[pos])) ++pos;
  const char* end =
      read_signed(text.data() + pos, text.data() + text.size(), out);
  if (end == nullptr) return false;
  pos = static_cast<std::size_t>(end - text.data());
  return true;
}

}  // namespace

void trace::append_text(std::string& out) const {
  out += "stxtrace v1 targets=";
  append_int(out, num_targets_);
  out += " initiators=";
  append_int(out, num_initiators_);
  out += " horizon=";
  append_int(out, horizon_);
  out += " events=";
  append_int(out, static_cast<std::int64_t>(events_.size()));
  out.push_back('\n');
  // One append per event line.
  char line[4 * kFieldChars + 2];
  for (const auto& e : events_) {
    char* p = put_field(line, e.target);
    p = put_field(p, e.initiator);
    p = put_field(p, e.begin);
    p = put_field(p, e.end);
    p[0] = e.critical ? '1' : '0';
    p[1] = '\n';
    out.append(line, p + 2);
  }
}

std::string_view next_token(std::string_view text, std::size_t& pos) {
  while (pos < text.size() && is_space(text[pos])) ++pos;
  const std::size_t start = pos;
  while (pos < text.size() && !is_space(text[pos])) ++pos;
  return text.substr(start, pos - start);
}

trace trace::parse_text(std::string_view text, std::size_t& pos) {
  const auto magic = next_token(text, pos);
  const auto version = next_token(text, pos);
  STX_REQUIRE(magic == "stxtrace" && version == "v1",
              "not an stxtrace v1 stream");
  auto read_kv = [&](const std::string& key) -> std::int64_t {
    const auto tok = next_token(text, pos);
    STX_REQUIRE(tok.rfind(key + "=", 0) == 0,
                "expected " + key + "= in trace header");
    // Like std::stoll: the value is the signed decimal prefix of the rest
    // of the token.
    std::int64_t v = 0;
    if (read_signed(tok.data() + key.size() + 1, tok.data() + tok.size(),
                    v) == nullptr) {
      throw invalid_argument_error("malformed " + key +
                                   " value in trace header: " +
                                   std::string(tok));
    }
    return v;
  };
  const auto targets = read_kv("targets");
  const auto initiators = read_kv("initiators");
  const auto horizon = read_kv("horizon");
  // Untrusted (it comes from a file or a store blob): it bounds the loop,
  // never an allocation.
  const auto count = read_kv("events");
  trace t(static_cast<int>(targets), static_cast<int>(initiators), horizon);
  for (std::int64_t i = 0; i < count; ++i) {
    stream_event e;
    int crit = 0;
    const bool read = read_field(text, pos, e.target) &&
                      read_field(text, pos, e.initiator) &&
                      read_field(text, pos, e.begin) &&
                      read_field(text, pos, e.end) &&
                      read_field(text, pos, crit);
    STX_REQUIRE(read, "truncated trace stream");
    e.critical = crit != 0;
    t.add(e);
  }
  return t;
}

void trace::save(std::ostream& out) const {
  std::string text;
  append_text(text);
  out << text;
}

trace trace::load(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  std::size_t pos = 0;
  return parse_text(text, pos);
}

void trace::save_file(const std::string& path) const {
  std::ofstream out(path);
  STX_REQUIRE(out.good(), "cannot open trace file for writing: " + path);
  save(out);
}

trace trace::load_file(const std::string& path) {
  std::ifstream in(path);
  STX_REQUIRE(in.good(), "cannot open trace file: " + path);
  return load(in);
}

}  // namespace stx::traffic
