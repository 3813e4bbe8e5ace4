// Small string helpers shared by the CLI drivers, the sweep grids and the
// text codecs.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <vector>

namespace stx {

/// Splits `list` on `sep`, dropping empty items ("a,,b" -> {"a","b"},
/// "" -> {}). The comma-list convention of every CLI flag that takes
/// multiple values (--emit, --app, --grid axes).
std::vector<std::string> split_list(const std::string& list, char sep = ',');

/// Appends the decimal form of `v` to `out`: the bytes std::to_string
/// and `ostream <<` write, without a stream or a temporary string.
inline void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace stx
