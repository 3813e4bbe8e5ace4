#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace stx {

flag_set::flag_set(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      ordered_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      ordered_.emplace_back(arg, argv[++i]);
    } else {
      ordered_.emplace_back(arg, "");  // bare flag
    }
  }
}

const std::string* flag_set::find(const std::string& name) const {
  // Last occurrence wins, matching the map-based behaviour this class
  // always had for repeated flags.
  for (auto it = ordered_.rbegin(); it != ordered_.rend(); ++it) {
    if (it->first == name) return &it->second;
  }
  return nullptr;
}

bool flag_set::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> flag_set::get_list(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : ordered_) {
    if (key == name) out.push_back(value);
  }
  return out;
}

std::vector<std::string> flag_set::names() const {
  std::vector<std::string> out;
  out.reserve(ordered_.size());
  for (const auto& [name, value] : ordered_) out.push_back(name);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string flag_set::get_string(const std::string& name,
                                 const std::string& fallback) const {
  const auto* v = find(name);
  return v == nullptr ? fallback : *v;
}

std::int64_t flag_set::get_int(const std::string& name,
                               std::int64_t fallback) const {
  const auto* s = find(name);
  if (s == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const auto v = std::strtoll(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0' || errno == ERANGE) {
    throw invalid_argument_error("flag --" + name +
                                 " is not a 64-bit integer: " + *s);
  }
  return v;
}

double flag_set::get_double(const std::string& name, double fallback) const {
  const auto* s = find(name);
  if (s == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(s->c_str(), &end);
  if (end == s->c_str() || *end != '\0') {
    throw invalid_argument_error("flag --" + name + " is not a number: " + *s);
  }
  return v;
}

bool flag_set::get_bool(const std::string& name, bool fallback) const {
  const auto* s = find(name);
  if (s == nullptr) return fallback;
  if (s->empty() || *s == "true" || *s == "1") return true;
  if (*s == "false" || *s == "0") return false;
  throw invalid_argument_error("flag --" + name +
                               " is not a boolean: " + *s);
}

int report_unknown_flags(const flag_set& flags,
                         const std::vector<std::string>& known,
                         const std::string& prog) {
  int bad = 0;
  for (const auto& name : flags.names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", prog.c_str(),
                   name.c_str());
      ++bad;
    }
  }
  return bad;
}

}  // namespace stx
