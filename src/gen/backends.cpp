#include "gen/backends.h"

#include "util/error.h"

namespace stx::gen {

namespace {

struct backend_row {
  const char* name;
  const char* extension;
  std::string (*emit)(const xbar::flow_report&, const std::string& basename);
};

constexpr backend_row kBackends[] = {
    {"sv", ".sv", emit_sv},
    {"dot", ".dot", emit_dot},
    {"json", ".json",
     [](const xbar::flow_report& r, const std::string&) {
       return emit_json(r);
     }},
    {"report", ".md",
     [](const xbar::flow_report& r, const std::string&) {
       return emit_report(r);
     }},
};

/// The row named `name`; throws as check_backend_name.
const backend_row& find_backend(const std::string& name) {
  for (const auto& b : kBackends) {
    if (name == b.name) return b;
  }
  std::string msg = "unknown generation backend '" + name + "' (known:";
  for (const auto& b : kBackends) msg += std::string(" ") + b.name;
  throw invalid_argument_error(msg + ")");
}

}  // namespace

const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& b : kBackends) out.emplace_back(b.name);
    return out;
  }();
  return names;
}

void check_backend_name(const std::string& name) { find_backend(name); }

std::vector<artifact> generate(const xbar::flow_report& report,
                               const generate_options& opts) {
  const std::string basename = opts.basename.empty()
                                   ? sanitize_basename(report.app_name)
                                   : opts.basename;
  // Every name is resolved before any backend runs.
  std::vector<const backend_row*> rows;
  for (const auto& name : opts.backends) rows.push_back(&find_backend(name));
  if (rows.empty()) {
    for (const auto& b : kBackends) rows.push_back(&b);
  }
  std::vector<artifact> out;
  out.reserve(rows.size());
  for (const auto* b : rows) {
    out.push_back(
        {b->name, basename + b->extension, b->emit(report, basename)});
  }
  return out;
}

std::vector<std::string> padded_target_names(const xbar::flow_report& r) {
  std::vector<std::string> names = r.target_names;
  for (int t = static_cast<int>(names.size()); t < r.num_targets; ++t) {
    names.push_back("tgt" + std::to_string(t));
  }
  return names;
}

std::vector<traffic::cycle_t> receiver_totals(
    const std::vector<std::vector<traffic::cycle_t>>& links, int n) {
  std::vector<traffic::cycle_t> out(static_cast<std::size_t>(n), 0);
  for (const auto& row : links) {
    for (std::size_t t = 0; t < row.size() && t < out.size(); ++t) {
      out[t] += row[t];
    }
  }
  return out;
}

void check_design(const xbar::crossbar_design& d, int num_dst,
                  const char* which) {
  STX_REQUIRE(d.num_targets == num_dst,
              std::string(which) + " design target count disagrees with "
                                   "the report endpoint count");
  STX_REQUIRE(d.num_buses > 0, std::string(which) + " design has no buses");
  STX_REQUIRE(static_cast<int>(d.binding.size()) == num_dst,
              std::string(which) + " binding size mismatch");
  for (int b : d.binding) {
    STX_REQUIRE(b >= 0 && b < d.num_buses,
                std::string(which) + " binding references a bad bus id");
  }
}

}  // namespace stx::gen
