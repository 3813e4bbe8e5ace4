#include "gen/backends.h"

#include <cstdio>
#include <sstream>

namespace stx::gen {

namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

void emit_design_row(std::ostringstream& out, const char* label,
                     const xbar::crossbar_design& d) {
  out << "| " << label << " | " << d.num_targets << " | " << d.num_buses
      << " | " << fmt("%.2f", d.savings_vs_full()) << "x | "
      << d.num_conflicts << " | " << d.max_overlap
      << (d.binding_optimal ? " |\n" : " (not proven optimal) |\n");
}

void emit_metrics_row(std::ostringstream& out, const char* label,
                      const xbar::validation_metrics& m) {
  out << "| " << label << " | " << fmt("%.2f", m.avg_latency) << " | "
      << fmt("%.2f", m.p99_latency) << " | " << fmt("%.0f", m.max_latency)
      << " | ";
  if (m.avg_critical > 0.0) {
    out << fmt("%.2f", m.avg_critical);
  } else {
    out << "—";
  }
  out << " | " << m.packets << " |\n";
}

}  // namespace

std::string emit_report(const xbar::flow_report& r) {
  std::ostringstream out;
  out << "# Crossbar design report — " << r.app_name << "\n\n"
      << "Application-specific STbus crossbar synthesised by the 4-phase\n"
      << "design flow (trace collection, window analysis, MILP synthesis,\n"
      << "validation simulation).\n\n";

  out << "- Initiators: " << r.num_initiators << "\n"
      << "- Targets: " << r.num_targets << "\n"
      << "- Window size: " << r.request_design.params.window_size
      << " cycles (request), " << r.response_design.params.window_size
      << " cycles (response)\n"
      << "- Overlap threshold: "
      << fmt("%.2f", r.request_design.params.overlap_threshold) << "\n"
      << "- Max targets per bus: "
      << r.request_design.params.max_targets_per_bus << "\n\n";

  // Table-1-style crossbar cost summary.
  out << "## Crossbar cost (Table 1 style)\n\n"
      << "| direction | endpoints | buses | savings | conflict pairs | "
         "max bus overlap |\n"
      << "|---|---|---|---|---|---|\n";
  emit_design_row(out, "request (ini→tgt)", r.request_design);
  emit_design_row(out, "response (tgt→ini)", r.response_design);
  out << "\nTotal buses: **" << r.designed_buses << "** vs **"
      << r.full_buses << "** for the full crossbars — **"
      << fmt("%.2f", r.savings()) << "x** component savings.\n\n";

  // Validation latencies.
  out << "## Validation latency\n\n"
      << "| configuration | avg (cy) | p99 (cy) | max (cy) | critical avg "
         "| packets |\n"
      << "|---|---|---|---|---|---|\n";
  emit_metrics_row(out, "designed partial", r.designed);
  emit_metrics_row(out, "full crossbar", r.full);
  if (r.full.avg_latency > 0.0) {
    out << "\nDesigned-vs-full average latency ratio: **"
        << fmt("%.2f", r.designed.avg_latency / r.full.avg_latency)
        << "x**.\n\n";
  }

  // Bus membership (the binding, grouped the way Fig. 1 draws it).
  out << "## Bus membership\n\n";
  for (int dir = 0; dir < 2; ++dir) {
    const auto& d = dir == 0 ? r.request_design : r.response_design;
    out << (dir == 0 ? "### Request buses\n\n" : "### Response buses\n\n");
    for (int k = 0; k < d.num_buses; ++k) {
      out << "- bus " << k << ":";
      for (int t = 0; t < d.num_targets; ++t) {
        if (d.binding[static_cast<std::size_t>(t)] != k) continue;
        if (dir == 0 &&
            t < static_cast<int>(r.target_names.size())) {
          out << " " << r.target_names[static_cast<std::size_t>(t)];
        } else if (dir == 1) {
          out << " core" << t;
        } else {
          out << " tgt" << t;
        }
      }
      out << "\n";
    }
    out << "\n";
  }

  out << "---\nGenerated by stxbar (`xbargen --emit=report`).\n";
  return out.str();
}

}  // namespace stx::gen
