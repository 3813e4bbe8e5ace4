// The generation backends (the "Generation" box of the paper's Fig. 3
// flow): four fixed renderers, each turning a synthesised
// xbar::flow_report into one deployable artifact, run by gen::generate in
// one fixed table order. Every emit_* is deterministic in its inputs.
#pragma once

#include <string>
#include <vector>

#include "gen/artifact.h"
#include "xbar/flow.h"

namespace stx::gen {

/// The backend names in table order: "sv", "dot", "json", "report" — the
/// spellings xbargen --emit and the serve protocol's "artifacts" accept.
const std::vector<std::string>& backend_names();

/// Throws stx::invalid_argument_error, naming `name` and listing
/// backend_names(), unless `name` is one of them.
void check_backend_name(const std::string& name);

/// Renders `report` with the backends opts.backends names, in that order
/// (every backend, in table order, when the list is empty), each into an
/// artifact named `<basename><extension>`. The basename is opts.basename,
/// or the sanitised application name when that is empty; the sv and dot
/// emitters embed it as their module prefix / graph name, so file and
/// content names agree. Unknown names throw as check_backend_name.
std::vector<artifact> generate(const xbar::flow_report& report,
                               const generate_options& opts);

/// "sv" (.sv): an app-specific SystemVerilog partial crossbar. The file
/// contains, in order:
///   * `<base>_rr_arbiter`  — parameterized work-conserving round-robin
///     arbiter (rotating one-hot priority pointer);
///   * `<base>_req_xbar`    — initiator->target crossbar: one arbiter per
///     bus, address decode from the request binding, per-target demux;
///   * `<base>_resp_xbar`   — same structure for target->initiator;
///   * `<base>_xbar`        — top level instantiating both directions.
/// Structural invariants relied on by tests and downstream tooling: each
/// direction module instantiates exactly `num_buses` arbiters (instance
/// names `u_arb_bus<k>`), and every receiving endpoint appears exactly
/// once in the decode function and exactly once in the output demux.
std::string emit_sv(const xbar::flow_report& report,
                    const std::string& basename);

/// "dot" (.dot): the Graphviz topology graph `basename`. Layout:
/// initiators | request buses | targets | response buses as ranked
/// clusters; edges carry the phase-1 busy-cycle totals as labels and
/// scale their pen width with relative load.
std::string emit_dot(const xbar::flow_report& report,
                     const std::string& basename);

/// "json" (.json): json::dump(design_document(report)), the
/// stx-crossbar-design/v1 document (gen/json_backend.h), which
/// parse_design reads back losslessly.
std::string emit_json(const xbar::flow_report& report);

/// "report" (.md): a Markdown design summary with the paper's
/// Table-1-style cost/savings numbers and the validation latencies.
std::string emit_report(const xbar::flow_report& report);

// Shared by the emitters.

/// report.target_names padded with "tgt<i>" placeholders up to
/// num_targets (reports parsed from JSON or built by hand may be short).
std::vector<std::string> padded_target_names(const xbar::flow_report& r);

/// Busy-cycle totals per receiver (column sums of a link matrix),
/// zero-filled to length `n` even when the matrix is empty or ragged.
std::vector<traffic::cycle_t> receiver_totals(
    const std::vector<std::vector<traffic::cycle_t>>& links, int n);

/// Validates one direction's design against the report's endpoint count:
/// matching target count, at least one bus, binding sized and in range.
/// Throws stx::invalid_argument_error (named with `which`) on violation —
/// the sv and dot emitters call this first so malformed reports (e.g.
/// hand-edited JSON fed through parse_design) fail cleanly instead of
/// indexing out of bounds.
void check_design(const xbar::crossbar_design& d, int num_dst,
                  const char* which);

}  // namespace stx::gen
