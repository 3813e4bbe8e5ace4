// Golden-regression support: pinned flow_report JSON snapshots for the
// paper apps, plus the readable diff the regression test prints when the
// flow's output drifts.
//
// The snapshot options (horizon, window, seed) are pinned HERE, in one
// place, so the committed goldens under tests/golden/, the regeneration
// path (`xbar-fuzz --regen-goldens=tests/golden`, wrapped by
// scripts/regen-goldens.sh) and the regression test can never disagree
// about what was snapshotted.
#pragma once

#include <string>
#include <vector>

#include "xbar/flow.h"

namespace stx::testkit {

/// The snapshotted applications: the five paper apps (Table 2 rows).
const std::vector<std::string>& golden_apps();

/// The pinned flow options every golden snapshot is produced with.
xbar::flow_options golden_options();

/// Runs the design flow for one golden app under golden_options().
/// Unknown names throw stx::invalid_argument_error.
xbar::flow_report golden_report(const std::string& app_name);

/// Canonical JSON snapshot text of a report (gen::emit_json; round-trips
/// via gen::parse_design).
std::string golden_json(const xbar::flow_report& report);

/// Leaf filename of one app's snapshot, e.g. "mat2.json".
std::string golden_filename(const std::string& app_name);

/// Structural comparison of two snapshot texts: one readable line per
/// difference (JSON-path anchored), empty when they match. Malformed
/// input is reported as a diff line rather than thrown.
std::vector<std::string> golden_diff(const std::string& expected,
                                     const std::string& actual);

}  // namespace stx::testkit
