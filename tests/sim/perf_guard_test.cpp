// Perf guard (ctest label `bench`): the event kernel must keep doing
// strictly less work than the retired per-cycle polling loop would have.
//
// The polling loop visited every component every cycle — exactly
// horizon * (cores + buses + targets) component steps. The calendar
// queue's whole point is skipping the idle ones, so the number of
// processed events on the built-in applications must stay well under
// that budget. Counter-based (no wall clock), hence deterministic: a
// regression that re-introduces per-cycle busywork trips this on any
// machine, and scheduler noise cannot flake it.
#include <gtest/gtest.h>

#include "workloads/mpsoc_apps.h"

namespace stx::sim {
namespace {

constexpr cycle_t kPinnedHorizon = 60'000;

TEST(PerfGuard, EventKernelProcessesFarFewerEventsThanPollingWould) {
  for (const auto& name : workloads::app_names()) {
    const auto app = *workloads::make_app_by_name(name);
    system_config cfg;
    cfg.seed = 1;
    cfg.record_traces = false;
    cfg.keep_latency_samples = false;
    auto session = workloads::make_full_crossbar_session(app, cfg);
    session.run(kPinnedHorizon);
    // Defence against guarding a stuck simulation.
    ASSERT_GT(session.metrics().transactions, 0) << app.name;

    // Cores + targets + one bus per endpoint on each full crossbar.
    const std::int64_t components = 2 * app.total_cores();
    const std::int64_t polling_steps =
        static_cast<std::int64_t>(kPinnedHorizon) * components;
    const auto& stats = session.stats();
    // The dense paper apps run 5-8x fewer events than polling steps;
    // 50% is generous slack that still catches a per-cycle regression.
    EXPECT_LT(stats.events_processed, polling_steps / 2)
        << app.name << ": " << stats.events_processed
        << " events vs the polling loop's " << polling_steps
        << " component steps at horizon " << kPinnedHorizon;
    ::testing::Test::RecordProperty(
        name + "_event_vs_polling_work",
        std::to_string(static_cast<double>(polling_steps) /
                       static_cast<double>(stats.events_processed)));
  }
}

}  // namespace
}  // namespace stx::sim
