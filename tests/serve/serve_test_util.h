// Shared helpers for the service tests: a quick qsort request, a bounded
// poll, and a client thread that holds one of the service's slots while
// a serve.worker.execute delay keeps it busy.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "serve/service.h"
#include "util/failpoint.h"

namespace stx::serve::testutil {

inline design_request quick_request(const std::string& id,
                                    std::int64_t horizon = 8'000) {
  design_request req;
  req.id = id;
  req.app = "qsort";
  req.opts.horizon = horizon;
  return req;
}

/// Polls `done` every millisecond for up to 10 s.
template <typename Pred>
bool eventually(Pred done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Arms a `ms` delay at serve.worker.execute and runs "slow" (a design
/// no other request asks for) on a client thread until it sits in that
/// delay, holding a slot. The thread joins when the result is destroyed.
inline std::jthread hold_a_slot(service& svc, int ms) {
  failpoint::arm("serve.worker.execute",
                 "delay(" + std::to_string(ms) + ")");
  std::jthread slow([&svc] { (void)svc.run(quick_request("slow", 7'000)); });
  EXPECT_TRUE(eventually(
      [] { return failpoint::hits("serve.worker.execute") == 1; }));
  return slow;
}

}  // namespace stx::serve::testutil
