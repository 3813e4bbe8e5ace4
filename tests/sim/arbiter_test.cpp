// Unit tests for the bus arbitration policies (sim::arbitrate, the
// helper the kernel calls for every grant).
#include "sim/batch.h"

#include <gtest/gtest.h>

#include <vector>

namespace stx::sim {
namespace {

/// One bus arbiter: the policy plus the state arbitrate() keeps for it.
class arbiter {
 public:
  arbiter(arbitration policy, int ports)
      : policy_(policy),
        ports_(ports),
        lrg_last_(static_cast<std::size_t>(ports), -1) {}

  int pick(const std::vector<bool>& requesting, cycle_t now) {
    std::vector<std::uint64_t> mask(
        static_cast<std::size_t>((ports_ + 63) / 64), 0);
    for (std::size_t p = 0; p < requesting.size(); ++p) {
      if (requesting[p]) mask[p / 64] |= std::uint64_t{1} << (p % 64);
    }
    return arbitrate(policy_, mask, ports_, rr_last_, lrg_last_, now);
  }

 private:
  arbitration policy_;
  int ports_;
  int rr_last_ = -1;
  std::vector<cycle_t> lrg_last_;
};

/// `ports` flags with only the listed ports requesting.
std::vector<bool> only(int ports, std::initializer_list<int> requesting) {
  std::vector<bool> out(static_cast<std::size_t>(ports), false);
  for (const int p : requesting) out[static_cast<std::size_t>(p)] = true;
  return out;
}

TEST(Arbiter, FixedPriorityPicksLowestIndex) {
  arbiter a(arbitration::fixed_priority, 4);
  EXPECT_EQ(a.pick({false, true, true, false}, 0), 1);
  EXPECT_EQ(a.pick({false, true, true, false}, 1), 1);  // no rotation
  EXPECT_EQ(a.pick({true, true, true, true}, 2), 0);
}

TEST(Arbiter, NoRequestsReturnsMinusOne) {
  for (auto policy :
       {arbitration::fixed_priority, arbitration::round_robin,
        arbitration::least_recently_granted}) {
    arbiter a(policy, 3);
    EXPECT_EQ(a.pick({false, false, false}, 0), -1);
  }
}

TEST(Arbiter, RoundRobinRotatesThroughRequesters) {
  arbiter a(arbitration::round_robin, 3);
  const std::vector<bool> all = {true, true, true};
  EXPECT_EQ(a.pick(all, 0), 0);
  EXPECT_EQ(a.pick(all, 1), 1);
  EXPECT_EQ(a.pick(all, 2), 2);
  EXPECT_EQ(a.pick(all, 3), 0);  // wraps
}

TEST(Arbiter, RoundRobinSkipsIdlePorts) {
  arbiter a(arbitration::round_robin, 4);
  EXPECT_EQ(a.pick({true, false, true, false}, 0), 0);
  EXPECT_EQ(a.pick({true, false, true, false}, 1), 2);
  EXPECT_EQ(a.pick({true, false, true, false}, 2), 0);
}

TEST(Arbiter, RoundRobinIsWorkConserving) {
  arbiter a(arbitration::round_robin, 3);
  EXPECT_EQ(a.pick({false, false, true}, 0), 2);
  EXPECT_EQ(a.pick({true, false, false}, 1), 0);
}

TEST(Arbiter, LeastRecentlyGrantedPrefersLongestWait) {
  arbiter a(arbitration::least_recently_granted, 3);
  const std::vector<bool> all = {true, true, true};
  EXPECT_EQ(a.pick(all, 0), 0);  // all tied: lowest index
  EXPECT_EQ(a.pick(all, 1), 1);  // 0 just granted
  EXPECT_EQ(a.pick(all, 2), 2);
  EXPECT_EQ(a.pick(all, 3), 0);  // 0 waited longest now
  // Port 1 sits out a few grants, then has priority over port 2.
  EXPECT_EQ(a.pick({false, true, true}, 4), 1);
}

TEST(Arbiter, FairnessUnderSaturation) {
  // Round robin: after N*k picks with all ports requesting, every port
  // granted exactly k times.
  arbiter a(arbitration::round_robin, 4);
  std::vector<int> grants(4, 0);
  const std::vector<bool> all(4, true);
  for (int i = 0; i < 400; ++i) {
    ++grants[static_cast<std::size_t>(a.pick(all, i))];
  }
  for (int g : grants) EXPECT_EQ(g, 100);
}

TEST(Arbiter, WidePortsSpanSeveralMaskWords) {
  // 150 ports: three mask words; every policy must see requesters in
  // any word and round robin must wrap across word boundaries.
  constexpr int ports = 150;
  arbiter fixed(arbitration::fixed_priority, ports);
  EXPECT_EQ(fixed.pick(only(ports, {149, 70}), 0), 70);
  EXPECT_EQ(fixed.pick(only(ports, {149}), 1), 149);

  arbiter rr(arbitration::round_robin, ports);
  const auto some = only(ports, {3, 63, 64, 130, 149});
  for (const int expected : {3, 63, 64, 130, 149, 3, 63}) {
    EXPECT_EQ(rr.pick(some, 0), expected);
  }
  EXPECT_EQ(rr.pick(only(ports, {10}), 0), 10);  // wraps from word 0 on
  EXPECT_EQ(rr.pick(only(ports, {5, 120}), 0), 120);

  arbiter lrg(arbitration::least_recently_granted, ports);
  const auto pair = only(ports, {20, 140});
  EXPECT_EQ(lrg.pick(pair, 0), 20);
  EXPECT_EQ(lrg.pick(pair, 1), 140);
  EXPECT_EQ(lrg.pick(only(ports, {20, 100, 140}), 2), 100);
  EXPECT_EQ(lrg.pick(pair, 3), 20);
}

TEST(Arbiter, PolicyNames) {
  EXPECT_STREQ(to_string(arbitration::fixed_priority), "fixed_priority");
  EXPECT_STREQ(to_string(arbitration::round_robin), "round_robin");
  EXPECT_STREQ(to_string(arbitration::least_recently_granted),
               "least_recently_granted");
}

}  // namespace
}  // namespace stx::sim
