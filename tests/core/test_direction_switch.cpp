// DirectionSwitch: the one push/pull policy every level loop calls.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/autotune.hpp"

namespace turbobc::bc {
namespace {

TEST(DirectionSwitch, PushNeverPulls) {
  DirectionSwitch dir(Advance::kPush, {}, 1000, 10000);
  for (int level = 0; level < 5; ++level) {
    // Even a frontier owning every remaining edge stays push.
    EXPECT_FALSE(dir.decide()) << level;
  }
}

TEST(DirectionSwitch, PullAlwaysPulls) {
  DirectionSwitch dir(Advance::kPull, {}, 1000, 10000);
  dir.observe(1, 1);
  for (int level = 0; level < 5; ++level) {
    // A one-vertex frontier would send kAuto back to push; kPull stays.
    EXPECT_TRUE(dir.decide()) << level;
    dir.observe(1, 1);
  }
}

TEST(DirectionSwitch, AutoFollowsHandBuiltTrajectory) {
  // Beamer defaults alpha = 14, beta = 24; n = 1000, m = 10000.
  DirectionSwitch dir(Advance::kAuto, {}, 1000, 10000);
  struct Step {
    std::uint64_t nf, mf;  // frontier observed before the decision
    std::uint64_t mu;      // unvisited in-edges after observing it
    bool pull;             // expected decision
  };
  const Step steps[] = {
      {1, 10, 9990, false},     // 140 > 9990? no: push
      {20, 200, 9790, false},   // 2800 > 9790? no: push
      {300, 3000, 6790, true},  // 42000 > 6790: push -> pull
      {500, 5000, 1790, true},  // pulling: 12000 < 1000? no: stay pull
      {60, 900, 890, true},     // 1440 < 1000? no: stay pull (hysteresis)
      {30, 700, 190, false},    // 720 < 1000: pull -> push
      {2, 20, 170, true},       // pushing: 280 > 170: push -> pull
      {3, 5, 165, false},       // 72 < 1000: pull -> push
      {1, 1, 164, false},       // 14 > 164? no: stay push
  };
  for (const Step& s : steps) {
    dir.observe(s.nf, s.mf);
    EXPECT_EQ(dir.mu(), s.mu);
    EXPECT_EQ(dir.decide(), s.pull) << "nf " << s.nf << " mf " << s.mf;
  }
}

TEST(DirectionSwitch, AutoMatchesThresholdPredicates) {
  const DirectionThresholds t{.alpha = 2.0, .beta = 4.0};
  DirectionSwitch dir(Advance::kAuto, t, 100, 400);
  dir.observe(10, 150);  // mu = 250; 150 * 2 > 250 -> pull
  EXPECT_EQ(dir.mu(), 250u);
  EXPECT_TRUE(switch_to_pull(150, 250, t));
  EXPECT_TRUE(dir.decide());
  dir.observe(24, 100);  // 24 * 4 < 100 -> push
  EXPECT_TRUE(switch_to_push(24, 100, t));
  EXPECT_FALSE(dir.decide());
}

}  // namespace
}  // namespace turbobc::bc
