#include "sim/mem_sim.hpp"

#include <gtest/gtest.h>

namespace tagspin::sim {
namespace {

TEST(SimMemEnv, FaultFreeGrantsEverythingAndCountsOps) {
  SimMemEnv env;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(env.tryReserve(100));
  EXPECT_EQ(env.opCount(), 10u);
  EXPECT_EQ(env.denials(), 0u);
  EXPECT_EQ(env.usedBytes(), 1000u);
  for (int i = 0; i < 10; ++i) env.release(100);
  EXPECT_EQ(env.usedBytes(), 0u);
  // Releases are not ops: the exploration domain is reservations only.
  EXPECT_EQ(env.opCount(), 10u);
  EXPECT_FALSE(env.underflow());
}

TEST(SimMemEnv, FailAtDeniesExactlyThatReservation) {
  SimMemEnv env;
  env.setFaults({{2, MemFaultKind::kDeny, 1}});
  EXPECT_TRUE(env.tryReserve(8));   // op 0
  EXPECT_TRUE(env.tryReserve(8));   // op 1
  EXPECT_FALSE(env.tryReserve(8));  // op 2: denied
  EXPECT_TRUE(env.tryReserve(8));   // op 3
  EXPECT_EQ(env.denials(), 1u);
  EXPECT_EQ(env.usedBytes(), 24u);
}

TEST(SimMemEnv, BurstDeniesParamConsecutiveReservations) {
  SimMemEnv env;
  env.setFaults({{1, MemFaultKind::kBurst, 3}});
  EXPECT_TRUE(env.tryReserve(8));   // op 0
  EXPECT_FALSE(env.tryReserve(8));  // op 1: burst starts
  EXPECT_FALSE(env.tryReserve(8));  // op 2
  EXPECT_FALSE(env.tryReserve(8));  // op 3
  EXPECT_TRUE(env.tryReserve(8));   // op 4: burst over
  EXPECT_EQ(env.denials(), 3u);
}

TEST(SimMemEnv, CliffFreezesTheBudgetAtTheFaultPoint) {
  SimMemEnv env;
  env.setFaults({{3, MemFaultKind::kCliff, 1}});
  EXPECT_TRUE(env.tryReserve(100));  // ops 0-2 grow to 300
  EXPECT_TRUE(env.tryReserve(100));
  EXPECT_TRUE(env.tryReserve(100));
  EXPECT_FALSE(env.tryReserve(100));  // op 3: cliff lands, growth denied
  // Releasing frees headroom that can be re-used under the cliff...
  env.release(100);
  EXPECT_TRUE(env.tryReserve(50));
  // ...but net growth past the frozen budget stays denied.
  EXPECT_FALSE(env.tryReserve(100));
  env.clearPressure();
  EXPECT_TRUE(env.tryReserve(100));
}

TEST(SimMemEnv, PoisonDeniesEverythingUntilPressureClears) {
  SimMemEnv env;
  env.setFaults({{0, MemFaultKind::kPoison, 1}});
  EXPECT_FALSE(env.tryReserve(1));
  EXPECT_FALSE(env.tryReserve(1));
  EXPECT_FALSE(env.tryReserve(1));
  EXPECT_EQ(env.denials(), 3u);
  env.clearPressure();
  EXPECT_TRUE(env.tryReserve(1));
}

TEST(SimMemEnv, UnderflowOracleFlagsReleaseWithoutReserve) {
  SimMemEnv env;
  EXPECT_TRUE(env.tryReserve(100));
  env.release(100);
  EXPECT_FALSE(env.underflow());
  env.release(1);  // bytes never reserved
  EXPECT_TRUE(env.underflow());
}

TEST(SimMemEnv, SameScheduleSameWorkloadIsDeterministic) {
  const MemFaultSchedule schedule = {{2, MemFaultKind::kDeny, 1},
                                     {5, MemFaultKind::kBurst, 2}};
  auto run = [&schedule] {
    SimMemEnv env;
    env.setFaults(schedule);
    std::vector<bool> grants;
    for (int i = 0; i < 10; ++i) grants.push_back(env.tryReserve(16));
    return grants;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimMemEnv, FaultKindNamesAreStable) {
  EXPECT_STREQ(memFaultKindName(MemFaultKind::kDeny), "deny");
  EXPECT_STREQ(memFaultKindName(MemFaultKind::kBurst), "burst");
  EXPECT_STREQ(memFaultKindName(MemFaultKind::kCliff), "cliff");
  EXPECT_STREQ(memFaultKindName(MemFaultKind::kPoison), "poison");
}

}  // namespace
}  // namespace tagspin::sim
