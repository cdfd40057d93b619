// Unit tests for the deterministic fault-injection hooks (rt/failpoint.hpp):
// one-shot arming and auto-disarm, skip counts, spec-string parsing
// (including the validate-everything-before-arming-anything rule), and the
// failpoint's place in rt::checkpoint: with or without a budget, and
// before the budget is charged.
#include <gtest/gtest.h>

#include "rt/budget.hpp"
#include "rt/failpoint.hpp"

namespace ictl::rt {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm_failpoints(); }
  void TearDown() override { disarm_failpoints(); }
};

TEST_F(FailpointTest, DisarmedSitesAreFree) {
  ASSERT_EQ(armed_failpoints(), 0u);
  for (int i = 0; i < 1000; ++i) checkpoint("test/site");
}

TEST_F(FailpointTest, ArmedSiteFiresOnceAndDisarmsItself) {
  arm_failpoint("test/one_shot");
  EXPECT_EQ(armed_failpoints(), 1u);
  EXPECT_THROW(checkpoint("test/one_shot"), Interrupted);
  // One-shot: the firing disarmed it, so a retry of the same code path
  // (the budget-trip stress suite's re-run) sails through.
  EXPECT_EQ(armed_failpoints(), 0u);
  checkpoint("test/one_shot");
}

TEST_F(FailpointTest, SkipCountDelaysTheTrip) {
  arm_failpoint("test/skip", /*skip=*/2);
  checkpoint("test/skip");  // 1st hit: skipped
  checkpoint("test/skip");  // 2nd hit: skipped
  EXPECT_EQ(armed_failpoints(), 1u);
  EXPECT_THROW(checkpoint("test/skip"), Interrupted);  // 3rd: fires
  EXPECT_EQ(armed_failpoints(), 0u);
}

TEST_F(FailpointTest, OnlyTheNamedSiteFires) {
  arm_failpoint("test/this");
  checkpoint("test/other");  // different name: untouched
  EXPECT_EQ(armed_failpoints(), 1u);
  EXPECT_THROW(checkpoint("test/this"), Interrupted);
}

TEST_F(FailpointTest, RearmingResetsTheSkipCount) {
  arm_failpoint("test/rearm", /*skip=*/5);
  arm_failpoint("test/rearm");  // reset to trip on the next hit
  EXPECT_EQ(armed_failpoints(), 1u);
  EXPECT_THROW(checkpoint("test/rearm"), Interrupted);
}

TEST_F(FailpointTest, SpecParsingArmsListsWithSkips) {
  EXPECT_TRUE(arm_failpoints_from_spec("test/a@2,test/b"));
  EXPECT_EQ(armed_failpoints(), 2u);
  EXPECT_THROW(checkpoint("test/b"), Interrupted);
  checkpoint("test/a");
  checkpoint("test/a");
  EXPECT_THROW(checkpoint("test/a"), Interrupted);
  EXPECT_EQ(armed_failpoints(), 0u);
}

TEST_F(FailpointTest, MalformedSpecsArmNothing) {
  // The last two skips overflow 64 bits: 2^64, and a 25-digit number.
  for (const char* bad : {"", ",", "a,", ",b", "a@", "@2", "a@x", "a@2,",
                          "a@18446744073709551616", "b,a@1234567890123456789012345"}) {
    EXPECT_FALSE(arm_failpoints_from_spec(bad)) << "spec: '" << bad << "'";
    EXPECT_EQ(armed_failpoints(), 0u) << "spec: '" << bad << "'";
  }
}

TEST_F(FailpointTest, TheLargestSkipIsTwoToTheSixtyFourMinusOne) {
  EXPECT_TRUE(arm_failpoints_from_spec("test/max@18446744073709551615"));
  EXPECT_EQ(armed_failpoints(), 1u);
  checkpoint("test/max");
  EXPECT_EQ(armed_failpoints(), 1u);
}

TEST_F(FailpointTest, AnArmedPhaseFiresBeforeTheBudgetIsCharged) {
  ResourceBudget budget;
  const BudgetScope scope(budget);
  arm_failpoint("test/work");
  EXPECT_THROW(checkpoint("test/work", 100), Interrupted);
  EXPECT_EQ(budget.work(), 0u);
  arm_failpoint("test/round");
  EXPECT_THROW(charge_iteration("test/round"), Interrupted);
  EXPECT_EQ(budget.iterations(), 0u);
  // Both fired once: the same checkpoints now charge the budget.
  checkpoint("test/work", 100);
  charge_iteration("test/round");
  EXPECT_EQ(budget.work(), 101u);
  EXPECT_EQ(budget.iterations(), 1u);
}

TEST_F(FailpointTest, DisarmAllClearsEverything) {
  ASSERT_TRUE(arm_failpoints_from_spec("test/x,test/y@9"));
  disarm_failpoints();
  EXPECT_EQ(armed_failpoints(), 0u);
  checkpoint("test/x");
  checkpoint("test/y");
}

}  // namespace
}  // namespace ictl::rt
