// Unit tests for the resource-governance layer (rt/budget.hpp): limit
// bookkeeping and trip typing for each BudgetKind, cooperative cancellation
// through CancellationToken, BudgetScope installation and nesting, the
// free checkpoint helpers' no-budget fast path, and the machine-readable
// error report JSON.
#include <gtest/gtest.h>

#include <string>

#include "rt/budget.hpp"

namespace ictl::rt {
namespace {

TEST(BudgetKindNames, StableLowercaseNames) {
  EXPECT_STREQ(to_string(BudgetKind::kWallClock), "wall-clock");
  EXPECT_STREQ(to_string(BudgetKind::kNodes), "nodes");
  EXPECT_STREQ(to_string(BudgetKind::kIterations), "iterations");
  EXPECT_STREQ(to_string(BudgetKind::kWork), "work");
}

TEST(ResourceBudget, UnlimitedBudgetNeverTripsAndAccumulates) {
  ResourceBudget budget;
  for (int i = 0; i < 100; ++i) budget.checkpoint("test/loop");
  budget.charge_iteration("test/fixpoint");
  budget.checkpoint("test/batch", 1000);
  EXPECT_EQ(budget.iterations(), 1u);
  // checkpoint() counts one unit each; charge_iteration adds one more.
  EXPECT_GE(budget.work(), 1100u);
  EXPECT_FALSE(budget.interrupt_pending());
  EXPECT_EQ(budget.node_cap(), 0u);
}

TEST(ResourceBudget, WorkCapTripsTyped) {
  ResourceBudget budget(BudgetLimits{.work_cap = 10});
  try {
    for (int i = 0; i < 100; ++i) budget.checkpoint("test/work_loop");
    FAIL() << "work cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kWork);
    EXPECT_EQ(e.phase(), "test/work_loop");
    EXPECT_NE(std::string(e.what()).find("work"), std::string::npos);
  }
}

TEST(ResourceBudget, IterationCapTripsTyped) {
  ResourceBudget budget(BudgetLimits{.iteration_cap = 3});
  budget.charge_iteration("test/fixpoint");
  budget.charge_iteration("test/fixpoint");
  try {
    budget.charge_iteration("test/fixpoint");
    budget.charge_iteration("test/fixpoint");
    FAIL() << "iteration cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kIterations);
    EXPECT_EQ(e.phase(), "test/fixpoint");
  }
}

TEST(ResourceBudget, DeadlineTripsWallClock) {
  // A 1 ns deadline has always expired by the first checkpoint.
  ResourceBudget budget(BudgetLimits{.deadline_ns = 1});
  while (budget.elapsed_ns() < 2) {
  }
  EXPECT_TRUE(budget.interrupt_pending());
  try {
    budget.checkpoint("test/deadline");
    FAIL() << "deadline never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kWallClock);
    EXPECT_EQ(e.phase(), "test/deadline");
  }
}

TEST(ResourceBudget, CancellationThrowsInterrupted) {
  CancellationToken token;
  CancellationToken alias = token;  // shared-handle semantics
  ResourceBudget budget(BudgetLimits{}, token);
  budget.checkpoint("test/before");  // not cancelled yet
  alias.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(budget.interrupt_pending());
  EXPECT_THROW(budget.checkpoint("test/after"), Interrupted);
}

TEST(ResourceBudget, TripAttachesCounterSnapshotAndPhase) {
  ResourceBudget budget;
  try {
    budget.trip(BudgetKind::kNodes, "test/ladder");
    FAIL();
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kNodes);
    EXPECT_EQ(e.phase(), "test/ladder");
    // The snapshot may legitimately be empty under -DICTL_OBS=OFF; what
    // matters is the report builds either way.
    const std::string report = error_report_json(e);
    EXPECT_NE(report.find("\"kind\": \"nodes\""), std::string::npos);
    EXPECT_NE(report.find("\"phase\": \"test/ladder\""), std::string::npos);
    EXPECT_NE(report.find("\"counters\""), std::string::npos);
  }
}

TEST(ResourceBudget, InterruptedReportNamesTheKind) {
  const std::string report =
      error_report_json(Interrupted("interrupted: test cause"));
  EXPECT_NE(report.find("\"kind\": \"interrupted\""), std::string::npos);
  EXPECT_NE(report.find("test cause"), std::string::npos);
}

TEST(BudgetScope, InstallsNestsAndRestores) {
  EXPECT_EQ(current_budget(), nullptr);
  ResourceBudget outer;
  {
    const BudgetScope outer_scope(outer);
    EXPECT_EQ(current_budget(), &outer);
    ResourceBudget inner;
    {
      const BudgetScope inner_scope(inner);
      EXPECT_EQ(current_budget(), &inner);
      checkpoint("test/inner");  // charges the inner budget only
    }
    EXPECT_EQ(current_budget(), &outer);
  }
  EXPECT_EQ(current_budget(), nullptr);
  // The free helper charged the inner budget, not the outer one.
  EXPECT_EQ(outer.work(), 0u);
}

TEST(FreeHelpers, NoOpWithoutAnInstalledBudget) {
  EXPECT_EQ(current_budget(), nullptr);
  // Would throw instantly if a zero-work budget were installed.
  checkpoint("test/none");
  charge_iteration("test/none");
  checkpoint("test/none", 1 << 20);
  EXPECT_FALSE(interrupt_pending());
}

TEST(FreeHelpers, RouteToTheInstalledBudget) {
  ResourceBudget budget(BudgetLimits{.work_cap = 5});
  const BudgetScope scope(budget);
  EXPECT_THROW(checkpoint("test/routed", 100), BudgetExceeded);
}

TEST(BudgetScope, ScopeClosedByUnwindRestoresTheOuterBudget) {
  ResourceBudget tight(BudgetLimits{.work_cap = 1});
  try {
    const BudgetScope scope(tight);
    checkpoint("test/unwind", 10);
    FAIL();
  } catch (const BudgetExceeded&) {
  }
  // The scope unwound with the exception: checkpoints are free again.
  EXPECT_EQ(current_budget(), nullptr);
  checkpoint("test/after_unwind", 1 << 20);
}

}  // namespace
}  // namespace ictl::rt
