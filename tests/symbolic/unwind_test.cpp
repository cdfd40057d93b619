// Exception-safety of protect_scope() and BddRef unwinding, driven by
// deterministic failpoints armed on checkpoint phases: a throw from inside
// (possibly nested) protect scopes must release every scope, run the
// deferred sweeps, keep external root counts balanced, settle the
// deferred-death queue, and bring audit(kLiveness) — and live_nodes — back
// to the pre-scope baseline.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "rt/budget.hpp"
#include "rt/failpoint.hpp"
#include "symbolic/bdd.hpp"
#include "symbolic/bdd_store.hpp"

namespace ictl::symbolic {
namespace {

class UnwindTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::disarm_failpoints(); }
  void TearDown() override { rt::disarm_failpoints(); }
};

TEST_F(UnwindTest, ThrowInsideProtectScopeRestoresTheBaseline) {
  BddManager mgr(8);
  // Durable roots the unwind must not disturb.
  const BddRef keep_a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const BddRef keep_b = mgr.bdd_xor(mgr.var(2), mgr.var(3));
  static_cast<void>(mgr.garbage_collect());
  const std::size_t baseline = mgr.live_nodes();
  const std::uint32_t refs_a = mgr.external_refs(keep_a.get());
  const std::uint32_t refs_b = mgr.external_refs(keep_b.get());

  rt::arm_failpoint("test/unwind");
  try {
    const auto scope = mgr.protect_scope();
    // Unrooted chain plus rooted intermediates, all doomed by the throw.
    Bdd chain = kBddTrue;
    for (std::uint32_t v = 8; v-- > 4;) chain = mgr.make_node(v, kBddFalse, chain);
    const BddRef held = mgr.bdd_or(chain, mgr.bdd_and(mgr.var(5), mgr.var(6)));
    EXPECT_NE(held.get(), kBddFalse);
    rt::checkpoint("test/unwind");
    FAIL() << "failpoint never fired";
  } catch (const Interrupted&) {
  }

  // The scope and the BddRef unwound: counts balanced, sweep reclaims
  // everything down to the pre-scope baseline, liveness audit clean.
  EXPECT_EQ(mgr.external_refs(keep_a.get()), refs_a);
  EXPECT_EQ(mgr.external_refs(keep_b.get()), refs_b);
  static_cast<void>(mgr.garbage_collect());
  EXPECT_EQ(mgr.live_nodes(), baseline);
  EXPECT_TRUE(mgr.audit(BddManager::AuditLevel::kLiveness).ok());
  ASSERT_TRUE(mgr.check_invariants());
}

TEST_F(UnwindTest, NestedScopesUnwindTogether) {
  BddManager mgr(8);
  const BddRef keep = mgr.bdd_iff(mgr.var(0), mgr.var(7));
  static_cast<void>(mgr.garbage_collect());
  const std::size_t baseline = mgr.live_nodes();

  rt::arm_failpoint("test/inner");
  try {
    const auto outer = mgr.protect_scope();
    const Bdd lhs = mgr.bdd_and(mgr.var(1), mgr.var(2));
    {
      const auto inner = mgr.protect_scope();
      const Bdd rhs = mgr.bdd_or(lhs, mgr.var(3));
      EXPECT_NE(rhs, kBddFalse);
      rt::checkpoint("test/inner");
    }
    FAIL() << "failpoint never fired";
  } catch (const Interrupted&) {
  }

  // Both scope depths unwound: a sweep actually runs (it would be deferred
  // were any scope still open) and restores the baseline.
  static_cast<void>(mgr.garbage_collect());
  EXPECT_EQ(mgr.live_nodes(), baseline);
  EXPECT_TRUE(mgr.audit(BddManager::AuditLevel::kLiveness).ok());
  ASSERT_TRUE(mgr.check_invariants());
  // The durable root kept its function.
  std::vector<bool> assignment(mgr.num_vars(), false);
  EXPECT_TRUE(mgr.eval(keep.get(), assignment));
}

TEST_F(UnwindTest, GcFailpointThrowsBeforeAnyMutation) {
  BddManager mgr(6);
  std::vector<BddRef> roots;
  for (std::uint32_t v = 0; v + 1 < 6; ++v)
    roots.push_back(mgr.bdd_and(mgr.var(v), mgr.var(v + 1)));
  {
    // Mint garbage so the post-throw sweep has real work.
    const BddRef doomed = mgr.bdd_xor(roots[0], roots[3]);
    EXPECT_NE(doomed.get(), kBddFalse);
  }
  const auto gc_runs = mgr.stats().gc_runs;

  rt::arm_failpoint("bdd/gc");
  EXPECT_THROW(static_cast<void>(mgr.garbage_collect()), Interrupted);
  // The checkpoint sits above the first mutation: nothing swept, nothing
  // corrupted.
  EXPECT_EQ(mgr.stats().gc_runs, gc_runs);
  ASSERT_TRUE(mgr.check_invariants());
  // Disarmed (one-shot): the retry sweeps normally.
  EXPECT_GT(mgr.garbage_collect(), 0u);
  ASSERT_TRUE(mgr.check_invariants());
}

TEST_F(UnwindTest, ReorderFailpointThrowsBeforeEntry) {
  BddManager mgr(6);
  BddRef parity(mgr, kBddFalse);
  for (std::uint32_t v = 0; v < 6; ++v) parity = mgr.bdd_xor(parity, mgr.var(v));

  rt::arm_failpoint("bdd/reorder");
  EXPECT_THROW(static_cast<void>(mgr.reorder_now()), Interrupted);
  ASSERT_TRUE(mgr.check_invariants());
  // The retry reorders; the rooted function is preserved.
  static_cast<void>(mgr.reorder_now());
  ASSERT_TRUE(mgr.check_invariants());
  std::vector<bool> assignment(6, false);
  assignment[2] = true;
  EXPECT_TRUE(mgr.eval(parity.get(), assignment));
}

TEST_F(UnwindTest, LoadBddsFailpointAbortsCleanlyAndTheRetrySucceeds) {
  // save -> arm the load's checkpoint -> the load throws after the header
  // checks but before the fresh manager is populated, and the one-shot
  // disarm means the retry round-trips fine.
  BddManager mgr(6);
  const BddRef f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(3)),
                              mgr.bdd_xor(mgr.var(2), mgr.var(5)));
  std::stringstream stream;
  save_bdds(mgr, stream, std::vector<std::pair<std::string, Bdd>>{{"f", f.get()}});
  const std::string blob = stream.str();

  rt::arm_failpoint("store/load_bdds");
  {
    std::stringstream in(blob);
    EXPECT_THROW(static_cast<void>(load_bdds(in)), Interrupted);
  }
  std::stringstream in(blob);
  const LoadedBdds loaded = load_bdds(in);
  EXPECT_TRUE(loaded.manager->check_invariants());
  EXPECT_NE(loaded.root("f"), kBddFalse);
}

}  // namespace
}  // namespace ictl::symbolic
