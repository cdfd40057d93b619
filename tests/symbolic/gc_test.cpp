// Scoped BDD lifetimes: BddRef ownership semantics (copy/move/reset drive
// the external root counts), protect_scope deferral, the mark-and-sweep
// garbage collector (leak gate: live_nodes returns to its pre-scope
// baseline once the scope's intermediates die), the retired-handle hard
// errors, and a randomized op/ref-drop stress suite that audits
// check_invariants() after every sweep and reorder against shadow truth
// tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "../helpers.hpp"
#include "symbolic/bdd.hpp"

namespace ictl::symbolic {
namespace {

/// Truth table of f over the first 6 variables, one bit per assignment —
/// the order- and handle-independent ground truth.
std::uint64_t truth6(const BddManager& mgr, Bdd f) {
  std::uint64_t table = 0;
  for (std::uint32_t a = 0; a < 64; ++a) {
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (std::uint32_t v = 0; v < 6; ++v) assignment[v] = ((a >> v) & 1u) != 0;
    if (mgr.eval(f, assignment)) table |= std::uint64_t{1} << a;
  }
  return table;
}

/// Shadow table of variable v (6-variable universe).
std::uint64_t var_table(std::uint32_t v) {
  std::uint64_t table = 0;
  for (std::uint32_t a = 0; a < 64; ++a)
    if ((a >> v) & 1u) table |= std::uint64_t{1} << a;
  return table;
}

using ictl::testing::exists_table;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed * 2654435761u + 88172645463325252ULL) {}
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t x_;
};

TEST(BddRefSemantics, CopyMoveAssignAndResetDriveTheRootCounts) {
  BddManager mgr(4);
  BddRef a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const Bdd node = a.get();
  EXPECT_EQ(mgr.external_refs(node), 1u);

  BddRef b = a;  // copy adds a root
  EXPECT_EQ(mgr.external_refs(node), 2u);
  EXPECT_EQ(b.get(), node);

  BddRef c = std::move(b);  // move transfers, no net change
  EXPECT_EQ(mgr.external_refs(node), 2u);
  EXPECT_EQ(c.get(), node);
  EXPECT_EQ(b.manager(), nullptr);  // NOLINT(bugprone-use-after-move): pinned

  c.reset();  // explicit drop
  EXPECT_EQ(mgr.external_refs(node), 1u);
  EXPECT_EQ(c.get(), kBddFalse);

  // Copy-assign acquires before releasing, so self-assignment through an
  // aliased node is safe.
  BddRef d = a;
  d = a;
  EXPECT_EQ(mgr.external_refs(node), 2u);
  d = BddRef();  // move-assign from empty drops the root
  EXPECT_EQ(mgr.external_refs(node), 1u);

  a.reset();
  EXPECT_EQ(mgr.external_refs(node), 0u);
  // Now dead; a sweep retires it.
  EXPECT_GT(mgr.garbage_collect(), 0u);
  EXPECT_TRUE(mgr.is_retired(node));
  ASSERT_TRUE(mgr.check_invariants());
}

TEST(GcLeakGate, LiveNodesReturnToPreScopeBaselineAfterScopeExits) {
  BddManager mgr(8);
  // Durable roots that must survive every sweep below.
  std::vector<BddRef> keep;
  keep.push_back(mgr.bdd_and(mgr.var(0), mgr.var(1)));
  keep.push_back(mgr.bdd_xor(mgr.var(2), mgr.var(3)));
  const std::uint64_t t0 = truth6(mgr, keep[0]);
  const std::uint64_t t1 = truth6(mgr, keep[1]);
  static_cast<void>(mgr.garbage_collect());
  const std::size_t baseline = mgr.live_nodes();
  const auto gc_runs_before = mgr.stats().gc_runs;

  {
    const auto scope = mgr.protect_scope();
    // An unrooted make_node chain plus operator intermediates: all legal
    // inside the scope, all garbage once it exits.
    Bdd chain = kBddTrue;
    for (std::uint32_t v = 8; v-- > 0;)
      chain = mgr.make_node(v, kBddFalse, chain);
    const Bdd mixed = mgr.bdd_or(chain, mgr.bdd_and(mgr.var(5), mgr.var(6)));
    EXPECT_NE(mixed, kBddFalse);
    // A sweep requested inside the scope is deferred, not run.
    EXPECT_EQ(mgr.garbage_collect(), 0u);
    EXPECT_EQ(mgr.stats().gc_runs, gc_runs_before);
    EXPECT_FALSE(mgr.is_retired(chain));
  }

  // Scope closed, intermediates unrooted: the sweep reclaims everything
  // down to the pre-scope baseline.
  EXPECT_GT(mgr.garbage_collect(), 0u);
  EXPECT_EQ(mgr.live_nodes(), baseline);
  EXPECT_GE(mgr.stats().gc_runs, gc_runs_before + 1);
  EXPECT_GT(mgr.stats().gc_retired, 0u);
  ASSERT_TRUE(mgr.check_invariants());
  // The durable roots kept their functions through the sweep.
  EXPECT_EQ(truth6(mgr, keep[0]), t0);
  EXPECT_EQ(truth6(mgr, keep[1]), t1);
}

TEST(Gc, ProtectOnRetiredHandleIsAHardError) {
  BddManager mgr(4);
  Bdd dead = kBddFalse;
  {
    const BddRef f = mgr.bdd_and(mgr.var(0), mgr.var(1));
    dead = f.get();
  }
  EXPECT_GT(mgr.garbage_collect(), 0u);
  ASSERT_TRUE(mgr.is_retired(dead));
  // Reviving a retired slot would corrupt the unique table: protect (and
  // therefore BddRef construction) must refuse in every build type.
  EXPECT_THROW(mgr.protect(dead), Error);
  EXPECT_THROW(static_cast<void>(BddRef(mgr, dead)), Error);
  ASSERT_TRUE(mgr.check_invariants());
}

TEST(Gc, DeadNodesReviveOnUniqueTableHitUntilSwept) {
  BddManager mgr(4);
  Bdd first = kBddFalse;
  {
    const BddRef f = mgr.bdd_and(mgr.var(0), mgr.var(1));
    first = f.get();
  }
  {
    // Dead but not yet swept: rebuilding the function revives the same
    // slot (handles are stable until retirement).
    const BddRef again = mgr.bdd_and(mgr.var(0), mgr.var(1));
    EXPECT_EQ(again.get(), first);
    EXPECT_FALSE(mgr.is_retired(first));
  }
  // After the sweep the slot is gone for good; rebuilding mints a fresh
  // node with the same semantics.
  EXPECT_GT(mgr.garbage_collect(), 0u);
  EXPECT_TRUE(mgr.is_retired(first));
  const BddRef fresh = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_NE(fresh.get(), first);
  EXPECT_FALSE(mgr.is_retired(fresh.get()));
  EXPECT_EQ(truth6(mgr, fresh), var_table(0) & var_table(1));
  ASSERT_TRUE(mgr.check_invariants());
}

TEST(Gc, AutoGcSweepsTransientsAndKeepsRoots) {
  BddManager mgr(10);
  mgr.enable_auto_gc(/*slack=*/32);
  BddRef parity(mgr, kBddFalse);
  for (std::uint32_t v = 0; v < 10; ++v) parity = mgr.bdd_xor(parity, mgr.var(v));
  // Churn: every result is dropped on the spot, so the auto trigger has a
  // growing pile of garbage and a tiny live set.
  for (std::uint32_t round = 0; round < 200; ++round) {
    static_cast<void>(mgr.bdd_and(
        mgr.var(round % 10), mgr.bdd_xor(parity, mgr.var((round + 3) % 10))));
  }
  EXPECT_GE(mgr.stats().gc_runs, 1u);
  EXPECT_GT(mgr.stats().gc_retired, 0u);
  EXPECT_LT(mgr.live_nodes(), mgr.num_nodes());
  ASSERT_TRUE(mgr.check_invariants());
  // The rooted accumulator survived every sweep with its function intact.
  std::vector<bool> assignment(10, false);
  assignment[0] = true;
  EXPECT_TRUE(mgr.eval(parity, assignment));
  assignment[7] = true;
  EXPECT_FALSE(mgr.eval(parity, assignment));
}

TEST(Gc, SweepInvalidatesTheComputedCacheByEpoch) {
  BddManager mgr(6);
  const BddRef f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(3)),
                              mgr.bdd_and(mgr.var(2), mgr.var(5)));
  const BddRef g = mgr.bdd_iff(mgr.var(1), mgr.var(4));
  Bdd stale = kBddFalse;
  {
    const BddRef conj = mgr.bdd_and(f, g);  // populates the computed table
    stale = conj.get();
  }
  const auto invalidations = mgr.stats().cache_invalidations;
  EXPECT_GT(mgr.garbage_collect(), 0u);  // retires the dead conjunction
  EXPECT_TRUE(mgr.is_retired(stale));
  EXPECT_GT(mgr.stats().cache_invalidations, invalidations);
  // The same (op, operands) key must now MISS — a stale hit would hand the
  // retired handle back out.  The recomputed result is a live fresh node
  // with the right semantics.
  const auto misses = mgr.stats().cache_misses;
  const BddRef recomputed = mgr.bdd_and(f, g);
  EXPECT_GT(mgr.stats().cache_misses, misses);
  EXPECT_NE(recomputed.get(), stale);
  EXPECT_FALSE(mgr.is_retired(recomputed.get()));
  EXPECT_EQ(truth6(mgr, recomputed), truth6(mgr, f) & truth6(mgr, g));
  ASSERT_TRUE(mgr.check_invariants());
}

TEST(GcStress, RandomizedOpsSweepsAndReordersPreserveSemantics) {
  // Random op/ref-drop sequences with a shadow truth table per root:
  // every sweep and every reorder must leave the manager consistent
  // (check_invariants) and every still-rooted function unchanged.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    BddManager mgr(6);
    if (seed % 2 == 0) mgr.enable_auto_gc(/*slack=*/48);
    Rng rng(seed);
    std::vector<std::pair<BddRef, std::uint64_t>> pool;
    for (std::uint32_t v = 0; v < 6; ++v)
      pool.emplace_back(mgr.var(v), var_table(v));

    const auto audit = [&](const char* when, int step) {
      ASSERT_TRUE(mgr.check_invariants())
          << when << " at step " << step << ", seed " << seed;
      for (const auto& [ref, table] : pool) {
        ASSERT_FALSE(mgr.is_retired(ref.get()))
            << when << " retired a rooted node, step " << step;
        ASSERT_EQ(truth6(mgr, ref.get()), table)
            << when << " changed a rooted function, step " << step;
      }
    };

    for (int step = 0; step < 320; ++step) {
      const auto pick = [&]() -> const std::pair<BddRef, std::uint64_t>& {
        return pool[rng.below(pool.size())];
      };
      switch (pool.size() > 20 ? 6 : rng.below(7)) {
        case 0: {
          const auto& [fa, ta] = pick();
          const auto& [fb, tb] = pick();
          pool.emplace_back(mgr.bdd_and(fa, fb), ta & tb);
          break;
        }
        case 1: {
          const auto& [fa, ta] = pick();
          const auto& [fb, tb] = pick();
          pool.emplace_back(mgr.bdd_or(fa, fb), ta | tb);
          break;
        }
        case 2: {
          const auto& [fa, ta] = pick();
          const auto& [fb, tb] = pick();
          pool.emplace_back(mgr.bdd_xor(fa, fb), ta ^ tb);
          break;
        }
        case 3: {
          const auto& [fa, ta] = pick();
          pool.emplace_back(mgr.bdd_not(fa), ~ta);
          break;
        }
        case 4: {
          const auto& [fa, ta] = pick();
          const auto& [fb, tb] = pick();
          const auto& [fc, tc] = pick();
          pool.emplace_back(mgr.ite(fa, fb, fc), (ta & tb) | (~ta & tc));
          break;
        }
        case 5: {
          const auto v = static_cast<std::uint32_t>(rng.below(6));
          const auto& [fa, ta] = pick();
          pool.emplace_back(mgr.and_exists(fa, kBddTrue, mgr.cube({v})),
                            exists_table(ta, v));
          break;
        }
        default:  // drop a root (never below the seed variables)
          if (pool.size() > 6) pool.erase(pool.begin() + rng.below(pool.size()));
          break;
      }
      if (step % 20 == 19) {
        static_cast<void>(mgr.garbage_collect());
        audit("sweep", step);
      }
      if (step % 80 == 79) {
        static_cast<void>(mgr.reorder_now());
        audit("reorder", step);
      }
    }
    // Drop everything: the final sweep returns the manager to empty.
    pool.clear();
    static_cast<void>(mgr.garbage_collect());
    EXPECT_EQ(mgr.live_nodes(), 0u) << "seed " << seed;
    ASSERT_TRUE(mgr.check_invariants()) << "seed " << seed;
    EXPECT_GE(mgr.stats().gc_runs, 16u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ictl::symbolic
