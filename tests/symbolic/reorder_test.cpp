// Dynamic variable reordering: the adjacent-level swap primitive (node
// counts conserved, canonicity preserved, every handle keeps its function),
// Rudell sifting of (2k, 2k+1) pair blocks with the max-growth bound, the
// growth trigger (and what it does once a swap has separated a pair), the
// centralized epoch invalidation of the computed cache on reorders (the
// stale-hit regression), and the randomized-initial-order differential:
// rings built under scrambled pair-block orders, sifting forced on and
// off, must report exactly the counts and Section 5 verdicts of the
// default order.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "ring/ring.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::symbolic {
namespace {

/// Evaluates f on every assignment of `n` variables and packs the results
/// into a truth-table bitmask — indexed by VARIABLE, so the table is the
/// order-independent ground truth across reorders.
std::uint64_t truth_table(const BddManager& mgr, Bdd f, std::uint32_t n) {
  EXPECT_LE(n, 6u);
  std::uint64_t table = 0;
  for (std::uint32_t a = 0; a < (1u << n); ++a) {
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (std::uint32_t v = 0; v < n; ++v) assignment[v] = ((a >> v) & 1u) != 0;
    if (mgr.eval(f, assignment)) table |= std::uint64_t{1} << a;
  }
  return table;
}

using ictl::testing::scrambled_pair_order;

TEST(AdjacentSwap, PreservesFunctionsNodeCountsAndCanonicity) {
  BddManager mgr(6);
  // Rooted refs: the pool is the live set the swaps must preserve.
  const std::vector<BddRef> pool = {
      mgr.bdd_xor(mgr.var(0), mgr.var(3)),
      mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(1)),
                 mgr.bdd_and(mgr.var(2), mgr.var(5))),
      mgr.bdd_iff(mgr.var(1), mgr.bdd_not(mgr.var(4))),
      mgr.bdd_and(mgr.var(2), mgr.bdd_or(mgr.var(3), mgr.var(4)))};
  std::vector<std::uint64_t> tables;
  for (const Bdd f : pool) tables.push_back(truth_table(mgr, f, 6));
  const std::size_t live_before = mgr.live_nodes();

  for (std::uint32_t lvl = 0; lvl + 1 < mgr.num_vars(); ++lvl) {
    mgr.swap_adjacent_levels(lvl);
    ASSERT_TRUE(mgr.check_invariants()) << "after swap at level " << lvl;
    // Handles survive: every pool entry still denotes its function.
    for (std::size_t i = 0; i < pool.size(); ++i)
      EXPECT_EQ(truth_table(mgr, pool[i], 6), tables[i]) << "swap at " << lvl;
    // The order maps really swapped.
    EXPECT_EQ(mgr.level_of_var(mgr.var_at_level(lvl)), lvl);
    // Canonicity: rebuilding a pool function from scratch under the new
    // order lands on the very same (rewritten-in-place) handle.
    EXPECT_EQ(mgr.bdd_xor(mgr.var(0), mgr.var(3)), pool[0]);
    // Swap back: node counts are conserved, not merely bounded.
    mgr.swap_adjacent_levels(lvl);
    ASSERT_TRUE(mgr.check_invariants());
    EXPECT_EQ(mgr.live_nodes(), live_before) << "swap-back at " << lvl;
    for (std::size_t i = 0; i < pool.size(); ++i)
      EXPECT_EQ(mgr.dag_size(pool[i]),
                mgr.dag_size(mgr.bdd_xor(pool[i], kBddFalse)));
  }
  EXPECT_GE(mgr.stats().sift_swaps, 2u * (mgr.num_vars() - 1));
}

TEST(AdjacentSwap, SymmetricFunctionSizeIsOrderInvariant) {
  // Parity is symmetric: any adjacent swap must conserve its dag size
  // exactly (a sharp check that the swap neither duplicates nor loses
  // structure).
  BddManager mgr(8);
  BddRef parity(mgr, kBddFalse);
  for (std::uint32_t v = 0; v < 8; ++v) parity = mgr.bdd_xor(parity, mgr.var(v));
  const std::size_t size = mgr.dag_size(parity);
  for (std::uint32_t lvl = 0; lvl + 1 < 8; ++lvl) {
    mgr.swap_adjacent_levels(lvl);
    EXPECT_EQ(mgr.dag_size(parity), size) << "level " << lvl;
    ASSERT_TRUE(mgr.check_invariants());
  }
}

TEST(Sifting, RecoversFromAdversarialOrder) {
  // Over the unprimed variable x_b = 2b of each pair block b,
  // f = (x_0 & x_1) | (x_2 & x_3) | ... is linear when partner blocks are
  // adjacent and exponential when all low halves precede all high halves.
  // Sifting the blocks from the bad order must find a (near-)linear one.
  constexpr std::uint32_t kTerms = 6;
  BddManager mgr(4 * kTerms);
  std::vector<std::uint32_t> bad_order;
  for (const std::uint32_t half : {0u, 1u})
    for (std::uint32_t p = 0; p < kTerms; ++p) {
      const std::uint32_t block = 2 * p + half;
      bad_order.push_back(2 * block);
      bad_order.push_back(2 * block + 1);
    }
  mgr.set_initial_order(bad_order);
  const auto term = [&](std::uint32_t p) {
    return mgr.bdd_and(mgr.var(4 * p), mgr.var(4 * p + 2));
  };

  // f must be rooted: reorder_now sweeps dead nodes before sifting, so an
  // unrooted handle would be retired out from under the test.
  BddRef f(mgr, kBddFalse);
  for (std::uint32_t p = 0; p < kTerms; ++p) f = mgr.bdd_or(f, term(p));
  const std::size_t before = mgr.dag_size(f);
  ASSERT_GE(before, (std::size_t{1} << kTerms) - 2);  // exponential start

  const std::size_t live_after = mgr.reorder_now();
  ASSERT_TRUE(mgr.check_invariants());
  EXPECT_LE(mgr.dag_size(f), 3 * kTerms);  // linear-sized order found
  EXPECT_EQ(live_after, mgr.live_nodes());
  EXPECT_EQ(mgr.stats().sift_passes, 1u);
  EXPECT_GT(mgr.stats().sift_swaps, 0u);
  EXPECT_TRUE(mgr.pairs_adjacent(2 * kTerms));
  // The function itself is untouched.
  Bdd expected = kBddFalse;
  for (std::uint32_t p = 0; p < kTerms; ++p) expected = mgr.bdd_or(expected, term(p));
  EXPECT_EQ(f, expected);
}

TEST(Sifting, GroupSiftingKeepsPairBlocksIntact) {
  constexpr std::uint32_t kVars = 12;
  BddManager mgr(kVars);
  mgr.set_initial_order(scrambled_pair_order(kVars, 7));
  // Couple far-apart pairs so sifting has an incentive to move blocks; the
  // refs keep the coupling functions live through the reorder's sweep.
  BddRef f(mgr, kBddFalse);
  for (std::uint32_t p = 0; p + 1 < kVars / 2; p += 2)
    f = mgr.bdd_or(f, mgr.bdd_and(mgr.var(2 * p), mgr.var(2 * (p + 1))));
  const BddRef g = mgr.bdd_and(f, mgr.bdd_iff(mgr.var(1), mgr.var(11)));
  static_cast<void>(g.get());
  mgr.reorder_now();
  ASSERT_TRUE(mgr.check_invariants());
  for (std::uint32_t v = 0; v < kVars; v += 2)
    EXPECT_EQ(mgr.level_of_var(v + 1), mgr.level_of_var(v) + 1)
        << "pair (" << v << ", " << v + 1 << ") split by group sifting";
  // Pair grouping on an odd-width or misaligned manager is rejected.
  BddManager odd(3);
  EXPECT_THROW(static_cast<void>(odd.reorder_now()), Error);
}

TEST(Reorder, ComputedCacheIsInvalidatedEpochStyle) {
  // The stale-hit regression (centralized invalidation): populate the
  // computed table, reorder, and verify the same (op, operands) key is NOT
  // served from the pre-reorder table — the lookup must miss and recompute,
  // and the recomputation must land on the same (function-preserving)
  // handle.
  BddManager mgr(6);
  const Bdd f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(3)),
                           mgr.bdd_and(mgr.var(2), mgr.var(5)));
  const Bdd g = mgr.bdd_iff(mgr.var(1), mgr.var(4));
  const std::uint64_t tf = truth_table(mgr, f, 6);

  const Bdd before = mgr.bdd_and(f, g);  // populates the computed table
  {
    // Warm: the identical call hits the cache.
    const auto s0 = mgr.stats();
    EXPECT_EQ(mgr.bdd_and(f, g), before);
    EXPECT_GT(mgr.stats().cache_hits, s0.cache_hits);
  }

  const auto s1 = mgr.stats();
  mgr.swap_adjacent_levels(1);  // any order change must bump the epoch
  EXPECT_EQ(mgr.stats().cache_invalidations, s1.cache_invalidations + 1);

  const auto s2 = mgr.stats();
  const Bdd after = mgr.bdd_and(f, g);
  // Forced-stale scenario: the key is identical, so without the epoch bump
  // this WOULD have been a (potentially stale) hit; instead it must miss
  // and recompute...
  EXPECT_GT(mgr.stats().cache_misses, s2.cache_misses);
  // ...and because swaps preserve every handle's function, the recomputed
  // conjunction is the same canonical node with the same semantics.
  EXPECT_EQ(after, before);
  EXPECT_EQ(truth_table(mgr, f, 6), tf);

  // reorder_now goes through the same centralized helper (on the restored
  // order: sifting moves whole pairs only).
  mgr.swap_adjacent_levels(1);
  const auto s3 = mgr.stats();
  static_cast<void>(mgr.reorder_now());
  EXPECT_EQ(mgr.stats().cache_invalidations, s3.cache_invalidations + 1);
}

TEST(Reorder, DynamicReorderingTriggersSiftOnGrowth) {
  BddManager mgr(16);
  mgr.enable_dynamic_reordering(/*threshold=*/128);
  // Growth-triggered sifts sweep dead nodes mid-loop; the accumulators must
  // be rooted to survive until the next iteration reads them.
  BddRef acc(mgr, kBddTrue);
  for (std::uint32_t v = 0; v + 1 < 16; ++v)
    acc = mgr.bdd_and(acc, mgr.bdd_or(mgr.var(v), mgr.bdd_not(mgr.var(v + 1))));
  BddRef parity(mgr, kBddFalse);
  for (std::uint32_t v = 0; v < 16; ++v) parity = mgr.bdd_xor(parity, mgr.var(v));
  EXPECT_GE(mgr.stats().reorder_hook_calls, 1u);
  EXPECT_EQ(mgr.stats().sift_passes, mgr.stats().reorder_hook_calls);
  ASSERT_TRUE(mgr.check_invariants());
  // Everything still evaluates correctly after however many sifts fired.
  std::vector<bool> assignment(16, true);
  EXPECT_TRUE(mgr.eval(acc, assignment));
  EXPECT_FALSE(mgr.eval(parity, assignment));
}

TEST(Reorder, ArmedTriggerThrowsOnASeparatedPairUntilTheOrderIsRestored) {
  // Sifting moves only (2k, 2k+1) pair blocks, and swap_adjacent_levels is
  // the one way to separate a pair.  With the trigger armed, every
  // operation that crosses the threshold then throws a typed Error from
  // reorder_now after building its result; the manager stays audit-clean
  // and every rooted function intact.  Once the order is restored, the
  // next crossing sifts.
  constexpr std::uint32_t kVars = 16;
  BddManager mgr(kVars);
  mgr.enable_dynamic_reordering(/*threshold=*/128);
  mgr.swap_adjacent_levels(1);  // x2 above x1: pairs (0, 1) and (2, 3) apart
  ASSERT_FALSE(mgr.pairs_adjacent(kVars / 2));

  std::size_t throws = 0;
  // Runs op until it returns.  A retry finds the nodes the failed attempt
  // built in the unique table, so it crosses no threshold of its own.
  const auto retry = [&](const auto& op) {
    for (;;) {
      try {
        return op();
      } catch (const Error& e) {
        ++throws;
        EXPECT_NE(std::string(e.what()).find("reorder_now"), std::string::npos) << e.what();
      }
    }
  };
  // q_k = XOR over v of (x_v & x_{v+k mod 16}): its BDD widens with the
  // distance k, so building q_1, q_2, ... crosses one doubled threshold
  // after another.
  const auto q_holds = [&](std::uint32_t k, std::uint32_t bits) {
    bool parity = false;
    for (std::uint32_t v = 0; v < kVars; ++v)
      parity ^= ((bits >> v) & (bits >> ((v + k) % kVars)) & 1u) != 0;
    return parity;
  };
  std::vector<BddRef> q;  // q[k - 1] = q_k, rooted
  const auto build = [&](std::uint32_t k) {
    BddRef acc(mgr, kBddFalse);
    for (std::uint32_t v = 0; v < kVars; ++v)
      acc = retry([&] {
        return mgr.bdd_xor(acc, mgr.bdd_and(mgr.var(v), mgr.var((v + k) % kVars)));
      });
    q.push_back(acc);
  };
  const auto expect_intact = [&](const char* when) {
    const auto report = mgr.audit();
    EXPECT_TRUE(report.ok()) << when << ":\n" << report.to_string();
    std::vector<bool> assignment(kVars);
    for (std::uint32_t bits = 0; bits < (1u << kVars); ++bits) {
      for (std::uint32_t v = 0; v < kVars; ++v) assignment[v] = ((bits >> v) & 1u) != 0;
      for (std::uint32_t k = 1; k <= q.size(); ++k)
        ASSERT_EQ(mgr.eval(q[k - 1], assignment), q_holds(k, bits))
            << when << ": q_" << k << " at " << bits;
    }
  };

  for (std::uint32_t k = 1; k <= 4; ++k) build(k);
  EXPECT_GE(throws, 1u);
  EXPECT_EQ(mgr.stats().reorder_hook_calls, throws);
  EXPECT_EQ(mgr.stats().sift_passes, 0u);
  expect_intact("pair separated");

  mgr.swap_adjacent_levels(1);
  ASSERT_TRUE(mgr.pairs_adjacent(kVars / 2));
  const std::size_t throws_while_separated = throws;
  for (std::uint32_t k = 5; k <= 8; ++k) build(k);
  EXPECT_EQ(throws, throws_while_separated);
  EXPECT_GE(mgr.stats().sift_passes, 1u);
  EXPECT_EQ(mgr.stats().reorder_hook_calls, throws + mgr.stats().sift_passes);
  // The threshold doubles past the table at each firing, thrown or not.
  EXPECT_LE(mgr.stats().reorder_hook_calls,
            static_cast<std::size_t>(std::bit_width(mgr.num_nodes() / 128)));
  EXPECT_TRUE(mgr.pairs_adjacent(kVars / 2));
  expect_intact("order restored");
}

// ---- The randomized-order differential (satellite) --------------------------

struct RingExpectation {
  SatCount reachable;
  std::vector<bool> verdicts;  // Section 5 specs, in order
};

RingExpectation expected_for(std::uint32_t r) {
  const SymbolicRing ring = build_symbolic_ring(r);
  CtlChecker checker(ring.system);
  RingExpectation e;
  e.reachable = ring.system->num_states();
  for (const auto& [name, f] : ring::section5_specifications())
    e.verdicts.push_back(checker.holds_initially(f));
  return e;
}

TEST(RandomizedOrder, CountsAndVerdictsAreOrderInvariant) {
  // 20 scrambled pair-block initial orders across ring sizes, sifting
  // forced on and off: sat counts, reachable counts, and all six Section 5
  // verdicts must match the default order exactly.
  const std::vector<std::uint32_t> sizes = {2, 5, 8, 16};
  std::vector<RingExpectation> expected;
  expected.reserve(sizes.size());
  for (const std::uint32_t r : sizes) expected.push_back(expected_for(r));

  const auto specs = ring::section5_specifications();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::uint32_t r = sizes[seed % sizes.size()];
    const RingExpectation& want = expected[seed % sizes.size()];
    for (const bool sift : {false, true}) {
      // Sift-on legs run all the way to r = 16 now: scoped lifetimes mean
      // the reorder's sweep sees only the true live set (system roots and
      // in-flight fixpoint refs), so growth-triggered passes on the larger
      // checker-heavy managers stay cheap instead of dragging every dead
      // intermediate through every swap.
      const std::uint32_t num_bdd_vars = 2 * (2 * r + 1);
      auto mgr = std::make_shared<BddManager>(num_bdd_vars);
      mgr->set_initial_order(scrambled_pair_order(num_bdd_vars, seed));
      const SymbolicRing ring = build_symbolic_ring(r, mgr, nullptr);
      // Low enough to fire for real at every size, high enough that the
      // larger rings don't spend the whole test resifting.
      if (sift) mgr->enable_dynamic_reordering(r <= 5 ? 128 : (r <= 8 ? 2048 : 8192));
      CtlChecker checker(ring.system);

      EXPECT_EQ(ring.system->num_states(), want.reachable)
          << "r=" << r << " seed=" << seed << " sift=" << sift;
      EXPECT_EQ(ring.system->num_states(), SatCount::make(ring::ring_state_count(r)));
      for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(checker.holds_initially(specs[i].second), want.verdicts[i])
            << "r=" << r << " seed=" << seed << " sift=" << sift << " spec "
            << specs[i].first;
      if (sift) {
        EXPECT_GE(mgr->stats().sift_passes, 1u)
            << "threshold never fired; the sift leg tested nothing";
        ASSERT_TRUE(mgr->check_invariants());
      }
    }
  }
}

TEST(Reorder, SharedManagerSecondBuildIsSafeFromInheritedHook) {
  // Regression: the growth trigger armed after one build stays on the
  // manager; a LATER build on the same (supported-to-share) manager must
  // not let it sift mid-chain-construction — the constraint-chain
  // builders assume a frozen order, and an unlucky firing used to trip the
  // order-invariant assertion.  build_symbolic_ring runs the whole build
  // under a protect_scope, which defers both reordering and GC until the
  // system has rooted its parts.
  auto mgr = std::make_shared<BddManager>(2 * (2 * 24 + 1));
  auto reg = kripke::make_registry();
  const SymbolicRing first = build_symbolic_ring(6, mgr, reg);
  mgr->enable_dynamic_reordering(256);
  EXPECT_EQ(first.system->num_states(), SatCount::make(ring::ring_state_count(6)));
  // The second build grows the table well past every doubled threshold, so
  // without the pause the inherited hook fires mid-build.
  const SymbolicRing second = build_symbolic_ring(24, mgr, reg);
  EXPECT_EQ(second.system->num_states(), SatCount::make(ring::ring_state_count(24)));
  EXPECT_EQ(first.system->num_states(), SatCount::make(ring::ring_state_count(6)));
  ASSERT_TRUE(mgr->check_invariants());
}

TEST(RandomizedOrder, ExplicitSiftOnScrambledRingShrinksOrMatches) {
  // A scrambled order typically inflates the ring relation; one sifting
  // pass must not make the live table worse (and usually improves it).
  const std::uint32_t r = 10;
  const std::uint32_t num_bdd_vars = 2 * (2 * r + 1);
  auto mgr = std::make_shared<BddManager>(num_bdd_vars);
  mgr->set_initial_order(scrambled_pair_order(num_bdd_vars, 1234));
  const SymbolicRing ring = build_symbolic_ring(r, mgr, nullptr);
  static_cast<void>(ring.system->reachable());
  const std::size_t before = mgr->live_nodes();
  const std::size_t after = mgr->reorder_now();
  EXPECT_LE(after, before);
  ASSERT_TRUE(mgr->check_invariants());
  EXPECT_EQ(ring.system->num_states(), SatCount::make(ring::ring_state_count(r)));
}

}  // namespace
}  // namespace ictl::symbolic
