// Unit tests for the BDD manager: canonicity (hash-consing), the ITE
// identities, quantification, renaming, counting, and the computed-table
// plumbing.  Operators are validated against brute-force truth-table
// evaluation over small variable counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "symbolic/bdd.hpp"

namespace ictl::symbolic {
namespace {

/// Evaluates f on every assignment of `n` variables and packs the results
/// into a truth-table bitmask (assignment bits = variable values).
std::uint64_t truth_table(BddManager& mgr, Bdd f, std::uint32_t n) {
  EXPECT_LE(n, 6u);
  std::uint64_t table = 0;
  for (std::uint32_t a = 0; a < (1u << n); ++a) {
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (std::uint32_t v = 0; v < n; ++v) assignment[v] = ((a >> v) & 1u) != 0;
    if (mgr.eval(f, assignment)) table |= std::uint64_t{1} << a;
  }
  return table;
}

TEST(BddManager, TerminalsAndVars) {
  BddManager mgr(4);
  EXPECT_EQ(mgr.num_vars(), 4u);
  EXPECT_NE(kBddFalse, kBddTrue);
  EXPECT_TRUE(BddManager::is_terminal(kBddFalse));
  EXPECT_TRUE(BddManager::is_terminal(kBddTrue));
  const Bdd x0 = mgr.var(0);
  EXPECT_FALSE(BddManager::is_terminal(x0));
  EXPECT_EQ(mgr.node_var(x0), 0u);
  EXPECT_EQ(mgr.node_low(x0), kBddFalse);
  EXPECT_EQ(mgr.node_high(x0), kBddTrue);
}

TEST(BddManager, CanonicityHashConsing) {
  BddManager mgr(4);
  // The same function built twice is the same node.
  EXPECT_EQ(mgr.var(2), mgr.var(2));
  const Bdd a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const Bdd b = mgr.bdd_and(mgr.var(1), mgr.var(0));
  EXPECT_EQ(a, b);
  // De Morgan, structurally: !(x | y) == !x & !y as node identity.
  const Bdd lhs = mgr.bdd_not(mgr.bdd_or(mgr.var(0), mgr.var(1)));
  const Bdd rhs = mgr.bdd_and(mgr.bdd_not(mgr.var(0)), mgr.bdd_not(mgr.var(1)));
  EXPECT_EQ(lhs, rhs);
  // Double negation restores the original node.
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_not(a)), a);
  // Tautology and contradiction collapse to the terminals.
  EXPECT_EQ(mgr.bdd_or(mgr.var(3), mgr.bdd_not(mgr.var(3))), kBddTrue);
  EXPECT_EQ(mgr.bdd_and(mgr.var(3), mgr.bdd_not(mgr.var(3))), kBddFalse);
}

TEST(BddManager, IteIdentities) {
  BddManager mgr(3);
  const Bdd f = mgr.bdd_xor(mgr.var(0), mgr.var(1));
  const Bdd g = mgr.var(2);
  EXPECT_EQ(mgr.ite(kBddTrue, f, g), f);
  EXPECT_EQ(mgr.ite(kBddFalse, f, g), g);
  EXPECT_EQ(mgr.ite(f, g, g), g);
  EXPECT_EQ(mgr.ite(f, kBddTrue, kBddFalse), f);
  EXPECT_EQ(mgr.ite(f, kBddFalse, kBddTrue), mgr.bdd_not(f));
  // ite(f, g, h) == (f & g) | (!f & h) on truth tables.
  const Bdd h = mgr.bdd_and(mgr.var(1), mgr.var(2));
  const Bdd via_ite = mgr.ite(f, g, h);
  const Bdd expanded =
      mgr.bdd_or(mgr.bdd_and(f, g), mgr.bdd_and(mgr.bdd_not(f), h));
  EXPECT_EQ(via_ite, expanded);
}

TEST(BddManager, OperatorsMatchTruthTables) {
  // Exhaustive: every pair of 4-var functions drawn from a pool, each
  // operator cross-checked against the packed truth tables.
  BddManager mgr(4);
  std::vector<Bdd> pool = {kBddFalse, kBddTrue, mgr.var(0), mgr.var(3),
                           mgr.bdd_xor(mgr.var(0), mgr.var(2)),
                           mgr.bdd_and(mgr.var(1), mgr.bdd_not(mgr.var(2))),
                           mgr.bdd_or(mgr.var(0), mgr.bdd_and(mgr.var(1), mgr.var(3)))};
  for (const Bdd f : pool) {
    const std::uint64_t tf = truth_table(mgr, f, 4);
    EXPECT_EQ(truth_table(mgr, mgr.bdd_not(f), 4), ~tf & 0xffffu);
    for (const Bdd g : pool) {
      const std::uint64_t tg = truth_table(mgr, g, 4);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_and(f, g), 4), tf & tg);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_or(f, g), 4), tf | tg);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_xor(f, g), 4), (tf ^ tg) & 0xffffu);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_iff(f, g), 4), ~(tf ^ tg) & 0xffffu);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_diff(f, g), 4), tf & ~tg);
    }
  }
}

TEST(BddManager, Quantification) {
  // Plain quantification is and_exists with g = true.
  BddManager mgr(4);
  const auto exists = [&](Bdd f, const std::vector<std::uint32_t>& vars) {
    return mgr.and_exists(f, kBddTrue, mgr.cube(vars));
  };
  const Bdd f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(1)),
                           mgr.bdd_and(mgr.var(2), mgr.var(3)));
  // exists x0 x1. f  =  true when (x2 & x3) | anything-for-x0x1: x0=x1=1
  // satisfies the first disjunct, so the quantified result is constant true.
  EXPECT_EQ(exists(f, {0, 1}), kBddTrue);
  // forall x0 x1. f  =  !exists x0 x1. !f  =  x2 & x3 (the first disjunct
  // fails at x0=0).
  EXPECT_EQ(mgr.bdd_not(exists(mgr.bdd_not(f), {0, 1})),
            mgr.bdd_and(mgr.var(2), mgr.var(3)));
  // exists over an absent variable is the identity.
  const Bdd g = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_EQ(exists(g, {3}), g);
  // exists distributes as or of cofactors: directly compare against
  // f[x2:=0] | f[x2:=1] computed by hand.
  const Bdd f0 = mgr.bdd_and(mgr.var(0), mgr.var(1));            // f with x2=0
  const Bdd f1 = mgr.bdd_or(f0, mgr.var(3));                     // f with x2=1
  EXPECT_EQ(exists(f, {2}), mgr.bdd_or(f0, f1));
  // Terminals: nothing to quantify.
  EXPECT_EQ(exists(kBddTrue, {0, 1}), kBddTrue);
  EXPECT_EQ(exists(kBddFalse, {0, 1}), kBddFalse);
}

TEST(BddManager, AndExistsMatchesComposition) {
  // and_exists(f, g, cube) against exists cube. (f & g) computed on truth
  // tables, over every pair of the pool (true included, so plain
  // quantification and f = g are covered) and cubes of one, two and three
  // variables.
  BddManager mgr(6);
  const std::vector<BddRef> pool = {
      BddRef(mgr, kBddTrue),
      mgr.bdd_xor(mgr.var(0), mgr.var(3)),
      mgr.bdd_or(mgr.var(1), mgr.bdd_and(mgr.var(2), mgr.var(5))),
      mgr.bdd_and(mgr.bdd_not(mgr.var(4)), mgr.var(0)),
      mgr.bdd_iff(mgr.var(2), mgr.var(3))};
  const std::vector<std::vector<std::uint32_t>> cubes = {{5}, {0, 3}, {1, 3, 5}};
  for (const auto& vars : cubes) {
    const BddRef cube = mgr.cube(vars);
    for (const Bdd f : pool)
      for (const Bdd g : pool) {
        std::uint64_t expected = truth_table(mgr, f, 6) & truth_table(mgr, g, 6);
        for (const std::uint32_t v : vars) expected = testing::exists_table(expected, v);
        EXPECT_EQ(truth_table(mgr, mgr.and_exists(f, g, cube), 6), expected)
            << "f " << f << " g " << g << " cube of " << vars.size();
      }
  }
}

TEST(BddManager, RenameShiftsVariables) {
  BddManager mgr(6);
  // Order-preserving shift 0->1, 2->3, 4->5 (the unprimed->primed pattern).
  std::vector<std::uint32_t> map = {1, 1, 3, 3, 5, 5};
  const Bdd f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(2)), mgr.var(4));
  const Bdd renamed = mgr.rename(f, map);
  const Bdd expected =
      mgr.bdd_or(mgr.bdd_and(mgr.var(1), mgr.var(3)), mgr.var(5));
  EXPECT_EQ(renamed, expected);
  // Renaming back round-trips.
  std::vector<std::uint32_t> back = {0, 0, 2, 2, 4, 4};
  EXPECT_EQ(mgr.rename(renamed, back), f);
}

TEST(BddManager, RenameRejectsAMapWithoutAnEntryForASupportVariable) {
  BddManager mgr(6);
  const BddRef f = mgr.bdd_and(mgr.var(0), mgr.var(4));
  const std::size_t nodes = mgr.num_nodes();
  // Entries for variables 0..2 only: variable 4 is in the support.
  EXPECT_THROW(static_cast<void>(mgr.rename(f, {1, 0, 2})), Error);
  EXPECT_EQ(mgr.num_nodes(), nodes);
  EXPECT_TRUE(mgr.audit(BddManager::AuditLevel::kFull).ok());
  // A map covering the support is enough, however short.
  EXPECT_EQ(mgr.rename(f, {1, 1, 2, 3, 5}).get(), mgr.bdd_and(mgr.var(1), mgr.var(5)).get());
}

TEST(BddManager, RenameRejectsAnImagePastTheManagersVariables) {
  BddManager mgr(6);
  const BddRef f = mgr.bdd_or(mgr.var(1), mgr.var(3));
  const std::size_t nodes = mgr.num_nodes();
  EXPECT_THROW(static_cast<void>(mgr.rename(f, {0, 1, 2, 6, 4, 5})), Error);
  EXPECT_EQ(mgr.num_nodes(), nodes);
  EXPECT_TRUE(mgr.audit(BddManager::AuditLevel::kFull).ok());
}

/// The BDD of a truth table over variables 0..5, built under any order.
BddRef from_table(BddManager& mgr, std::uint64_t table) {
  BddRef f(mgr, kBddFalse);
  for (std::uint32_t a = 0; a < 64; ++a) {
    if (((table >> a) & 1u) == 0) continue;
    BddRef minterm(mgr, kBddTrue);
    for (std::uint32_t v = 0; v < 6; ++v)
      minterm = mgr.bdd_and(minterm, ((a >> v) & 1u) != 0 ? mgr.var(v) : mgr.nvar(v));
    f = mgr.bdd_or(f, minterm);
  }
  return f;
}

/// The oracle: f with each x_v read as x_map[v], on truth tables over 6
/// variables (the map need only cover f's support).
std::uint64_t renamed_table(std::uint64_t table, const std::vector<std::uint32_t>& map) {
  std::uint64_t out = 0;
  for (std::uint32_t a = 0; a < 64; ++a) {
    std::uint32_t read = 0;
    for (std::uint32_t v = 0; v < map.size() && v < 6; ++v)
      read |= ((a >> map[v]) & 1u) << v;
    if (((table >> read) & 1u) != 0) out |= std::uint64_t{1} << a;
  }
  return out;
}

/// Truth tables over variables 0..5: the two constants, full-support ones
/// (parity, which every rotation fixes, and a random sample), and a few
/// over part of the variables.
std::vector<std::uint64_t> rename_pool() {
  std::vector<std::uint64_t> tables = {0, ~std::uint64_t{0}};
  std::uint64_t parity = 0;
  for (std::uint32_t a = 0; a < 64; ++a)
    if (std::popcount(a) % 2 == 1) parity |= std::uint64_t{1} << a;
  tables.push_back(parity);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift64
  for (int i = 0; i < 24; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    tables.push_back(x);
  }
  BddManager scratch(6);
  for (const Bdd f : {scratch.var(5).get(), scratch.bdd_and(scratch.var(0), scratch.var(5)).get(),
                      scratch.bdd_xor(scratch.var(1), scratch.var(4)).get(),
                      scratch.bdd_or(scratch.var(2), scratch.bdd_and(scratch.var(3),
                                                                     scratch.var(4))).get()})
    tables.push_back(truth_table(scratch, f, 6));
  return tables;
}

/// Map v -> v + k on the top 6 - k levels and the bottom k levels wrapped
/// onto the top, over the variables at levels 0..5 of `mgr`'s order.
std::vector<std::uint32_t> level_rotation(const BddManager& mgr, std::uint32_t k) {
  std::vector<std::uint32_t> map(mgr.num_vars());
  for (std::uint32_t v = 0; v < map.size(); ++v) map[v] = v;
  for (std::uint32_t l = 0; l < 6; ++l) map[mgr.var_at_level(l)] = mgr.var_at_level((l + k) % 6);
  return map;
}

/// Renames every pool function by `map` and checks the result against the
/// permuted truth table, with the manager audit-clean afterwards.  When
/// `restricting` (the map has rename's block-wrap shape), also checks
/// that every node the rename built is a node of the result, and that a
/// function the map fixes comes back with no node built.
void expect_renames_match_the_oracle(BddManager& mgr, const std::vector<std::uint32_t>& map,
                                     bool restricting) {
  for (const std::uint64_t table : rename_pool()) {
    const BddRef f = from_table(mgr, table);
    const std::size_t before = mgr.num_nodes();
    const BddRef g = mgr.rename(f, map);
    EXPECT_EQ(truth_table(mgr, g, 6), renamed_table(table, map)) << "table " << table;
    if (restricting) {
      EXPECT_LE(mgr.num_nodes() - before, mgr.dag_size(g)) << "table " << table;
      if (g.get() == f.get()) {
        EXPECT_EQ(mgr.num_nodes(), before) << "table " << table;
      }
    }
  }
  EXPECT_TRUE(mgr.audit(BddManager::AuditLevel::kFull).ok());
}

TEST(RenameDifferential, BlockRotationsWrappingOneToFourLevels) {
  for (std::uint32_t k = 1; k <= 4; ++k) {
    SCOPED_TRACE("wrap of " + std::to_string(k));
    BddManager mgr(6);
    expect_renames_match_the_oracle(mgr, level_rotation(mgr, k), /*restricting=*/true);
  }
}

TEST(RenameDifferential, AFiveLevelWrapTakesTheIteRecursion) {
  BddManager mgr(6);
  expect_renames_match_the_oracle(mgr, level_rotation(mgr, 5), /*restricting=*/false);
}

TEST(RenameDifferential, MapsThatMergeTheVariablesOfAPair) {
  // RenameShiftsVariables' pattern, now applied to functions over both
  // variables of a pair: not injective on the support.
  BddManager mgr(6);
  expect_renames_match_the_oracle(mgr, {1, 1, 3, 3, 5, 5}, /*restricting=*/false);
  expect_renames_match_the_oracle(mgr, {0, 0, 2, 2, 4, 4}, /*restricting=*/false);
}

TEST(RenameDifferential, AMapShorterThanTheManagerCoversItsSupport) {
  BddManager mgr(9);
  expect_renames_match_the_oracle(mgr, {4, 5, 0, 1, 2, 3}, /*restricting=*/true);
  expect_renames_match_the_oracle(mgr, {5, 4, 3, 2, 1, 0}, /*restricting=*/false);
}

TEST(RenameDifferential, ScrambledInitialOrders) {
  for (const std::uint64_t seed : {3u, 7u, 11u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    BddManager mgr(6);
    mgr.set_initial_order(testing::scrambled_pair_order(6, seed));
    // Wraps by level keep their shape under any order; wraps by variable
    // index mostly break it there.
    for (std::uint32_t k = 1; k <= 5; ++k) {
      expect_renames_match_the_oracle(mgr, level_rotation(mgr, k), /*restricting=*/k <= 4);
      std::vector<std::uint32_t> by_index(6);
      for (std::uint32_t v = 0; v < 6; ++v) by_index[v] = (v + k) % 6;
      expect_renames_match_the_oracle(mgr, by_index, /*restricting=*/false);
    }
  }
}

TEST(RenameDifferential, RandomPermutations) {
  BddManager mgr(6);
  std::vector<std::uint32_t> map = {0, 1, 2, 3, 4, 5};
  std::uint64_t x = 0x2545f4914f6cdd1dULL;  // xorshift64
  for (int i = 0; i < 40; ++i) {
    for (std::size_t j = map.size(); j > 1; --j) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(map[j - 1], map[x % j]);
    }
    expect_renames_match_the_oracle(mgr, map, /*restricting=*/false);
  }
}

/// Draws random or_all inputs over the rename pool — 0 to 9 terms, with
/// duplicates, and a care set that is true, false or a pool table — and
/// checks each result against the OR/AND of the truth tables and, by
/// handle, against a bdd_or fold conjoined by bdd_and; the call may add no
/// more node slots than the result's DAG, and the manager audits clean.
void expect_or_all_matches_the_fold(BddManager& mgr, std::uint64_t seed) {
  const std::vector<std::uint64_t> pool = rename_pool();
  std::uint64_t x = seed;  // xorshift64
  const auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = next() % 10;
    std::vector<std::uint64_t> tables;
    std::vector<BddRef> terms;
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < n; ++i) {
      tables.push_back(pool[next() % pool.size()]);
      terms.push_back(from_table(mgr, tables.back()));
      want |= tables.back();
    }
    const std::uint64_t choice = next() % 3;
    const std::uint64_t care_table = choice == 0   ? ~std::uint64_t{0}
                                     : choice == 1 ? 0
                                                   : pool[next() % pool.size()];
    want &= care_table;
    const BddRef care = from_table(mgr, care_table);
    const std::vector<Bdd> handles(terms.begin(), terms.end());

    const std::size_t before = mgr.num_nodes();
    const BddRef got = mgr.or_all(handles, care);
    EXPECT_LE(mgr.num_nodes() - before, mgr.dag_size(got)) << "round " << round;
    EXPECT_EQ(truth_table(mgr, got, 6), want) << "round " << round;
    BddRef fold(mgr, kBddFalse);
    for (const BddRef& t : terms) fold = mgr.bdd_or(fold, t);
    fold = mgr.bdd_and(fold, care);
    EXPECT_EQ(got.get(), fold.get()) << "round " << round;
  }
  EXPECT_TRUE(mgr.audit(BddManager::AuditLevel::kFull).ok());
}

TEST(OrAllDifferential, IdentityOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    BddManager mgr(6);
    expect_or_all_matches_the_fold(mgr, seed * 0x9e3779b97f4a7c15ULL);
  }
}

TEST(OrAllDifferential, ScrambledInitialOrders) {
  for (const std::uint64_t seed : {3u, 7u, 11u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    BddManager mgr(6);
    mgr.set_initial_order(testing::scrambled_pair_order(6, seed));
    expect_or_all_matches_the_fold(mgr, seed * 0x2545f4914f6cdd1dULL);
  }
}

TEST(OrAllDifferential, AdjacentLevelsSwappedUnderLiveFunctions) {
  // The pool's functions are built and held first, so each swap rewrites
  // live nodes in place before the kernel reads them.
  for (std::uint32_t level = 0; level + 1 < 6; ++level) {
    SCOPED_TRACE(::testing::Message() << "swapped at level " << level);
    BddManager mgr(6);
    std::vector<BddRef> held;
    for (const std::uint64_t table : rename_pool()) held.push_back(from_table(mgr, table));
    mgr.swap_adjacent_levels(level);
    expect_or_all_matches_the_fold(mgr, 0xd1b54a32d192ed03ULL + level);
  }
}

TEST(OrAllDifferential, EdgeCasesNeedNoRecursion) {
  BddManager mgr(4);
  const BddRef a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const BddRef b = mgr.var(2);
  EXPECT_EQ(mgr.or_all({}).get(), kBddFalse);
  EXPECT_EQ(mgr.or_all(std::vector<Bdd>{kBddFalse, kBddFalse}).get(), kBddFalse);
  EXPECT_EQ(mgr.or_all(std::vector<Bdd>{a, kBddTrue}, b).get(), b.get());
  EXPECT_EQ(mgr.or_all(std::vector<Bdd>{a, a, kBddFalse}).get(), a.get());
  EXPECT_EQ(mgr.or_all(std::vector<Bdd>{a, b}, kBddFalse).get(), kBddFalse);
  // The kernel never touches the computed table.
  const auto lookups = mgr.stats().cache_hits + mgr.stats().cache_misses;
  const BddRef ab = mgr.or_all(std::vector<Bdd>{a, b}, mgr.var(3));
  EXPECT_EQ(mgr.stats().cache_hits + mgr.stats().cache_misses, lookups);
  EXPECT_EQ(ab.get(), mgr.bdd_and(mgr.bdd_or(a, b), mgr.var(3)).get());
}

TEST(BddManager, SupportVarsMatchTruthTableDependence) {
  // A variable is in the support exactly when flipping it changes the
  // function; the multi-root overload returns the union.
  BddManager mgr(6);
  const auto depends = [](std::uint64_t table) {
    std::vector<std::uint32_t> vars;
    for (std::uint32_t v = 0; v < 6; ++v)
      for (std::uint32_t a = 0; a < 64; ++a)
        if (((table >> a) & 1u) != ((table >> (a ^ (1u << v))) & 1u)) {
          vars.push_back(v);
          break;
        }
    return vars;
  };
  const std::vector<std::uint64_t> tables = rename_pool();
  std::vector<BddRef> pool;
  for (const std::uint64_t table : tables) pool.push_back(from_table(mgr, table));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(mgr.support_vars(pool[i]), depends(tables[i])) << "table " << tables[i];
    const std::size_t j = (i + 5) % pool.size();
    std::vector<std::uint32_t> both = depends(tables[i]);
    for (const std::uint32_t v : depends(tables[j]))
      if (std::find(both.begin(), both.end(), v) == both.end()) both.push_back(v);
    std::sort(both.begin(), both.end());
    EXPECT_EQ(mgr.support_vars(std::vector<Bdd>{pool[i], pool[j]}), both);
  }
}

TEST(BddManager, SatCount) {
  BddManager mgr(4);
  EXPECT_EQ(mgr.sat_count_exact(kBddFalse), SatCount::make(0));
  EXPECT_EQ(mgr.sat_count_exact(kBddTrue), SatCount::make(16));
  EXPECT_EQ(mgr.sat_count_exact(mgr.var(0)), SatCount::make(8));
  EXPECT_EQ(mgr.sat_count_exact(mgr.var(3)), SatCount::make(8));
  EXPECT_EQ(mgr.sat_count_exact(mgr.bdd_and(mgr.var(0), mgr.var(1))), SatCount::make(4));
  EXPECT_EQ(mgr.sat_count_exact(mgr.bdd_or(mgr.var(0), mgr.var(1))), SatCount::make(12));
  EXPECT_EQ(mgr.sat_count_exact(mgr.bdd_xor(mgr.var(2), mgr.var(3))), SatCount::make(8));
  // Counting is consistent under variable growth: a fresh manager with more
  // variables doubles per variable.
  BddManager wide(10);
  EXPECT_EQ(wide.sat_count_exact(wide.var(0)), SatCount::make(512));
}

TEST(SatCountExact, NormalizationArithmeticAndRendering) {
  // Equal counts have equal representations regardless of how they were
  // assembled: the mantissa is normalized odd (or zero).
  EXPECT_EQ(SatCount::make(4, 0), SatCount::make(1, 2));
  EXPECT_EQ(SatCount::make(6, 10), SatCount::make(3, 11));
  EXPECT_EQ(SatCount::make(0, 37), SatCount::make(0, 0));
  EXPECT_TRUE(SatCount::make(0).is_zero());
  EXPECT_EQ((SatCount::make(3, 4) + SatCount::make(1, 4)), SatCount::make(1, 6));
  EXPECT_EQ((SatCount::make(1, 60) + SatCount::make(1, 0)).to_decimal_string(),
            "1152921504606846977");
  EXPECT_EQ(SatCount::make(1, 70).to_decimal_string(), "1180591620717411303424");
  EXPECT_DOUBLE_EQ(SatCount::make(1, 70).to_double(), std::ldexp(1.0, 70));
  // Sums whose odd part would exceed the 128-bit mantissa are a hard error,
  // not silent drift.
  SatCount big = SatCount::make(1, 128);
  EXPECT_THROW(big += SatCount::make(1, 0), Error);
}

TEST(SatCountExact, FailuresPrintTheCount) {
  // tests/helpers.hpp gives gtest a PrintTo, so a failing pin names the
  // count: the integer, or mantissa*2^exponent below 1.
  EXPECT_EQ(::testing::PrintToString(SatCount::make(64, 64)) + " " +
                ::testing::PrintToString(SatCount::make(12, -4)),
            "1180591620717411303424 3*2^-2");
}

TEST(SatCountExact, TracksWideOddPartsWhereTheDoubleViewRounds) {
  // f = !x0 | (x0 & x1 & ... & x60) over 61 variables has exactly
  // 2^60 + 1 satisfying assignments — one more than a double can tell
  // apart at that magnitude.
  constexpr std::uint32_t kVars = 61;
  BddManager mgr(kVars);
  BddRef conj(mgr, kBddTrue);
  for (std::uint32_t v = kVars - 1; v >= 1; --v)
    conj = mgr.bdd_and(conj, mgr.var(v));
  const BddRef f = mgr.ite(mgr.var(0), conj, kBddTrue);

  const SatCount exact = mgr.sat_count_exact(f);
  EXPECT_EQ(exact, SatCount::make((std::uint64_t{1} << 60) + 1));
  EXPECT_EQ(exact.to_decimal_string(), "1152921504606846977");
  // Regression pin for the precision bug exact counts fix: the exact count
  // tells 2^60 + 1 from 2^60, while its to_double() view rounds the +1 away.
  EXPECT_NE(exact, SatCount::make(1, 60));
  EXPECT_DOUBLE_EQ(exact.to_double(), std::ldexp(1.0, 60));  // lossy by design
  // Terminals and simple cofactor shapes.
  EXPECT_EQ(mgr.sat_count_exact(kBddFalse), SatCount::make(0));
  EXPECT_EQ(mgr.sat_count_exact(kBddTrue), SatCount::make(1, kVars));
  EXPECT_EQ(mgr.sat_count_exact(mgr.var(7)), SatCount::make(1, kVars - 1));
}

TEST(BddManager, DagSizeAndEval) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.dag_size(kBddTrue), 0u);
  EXPECT_EQ(mgr.dag_size(mgr.var(1)), 1u);
  const Bdd f = mgr.bdd_xor(mgr.bdd_xor(mgr.var(0), mgr.var(1)), mgr.var(2));
  // Parity of 3 variables: canonical BDD has 2 nodes per level above the
  // bottom and 1 at the top: 1 + 2 + 2 = 5.
  EXPECT_EQ(mgr.dag_size(f), 5u);
  EXPECT_TRUE(mgr.eval(f, {true, false, false}));
  EXPECT_FALSE(mgr.eval(f, {true, true, false}));
  EXPECT_TRUE(mgr.eval(f, {true, true, true}));
}

TEST(BddManager, ComputedCacheHits) {
  BddManager mgr(8);
  Bdd f = kBddTrue;
  for (std::uint32_t v = 0; v < 8; ++v)
    f = mgr.bdd_and(f, v % 2 == 0 ? mgr.var(v) : mgr.bdd_not(mgr.var(v)));
  const auto before = mgr.stats();
  // Recomputing the same conjunction must be served from the computed table
  // and the unique table — same node, more hits, no new nodes.
  const std::size_t nodes_before = mgr.num_nodes();
  Bdd g = kBddTrue;
  for (std::uint32_t v = 0; v < 8; ++v)
    g = mgr.bdd_and(g, v % 2 == 0 ? mgr.var(v) : mgr.bdd_not(mgr.var(v)));
  EXPECT_EQ(f, g);
  EXPECT_EQ(mgr.num_nodes(), nodes_before);
  EXPECT_GT(mgr.stats().cache_hits + mgr.stats().unique_hits,
            before.cache_hits + before.unique_hits);
}

TEST(BddManager, NewVarExtendsUniverse) {
  BddManager mgr(2);
  const Bdd f = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.sat_count_exact(f), SatCount::make(1));
  const std::uint32_t v = mgr.new_var();
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(mgr.num_vars(), 3u);
  // The old function now has a free variable: count doubles.
  EXPECT_EQ(mgr.sat_count_exact(f), SatCount::make(2));
  EXPECT_EQ(mgr.bdd_and(f, mgr.var(2)),
            mgr.bdd_and(mgr.var(0), mgr.bdd_and(mgr.var(1), mgr.var(2))));
}

TEST(BddManager, MakeNodesMatchesMakeNodePerRecord) {
  // Records name their children by index into the handle list: 0 and 1 are
  // the terminals, 2 a node the manager already holds, 3.. the records.
  const std::vector<std::array<std::uint32_t, 3>> records = {
      {5, 0, 1},  // 3: a new node
      {3, 0, 1},  // 4: the node at index 2 again (a unique-table hit)
      {1, 3, 4},  // 5: a new node over both
      {1, 3, 4},  // 6: a duplicate record, the same node as 5
      {0, 5, 6},  // 7: equal children, so reduced to 5
      {0, 5, 2},  // 8: a new node
  };
  BddManager one(6);
  BddManager bulk(6);
  const BddRef x3_one = one.var(3);
  const BddRef x3_bulk = bulk.var(3);
  const auto scope_one = one.protect_scope();
  const auto scope_bulk = bulk.protect_scope();
  const auto hits_before = bulk.stats().unique_hits;
  const auto misses_before = bulk.stats().unique_misses;

  std::vector<Bdd> expected = {kBddFalse, kBddTrue, x3_one.get()};
  for (const auto& [v, low, high] : records)
    expected.push_back(one.make_node(v, expected[low], expected[high]));
  std::vector<Bdd> handles = {kBddFalse, kBddTrue, x3_bulk.get()};
  bulk.make_nodes(records, handles);

  EXPECT_EQ(handles, expected);
  EXPECT_EQ(handles[4], handles[2]);
  EXPECT_EQ(handles[6], handles[5]);
  EXPECT_EQ(handles[7], handles[5]);
  EXPECT_EQ(bulk.num_nodes(), one.num_nodes());
  EXPECT_EQ(bulk.stats().unique_misses - misses_before, 3u);
  EXPECT_EQ(bulk.stats().unique_hits - hits_before, 2u);
  // The nodes went into the unique table: make_node finds them afterwards.
  EXPECT_EQ(bulk.make_node(0, handles[5], handles[2]), handles[8]);
  EXPECT_EQ(bulk.make_node(5, kBddFalse, kBddTrue), handles[3]);
  EXPECT_TRUE(bulk.check_invariants());
}

}  // namespace
}  // namespace ictl::symbolic
