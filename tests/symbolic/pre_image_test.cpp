// The fused pre-image: BddManager::pair_pre_image must return the handle of
// rename + and_exists on random relations and sets, under the identity and
// scrambled pair orders and across a sift; TransitionSystem's
// reachable_pre_image must equal reachable() & pre_image(S) handle for
// handle on rings, and an order that separates an (x, x') pair after
// construction must be a typed error until the pair is rejoined.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "../helpers.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::symbolic {
namespace {

using ictl::testing::scrambled_pair_order;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed * 2654435761u + 88172645463325252ULL) {}
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  std::uint32_t below(std::uint32_t n) { return static_cast<std::uint32_t>(next() % n); }

 private:
  std::uint64_t x_;
};

/// A random DNF over the BDD variables `vars`: a few cubes of random
/// literals, each variable in a cube with probability 1/2.
BddRef random_dnf(BddManager& mgr, Rng& rng, const std::vector<std::uint32_t>& vars) {
  BddRef f(mgr, kBddFalse);
  const std::uint32_t cubes = 1 + rng.below(6);
  for (std::uint32_t c = 0; c < cubes; ++c) {
    BddRef cube(mgr, kBddTrue);
    for (const std::uint32_t v : vars)
      if (rng.below(2) == 0)
        cube = mgr.bdd_and(cube, rng.below(2) == 0 ? mgr.var(v) : mgr.nvar(v));
    f = mgr.bdd_or(f, cube);
  }
  return f;
}

/// The reference pre-image: S renamed to x', then one and_exists.
BddRef reference_pre_image(BddManager& mgr, std::uint32_t pairs, Bdd relation, Bdd set) {
  std::vector<std::uint32_t> to_primed(mgr.num_vars()), primed;
  for (std::uint32_t v = 0; v < mgr.num_vars(); ++v) to_primed[v] = v;
  for (std::uint32_t v = 0; v < pairs; ++v) {
    to_primed[2 * v] = 2 * v + 1;
    primed.push_back(2 * v + 1);
  }
  return mgr.and_exists(relation, mgr.rename(set, to_primed), mgr.cube(primed));
}

TEST(PairPreImage, MatchesRenameAndExistsOnRandomOperands) {
  constexpr std::uint32_t kPairs = 6;
  std::vector<std::uint32_t> all, unprimed;
  for (std::uint32_t v = 0; v < 2 * kPairs; ++v) all.push_back(v);
  for (std::uint32_t v = 0; v < kPairs; ++v) unprimed.push_back(2 * v);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const bool scrambled : {false, true}) {
      BddManager mgr(2 * kPairs);
      if (scrambled) mgr.set_initial_order(scrambled_pair_order(2 * kPairs, seed));
      Rng rng(seed);
      std::vector<BddRef> relations, sets;
      for (int i = 0; i < 6; ++i) relations.push_back(random_dnf(mgr, rng, all));
      for (int i = 0; i < 6; ++i) sets.push_back(random_dnf(mgr, rng, unprimed));
      // Terminal and one-pair operands exercise the recursion's edges.
      relations.emplace_back(mgr, kBddTrue);
      relations.push_back(mgr.bdd_iff(mgr.var(2 * kPairs - 1), mgr.var(0)));
      sets.emplace_back(mgr, kBddTrue);
      sets.emplace_back(mgr, kBddFalse);
      for (const bool sifted : {false, true}) {
        if (sifted) {
          mgr.reorder_now();  // pair-grouped: every pair stays adjacent
          ASSERT_TRUE(mgr.check_invariants());
        }
        for (std::size_t i = 0; i < relations.size(); ++i)
          for (std::size_t j = 0; j < sets.size(); ++j)
            EXPECT_EQ(mgr.pair_pre_image(relations[i], sets[j]).get(),
                      reference_pre_image(mgr, kPairs, relations[i], sets[j]).get())
                << "seed " << seed << " scrambled " << scrambled << " sifted "
                << sifted << " relation " << i << " set " << j;
      }
    }
  }
}

TEST(PairPreImage, RejectsSeparatedPairsAndPrimedSets) {
  BddManager separated(4);
  separated.set_initial_order({0, 2, 1, 3});
  const BddRef relation = separated.bdd_iff(separated.var(0), separated.var(1));
  EXPECT_THROW(static_cast<void>(separated.pair_pre_image(relation, separated.var(0))),
               Error);
  BddManager interleaved(4);
  const BddRef flip = interleaved.bdd_xor(interleaved.var(0), interleaved.var(1));
  EXPECT_THROW(static_cast<void>(interleaved.pair_pre_image(flip, interleaved.var(3))),
               Error);
  EXPECT_EQ(interleaved.pair_pre_image(flip, interleaved.var(0)).get(),
            interleaved.nvar(0).get());
  ASSERT_TRUE(interleaved.check_invariants());
}

TEST(ReachablePreImage, EqualsReachAndPreImageOnRings) {
  for (std::uint32_t r = 2; r <= 16; ++r) {
    for (const bool sift : {false, true}) {
      const SymbolicRing ring = build_symbolic_ring(r);
      const TransitionSystem& ts = *ring.system;
      BddManager& mgr = ts.manager();
      if (sift) mgr.enable_dynamic_reordering(256);
      const BddRef reach(mgr, ts.reachable());
      // The props, the reachable set, and a backward chain from each prop:
      // the sets an EU or EG round pre-images.
      std::vector<BddRef> sets = {reach, BddRef(mgr, ts.initial())};
      for (const auto& [prop, fn] : ts.props()) sets.push_back(fn);
      const std::size_t seeds = sets.size();
      for (std::size_t i = 0; i < seeds; ++i) {
        BddRef chain = sets[i];
        for (int step = 0; step < 3; ++step) {
          chain = ts.reachable_pre_image(chain);
          sets.push_back(chain);
        }
      }
      for (std::size_t i = 0; i < sets.size(); ++i) {
        const BddRef restricted = ts.reachable_pre_image(sets[i]);
        const BddRef plain = ts.pre_image(sets[i]);
        EXPECT_EQ(restricted.get(), mgr.bdd_and(reach, plain).get())
            << "r=" << r << " sift=" << sift << " set " << i;
        EXPECT_EQ(plain.get(), reference_pre_image(mgr, ts.num_state_vars(),
                                                   ts.transitions(), sets[i])
                                   .get())
            << "r=" << r << " sift=" << sift << " set " << i;
      }
      EXPECT_TRUE(ts.reachable_transitions_computed());
      if (sift && r > 2) {
        EXPECT_GE(mgr.stats().sift_passes, 1u) << "r=" << r;
      }
      const auto report = ts.audit();
      EXPECT_TRUE(report.ok()) << "r=" << r << ": " << report.to_string();
    }
  }
}

TEST(ReachablePreImage, ASeparatedPairIsATypedErrorUntilRejoined) {
  // Two state variables, each part flipping one of them.  Swapping x0'
  // below x1 separates both pairs after construction: the next pre-image
  // must refuse the order instead of cofactoring the wrong variables, and
  // swapping back must restore the same answer.
  auto reg = kripke::make_registry();
  auto mgr = std::make_shared<BddManager>(4);
  const auto flip = [&](std::uint32_t v) {
    const std::uint32_t w = 1 - v;
    return mgr->bdd_and(mgr->bdd_xor(mgr->var(TransitionSystem::unprimed(v)),
                                     mgr->var(TransitionSystem::primed(v))),
                        mgr->bdd_iff(mgr->var(TransitionSystem::unprimed(w)),
                                     mgr->var(TransitionSystem::primed(w))));
  };
  const BddRef flip0 = flip(0), flip1 = flip(1);
  const BddRef initial = mgr->bdd_and(mgr->nvar(0), mgr->nvar(2));
  const TransitionSystem ts(mgr, 2, initial, {flip0, flip1}, reg, {}, {});
  // From 00 a flip of x0 reaches 10 (x0 is state variable 0).
  const BddRef pre = ts.reachable_pre_image(initial);
  EXPECT_EQ(pre.get(), mgr->bdd_xor(mgr->var(0), mgr->var(2)).get());
  mgr->swap_adjacent_levels(1);
  EXPECT_THROW(static_cast<void>(ts.reachable_pre_image(initial)), Error);
  EXPECT_THROW(static_cast<void>(ts.pre_image(initial)), Error);
  EXPECT_TRUE(mgr->check_invariants());
  mgr->swap_adjacent_levels(1);
  EXPECT_EQ(ts.reachable_pre_image(initial).get(), pre.get());
  EXPECT_TRUE(ts.audit().ok());
}

TEST(ReachablePreImage, AdoptingAReachableSetDropsTheRestrictedRelation) {
  const SymbolicRing ring = build_symbolic_ring(4);
  const TransitionSystem& ts = *ring.system;
  const BddRef reach(ts.manager(), ts.reachable());
  static_cast<void>(ts.reachable_pre_image(reach));
  ASSERT_TRUE(ts.reachable_transitions_computed());
  ts.adopt_reachable(reach);
  EXPECT_FALSE(ts.reachable_transitions_computed());
  EXPECT_EQ(ts.reachable_transitions(),
            ts.manager().bdd_and(ts.transitions(), reach).get());
}

}  // namespace
}  // namespace ictl::symbolic
