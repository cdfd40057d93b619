// Saturation reachability: every disjunctive part must split into events by
// top level that OR back to the part exactly, and the saturated fixpoint
// must be handle-equal to the breadth-first frontier loop's fixpoint of the
// same relation — across ring sizes, scrambled pair orders, and dynamic
// reordering.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "../helpers.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::symbolic {
namespace {

using ictl::testing::scrambled_pair_order;

/// A fresh manager sized for M_r: the identity order for seed 0, else a
/// scrambled pair-block order.
std::shared_ptr<BddManager> manager_for(std::uint32_t r, std::uint64_t seed) {
  const std::uint32_t num_bdd_vars = 2 * (2 * r + 1);
  auto mgr = std::make_shared<BddManager>(num_bdd_vars);
  if (seed != 0) mgr->set_initial_order(scrambled_pair_order(num_bdd_vars, seed));
  return mgr;
}

/// x' = x on every state variable whose pair sits above `top_var`'s.
BddRef frame_above(BddManager& mgr, std::uint32_t num_state_vars,
                   std::uint32_t top_var) {
  const std::uint32_t top = mgr.level_of_var(TransitionSystem::unprimed(top_var));
  BddRef frame(mgr, kBddTrue);
  for (std::uint32_t v = 0; v < num_state_vars; ++v)
    if (mgr.level_of_var(TransitionSystem::unprimed(v)) < top)
      frame = mgr.bdd_and(frame, mgr.bdd_iff(mgr.var(TransitionSystem::primed(v)),
                                             mgr.var(TransitionSystem::unprimed(v))));
  return frame;
}

TEST(SaturationSplit, EventsRebuildEveryRingPart) {
  for (const std::uint32_t r : {2u, 3u, 5u, 8u, 16u}) {
    for (const std::uint64_t seed : {0u, 3u, 11u}) {
      const SymbolicRing ring = build_symbolic_ring(r, manager_for(r, seed));
      const TransitionSystem& ts = *ring.system;
      BddManager& mgr = ts.manager();
      for (std::size_t k = 0; k < ts.partition().size(); ++k) {
        const auto events = ts.saturation_events(k);
        ASSERT_FALSE(events.empty()) << "r=" << r << " seed=" << seed << " part " << k;
        BddRef rebuilt(mgr, kBddFalse);
        std::uint32_t previous_top = 0;
        for (std::size_t e = 0; e < events.size(); ++e) {
          const std::uint32_t top =
              mgr.level_of_var(TransitionSystem::unprimed(events[e].top_var));
          // Top-down, at most one event per level, each living at or below
          // its top level.
          if (e > 0) {
            EXPECT_GT(top, previous_top);
          }
          previous_top = top;
          for (const std::uint32_t v : mgr.support_vars(events[e].relation))
            EXPECT_GE(mgr.level_of_var(v), top);
          rebuilt = mgr.bdd_or(
              rebuilt, mgr.bdd_and(events[e].relation,
                                   frame_above(mgr, ts.num_state_vars(),
                                               events[e].top_var)));
        }
        EXPECT_EQ(rebuilt.get(), ts.partition()[k].get())
            << "r=" << r << " seed=" << seed << " part " << k;
      }
    }
  }
}

TEST(SaturationSplit, OneProcessRulesSplitPerProcess) {
  // Identity order.  Rule 1 (part 0) delays one process per firing, so it
  // splits into one event per process, topped by that process's d_i; rule 3
  // (part 1) touches only the phase bit at the bottom level.
  const std::uint32_t r = 8;
  const SymbolicRing ring = build_symbolic_ring(r);
  std::vector<std::uint32_t> rule1_tops, want;
  for (const auto& event : ring.system->saturation_events(0))
    rule1_tops.push_back(event.top_var);
  for (std::uint32_t i = 1; i <= r; ++i) want.push_back(SymbolicRing::delayed_var(i));
  EXPECT_EQ(rule1_tops, want);
  const auto rule3 = ring.system->saturation_events(1);
  ASSERT_EQ(rule3.size(), 1u);
  EXPECT_EQ(rule3[0].top_var, ring.critical_var());
}

TEST(SaturationSplit, SingleFlipPartsSaturateToAllFourStates) {
  // Two state variables, each part flipping one of them: neither part
  // splits further (one event each, at its own level), and the system
  // reaches all four states.  An order that separates a pair is refused
  // (see the pre-image, audit and store suites).
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
  EXPECT_EQ(ts.saturation_events(0).size(), 1u);
  EXPECT_EQ(ts.num_states(), SatCount::make(4));
}

TEST(SaturationReach, MatchesTheFrontierLoopOnTheOnePartRelation) {
  // The same relation given as ONE part has a single event level, so it
  // takes the frontier loop; both fixpoints live on one manager, so they
  // must be the same handle.
  for (std::uint32_t r = 2; r <= 16; ++r) {
    for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{r}}) {
      for (const bool sift : {false, true}) {
        const SymbolicRing ring = build_symbolic_ring(r, manager_for(r, seed));
        const TransitionSystem& ts = *ring.system;
        if (sift) ts.manager().enable_dynamic_reordering(256);
        const Bdd saturated = ts.reachable();
        const TransitionSystem one_part(ts.manager_ptr(), ts.num_state_vars(),
                                        ts.initial(), {ts.transitions()},
                                        ts.registry(), {}, {});
        ASSERT_EQ(one_part.saturation_events(0).size(), 1u) << "r=" << r;
        EXPECT_EQ(one_part.reachable(), saturated)
            << "r=" << r << " seed=" << seed << " sift=" << sift;
        EXPECT_EQ(ts.num_states(), SatCount::make(r, static_cast<std::int32_t>(r)));
        if (sift) {
          // The first sift fires once the table doubles past the build;
          // all of M_2's work stays below that.
          if (r > 2) {
            EXPECT_GE(ts.manager().stats().sift_passes, 1u) << "r=" << r;
          }
          ASSERT_TRUE(ts.manager().check_invariants());
        }
      }
    }
  }
}

}  // namespace
}  // namespace ictl::symbolic
