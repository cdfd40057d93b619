// Tests for symbolic::TransitionSystem and the explicit-to-symbolic bridge
// from_structure: pre/post images must agree state-for-state with the CSR
// primitives of kripke::Structure, and reachability/counting must match the
// explicit state space.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::symbolic {
namespace {

using support::DynamicBitset;

/// Membership of explicit state `s` in a set-BDD of a from_structure system.
bool contains(const TransitionSystem& ts, Bdd set, kripke::StateId s) {
  std::vector<bool> assignment(ts.manager().num_vars(), false);
  for (std::uint32_t v = 0; v < ts.num_state_vars(); ++v)
    assignment[TransitionSystem::unprimed(v)] = ((s >> v) & 1u) != 0;
  return ts.manager().eval(set, assignment);
}

/// The set-BDD of an explicit state-bitset.
Bdd encode(const TransitionSystem& ts, const DynamicBitset& set) {
  BddManager& mgr = ts.manager();
  Bdd acc = kBddFalse;
  set.for_each([&](std::size_t s) {
    acc = mgr.bdd_or(acc, state_minterm(mgr, ts.num_state_vars(),
                                        static_cast<kripke::StateId>(s), false));
  });
  return acc;
}

TEST(StateMinterm, EncodesBits) {
  auto mgr = std::make_shared<BddManager>(8);
  const Bdd m5 = state_minterm(*mgr, 4, 5, /*primed=*/false);
  // 5 = 0b0101: x0=1, x1=0, x2=1, x3=0 at the unprimed (even) variables.
  EXPECT_TRUE(mgr->eval(m5, {true, false, false, false, true, false, false, false}));
  EXPECT_FALSE(mgr->eval(m5, {true, false, true, false, true, false, false, false}));
  EXPECT_EQ(mgr->sat_count_exact(m5), SatCount::make(1, 8 - 4));  // primed free
  // Primed minterm lives on odd variables.
  const Bdd p5 = state_minterm(*mgr, 4, 5, /*primed=*/true);
  EXPECT_TRUE(mgr->eval(p5, {false, true, false, false, false, true, false, false}));
}

TEST(FromStructure, ImagesMatchExplicitOnTwoStateLoop) {
  auto reg = kripke::make_registry();
  const auto m = testing::two_state_loop(reg);
  const TransitionSystem ts = from_structure(m);

  DynamicBitset just_a(m.num_states());
  just_a.set(0);
  const Bdd sym_a = encode(ts, just_a);
  // pre(a) = {b}, post(a) = {b} on the two-cycle.
  EXPECT_FALSE(contains(ts, ts.pre_image(sym_a), 0));
  EXPECT_TRUE(contains(ts, ts.pre_image(sym_a), 1));
  EXPECT_FALSE(contains(ts, ts.post_image(sym_a), 0));
  EXPECT_TRUE(contains(ts, ts.post_image(sym_a), 1));
  EXPECT_EQ(ts.num_states(), SatCount::make(2));
}

TEST(FromStructure, ImagesMatchExplicitOnRandomStructures) {
  for (const std::uint32_t seed : {3u, 11u, 27u, 51u}) {
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 23, seed);  // non-power-of-2
    const TransitionSystem ts = from_structure(m);
    const std::size_t n = m.num_states();

    // Every reachable minterm corresponds to a real state and vice versa
    // (random_structure restricts to reachable states).
    EXPECT_EQ(ts.num_states(), SatCount::make(n)) << "seed " << seed;

    // pre/post of a pseudo-random set agree with the CSR primitives.
    DynamicBitset set(n);
    for (std::size_t s = 0; s < n; ++s)
      if ((s * 2654435761u + seed) % 3 == 0) set.set(s);
    const Bdd sym = encode(ts, set);

    DynamicBitset pre(n), post(n);
    m.pre_image(set, pre);
    m.post_image(set, post);
    const Bdd sym_pre = ts.pre_image(sym);
    const Bdd sym_post = ts.post_image(sym);
    for (kripke::StateId s = 0; s < n; ++s) {
      EXPECT_EQ(contains(ts, sym_pre, s), pre.test(s)) << "seed " << seed << " s " << s;
      EXPECT_EQ(contains(ts, sym_post, s), post.test(s))
          << "seed " << seed << " s " << s;
    }
  }
}

TEST(FromStructure, PropColumnsCarryOver) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 17, 7);
  const TransitionSystem ts = from_structure(m);
  for (const kripke::PropId p : m.used_props()) {
    const auto states = ts.prop_states(p);
    ASSERT_TRUE(states.has_value());
    for (kripke::StateId s = 0; s < m.num_states(); ++s)
      EXPECT_EQ(contains(ts, *states, s), m.has_prop(s, p)) << "prop " << p;
    EXPECT_EQ(ts.count_states_exact(*states), SatCount::make(m.states_with(p).count()));
  }
  EXPECT_FALSE(ts.prop_states(9999).has_value());
}

TEST(FromStructure, InitialAndIndexSet) {
  const auto sys = testing::ring_of(3);
  const TransitionSystem ts = from_structure(sys.structure());
  EXPECT_TRUE(contains(ts, ts.initial(), sys.structure().initial()));
  EXPECT_EQ(ts.count_states_exact(ts.initial()), SatCount::make(1));
  ASSERT_EQ(ts.index_set().size(), 3u);
  EXPECT_EQ(ts.index_set()[0], 1u);
  EXPECT_EQ(ts.index_set()[2], 3u);
  EXPECT_EQ(ts.registry(), sys.structure().registry());
  // The ring's explicit structure is already its reachable restriction.
  EXPECT_EQ(ts.num_states(), SatCount::make(sys.structure().num_states()));
}

TEST(FromStructure, BridgeStaysSinglePartition) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 9, 3);
  const TransitionSystem ts = from_structure(m);
  EXPECT_EQ(ts.partition().size(), 1u);
  EXPECT_EQ(ts.transitions(), ts.partition()[0]);
  EXPECT_EQ(ts.relation_node_count(), ts.manager().dag_size(ts.transitions()));
}

TEST(TransitionSystem, DisjunctivePartitionMatchesMonolithic) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 14, 19);
  // Reference: the bridge's monolithic relation.
  const TransitionSystem reference = from_structure(m);
  const auto mgr = reference.manager_ptr();
  const std::uint32_t bits = reference.num_state_vars();
  // Partitioned: one part per source state (rule-wise by construction).
  std::vector<Bdd> parts;
  for (kripke::StateId s = 0; s < m.num_states(); ++s) {
    const auto succs = m.successors(s);
    if (succs.empty()) continue;
    Bdd targets = kBddFalse;
    for (const kripke::StateId t : succs)
      targets = mgr->bdd_or(targets, state_minterm(*mgr, bits, t, true));
    parts.push_back(
        mgr->bdd_and(state_minterm(*mgr, bits, s, false), targets));
  }
  const TransitionSystem partitioned(mgr, bits, reference.initial(), parts,
                                     m.registry(), {}, {});
  EXPECT_EQ(partitioned.transitions(), reference.transitions());
  EXPECT_GT(partitioned.partition().size(), 1u);
  std::vector<Bdd> sets = {reference.initial(),
                           mgr->var(TransitionSystem::unprimed(0)),
                           reference.reachable()};
  for (const Bdd s : sets) {
    EXPECT_EQ(partitioned.pre_image(s), reference.pre_image(s));
    EXPECT_EQ(partitioned.post_image(s), reference.post_image(s));
  }
  // The partitioned reachability lands on the same fixpoint as the
  // frontier loop over the monolithic relation.
  EXPECT_EQ(partitioned.reachable(), reference.reachable());
}

TEST(TransitionSystem, RejectsBadConstruction) {
  auto mgr = std::make_shared<BddManager>(4);
  EXPECT_THROW(TransitionSystem(nullptr, 2, kBddTrue, {kBddTrue},
                                kripke::make_registry(), {}, {}),
               ModelError);
  EXPECT_THROW(TransitionSystem(mgr, 0, kBddTrue, {kBddTrue},
                                kripke::make_registry(), {}, {}),
               ModelError);
  // 3 state vars need 6 BDD vars; the manager owns only 4.
  EXPECT_THROW(TransitionSystem(mgr, 3, kBddTrue, {kBddTrue},
                                kripke::make_registry(), {}, {}),
               ModelError);
  // An empty partition has no transition relation at all.
  EXPECT_THROW(TransitionSystem(mgr, 2, kBddTrue, std::vector<Bdd>{},
                                kripke::make_registry(), {}, {}),
               ModelError);
}

TEST(TransitionSystem, RejectsAnOrderThatSeparatesAPair) {
  // Under x0 x1 x0' x1' neither (x, x') pair sits on adjacent levels, so
  // neither pair_pre_image nor saturation could step through the relation.
  auto mgr = std::make_shared<BddManager>(4);
  mgr->set_initial_order({0, 2, 1, 3});
  const BddRef stay0 = mgr->bdd_iff(mgr->var(0), mgr->var(1));
  const BddRef stay = mgr->bdd_and(stay0, mgr->bdd_iff(mgr->var(2), mgr->var(3)));
  const BddRef initial = mgr->nvar(0);
  EXPECT_THROW(TransitionSystem(mgr, 2, initial, {stay}, kripke::make_registry(), {}, {}),
               ModelError);
  // One state variable over the same manager: its pair (0, 1) is split by
  // variable 2 just the same.
  EXPECT_THROW(TransitionSystem(mgr, 1, initial, {stay0}, kripke::make_registry(), {}, {}),
               ModelError);
  // build_symbolic_ring refuses such a manager before it emits a rule.
  EXPECT_THROW(static_cast<void>(build_symbolic_ring(2, mgr)), ModelError);
  EXPECT_TRUE(mgr->check_invariants());
}

}  // namespace
}  // namespace ictl::symbolic
