// Tests for the direct boolean ring encoding: the symbolic M_r must have
// exactly the explicit engine's reachable states (r * 2^r, matched
// state-for-state through SymbolicRing::assignment), identical label
// functions, and image primitives that agree with the explicit CSR arrays.
// Plus the headline: it builds at r = 32, beyond RingSystem's r = 24 cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "../helpers.hpp"
#include "symbolic/bdd_store.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::symbolic {
namespace {

TEST(SymbolicRing, ReachableCountIsRTimesTwoToTheR) {
  for (const std::uint32_t r : {2u, 3u, 4u, 5u, 6u, 8u, 10u}) {
    const SymbolicRing ring = build_symbolic_ring(r);
    EXPECT_EQ(ring.system->num_states(), SatCount::make(ring::ring_state_count(r)))
        << "r = " << r;
    EXPECT_EQ(ring.system->num_states(), SatCount::make(r, r)) << "r = " << r;
  }
}

TEST(SymbolicRing, EveryExplicitStateIsReachableAndViceVersa) {
  for (const std::uint32_t r : {2u, 3u, 4u, 6u}) {
    auto reg = kripke::make_registry();
    const auto explicit_sys = testing::ring_of(r, reg);
    const SymbolicRing sym = build_symbolic_ring(r, nullptr, reg);
    const Bdd reach = sym.system->reachable();

    // Each explicit state maps into the reachable BDD...
    const std::size_t n = explicit_sys.structure().num_states();
    for (kripke::StateId s = 0; s < n; ++s)
      EXPECT_TRUE(sym.system->manager().eval(reach, sym.assignment(explicit_sys.state(s))))
          << "r = " << r << " state " << s;
    // ...and the counts agree, so the map is onto.
    EXPECT_EQ(sym.system->num_states(), SatCount::make(n));
  }
}

TEST(SymbolicRing, InitialStateMatchesS0) {
  const std::uint32_t r = 5;
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(r, reg);
  const SymbolicRing sym = build_symbolic_ring(r, nullptr, reg);
  EXPECT_EQ(sym.system->count_states_exact(sym.system->initial()), SatCount::make(1));
  const kripke::StateId s0 = explicit_sys.structure().initial();
  EXPECT_TRUE(sym.system->manager().eval(sym.system->initial(),
                                         sym.assignment(explicit_sys.state(s0))));
}

TEST(SymbolicRing, LabelsMatchExplicitColumns) {
  for (const std::uint32_t r : {3u, 5u}) {
    auto reg = kripke::make_registry();
    const auto explicit_sys = testing::ring_of(r, reg);
    const auto& m = explicit_sys.structure();
    const SymbolicRing sym = build_symbolic_ring(r, nullptr, reg);
    BddManager& mgr = sym.system->manager();
    const Bdd reach = sym.system->reachable();

    for (const kripke::PropId p : m.used_props()) {
      const auto states = sym.system->prop_states(p);
      ASSERT_TRUE(states.has_value()) << reg->display(p);
      const Bdd within_reach = mgr.bdd_and(reach, *states);
      // Same count and same per-state membership as the explicit column.
      EXPECT_EQ(sym.system->count_states_exact(within_reach),
                SatCount::make(m.states_with(p).count()))
          << "r = " << r << " " << reg->display(p);
      for (kripke::StateId s = 0; s < m.num_states(); ++s)
        EXPECT_EQ(mgr.eval(*states, sym.assignment(explicit_sys.state(s))),
                  m.has_prop(s, p))
            << "r = " << r << " " << reg->display(p) << " state " << s;
    }
  }
}

TEST(SymbolicRing, ImagesAgreeWithExplicitTransitions) {
  const std::uint32_t r = 4;
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(r, reg);
  const auto& m = explicit_sys.structure();
  const SymbolicRing sym = build_symbolic_ring(r, nullptr, reg);
  BddManager& mgr = sym.system->manager();

  // For a handful of singleton sets {s}: symbolic pre/post membership must
  // equal the explicit predecessor/successor lists.
  for (kripke::StateId s = 0; s < m.num_states(); s += 7) {
    // Build the singleton BDD from the state's variable assignment.
    Bdd singleton = sym.system->reachable();
    const auto bits = sym.assignment(explicit_sys.state(s));
    for (std::uint32_t v = 0; v < sym.system->num_state_vars(); ++v) {
      const Bdd x = mgr.var(TransitionSystem::unprimed(v));
      singleton = mgr.bdd_and(singleton,
                              bits[TransitionSystem::unprimed(v)] ? x : mgr.bdd_not(x));
    }
    ASSERT_EQ(sym.system->count_states_exact(singleton), SatCount::make(1));

    const Bdd pre = sym.system->pre_image(singleton);
    const Bdd post = sym.system->post_image(singleton);
    for (kripke::StateId t = 0; t < m.num_states(); ++t) {
      const auto a = sym.assignment(explicit_sys.state(t));
      const auto succs = m.successors(t);
      const auto preds = m.predecessors(t);
      const bool t_to_s = std::find(succs.begin(), succs.end(), s) != succs.end();
      const bool s_to_t = std::find(preds.begin(), preds.end(), s) != preds.end();
      EXPECT_EQ(mgr.eval(pre, a), t_to_s) << "pre, s=" << s << " t=" << t;
      EXPECT_EQ(mgr.eval(post, a), s_to_t) << "post, s=" << s << " t=" << t;
    }
  }
}

TEST(SymbolicRing, BuildsPastTheExplicitWall) {
  // r = 32 > RingSystem::kMaxExplicitSize: the explicit engine refuses...
  EXPECT_THROW(static_cast<void>(ring::RingSystem::build(32)), ModelError);
  // ...the symbolic engine builds it and counts 32 * 2^32 reachable states.
  const SymbolicRing ring = build_symbolic_ring(32);
  EXPECT_EQ(ring.system->num_states(), SatCount::make(ring::ring_state_count(32)));
}

TEST(SymbolicRing, ChecksSectionFiveAgPropertiesAtThirtyTwo) {
  // The acceptance pin: a Section 5 AG property settled by symbolic
  // fixpoint at a size no enumeration could reach.  P2 (/\i AG(c_i -> t_i))
  // expands over 32 indices; I3 (AG one t) runs over the theta function.
  const SymbolicRing ring = build_symbolic_ring(32);
  CtlChecker checker(ring.system);
  EXPECT_TRUE(checker.holds_initially(ring::property_critical_implies_token()));
  EXPECT_TRUE(checker.holds_initially(ring::invariant_one_token()));
  // And the sat sets are exactly the reachable states: every one of the
  // 32 * 2^32 states satisfies both.
  EXPECT_EQ(ring.system->count_states_exact(
                checker.sat(ring::property_critical_implies_token())),
            SatCount::make(ring::ring_state_count(32)));
}

TEST(SymbolicRing, SharedRegistryAlignsPropIds) {
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(4, reg);
  const SymbolicRing sym = build_symbolic_ring(4, nullptr, reg);
  // Both engines registered the same propositions: ids resolve both ways.
  for (std::uint32_t i = 1; i <= 4; ++i)
    for (const char* base : {"d", "n", "t", "c"}) {
      const auto id = reg->find_indexed(base, i);
      ASSERT_TRUE(id.has_value());
      EXPECT_TRUE(sym.system->prop_states(*id).has_value())
          << base << "[" << i << "]";
    }
  ASSERT_TRUE(reg->find_theta("t").has_value());
  EXPECT_TRUE(sym.system->prop_states(*reg->find_theta("t")).has_value());
}

TEST(SymbolicRing, SharedManagerAcrossSizes) {
  // Two ring sizes on one manager: the second build grows the variable
  // universe, and the first system's images/counts must keep working
  // (its rename maps cover only its own support — by design).
  auto mgr = std::make_shared<BddManager>(0);
  auto reg = kripke::make_registry();
  const SymbolicRing small = build_symbolic_ring(3, mgr, reg);
  const SymbolicRing big = build_symbolic_ring(5, mgr, reg);
  EXPECT_EQ(big.system->num_states(), SatCount::make(ring::ring_state_count(5)));
  EXPECT_EQ(small.system->num_states(), SatCount::make(ring::ring_state_count(3)));
  // Image primitives of the small system still work after the growth:
  // every reachable state has a successor inside the reachable set (the
  // paper's totality argument), i.e. reach is a subset of its own pre-image.
  const Bdd reach3 = small.system->reachable();
  const Bdd pre = small.system->pre_image(reach3);
  EXPECT_EQ(small.system->manager().bdd_diff(reach3, pre), kBddFalse);
}

TEST(SymbolicRing, PartitionedRelationIsEmitted) {
  // The encoding hands TransitionSystem a rule-wise partition directly:
  // rule-1, rule-3 and rule-4 partitions plus rule-2 clusters of ceil(r/16)
  // holders — never one monolithic T.
  const SymbolicRing ring = build_symbolic_ring(20);
  const std::uint32_t width = (20u + 15u) / 16u;
  EXPECT_EQ(ring.system->partition().size(), 3u + (20u + width - 1u) / width);
}

// The rule-by-rule reference for build_symbolic_ring's relation and Theta
// t, built through ITE alone: each rule instance is a bdd_and of literals
// (a state variable no literal mentions is framed, x' <-> x), the
// instances are OR-ed into parts as the partition groups them — rule 1,
// rule 3, rule 4, then the rule-2 clusters of ceil(r / 16) holders — and
// Theta t is the running exactly-one scan over the holder bits.
struct ReferenceRing {
  std::vector<BddRef> parts;
  BddRef theta;
};

ReferenceRing reference_ring(BddManager& m, std::uint32_t r) {
  const std::uint32_t num_state_vars = 2 * r + 1;
  using Literal = std::pair<std::uint32_t, bool>;  // (BDD variable, value)
  const auto u = [](std::uint32_t sv) { return TransitionSystem::unprimed(sv); };
  const auto p = [](std::uint32_t sv) { return TransitionSystem::primed(sv); };
  const auto instance = [&](const std::vector<Literal>& literals) {
    std::vector<std::pair<std::uint32_t, BddRef>> terms;  // (level, term)
    std::vector<bool> touched(num_state_vars, false);
    for (const auto& [v, value] : literals) {
      touched[v / 2] = true;
      terms.emplace_back(m.level_of_var(v), value ? m.var(v) : m.nvar(v));
    }
    for (std::uint32_t sv = 0; sv < num_state_vars; ++sv)
      if (!touched[sv])
        terms.emplace_back(m.level_of_var(u(sv)), m.bdd_iff(m.var(u(sv)), m.var(p(sv))));
    // Deepest first, so each bdd_and stacks one term on the chain below.
    std::sort(terms.begin(), terms.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    BddRef acc(m, kBddTrue);
    for (const auto& term : terms) acc = m.bdd_and(term.second, acc);
    return acc;
  };
  const auto d = [](std::uint32_t i) { return SymbolicRing::delayed_var(i); };
  const auto h = [](std::uint32_t i) { return SymbolicRing::holder_var(i); };
  const std::uint32_t c = 2 * r;

  ReferenceRing ref;
  BddRef rule1(m, kBddFalse);
  for (std::uint32_t i = 1; i <= r; ++i)
    rule1 = m.bdd_or(rule1, instance({{u(d(i)), false}, {p(d(i)), true},
                                      {u(h(i)), false}, {p(h(i)), false}}));
  ref.parts.push_back(rule1);
  ref.parts.push_back(instance({{u(c), false}, {p(c), true}}));
  std::vector<Literal> rule4 = {{u(c), true}, {p(c), false}};
  for (std::uint32_t i = 1; i <= r; ++i) {
    rule4.emplace_back(u(d(i)), false);
    rule4.emplace_back(p(d(i)), false);
  }
  ref.parts.push_back(instance(rule4));

  const std::uint32_t width = (r + 15) / 16;
  for (std::uint32_t a = 1; a <= r; a += width) {
    BddRef cluster(m, kBddFalse);
    for (std::uint32_t j = a; j <= std::min(r, a + width - 1); ++j) {
      // Receivers in the order the walk from j meets them: j-1, ..., 1,
      // r, ..., j+1; everything the walk passed is clear.
      std::vector<Literal> passed;
      for (std::uint32_t step = 1; step < r; ++step) {
        const std::uint32_t i = (j - 1 + r - step) % r + 1;
        std::vector<Literal> literals = {{u(h(j)), true}, {p(h(j)), false},
                                         {u(d(i)), true}, {p(d(i)), false},
                                         {p(h(i)), true}, {p(c), true}};
        literals.insert(literals.end(), passed.begin(), passed.end());
        cluster = m.bdd_or(cluster, instance(literals));
        passed.emplace_back(u(d(i)), false);
        passed.emplace_back(p(d(i)), false);
      }
    }
    ref.parts.push_back(cluster);
  }

  BddRef exactly_one(m, kBddFalse);
  BddRef none(m, kBddTrue);
  for (std::uint32_t i = 1; i <= r; ++i) {
    const BddRef hi = m.var(u(h(i)));
    exactly_one = m.bdd_or(m.bdd_and(exactly_one, m.bdd_not(hi)), m.bdd_and(none, hi));
    none = m.bdd_and(none, m.bdd_not(hi));
  }
  ref.theta = exactly_one;
  return ref;
}

void expect_matches_reference(const SymbolicRing& ring, const kripke::PropRegistry& reg) {
  BddManager& m = ring.system->manager();
  const ReferenceRing ref = reference_ring(m, ring.r);
  const auto parts = ring.system->partition();
  ASSERT_EQ(parts.size(), ref.parts.size()) << "r = " << ring.r;
  for (std::size_t k = 0; k < parts.size(); ++k)
    EXPECT_EQ(parts[k].get(), ref.parts[k].get()) << "r = " << ring.r << " part " << k;
  const auto theta = reg.find_theta("t");
  ASSERT_TRUE(theta.has_value());
  EXPECT_EQ(ring.system->prop_states(*theta), std::optional<Bdd>(ref.theta.get()))
      << "r = " << ring.r;
}

TEST(SymbolicRing, PartsMatchTheRuleByRuleReference) {
  // Every size up to 20 plus 33 and 64: cluster widths 1, 2, 3 and 4, and
  // rings whose last cluster is short.
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t r = 2; r <= 20; ++r) sizes.push_back(r);
  sizes.push_back(33);
  sizes.push_back(64);
  for (const std::uint32_t r : sizes) {
    auto reg = kripke::make_registry();
    const SymbolicRing ring = build_symbolic_ring(r, nullptr, reg);
    expect_matches_reference(ring, *reg);
  }
  // A scrambled order takes the per-instance chains instead.
  const std::uint32_t r = 7;
  const std::uint32_t num_bdd_vars = 2 * (2 * r + 1);
  auto mgr = std::make_shared<BddManager>(num_bdd_vars);
  mgr->set_initial_order(testing::scrambled_pair_order(num_bdd_vars, 5));
  auto reg = kripke::make_registry();
  const SymbolicRing ring = build_symbolic_ring(r, mgr, reg);
  expect_matches_reference(ring, *reg);
}

TEST(SymbolicRing, BuildAllocatesAtMostTwiceTheRelationsNodes) {
  // Allocation pin: on a fresh manager the build allocates no more than
  // twice the node count of the relation it hands over (about 1.1x with
  // the relation emitted as automata; an ITE-built union of the rule
  // instances allocates 10-40x at these sizes).
  for (const std::uint32_t r : {64u, 128u, 256u}) {
    const SymbolicRing ring = build_symbolic_ring(r);
    EXPECT_LE(ring.system->manager().num_nodes(), 2 * ring.system->relation_node_count())
        << "r = " << r;
  }
}

TEST(SymbolicRing, ReachableCountExactAtCapOf256) {
  // The acceptance pin for the raised cap: M_256 builds, and its reachable
  // count is exactly r * 2^r = 2^264.
  const SymbolicRing ring = build_symbolic_ring(kMaxSymbolicRingSize);
  EXPECT_EQ(ring.r, 256u);
  EXPECT_EQ(ring.system->num_states(), SatCount::make(256, 256));
  EXPECT_EQ(ring.system->num_states(), SatCount::make(1, 264));
  // The exact counter renders the full 80-digit integer, not a double.
  const SatCount exact = ring.system->num_states();
  EXPECT_EQ(exact, SatCount::make(1, 264));
  EXPECT_EQ(exact.to_decimal_string(),
            "296427748447529460284341721622241044104371160744039843941011415060"
            "25761187823616");
}

/// T and T & reach as the system builds them (BddManager::or_all), handle-
/// equal to a bdd_or fold of the parts and that fold conjoined with the
/// reachable set.
void expect_relations_match_the_fold(const TransitionSystem& ts) {
  BddManager& m = ts.manager();
  const Bdd restricted = ts.reachable_transitions();
  const Bdd whole = ts.transitions();
  BddRef fold(m, kBddFalse);
  for (const BddRef& part : ts.partition()) fold = m.bdd_or(fold, part);
  EXPECT_EQ(whole, fold.get());
  EXPECT_EQ(restricted, m.bdd_and(fold, ts.reachable()).get());
}

/// `ring` saved with its reachable set and reloaded into a fresh manager.
TransitionSystem reloaded(const SymbolicRing& ring) {
  static_cast<void>(ring.system->reachable());
  std::stringstream blob;
  save_transition_system(*ring.system, blob);
  return load_transition_system(blob, ring.system->registry());
}

TEST(SymbolicRingRelation, KernelMatchesTheFoldOnBuiltAndReloadedRings) {
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t r = 2; r <= 20; ++r) sizes.push_back(r);
  for (const std::uint32_t r : {33u, 64u, 128u}) sizes.push_back(r);
  for (const std::uint32_t r : sizes) {
    SCOPED_TRACE(::testing::Message() << "r = " << r);
    const SymbolicRing ring = build_symbolic_ring(r);
    const TransitionSystem loaded = reloaded(ring);
    expect_relations_match_the_fold(*ring.system);
    expect_relations_match_the_fold(loaded);
  }
}

TEST(SymbolicRingRelation, KernelMatchesTheFoldUnderScrambledOrders) {
  // A scrambled order ORs the rule instances per part through the kernel
  // too (build_symbolic_ring's non-canonical path).
  constexpr std::uint32_t kR = 16;
  const std::uint32_t num_bdd_vars = 2 * (2 * kR + 1);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto mgr = std::make_shared<BddManager>(num_bdd_vars);
    mgr->set_initial_order(testing::scrambled_pair_order(num_bdd_vars, seed));
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const SymbolicRing ring = build_symbolic_ring(kR, mgr);
    expect_relations_match_the_fold(*ring.system);
  }
}

TEST(SymbolicRingRelation, ReloadedRestrictedRelationAllocatesOnlyItsOwnNodes) {
  // On a reloaded ring T & reach is one kernel pass with the reachable set
  // as care: every node slot it allocates is a node of the result (3,453 /
  // 6,973 nodes at r = 64 / 128; a bdd_and of the parts' ITE-built OR with
  // reach allocates 13,000 / 26,408), and no computed-table operation runs.
  for (const std::uint32_t r : {64u, 128u}) {
    const SymbolicRing ring = build_symbolic_ring(r);
    const TransitionSystem loaded = reloaded(ring);
    BddManager& m = loaded.manager();
    const std::size_t nodes = m.num_nodes();
    const auto lookups = m.stats().cache_hits + m.stats().cache_misses;
    const Bdd restricted = loaded.reachable_transitions();
    EXPECT_LE(m.num_nodes() - nodes, m.dag_size(restricted)) << "r = " << r;
    EXPECT_EQ(m.stats().cache_hits + m.stats().cache_misses, lookups) << "r = " << r;
  }
}

TEST(SymbolicRing, RejectsDegenerateSizes) {
  EXPECT_THROW(static_cast<void>(build_symbolic_ring(0)), ModelError);
  EXPECT_THROW(static_cast<void>(build_symbolic_ring(1)), ModelError);
  EXPECT_THROW(static_cast<void>(build_symbolic_ring(kMaxSymbolicRingSize + 1)),
               ModelError);
}

}  // namespace
}  // namespace ictl::symbolic
