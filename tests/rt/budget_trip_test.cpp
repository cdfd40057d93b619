// Budget-trip stress suite: the proof that a tripped budget or failpoint
// leaves every engine consistent and reusable.  Each test installs a tight
// ResourceBudget (or arms a deterministic failpoint), drives a query until
// the typed error unwinds, then — with the scope closed — audits the
// touched managers (audit(kFull) via check_invariants) and re-runs the
// same query unbudgeted, demanding the correct answer.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "bisim/correspondence.hpp"
#include "mc/ctl_checker.hpp"
#include "rt/budget.hpp"
#include "rt/failpoint.hpp"
#include "symbolic/bdd_store.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::rt {
namespace {

using symbolic::Bdd;
using symbolic::TransitionSystem;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed * 2654435761u + 7) {}
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

/// Random CTL formula over the plain atoms p/q (the CTL fragment both the
/// explicit and symbolic engines run through the compiled core).
logic::FormulaPtr random_ctl(Rng& rng, std::size_t depth) {
  using namespace logic;
  if (depth == 0) {
    switch (rng.below(3)) {
      case 0: return atom("p");
      case 1: return atom("q");
      default: return f_true();
    }
  }
  switch (rng.below(8)) {
    case 0: return make_not(random_ctl(rng, depth - 1));
    case 1: return make_and(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
    case 2: return EF(random_ctl(rng, depth - 1));
    case 3: return EG(random_ctl(rng, depth - 1));
    case 4: return AF(random_ctl(rng, depth - 1));
    case 5: return AG(random_ctl(rng, depth - 1));
    case 6: return EU(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
    default: return AU(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
  }
}

/// Membership of explicit state `s` in a from_structure set-BDD.
bool contains(const TransitionSystem& ts, Bdd set, kripke::StateId s) {
  std::vector<bool> assignment(ts.manager().num_vars(), false);
  for (std::uint32_t v = 0; v < ts.num_state_vars(); ++v)
    assignment[TransitionSystem::unprimed(v)] = ((s >> v) & 1u) != 0;
  return ts.manager().eval(set, assignment);
}

/// The unbudgeted explicit-engine verdict — ground truth for every retry.
mc::SatSet reference_sat(const kripke::Structure& m, const logic::FormulaPtr& f) {
  mc::CtlChecker checker(m, {.unknown_atoms_are_false = true});
  return checker.sat(f);
}

TEST(BudgetTrip, SymbolicIterationCapTripsAuditsCleanAndRetries) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 11);
  const auto f = logic::AG(logic::EF(logic::atom("p")));
  auto ts = std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
  symbolic::CtlChecker checker(ts, {.unknown_atoms_are_false = true});

  ResourceBudget budget(BudgetLimits{.iteration_cap = 1});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "iteration cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kIterations);
    EXPECT_FALSE(e.phase().empty());
  }

  // The scope closed with the unwind: the manager must be audit-clean and
  // the SAME checker must produce the correct answer unthrottled.
  ASSERT_TRUE(ts->manager().check_invariants());
  const mc::SatSet want = reference_sat(m, f);
  const Bdd sym = checker.sat(f);
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(contains(*ts, sym, s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, NodeCapLadderTripsTypedAndManagerStaysUsable) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 3);
  const auto f = logic::EU(logic::atom("p"), logic::atom("q"));
  auto ts = std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
  symbolic::CtlChecker checker(ts, {.unknown_atoms_are_false = true});

  // A cap far below what the query needs: the GC -> forced-sift ladder
  // cannot get under it, so the manager trips kNodes from its
  // deferred-maintenance point (phase bdd/node_cap).
  ResourceBudget budget(BudgetLimits{.node_cap = 4});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "node cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kNodes);
    EXPECT_EQ(e.phase(), "bdd/node_cap");
  }

  ASSERT_TRUE(ts->manager().check_invariants());
  const mc::SatSet want = reference_sat(m, f);
  const Bdd sym = checker.sat(f);
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(contains(*ts, sym, s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, NodeCapOnAnUngroupableOrderTripsWithoutSifting) {
  // One variable more than the system's pairs: the order cannot be sifted
  // pair-grouped, so the ladder must trip without sifting.  A sift of
  // single variables could separate the system's (x, x') pairs, and the
  // unbudgeted retry would then throw instead of answering.
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 40, seed);
    std::uint32_t bits = 1;
    while ((std::size_t{1} << bits) < m.num_states()) ++bits;
    auto mgr = std::make_shared<symbolic::BddManager>(2 * bits + 1);
    auto ts = std::make_shared<const TransitionSystem>(symbolic::from_structure(m, mgr));
    symbolic::CtlChecker checker(ts, {.unknown_atoms_are_false = true});
    const auto f = logic::make_and(logic::EU(logic::atom("p"), logic::atom("q")),
                                   logic::EG(logic::atom("q")));
    const std::size_t sifts = mgr->stats().sift_passes;

    ResourceBudget budget(BudgetLimits{.node_cap = 8});
    try {
      const BudgetScope scope(budget);
      static_cast<void>(checker.sat(f));
      ADD_FAILURE() << "node cap never tripped, seed " << seed;
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.kind(), BudgetKind::kNodes) << "seed " << seed;
      EXPECT_EQ(e.phase(), "bdd/node_cap") << "seed " << seed;
    }
    EXPECT_EQ(mgr->stats().sift_passes, sifts) << "seed " << seed;
    EXPECT_TRUE(mgr->pairs_adjacent(ts->num_state_vars())) << "seed " << seed;
    ASSERT_TRUE(mgr->check_invariants()) << "seed " << seed;

    const mc::SatSet want = reference_sat(m, f);
    const Bdd sym = checker.sat(f);
    for (kripke::StateId s = 0; s < m.num_states(); ++s)
      EXPECT_EQ(contains(*ts, sym, s), want.test(s)) << "seed " << seed << " state " << s;
  }
}

TEST(BudgetTrip, GenerousNodeCapDegradesGracefullyInsteadOfTripping) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 5);
  const auto f = logic::AF(logic::atom("q"));
  auto ts = std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
  symbolic::CtlChecker checker(ts, {.unknown_atoms_are_false = true});

  // Plenty of room: the ladder's GC (and at worst one forced sift) keeps
  // the population under the cap and the query completes.
  ResourceBudget budget(BudgetLimits{.node_cap = 1u << 20});
  const mc::SatSet want = reference_sat(m, f);
  {
    const BudgetScope scope(budget);
    const Bdd sym = checker.sat(f);
    for (kripke::StateId s = 0; s < m.num_states(); ++s)
      EXPECT_EQ(contains(*ts, sym, s), want.test(s)) << "state " << s;
  }
  ASSERT_TRUE(ts->manager().check_invariants());
}

TEST(BudgetTrip, ExplicitEngineWorkCapTripsAndRetries) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 7);
  const auto f = logic::AU(logic::atom("p"), logic::EF(logic::atom("q")));
  mc::CtlChecker checker(m, {.unknown_atoms_are_false = true});

  ResourceBudget budget(BudgetLimits{.work_cap = 2});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "work cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kWork);
  }

  const mc::SatSet want = reference_sat(m, f);
  const mc::SatSet& got = checker.sat(f);  // same checker, post-trip
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(got.test(s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, WallClockDeadlineTripsTyped) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 9);
  const auto f = logic::AG(logic::EF(logic::atom("p")));
  mc::CtlChecker checker(m, {.unknown_atoms_are_false = true});

  ResourceBudget budget(BudgetLimits{.deadline_ns = 1});
  while (budget.elapsed_ns() < 2) {
  }
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "deadline never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kWallClock);
  }
  const mc::SatSet want = reference_sat(m, f);
  const mc::SatSet& got = checker.sat(f);
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(got.test(s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, CancellationUnwindsAsInterrupted) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 13);
  const auto f = logic::EG(logic::atom("p"));
  auto ts = std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
  symbolic::CtlChecker checker(ts, {.unknown_atoms_are_false = true});

  CancellationToken token;
  token.cancel();  // already cancelled: the first checkpoint unwinds
  ResourceBudget budget(BudgetLimits{}, token);
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "cancellation never observed";
  } catch (const Interrupted&) {
  }
  ASSERT_TRUE(ts->manager().check_invariants());
  const mc::SatSet want = reference_sat(m, f);
  const Bdd sym = checker.sat(f);
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(contains(*ts, sym, s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, CorrespondenceIterationCapTripsAndRetries) {
  auto reg = kripke::make_registry();
  const auto m1 = testing::random_structure(reg, 18, 21);
  const auto m2 = testing::random_structure(reg, 18, 21);
  const bisim::FindResult want = bisim::find_correspondence(m1, m2);

  ResourceBudget budget(BudgetLimits{.iteration_cap = 1});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(bisim::find_correspondence(m1, m2));
    FAIL() << "iteration cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kIterations);
  }
  const bisim::FindResult again = bisim::find_correspondence(m1, m2);
  EXPECT_EQ(again.relation.has_value(), want.relation.has_value());
  EXPECT_EQ(again.surviving_pairs, want.surviving_pairs);
  ASSERT_TRUE(want.relation.has_value());
  ASSERT_TRUE(again.relation.has_value());
  EXPECT_EQ(again.relation->entries(), want.relation->entries());
}

TEST(BudgetTrip, CorrespondenceFailpointMidFixpointRetries) {
  // A ring IN pair: degrees creep up over several rounds of the fixpoint.
  auto reg = kripke::make_registry();
  const auto m1 = kripke::reduce_to_index(testing::ring_of(3, reg).structure(), 2);
  const auto m2 = kripke::reduce_to_index(testing::ring_of(5, reg).structure(), 2);
  const bisim::FindResult want = bisim::find_correspondence(m1, m2);
  ASSERT_TRUE(want.relation.has_value());
  ASSERT_GE(want.iterations, 3u);

  arm_failpoint("bisim/degree_fixpoint", want.iterations / 2);
  EXPECT_THROW(static_cast<void>(bisim::find_correspondence(m1, m2)), Interrupted);
  EXPECT_EQ(armed_failpoints(), 0u);
  const bisim::FindResult again = bisim::find_correspondence(m1, m2);
  ASSERT_TRUE(again.relation.has_value());
  EXPECT_EQ(again.surviving_pairs, want.surviving_pairs);
  EXPECT_EQ(again.iterations, want.iterations);
  EXPECT_EQ(again.relation->entries(), want.relation->entries());
}

TEST(BudgetTrip, SymbolicFailpointsLeaveTheManagerReusable) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 17);
  const auto f =
      logic::make_and(logic::EU(logic::atom("p"), logic::atom("q")),
                      logic::EG(logic::atom("q")));
  const mc::SatSet want = reference_sat(m, f);

  // Every phase must be on this query's path, so a phase that never fires
  // fails here instead of testing nothing.  The checker is built with the
  // phase armed: its constructor computes the reachable set, which for
  // from_structure's one-part relation runs the frontier loop
  // (sym/reach_frontier).
  for (const char* site :
       {"sym/eu_fixpoint", "sym/eg_fixpoint", "sym/reach_frontier", "eval/program"}) {
    auto ts =
        std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
    std::optional<symbolic::CtlChecker> checker;
    arm_failpoint(site);
    try {
      checker.emplace(ts, eval::CheckerOptions{.unknown_atoms_are_false = true});
      static_cast<void>(checker->sat(f));
      ADD_FAILURE() << site << " never fired";
      disarm_failpoints();
    } catch (const Interrupted&) {
      EXPECT_EQ(armed_failpoints(), 0u) << site << " is not one-shot";
    }
    ASSERT_TRUE(ts->manager().check_invariants()) << "after " << site;
    // One-shot: the retry runs through, on the same checker when the trip
    // came after its construction.
    if (!checker.has_value())
      checker.emplace(ts, eval::CheckerOptions{.unknown_atoms_are_false = true});
    const Bdd sym = checker->sat(f);
    for (kripke::StateId s = 0; s < m.num_states(); ++s)
      EXPECT_EQ(contains(*ts, sym, s), want.test(s))
          << "site " << site << ", state " << s;
  }
}

TEST(BudgetTrip, ExplicitFailpointsLeaveTheCheckerReusable) {
  // The explicit EU and EG worklist loops checkpoint on entry, so arming
  // either phase trips the query's first fixpoint of that kind; the
  // evaluator's per-instruction phase trips its first instruction.
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 17);
  const auto f =
      logic::make_and(logic::EU(logic::atom("p"), logic::atom("q")),
                      logic::EG(logic::atom("q")));
  const mc::SatSet want = reference_sat(m, f);
  for (const char* site : {"mc/eu_fixpoint", "mc/eg_fixpoint", "eval/program"}) {
    mc::CtlChecker checker(m, {.unknown_atoms_are_false = true});
    arm_failpoint(site);
    try {
      static_cast<void>(checker.sat(f));
      ADD_FAILURE() << site << " never fired";
      disarm_failpoints();
    } catch (const Interrupted&) {
      EXPECT_EQ(armed_failpoints(), 0u) << site << " is not one-shot";
    }
    const mc::SatSet& got = checker.sat(f);
    for (kripke::StateId s = 0; s < m.num_states(); ++s)
      EXPECT_EQ(got.test(s), want.test(s)) << "site " << site << ", state " << s;
  }
}

TEST(BudgetTrip, RingSaturationTripsTypedAuditsCleanAndRetries) {
  // A ring reach stopped mid-saturation three ways — a failpoint on the
  // saturation's checkpoints, the iteration cap, and a node cap below the
  // reach's own size (enforced at the maintenance point that closes the
  // saturation) — must unwind typed, cache no fixpoint, audit clean, and
  // retry unbudgeted to the reference fixpoint on the same manager.
  constexpr std::uint32_t kR = 10;
  auto mgr = std::make_shared<symbolic::BddManager>(0);
  auto reg = kripke::make_registry();
  const auto reference = symbolic::build_symbolic_ring(kR, mgr, reg);
  ResourceBudget counting;  // unlimited: counts the saturation's rounds
  Bdd want = symbolic::kBddFalse;
  {
    const BudgetScope scope(counting);
    want = reference.system->reachable();
  }
  const std::uint64_t rounds = counting.iterations();
  ASSERT_GE(rounds, 4u);

  enum class Trip { kFailpoint, kIterations, kNodes };
  for (const Trip trip : {Trip::kFailpoint, Trip::kIterations, Trip::kNodes}) {
    const auto ring = symbolic::build_symbolic_ring(kR, mgr, reg);
    BudgetLimits limits;
    if (trip == Trip::kIterations) limits.iteration_cap = rounds / 2;
    if (trip == Trip::kNodes) limits.node_cap = mgr->dag_size(want);
    if (trip == Trip::kFailpoint) arm_failpoint("sym/saturation", rounds / 2);
    ResourceBudget budget(limits);
    const int leg = static_cast<int>(trip);
    try {
      const BudgetScope scope(budget);
      static_cast<void>(ring.system->reachable());
      ADD_FAILURE() << "leg " << leg << " never tripped";
    } catch (const BudgetExceeded& e) {
      EXPECT_NE(trip, Trip::kFailpoint);
      EXPECT_EQ(e.kind(), trip == Trip::kIterations ? BudgetKind::kIterations
                                                    : BudgetKind::kNodes);
      EXPECT_EQ(e.phase(), trip == Trip::kIterations ? "sym/saturation" : "bdd/node_cap");
    } catch (const Interrupted&) {
      EXPECT_EQ(trip, Trip::kFailpoint);
      EXPECT_EQ(armed_failpoints(), 0u);
    }
    EXPECT_FALSE(ring.system->reachable_computed()) << "leg " << leg;
    const auto report = ring.system->audit();
    EXPECT_TRUE(report.ok()) << "leg " << leg << ": " << report.to_string();
    ASSERT_TRUE(mgr->check_invariants()) << "leg " << leg;
    EXPECT_EQ(ring.system->reachable(), want) << "leg " << leg;
  }
}

TEST(BudgetTrip, NodeCapWhileTheReachableRelationIsBuiltCachesNothing) {
  // An EG check builds the reachable-restricted relation T & reach on first
  // use, before its first round's protect_scope opens, so a node cap that
  // only the relation breaks trips at that build's maintenance point.  The
  // trip must cache no relation and leave the system audit-clean, and the
  // unbudgeted retry on the same checker must return the explicit verdict.
  constexpr std::uint32_t kR = 8;
  auto reg = kripke::make_registry();
  const auto ring = symbolic::build_symbolic_ring(kR, nullptr, reg);
  const std::shared_ptr<const TransitionSystem> ts = ring.system;
  symbolic::BddManager& mgr = ts->manager();
  symbolic::CtlChecker checker(ts);
  const auto f = logic::parse_formula("E G !c[1]");
  // Everything the check needs but the restricted relation is built and
  // rooted before the budget: the relation, the reachable set (by the
  // checker), and the leaf sets (in the checker's memo).
  static_cast<void>(ts->transitions());
  static_cast<void>(checker.sat(logic::parse_formula("c[1]")));
  static_cast<void>(checker.sat(logic::parse_formula("!c[1]")));
  ASSERT_FALSE(ts->reachable_transitions_computed());
  mgr.garbage_collect();

  ResourceBudget budget(BudgetLimits{.node_cap = mgr.live_nodes()});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "node cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kNodes);
    EXPECT_EQ(e.phase(), "bdd/node_cap");
  }
  EXPECT_FALSE(ts->reachable_transitions_computed());
  const auto report = ts->audit();
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_TRUE(mgr.check_invariants());

  const auto explicit_ring = testing::ring_of(kR, reg);
  mc::CtlChecker reference(explicit_ring.structure());
  EXPECT_EQ(checker.holds_initially(f), reference.holds_initially(f));
  EXPECT_TRUE(ts->reachable_transitions_computed());
}

TEST(BudgetTrip, CancellationInsideTheRelationKernelCachesNothing) {
  // On a reloaded M_128, T & reach is one BddManager::or_all pass of more
  // than 4096 memo misses, so the kernel's batched checkpoint runs inside
  // the recursion, and a token cancelled beforehand unwinds from there.
  // Nothing may be cached, the system must audit clean, and the unbudgeted
  // retry must return the fold's handle.
  auto reg = kripke::make_registry();
  const auto ring = symbolic::build_symbolic_ring(128, nullptr, reg);
  static_cast<void>(ring.system->reachable());
  std::stringstream blob;
  symbolic::save_transition_system(*ring.system, blob);
  const TransitionSystem loaded = symbolic::load_transition_system(blob, reg);
  symbolic::BddManager& mgr = loaded.manager();

  CancellationToken token;
  token.cancel();
  ResourceBudget budget(BudgetLimits{}, token);
  try {
    const BudgetScope scope(budget);
    static_cast<void>(loaded.reachable_transitions());
    FAIL() << "the cancelled token never unwound the kernel";
  } catch (const Interrupted& e) {
    EXPECT_NE(std::string(e.what()).find("bdd/or_all"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(loaded.reachable_transitions_computed());
  const auto report = loaded.audit();
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_TRUE(mgr.audit(symbolic::BddManager::AuditLevel::kCaches).ok());

  symbolic::BddRef fold(mgr, symbolic::kBddFalse);
  for (const symbolic::BddRef& part : loaded.partition()) fold = mgr.bdd_or(fold, part);
  const symbolic::BddRef want = mgr.bdd_and(fold, loaded.reachable());
  EXPECT_EQ(loaded.reachable_transitions(), want.get());
}

TEST(BudgetTrip, NodeCapWhileTheRotationIsVerifiedCachesNothing) {
  // The first foldable quantifier asks the system to verify its rotation,
  // inside the compile.  A node cap that the verification's first
  // maintenance point cannot get under trips there: no rotation verdict and
  // no program may be cached, and the system stays audit-clean.  The
  // unbudgeted retry on the same checker verifies, folds and returns the
  // explicit verdict.
  constexpr std::uint32_t kR = 8;
  auto reg = kripke::make_registry();
  const auto ring = symbolic::build_symbolic_ring(kR, nullptr, reg);
  const std::shared_ptr<const TransitionSystem> ts = ring.system;
  symbolic::BddManager& mgr = ts->manager();
  symbolic::CtlChecker checker(ts);
  const auto f = ring::property_critical_implies_token();
  const std::size_t compiled = checker.compile_stats().programs_compiled;
  mgr.garbage_collect();

  ResourceBudget budget(BudgetLimits{.node_cap = mgr.live_nodes() / 2});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.holds_initially(f));
    FAIL() << "node cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kNodes);
    EXPECT_EQ(e.phase(), "bdd/node_cap");
  }
  EXPECT_FALSE(ts->rotation_checked());
  EXPECT_EQ(checker.compile_stats().programs_compiled, compiled);
  const auto report = ts->audit();
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_TRUE(mgr.check_invariants());

  const auto explicit_ring = testing::ring_of(kR, reg);
  mc::CtlChecker reference(explicit_ring.structure());
  EXPECT_EQ(checker.holds_initially(f), reference.holds_initially(f));
  EXPECT_TRUE(ts->verified_rotation());
  EXPECT_EQ(checker.compile_stats().programs_compiled, compiled + 1);
}

TEST(BudgetTrip, FailpointInTheRotationFoldCachesNoSatisfyingSet) {
  // c[1]'s set is not rotation-invariant, so the fold takes r - 1 steps and
  // the failpoint trips mid-fold.  The trip memoizes nothing: the retry on
  // the same checker runs the program again and matches the explicit
  // engine state for state.
  constexpr std::uint32_t kR = 6;
  auto reg = kripke::make_registry();
  const auto ring = symbolic::build_symbolic_ring(kR, nullptr, reg);
  const std::shared_ptr<const TransitionSystem> ts = ring.system;
  symbolic::CtlChecker checker(ts);
  const auto f = logic::parse_formula("exists i. c[i]");
  arm_failpoint("sym/orbit_fold", 2);
  try {
    static_cast<void>(checker.sat(f));
    ADD_FAILURE() << "sym/orbit_fold never fired";
    disarm_failpoints();
  } catch (const Interrupted&) {
    EXPECT_EQ(armed_failpoints(), 0u);
  }
  const auto report = ts->audit();
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_TRUE(ts->manager().check_invariants());

  const std::uint64_t runs = checker.eval_stats().programs_run;
  const Bdd sym = checker.sat(f);
  EXPECT_EQ(checker.eval_stats().programs_run, runs + 1);
  const auto explicit_ring = testing::ring_of(kR, reg);
  mc::CtlChecker reference(explicit_ring.structure());
  const mc::SatSet& want = reference.sat(f);
  for (kripke::StateId s = 0; s < explicit_ring.structure().num_states(); ++s)
    EXPECT_EQ(ts->manager().eval(sym, ring.assignment(explicit_ring.state(s))), want.test(s))
        << "state " << s;
}

TEST(BudgetTrip, SeededRandomTripStress) {
  // Random formulas under random tight budgets, across both engines: any
  // trip must be one of the typed errors, the manager must audit clean,
  // and the unbudgeted retry must match the reference verdict per state.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 24, 31 + seed);
    auto ts =
        std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
    symbolic::CtlChecker symbolic_checker(ts, {.unknown_atoms_are_false = true});
    mc::CtlChecker explicit_checker(m, {.unknown_atoms_are_false = true});

    for (int round = 0; round < 8; ++round) {
      const auto f = random_ctl(rng, 1 + rng.below(3));
      const mc::SatSet want = reference_sat(m, f);

      BudgetLimits limits;
      switch (rng.below(3)) {
        case 0: limits.iteration_cap = 1 + rng.below(4); break;
        case 1: limits.work_cap = 1 + rng.below(64); break;
        default: limits.node_cap = 4 + rng.below(64); break;
      }
      ResourceBudget budget(limits);
      const bool use_symbolic = rng.below(2) == 0;
      try {
        const BudgetScope scope(budget);
        if (use_symbolic)
          static_cast<void>(symbolic_checker.sat(f));
        else
          static_cast<void>(explicit_checker.sat(f));
        // Tiny queries can legitimately fit the budget; that's fine.
      } catch (const BudgetExceeded& e) {
        EXPECT_FALSE(e.phase().empty()) << "seed " << seed;
      }

      ASSERT_TRUE(ts->manager().check_invariants())
          << "seed " << seed << " round " << round;
      if (use_symbolic) {
        const Bdd sym = symbolic_checker.sat(f);
        for (kripke::StateId s = 0; s < m.num_states(); ++s)
          ASSERT_EQ(contains(*ts, sym, s), want.test(s))
              << "seed " << seed << " round " << round << " state " << s;
      } else {
        const mc::SatSet& got = explicit_checker.sat(f);
        for (kripke::StateId s = 0; s < m.num_states(); ++s)
          ASSERT_EQ(got.test(s), want.test(s))
              << "seed " << seed << " round " << round << " state " << s;
      }
    }
  }
}

}  // namespace
}  // namespace ictl::rt
