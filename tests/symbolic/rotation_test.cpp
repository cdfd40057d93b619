// Rotation symmetry: TransitionSystem derives the ring rotation π from the
// indexed propositions' supports and verifies it on the BDDs, and the
// symbolic checker then evaluates a `forall i`/`exists i` body at the first
// index and folds it over π.  The oracle is the explicit conjunction
// g(1) & ... & g(r) (expanded below), whose index constants keep it
// from folding: handle-equal to the folded result on one checker at
// r = 64 and 128, and state for state against the explicit and naive
// engines for every r <= 12.  A system whose rotation fails verification,
// and a body that names an index constant, expand exactly as the explicit
// checker does.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "../mc/naive_reference.hpp"
#include "logic/printer.hpp"
#include "mc/ctl_checker.hpp"
#include "ring/ring_correspondence.hpp"
#include "symbolic/bdd_store.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::symbolic {
namespace {

using logic::FormulaPtr;
using logic::Kind;

/// `f` with every index quantifier replaced by the explicit conjunction
/// (forall) or disjunction (exists) of its instances at 1..r, innermost
/// quantifiers included.  The result names index constants everywhere, so
/// no compiler folds it over a rotation: it is the expanded oracle the
/// folded programs are checked against.
FormulaPtr expanded(const FormulaPtr& f, std::uint32_t r) {
  switch (f->kind()) {
    case Kind::kForallIndex:
    case Kind::kExistsIndex: {
      std::vector<FormulaPtr> instances;
      for (std::uint32_t i = 1; i <= r; ++i)
        instances.push_back(expanded(logic::bind_index(f->lhs(), f->name(), i), r));
      return f->kind() == Kind::kForallIndex ? logic::make_and(instances)
                                             : logic::make_or(instances);
    }
    case Kind::kNot:
      return logic::make_not(expanded(f->lhs(), r));
    case Kind::kAnd:
      return logic::make_and(expanded(f->lhs(), r), expanded(f->rhs(), r));
    case Kind::kOr:
      return logic::make_or(expanded(f->lhs(), r), expanded(f->rhs(), r));
    case Kind::kImplies:
      return logic::make_implies(expanded(f->lhs(), r), expanded(f->rhs(), r));
    case Kind::kIff:
      return logic::make_iff(expanded(f->lhs(), r), expanded(f->rhs(), r));
    case Kind::kExistsPath:
      return logic::make_E(expanded(f->lhs(), r));
    case Kind::kForallPath:
      return logic::make_A(expanded(f->lhs(), r));
    case Kind::kEventually:
      return logic::make_eventually(expanded(f->lhs(), r));
    case Kind::kAlways:
      return logic::make_always(expanded(f->lhs(), r));
    case Kind::kUntil:
      return logic::make_until(expanded(f->lhs(), r), expanded(f->rhs(), r));
    case Kind::kRelease:
      return logic::make_release(expanded(f->lhs(), r), expanded(f->rhs(), r));
    default:
      return f;
  }
}

/// The explicit structure of a small symbolic system's reachable part, by
/// enumerating every assignment of its state variables: a state per
/// reachable assignment, an edge wherever the relation holds, labels read
/// from the characteristic functions.  `assignments[s]` is state s's full
/// BDD-variable assignment (primed variables false), for membership tests.
kripke::Structure explicit_twin(const TransitionSystem& ts,
                                std::vector<std::vector<bool>>& assignments) {
  const std::uint32_t n = ts.num_state_vars();
  const BddManager& m = ts.manager();
  assignments.clear();
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    std::vector<bool> a(m.num_vars(), false);
    for (std::uint32_t v = 0; v < n; ++v)
      a[TransitionSystem::unprimed(v)] = ((bits >> v) & 1) != 0;
    if (m.eval(ts.reachable(), a)) assignments.push_back(std::move(a));
  }
  kripke::StructureBuilder b(ts.registry());
  for (const auto& a : assignments) {
    std::vector<kripke::PropId> labels;
    for (const auto& [p, fn] : ts.props())
      if (m.eval(fn, a)) labels.push_back(p);
    b.add_state(std::move(labels));
    if (m.eval(ts.initial(), a))
      b.set_initial(static_cast<kripke::StateId>(b.num_states() - 1));
  }
  const Bdd relation = ts.transitions();
  for (std::size_t s = 0; s < assignments.size(); ++s)
    for (std::size_t t = 0; t < assignments.size(); ++t) {
      std::vector<bool> joint = assignments[s];
      for (std::uint32_t v = 0; v < n; ++v)
        joint[TransitionSystem::primed(v)] = assignments[t][TransitionSystem::unprimed(v)];
      if (m.eval(relation, joint))
        b.add_transition(static_cast<kripke::StateId>(s), static_cast<kripke::StateId>(t));
    }
  b.set_index_set(std::vector<std::uint32_t>(ts.index_set().begin(), ts.index_set().end()));
  return std::move(b).build();
}

/// The Section 5 specifications plus the distinguishing formula D.
std::vector<std::pair<std::string, FormulaPtr>> specs_and_d() {
  auto specs = testing::section_five_properties();
  specs.emplace_back("D", ring::distinguishing_formula());
  return specs;
}

std::size_t count_ops(const eval::FixpointProgram& p,
                      std::initializer_list<eval::OpCode> ops) {
  std::size_t n = 0;
  for (const eval::Instruction& in : p.code)
    for (const eval::OpCode op : ops) n += in.op == op ? 1 : 0;
  return n;
}

std::size_t folds(const eval::FixpointProgram& p) {
  return count_ops(p, {eval::OpCode::kOrbitAnd, eval::OpCode::kOrbitOr});
}

/// Index quantifiers in `f`'s syntax tree.
std::size_t quantifiers(const FormulaPtr& f) {
  if (f == nullptr) return 0;
  const bool q = f->kind() == Kind::kForallIndex || f->kind() == Kind::kExistsIndex;
  return (q ? 1 : 0) + quantifiers(f->lhs()) + quantifiers(f->rhs());
}

TEST(RingRotation, MapsEachProcessToTheNextAndFixesThePhaseBit) {
  constexpr std::uint32_t kR = 5;
  const SymbolicRing ring = build_symbolic_ring(kR);
  const TransitionSystem& ts = *ring.system;
  ASSERT_TRUE(ts.verified_rotation());
  const std::vector<std::uint32_t>& pi = ts.rotation();
  ASSERT_EQ(pi.size(), ts.manager().num_vars());
  for (std::uint32_t i = 1; i <= kR; ++i) {
    const std::uint32_t next = i % kR + 1;
    for (const auto var : {&SymbolicRing::delayed_var, &SymbolicRing::holder_var}) {
      EXPECT_EQ(pi[TransitionSystem::unprimed(var(i))], TransitionSystem::unprimed(var(next)));
      EXPECT_EQ(pi[TransitionSystem::primed(var(i))], TransitionSystem::primed(var(next)));
    }
  }
  EXPECT_EQ(pi[TransitionSystem::unprimed(ring.critical_var())],
            TransitionSystem::unprimed(ring.critical_var()));
  EXPECT_EQ(pi[TransitionSystem::primed(ring.critical_var())],
            TransitionSystem::primed(ring.critical_var()));
  EXPECT_TRUE(ts.audit().ok());
}

TEST(RingRotation, StoreReloadDerivesAndVerifiesTheSameRotation) {
  // No store-format change: a reloaded system derives π from its props.
  auto reg = kripke::make_registry();
  const SymbolicRing ring = build_symbolic_ring(6, nullptr, reg);
  static_cast<void>(ring.system->reachable());
  std::stringstream blob;
  save_transition_system(*ring.system, blob);
  const TransitionSystem loaded = load_transition_system(blob, reg);
  EXPECT_FALSE(loaded.rotation_checked());
  ASSERT_TRUE(loaded.verified_rotation());
  ASSERT_TRUE(ring.system->verified_rotation());
  EXPECT_EQ(loaded.rotation(), ring.system->rotation());
}

TEST(RingRotation, VerdictIsCachedAndResetByAdoptReachable) {
  const SymbolicRing ring = build_symbolic_ring(4);
  const TransitionSystem& ts = *ring.system;
  EXPECT_FALSE(ts.rotation_checked());
  EXPECT_TRUE(ts.verified_rotation());
  EXPECT_TRUE(ts.rotation_checked());
  ts.adopt_reachable(ts.reachable());
  EXPECT_FALSE(ts.rotation_checked());
  EXPECT_TRUE(ts.verified_rotation());
}

TEST(RingRotation, VerificationBuildsNoNodeAtR64AndR128) {
  // Under the canonical order π keeps the order except at the last
  // process's four variables, which wrap onto the top, so rename takes its
  // restriction path: π fixes the reachable set and T & reach and maps each
  // label onto one that exists, so every node it builds is already there.
  for (const std::uint32_t r : {64u, 128u}) {
    SCOPED_TRACE("r = " + std::to_string(r));
    const SymbolicRing ring = build_symbolic_ring(r);
    const TransitionSystem& ts = *ring.system;
    BddManager& m = ts.manager();
    static_cast<void>(ts.reachable_transitions());
    const std::size_t nodes = m.num_nodes();
    ASSERT_TRUE(ts.verified_rotation());
    EXPECT_EQ(m.num_nodes(), nodes);
    EXPECT_EQ(m.rename(ts.reachable_transitions(), ts.rotation()).get(),
              ts.reachable_transitions());
    EXPECT_EQ(m.num_nodes(), nodes);
    EXPECT_TRUE(m.audit(BddManager::AuditLevel::kFull).ok());
  }
}

TEST(RingRotation, OnlyAFoldableQuantifierAsksForVerification) {
  const SymbolicRing ring = build_symbolic_ring(6);
  CtlChecker checker(ring.system);
  for (const char* text : {"A G (one t)", "E G !c[1]", "forall i. A G (t[i] -> !c[1])"}) {
    const auto program = checker.program(logic::parse_formula(text));
    EXPECT_EQ(folds(*program), 0u) << text;
    EXPECT_FALSE(ring.system->rotation_checked()) << text;
  }
  const auto p2 = checker.program(ring::property_critical_implies_token());
  EXPECT_EQ(folds(*p2), 1u);
  EXPECT_TRUE(ring.system->rotation_checked());
}

TEST(RingRotation, IndexConstantBodyExpandsOnASymmetricRing) {
  constexpr std::uint32_t kR = 4;
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(kR, reg);
  const SymbolicRing sym = build_symbolic_ring(kR, nullptr, reg);
  ASSERT_TRUE(sym.system->verified_rotation());
  mc::CtlChecker explicit_checker(explicit_sys.structure());
  CtlChecker symbolic_checker(sym.system);
  const auto f = logic::parse_formula("forall i. A G (t[i] -> !c[1])");
  const auto ps = symbolic_checker.program(f);
  EXPECT_EQ(folds(*ps), 0u);
  EXPECT_EQ(ps->disassemble(), explicit_checker.program(f)->disassemble());
  const mc::SatSet& expected = explicit_checker.sat(f);
  const Bdd actual = symbolic_checker.sat(f);
  for (kripke::StateId s = 0; s < explicit_sys.structure().num_states(); ++s)
    EXPECT_EQ(sym.system->manager().eval(actual, sym.assignment(explicit_sys.state(s))),
              expected.test(s))
        << "state " << s;
}

class AsymmetricRing : public ::testing::TestWithParam<testing::Asymmetry> {};

TEST_P(AsymmetricRing, FailsVerificationAndExpandsLikeTheExplicitEngine) {
  constexpr std::uint32_t kR = 5;
  auto reg = kripke::make_registry();
  const auto ts = testing::asymmetric_ring(kR, reg, GetParam());
  EXPECT_FALSE(ts->verified_rotation());
  const auto report = ts->audit();
  EXPECT_TRUE(report.ok()) << report.to_string();

  std::vector<std::vector<bool>> assignments;
  const kripke::Structure twin = explicit_twin(*ts, assignments);
  mc::CtlChecker explicit_checker(twin);
  CtlChecker symbolic_checker(ts);
  for (const auto& [name, f] : specs_and_d()) {
    const auto ps = symbolic_checker.program(f);
    EXPECT_EQ(folds(*ps), 0u) << name;
    EXPECT_EQ(ps->disassemble(), explicit_checker.program(f)->disassemble()) << name;
    const mc::SatSet& expected = explicit_checker.sat(f);
    const mc::SatSet naive = mc::naive::sat(twin, expanded(f, kR));
    const Bdd actual = symbolic_checker.sat(f);
    for (kripke::StateId s = 0; s < twin.num_states(); ++s) {
      EXPECT_EQ(naive.test(s), expected.test(s)) << name << " naive, state " << s;
      EXPECT_EQ(ts->manager().eval(actual, assignments[s]), expected.test(s))
          << name << " symbolic, state " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, AsymmetricRing,
                         ::testing::Values(testing::Asymmetry::kExtraRule,
                                           testing::Asymmetry::kRelabelledD1),
                         [](const auto& info) {
                           return info.param == testing::Asymmetry::kExtraRule
                                      ? std::string("ExtraRule")
                                      : std::string("RelabelledD1");
                         });

// Folded against expanded on one checker: handle equality.  Every spec runs
// at r = 64; the four whose expanded side stays cheap also at r = 128.  The
// expanded liveness specs (P3, P4, D) take seconds apiece at r = 64 and
// minutes at r = 128, where each of the 128 bodies runs its own EG.
struct FoldCase {
  std::uint32_t r;
  std::string spec;
};

void PrintTo(const FoldCase& c, std::ostream* os) { *os << c.spec << " at r = " << c.r; }

class FoldedMatchesExpanded : public ::testing::TestWithParam<FoldCase> {};

TEST_P(FoldedMatchesExpanded, HandleEqualOnOneChecker) {
  const auto [r, spec] = GetParam();
  FormulaPtr f;
  for (const auto& [name, g] : specs_and_d())
    if (name.rfind(spec, 0) == 0) f = g;
  ASSERT_NE(f, nullptr) << spec;
  const SymbolicRing ring = build_symbolic_ring(r);
  CtlChecker checker(ring.system);
  const FormulaPtr oracle = expanded(f, r);
  const auto folded_program = checker.program(f);
  EXPECT_EQ(folds(*folded_program), quantifiers(f));
  EXPECT_EQ(folds(*checker.program(oracle)), 0u);
  const Bdd folded = checker.sat(f);
  EXPECT_EQ(folded, checker.sat(oracle)) << logic::to_string(f);
  EXPECT_TRUE(checker.holds_initially(f));
}

std::vector<FoldCase> fold_cases() {
  std::vector<FoldCase> cases;
  for (const char* spec : {"P1", "P2", "P3", "P4", "I2", "I3", "D"})
    cases.push_back({64, spec});
  for (const char* spec : {"P1", "P2", "I2", "I3"}) cases.push_back({128, spec});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Section5, FoldedMatchesExpanded, ::testing::ValuesIn(fold_cases()),
                         [](const auto& info) {
                           return info.param.spec + "_r" + std::to_string(info.param.r);
                         });

// Three engines, state for state, every ring size the differential suite
// pins: the folded symbolic result, the explicit engine's expanded program,
// and the naive recursion over the explicit conjunction.
class FoldedThreeWays : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FoldedThreeWays, AgreeStateForState) {
  const std::uint32_t r = GetParam();
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(r, reg);
  const kripke::Structure& m = explicit_sys.structure();
  const SymbolicRing sym = build_symbolic_ring(r, nullptr, reg);
  mc::CtlChecker explicit_checker(m);
  CtlChecker symbolic_checker(sym.system);
  BddManager& mgr = sym.system->manager();
  ASSERT_TRUE(sym.system->verified_rotation());
  for (const auto& [name, f] : specs_and_d()) {
    const FormulaPtr oracle = expanded(f, r);
    const mc::SatSet& expected = explicit_checker.sat(f);
    const mc::SatSet naive = mc::naive::sat(m, oracle);
    const Bdd folded = symbolic_checker.sat(f);
    EXPECT_EQ(folds(*symbolic_checker.program(f)), quantifiers(f)) << name;
    EXPECT_EQ(folded, symbolic_checker.sat(oracle)) << "r=" << r << " " << name;
    for (kripke::StateId s = 0; s < m.num_states(); ++s) {
      EXPECT_EQ(naive.test(s), expected.test(s))
          << "r=" << r << " " << name << " naive, state " << s;
      EXPECT_EQ(mgr.eval(folded, sym.assignment(explicit_sys.state(s))), expected.test(s))
          << "r=" << r << " " << name << " folded, state " << s;
    }
    EXPECT_EQ(sym.system->count_states_exact(folded), SatCount::make(expected.count()))
        << "r=" << r << " " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, FoldedThreeWays,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u));

TEST(RingRotation, ExistsFoldsByUnionOnSetsThatAreNotInvariant) {
  // The Section 5 bodies' sets are already π-invariant, so their folds stop
  // after one step; a bare indexed atom's set is not, and needs r - 1.
  constexpr std::uint32_t kR = 7;
  const SymbolicRing ring = build_symbolic_ring(kR);
  CtlChecker checker(ring.system);
  for (const char* text :
       {"exists i. c[i]", "forall i. !d[i]", "exists i. (d[i] & E F c[i])"}) {
    const FormulaPtr f = logic::parse_formula(text);
    EXPECT_EQ(folds(*checker.program(f)), 1u) << text;
    EXPECT_EQ(checker.sat(f), checker.sat(expanded(f, kR))) << text;
  }
}

}  // namespace
}  // namespace ictl::symbolic
