// ProgramEvaluator tests: per-opcode differential against the recursive
// naive reference on random small structures, the naive backend running the
// *identical* program as the production explicit backend, cross-engine
// program identity, and the evaluator's stats counters.
#include "eval/program_evaluator.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "../mc/naive_reference.hpp"
#include "eval/program_compiler.hpp"
#include "logic/parser.hpp"
#include "mc/explicit_ops.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::eval {
namespace {

using logic::parse_formula;

/// Runs `f` compiled on both bitset backends and checks both against the
/// independent recursive reference.
void expect_matches_reference(const kripke::Structure& m,
                              const logic::FormulaPtr& f, const char* label) {
  ProgramCompiler compiler({}, m.registry());
  const auto program = compiler.compile(f);

  mc::ExplicitStateOps explicit_ops(m);
  ProgramEvaluator<mc::ExplicitStateOps> explicit_eval(explicit_ops);
  const auto via_explicit = explicit_eval.run(*program);

  mc::naive::NaiveStateOps naive_ops(m);
  ProgramEvaluator<mc::naive::NaiveStateOps> naive_eval(naive_ops);
  const auto via_naive = naive_eval.run(*program);

  const auto expected = mc::naive::sat(m, f);
  EXPECT_TRUE(via_explicit == expected) << label;
  EXPECT_TRUE(via_naive == expected) << label;
}

TEST(ProgramEvaluator, PerOpcodeDifferentialOnRandomStructures) {
  // One formula per IR opcode (plus the dualities that compose them), so a
  // miscompiled or misevaluated instruction pins to a specific case.
  const char* formulas[] = {
      "true",            // kConstTrue
      "false",           // kConstFalse
      "p",               // kLeaf
      "!p",              // kNot
      "p & q",           // kAnd
      "p | q",           // kOr
      "p <-> q",         // kIff
      "E (p U q)",       // kEU
      "E G p",           // kEG
      "A F q",           // kEG via duality
      "A G (p -> A F q)",
      "E (q R p)",
      "A ((p | q) U q)",
  };
  for (const std::uint32_t seed : {3u, 17u, 29u, 58u}) {
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 24 + seed % 9, seed);
    for (const char* text : formulas)
      expect_matches_reference(m, parse_formula(text), text);
  }
}

TEST(ProgramEvaluator, ExInstructionMatchesNaivePreImage) {
  // kEX has no surface syntax in the paper's logic (X is excluded); compile
  // E X p / A X p directly and check against the reference pre-image.
  for (const std::uint32_t seed : {7u, 21u}) {
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 20, seed);
    ProgramCompiler compiler({}, m.registry());

    const auto ex_f = logic::make_E(logic::make_next(logic::atom("p")));
    mc::ExplicitStateOps ops(m);
    ProgramEvaluator<mc::ExplicitStateOps> eval(ops);
    const auto via_program = eval.run(*compiler.compile(ex_f));
    const auto expected =
        mc::naive::ex(m, mc::naive::leaf(m, logic::atom("p")));
    EXPECT_TRUE(via_program == expected) << "seed " << seed;

    // A X p = !EX !p.
    const auto ax_f = logic::make_A(logic::make_next(logic::atom("p")));
    const auto via_ax = eval.run(*compiler.compile(ax_f));
    auto not_p = mc::naive::leaf(m, logic::atom("p"));
    not_p.flip();
    auto expected_ax = mc::naive::ex(m, not_p);
    expected_ax.flip();
    EXPECT_TRUE(via_ax == expected_ax) << "seed " << seed;
  }
}

TEST(ProgramEvaluator, NaiveBackendRunsTheIdenticalProgram) {
  // The differential harness's guarantee: one compiled artifact, three
  // engines.  Here the shared program object itself is run by both bitset
  // backends (the symbolic façade's program identity is pinned below).
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 30, 11);
  ProgramCompiler compiler({}, m.registry());
  const auto program = compiler.compile(parse_formula("A G (p -> E (p U q))"));

  mc::ExplicitStateOps explicit_ops(m);
  mc::naive::NaiveStateOps naive_ops(m);
  ProgramEvaluator<mc::ExplicitStateOps> a(explicit_ops);
  ProgramEvaluator<mc::naive::NaiveStateOps> b(naive_ops);
  EXPECT_TRUE(a.run(*program) == b.run(*program));
}

/// Index quantifiers in `f`'s syntax tree.
std::size_t quantifiers(const logic::FormulaPtr& f) {
  if (f == nullptr) return 0;
  const bool q = f->kind() == logic::Kind::kForallIndex ||
                 f->kind() == logic::Kind::kExistsIndex;
  return (q ? 1 : 0) + quantifiers(f->lhs()) + quantifiers(f->rhs());
}

std::size_t count_op(const FixpointProgram& p, OpCode op) {
  std::size_t n = 0;
  for (const Instruction& in : p.code) n += in.op == op ? 1 : 0;
  return n;
}

TEST(ProgramEvaluator, FacadesCompileTheSameProgramAcrossEngines) {
  // mc::CtlChecker and symbolic::CtlChecker compile independently (their
  // compilers are per-checker).  For the same formula DAG and index set
  // they produce byte-identical programs — the artifact a future
  // verification server caches per (structure fingerprint, formula id) —
  // except where the symbolic model's rotation is verified and an index
  // quantifier's body names no index but its own: there the symbolic
  // program evaluates the body at the first index and folds it over the
  // rotation.
  const std::uint32_t r = 3;
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(r, reg);
  const auto sym = symbolic::build_symbolic_ring(r, nullptr, reg);
  mc::CtlChecker explicit_checker(explicit_sys.structure());
  symbolic::CtlChecker symbolic_checker(sym.system);

  // No qualifying quantifier: identical programs, even on the verified ring.
  for (const char* text : {"A G (one t)", "E G !c[1]", "A G (c[2] -> t[2])",
                           "forall i. A G (t[i] -> !c[1])"}) {
    const auto f = parse_formula(text);
    EXPECT_EQ(explicit_checker.program(f)->disassemble(),
              symbolic_checker.program(f)->disassemble())
        << text;
  }

  // A symbolic system whose rotation fails verification: identical programs.
  const auto asymmetric =
      testing::asymmetric_ring(r, reg, testing::Asymmetry::kRelabelledD1);
  symbolic::CtlChecker asymmetric_checker(asymmetric);
  for (const auto& [name, f] : testing::section_five_properties()) {
    const auto pe = explicit_checker.program(f);
    const auto pa = asymmetric_checker.program(f);
    EXPECT_EQ(pe->disassemble(), pa->disassemble()) << name;
    EXPECT_EQ(pe->formula_id, pa->formula_id) << name;
  }
  EXPECT_FALSE(asymmetric->verified_rotation());

  // The verified ring: one fold per quantifier, and 1/r of the explicit
  // program's leaf and fixpoint instructions.
  ASSERT_TRUE(sym.system->verified_rotation());
  for (const auto& [name, f] : testing::section_five_properties()) {
    const auto pe = explicit_checker.program(f);
    const auto ps = symbolic_checker.program(f);
    EXPECT_EQ(pe->formula_id, ps->formula_id) << name;
    const std::size_t q = quantifiers(f);
    EXPECT_EQ(count_op(*ps, OpCode::kOrbitAnd) + count_op(*ps, OpCode::kOrbitOr), q)
        << name;
    EXPECT_EQ(count_op(*pe, OpCode::kOrbitAnd) + count_op(*pe, OpCode::kOrbitOr), 0u)
        << name;
    if (q == 0) {
      EXPECT_EQ(pe->disassemble(), ps->disassemble()) << name;
      continue;
    }
    EXPECT_EQ(count_op(*ps, OpCode::kLeaf) * r, count_op(*pe, OpCode::kLeaf)) << name;
    EXPECT_EQ(ps->num_fixpoint_ops() * r, pe->num_fixpoint_ops()) << name;
  }
}

TEST(ProgramEvaluator, StatsCountInstructionsAndFixpoints) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 40, 5);
  ProgramCompiler compiler({}, m.registry());
  const auto program = compiler.compile(parse_formula("A G (p -> A F q)"));

  mc::ExplicitStateOps ops(m);
  ProgramEvaluator<mc::ExplicitStateOps> eval(ops);
  static_cast<void>(eval.run(*program));
  const EvalStats& stats = eval.stats();
  EXPECT_EQ(stats.programs_run, 1u);
  EXPECT_EQ(stats.instructions, program->code.size());
  EXPECT_EQ(stats.fixpoint_ops, program->num_fixpoint_ops());
  EXPECT_GT(stats.fixpoint_iterations, 0u);
  EXPECT_EQ(stats.register_high_water, program->num_registers);
  EXPECT_EQ(stats.leaf_evals, 2u);  // p and q

  static_cast<void>(eval.run(*program));
  EXPECT_EQ(eval.stats().programs_run, 2u);
  EXPECT_EQ(eval.stats().instructions, 2 * program->code.size());
}

TEST(ProgramEvaluator, RegistryCountsEveryCheckersPrograms) {
  // The obs registry sees every compile and run in the process, whichever
  // checker did it — no per-checker publish step to forget.
  if (!obs::kCompiledIn) GTEST_SKIP() << "counters compiled out";
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 25, 4);
  const obs::Registry& counters = obs::Registry::global();
  const auto compiled = counters.value("eval", "programs_compiled");
  const auto run = counters.value("eval", "programs_run");
  mc::CtlChecker a(m);
  mc::CtlChecker b(m);
  static_cast<void>(a.sat(parse_formula("A F q")));
  static_cast<void>(a.sat(parse_formula("E (p U q)")));
  static_cast<void>(b.sat(parse_formula("A F q")));
  EXPECT_EQ(counters.value("eval", "programs_compiled") - compiled, 3u);
  EXPECT_EQ(counters.value("eval", "programs_run") - run, 3u);
}

TEST(ProgramEvaluator, RegistryCarriesEveryCompileAndEvalStat) {
  // Each stat is counted into the registry where it is recorded, so the
  // export holds all of them: over one checker's lifetime the registry
  // moves by exactly that checker's stats.
  if (!obs::kCompiledIn) GTEST_SKIP() << "counters compiled out";
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 25, 6);
  const obs::Registry& counters = obs::Registry::global();
  const auto before = counters.snapshot();
  const auto delta = [&](const std::string& name) {
    const std::string key = std::string("eval/").append(name);
    std::uint64_t old = 0;
    for (const auto& [path, value] : before)
      if (path == key) old = value;
    return counters.value("eval", name) - old;
  };

  obs::set_enabled(true);  // opcode times are recorded only while enabled
  mc::CtlChecker checker(m);
  for (const char* text : {"A G (p -> A F q)", "A G p & E F !p", "p <-> E G q"})
    static_cast<void>(checker.sat(parse_formula(text)));
  static_cast<void>(checker.program(parse_formula("A G p & E F !p")));
  obs::set_enabled(false);

  const EvalStats& run = checker.eval_stats();
  EXPECT_EQ(delta("programs_run"), run.programs_run);
  EXPECT_EQ(delta("instructions"), run.instructions);
  EXPECT_EQ(delta("leaf_evals"), run.leaf_evals);
  EXPECT_EQ(delta("fixpoint_ops"), run.fixpoint_ops);
  EXPECT_EQ(delta("fixpoint_iterations"), run.fixpoint_iterations);
  EXPECT_GE(counters.value("eval", "register_high_water"), run.register_high_water);
  for (std::size_t i = 0; i < kNumOpCodes; ++i) {
    const std::string op = std::string("op_").append(opcode_name(static_cast<OpCode>(i)));
    EXPECT_EQ(delta(op), run.op_count[i]) << op;
    EXPECT_EQ(delta(std::string(op).append("_ns")), run.op_ns[i]) << op;
  }
  EXPECT_GT(run.op_ns[static_cast<std::size_t>(OpCode::kEU)], 0u);

  const ProgramCompiler::Stats& compile = checker.compile_stats();
  EXPECT_EQ(delta("programs_compiled"), compile.programs_compiled);
  EXPECT_EQ(delta("cache_hits"), compile.cache_hits);
  EXPECT_EQ(delta("cse_hits"), compile.cse_hits);
  EXPECT_EQ(compile.cache_hits, 1u);
  EXPECT_GT(compile.cse_hits, 0u);
}

TEST(ProgramEvaluator, CheckerFacadeStatsAccumulate) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 25, 2);
  mc::CtlChecker checker(m);
  static_cast<void>(checker.sat(parse_formula("A F q")));
  static_cast<void>(checker.sat(parse_formula("E (p U q)")));
  EXPECT_EQ(checker.eval_stats().programs_run, 2u);
  EXPECT_EQ(checker.compile_stats().programs_compiled, 2u);
  EXPECT_GT(checker.eval_stats().fixpoint_iterations, 0u);
  // Memo: re-asking runs nothing new.
  static_cast<void>(checker.sat(parse_formula("A F q")));
  EXPECT_EQ(checker.eval_stats().programs_run, 2u);
}

}  // namespace
}  // namespace ictl::eval
