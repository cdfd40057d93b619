// ProgramCompiler unit tests: golden disassembly for the Section 5
// property programs, CSE pins (formula-level and instruction-level),
// register-allocator reuse, the program cache, and the compile-time error
// surface (non-CTL formulas, unbound/empty index sets).
#include "eval/program_compiler.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "eval/fixpoint_program.hpp"
#include "logic/parser.hpp"
#include "logic/printer.hpp"
#include "support/error.hpp"

namespace ictl::eval {
namespace {

using logic::parse_formula;

/// A compiler over an empty registry that reads every atom as false: the
/// programs below depend on the formula alone, not on what its leaves
/// resolve to.
ProgramCompiler compiler_for(std::vector<std::uint32_t> index_set) {
  return ProgramCompiler(std::move(index_set), kripke::make_registry(),
                         /*unknown_atoms_are_false=*/true);
}

std::size_t count_ops(const FixpointProgram& p, OpCode op) {
  std::size_t n = 0;
  for (const Instruction& in : p.code) n += in.op == op ? 1 : 0;
  return n;
}

// ---- Golden disassembly (Section 5 formulas, index set {1, 2}) -------------
//
// The exact programs are part of the contract: every engine runs precisely
// these instruction sequences, so a codegen change shows up here first.

TEST(ProgramCompiler, GoldenDisassemblyP4DelayedEventuallyCritical) {
  ProgramCompiler compiler = compiler_for({1, 2});
  const auto program =
      compiler.compile(parse_formula("forall i. A G (d[i] -> A F c[i])"));
  EXPECT_EQ(program->disassemble(),
            R"(program: forall i. A G (d[i] -> A F c[i])
leaves:
  L0 = d[1]
  L1 = c[1]
  L2 = d[2]
  L3 = c[2]
registers: 4
  r0 = leaf L0
  r0 = not r0
  r1 = leaf L1
  r1 = not r1
  r1 = eg r1  ; gfp Z . r1 & EX Z
  r1 = not r1
  r1 = or r0, r1
  r1 = not r1
  r0 = true
  r1 = eu r0, r1  ; lfp Z . r1 | (r0 & EX Z)
  r1 = not r1
  r2 = leaf L2
  r2 = not r2
  r3 = leaf L3
  r3 = not r3
  r3 = eg r3  ; gfp Z . r3 & EX Z
  r3 = not r3
  r3 = or r2, r3
  r3 = not r3
  r3 = eu r0, r3  ; lfp Z . r3 | (r0 & EX Z)
  r3 = not r3
  r3 = and r1, r3
  ret r3
)");
  // The index expansion baked both instances in; the shared `true` of the
  // two AG expansions was folded by value numbering.
  EXPECT_EQ(count_ops(*program, OpCode::kConstTrue), 1u);
  EXPECT_EQ(program->num_fixpoint_ops(), 4u);
}

TEST(ProgramCompiler, GoldenDisassemblyI3ExactlyOneToken) {
  ProgramCompiler compiler = compiler_for({1, 2});
  const auto program = compiler.compile(parse_formula("A G (one t)"));
  EXPECT_EQ(program->disassemble(),
            R"(program: A G one t
leaves:
  L0 = one t
registers: 2
  r0 = leaf L0
  r0 = not r0
  r1 = true
  r0 = eu r1, r0  ; lfp Z . r0 | (r1 & EX Z)
  r0 = not r0
  ret r0
)");
}

TEST(ProgramCompiler, GoldenDisassemblyExistentialUntil) {
  ProgramCompiler compiler = compiler_for({});
  const auto program = compiler.compile(parse_formula("E (p U q)"));
  EXPECT_EQ(program->disassemble(),
            R"(program: E (p U q)
leaves:
  L0 = p
  L1 = q
registers: 2
  r0 = leaf L0
  r1 = leaf L1
  r1 = eu r0, r1  ; lfp Z . r1 | (r0 & EX Z)
  ret r1
)");
}

TEST(ProgramCompiler, SectionFiveSuiteCompilesForEveryRingSize) {
  for (const std::uint32_t r : {2u, 3u, 8u}) {
    std::vector<std::uint32_t> indices;
    for (std::uint32_t i = 1; i <= r; ++i) indices.push_back(i);
    ProgramCompiler compiler = compiler_for(indices);
    for (const auto& [name, f] : testing::section_five_properties()) {
      const auto program = compiler.compile(f);
      EXPECT_FALSE(program->code.empty()) << name;
      EXPECT_GT(program->num_registers, 0u) << name;
      EXPECT_LT(program->result, program->num_registers) << name;
      // Disassembly stays well-formed at every size (smoke, not golden).
      EXPECT_NE(program->disassemble().find("ret r"), std::string::npos) << name;
    }
  }
}

// ---- Common-subexpression elimination --------------------------------------

TEST(ProgramCompiler, StructurallyEqualSubformulasCompileToOneRegister) {
  // EF p appears twice; hash-consing makes both occurrences the same node,
  // and the compiler's formula memo lowers it once: a single eu.
  ProgramCompiler compiler = compiler_for({});
  const auto f = logic::make_and(
      logic::EF(logic::atom("p")),
      logic::make_or(logic::EF(logic::atom("p")), logic::atom("q")));
  const auto program = compiler.compile(f);
  EXPECT_EQ(count_ops(*program, OpCode::kEU), 1u);
  EXPECT_EQ(count_ops(*program, OpCode::kLeaf), 2u);  // p and q, once each
}

TEST(ProgramCompiler, ValueNumberingFoldsDualityDuplicates) {
  // AG p = !E[true U !p] and EF !p = E[true U !p] reach the same eu through
  // structurally different source nodes — instruction-level value numbering
  // folds the const, the negation and the whole fixpoint.
  ProgramCompiler compiler = compiler_for({});
  const auto program = compiler.compile(parse_formula("A G p & E F !p"));
  EXPECT_EQ(program->code.size(), 6u);
  EXPECT_EQ(count_ops(*program, OpCode::kEU), 1u);
  EXPECT_EQ(count_ops(*program, OpCode::kConstTrue), 1u);
  EXPECT_EQ(compiler.stats().cse_hits, 3u);
}

TEST(ProgramCompiler, CommutativeOperandsAreCanonicalized) {
  // and(x, y) and and(y, x) are one instruction.
  ProgramCompiler compiler = compiler_for({});
  const auto x = logic::atom("p");
  const auto y = logic::EF(logic::atom("q"));
  const auto f = logic::make_or(logic::make_and(x, y), logic::make_and(y, x));
  const auto program = compiler.compile(f);
  EXPECT_EQ(count_ops(*program, OpCode::kAnd), 1u);
}

// ---- Register allocation ---------------------------------------------------

TEST(ProgramCompiler, RegisterAllocatorReusesDeadSlots) {
  // A chain of nested EFs is deep in instructions but needs only a couple
  // of live sets at a time.
  ProgramCompiler compiler = compiler_for({});
  const auto program = compiler.compile(parse_formula("E F E F E F E F p"));
  EXPECT_GT(program->code.size(), program->num_registers);
  EXPECT_LE(program->num_registers, 3u);
  // Every operand and destination stays inside the register file.
  for (const Instruction& in : program->code) {
    EXPECT_LT(in.dst, program->num_registers);
    EXPECT_LT(in.a, program->num_registers);
    EXPECT_LT(in.b, program->num_registers);
  }
  EXPECT_LT(program->result, program->num_registers);
}

// ---- Program cache ---------------------------------------------------------

TEST(ProgramCompiler, CacheReturnsSameProgramForSameFormula) {
  ProgramCompiler compiler = compiler_for({1, 2});
  const auto f = parse_formula("forall i. A G (c[i] -> t[i])");
  const auto first = compiler.compile(f);
  const auto second = compiler.compile(f);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(compiler.stats().programs_compiled, 1u);
  EXPECT_EQ(compiler.stats().cache_hits, 1u);
  // A structurally equal rebuild is the same hash-consed node, so it hits.
  const auto rebuilt = parse_formula("forall i. A G (c[i] -> t[i])");
  EXPECT_EQ(compiler.compile(rebuilt).get(), first.get());
}

TEST(ProgramCompiler, ProgramRecordsFormulaIdentity) {
  ProgramCompiler compiler = compiler_for({});
  const auto f = parse_formula("E G (p | q)");
  const auto program = compiler.compile(f);
  EXPECT_EQ(program->formula_id, f->id());
  EXPECT_EQ(program->root.get(), f.get());
}

// ---- Leaf resolution -------------------------------------------------------

TEST(ProgramCompiler, ResolvesLeavesToPropositionIdsOnce) {
  auto reg = kripke::make_registry();
  const auto t1 = reg->indexed("t", 1);
  const auto t2 = reg->indexed("t", 2);
  const auto d_base = reg->indexed_base("d");
  ProgramCompiler compiler({1, 2}, reg);
  const auto program = compiler.compile(parse_formula("A G (one t -> t[2] | d)"));
  ASSERT_EQ(program->leaves.size(), 3u);
  const auto leaf_for = [&](const char* text) {
    for (const Leaf& leaf : program->leaves)
      if (logic::to_string(leaf.formula) == text) return leaf;
    ADD_FAILURE() << "no leaf " << text;
    return Leaf{};
  };
  // No theta for t: exactly one of its registered members.
  EXPECT_EQ(leaf_for("one t").kind, LeafKind::kExactlyOne);
  EXPECT_EQ(leaf_for("one t").props, (std::vector<kripke::PropId>{t1, t2}));
  EXPECT_EQ(leaf_for("t[2]").kind, LeafKind::kProp);
  EXPECT_EQ(leaf_for("t[2]").props, std::vector<kripke::PropId>{t2});
  // No plain d: the bare name means the index-erased d[.].
  EXPECT_EQ(leaf_for("d").props, std::vector<kripke::PropId>{d_base});

  // A registered theta takes precedence over the member scan.
  const auto theta = reg->theta("t");
  ProgramCompiler with_theta({1, 2}, reg);
  const auto leaf = with_theta.compile(parse_formula("one t"))->leaves.at(0);
  EXPECT_EQ(leaf.kind, LeafKind::kProp);
  EXPECT_EQ(leaf.props, std::vector<kripke::PropId>{theta});
}

TEST(ProgramCompiler, UnknownAtomsFailAtCompileTimeUnlessReadAsFalse) {
  auto reg = kripke::make_registry();
  ProgramCompiler strict({}, reg);
  EXPECT_THROW(static_cast<void>(strict.compile(parse_formula("E F nosuch"))),
               LogicError);
  ProgramCompiler lenient({}, reg, /*unknown_atoms_are_false=*/true);
  EXPECT_EQ(lenient.compile(parse_formula("E F nosuch"))->leaves.at(0).kind,
            LeafKind::kFalse);
  // Names resolve at compile time only, so there is no compiler without a
  // registry.
  EXPECT_THROW(static_cast<void>(ProgramCompiler({}, nullptr)), LogicError);
}

// ---- The kEX instruction (NEXTTIME experiment) -----------------------------

TEST(ProgramCompiler, NexttimeLowersToExInstruction) {
  // is_ctl rejects X, so the checker façades never compile it — but the IR
  // supports EX directly and the compiler lowers E X / A X for the
  // NEXTTIME experiment and the per-opcode differential.
  ProgramCompiler compiler = compiler_for({});
  const auto ex_program =
      compiler.compile(logic::make_E(logic::make_next(logic::atom("p"))));
  EXPECT_EQ(count_ops(*ex_program, OpCode::kEX), 1u);
  const auto ax_program =
      compiler.compile(logic::make_A(logic::make_next(logic::atom("p"))));
  EXPECT_EQ(count_ops(*ax_program, OpCode::kEX), 1u);
  EXPECT_EQ(count_ops(*ax_program, OpCode::kNot), 2u);  // AX f = !EX !f
}

// ---- Error surface ---------------------------------------------------------

TEST(ProgramCompiler, RejectsNullAndNonStateFormulas) {
  ProgramCompiler compiler = compiler_for({});
  EXPECT_THROW(static_cast<void>(compiler.compile(nullptr)), LogicError);
  // A path formula at state position.
  EXPECT_THROW(
      static_cast<void>(compiler.compile(logic::make_until(
          logic::atom("p"), logic::atom("q")))),
      LogicError);
  // Path quantifier over a boolean of paths (CTL* but not CTL).
  EXPECT_THROW(static_cast<void>(compiler.compile(parse_formula(
                   "A (F p & G q)"))),
               LogicError);
}

TEST(ProgramCompiler, RejectsUnboundIndexVariables) {
  ProgramCompiler compiler = compiler_for({1, 2});
  EXPECT_THROW(static_cast<void>(compiler.compile(logic::iatom("d", "i"))),
               LogicError);
}

TEST(ProgramCompiler, RejectsQuantifiersOverEmptyIndexSet) {
  ProgramCompiler compiler = compiler_for({});
  EXPECT_THROW(static_cast<void>(compiler.compile(
                   parse_formula("forall i. A G (c[i] -> t[i])"))),
               LogicError);
}

}  // namespace
}  // namespace ictl::eval
