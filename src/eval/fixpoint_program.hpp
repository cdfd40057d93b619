// The flat fixpoint-program IR: a CTL state formula compiled to a
// straight-line register program whose instructions are satisfying-set
// operations (ROADMAP item 5's compile-to-program stretch, in the spirit of
// nesfab's generated table-driven loops).
//
// One program is compiled per formula DAG and then evaluated by any engine
// that models the StateSetOps concept (state_set_ops.hpp): explicit bitsets
// over CSR, BDDs, or the naive reference.  Registers hold whole satisfying
// sets; EU/EG are single instructions — fixpoint loop headers whose
// iteration schedule is the backend's own (frontier worklists explicitly,
// frontier/gfp rounds symbolically) — so compiling changes *where* the
// recursion lives, never the per-engine fixpoint algorithm.
//
// Index quantifiers are lowered at compile time over the index set the
// compiler was built with: expanded into an and/or chain of one body per
// index, or — on a model with a verified rotation π (the symbolic ring) and
// a body that mentions no index but its own — compiled once, at the first
// index, and folded over π by one kOrbitAnd/kOrbitOr.  Only a backend that
// knows π executes the fold; the compiler never emits it for any other.
// Atoms, indexed atoms and `one P` stay leaves, resolved at compile time to
// proposition ids (resolve_leaf in program_compiler.hpp), so backends see
// ids, never names.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kripke/prop_registry.hpp"
#include "logic/formula.hpp"

namespace ictl::eval {

/// Physical register index into the evaluator's set file.
using Reg = std::uint32_t;

enum class OpCode : std::uint8_t {
  kConstTrue,   ///< dst = the whole universe (backend's top)
  kConstFalse,  ///< dst = the empty set
  kLeaf,        ///< dst = satisfying set of leaves[leaf]
  kNot,         ///< dst = complement of a (relative to the backend universe)
  kAnd,         ///< dst = a & b
  kOr,          ///< dst = a | b
  kIff,         ///< dst = (a & b) | (!a & !b)
  kEX,          ///< dst = EX a
  kEU,          ///< dst = lfp Z . b | (a & EX Z)   — fixpoint loop header
  kEG,          ///< dst = gfp Z . a & EX Z         — fixpoint loop header
  kOrbitAnd,    ///< dst = a & π(a) & π²(a) & ...   — fold over the rotation
  kOrbitOr,     ///< dst = a | π(a) | π²(a) | ...   — fold over the rotation
};

/// Number of OpCode values — sizes per-opcode stat arrays (EvalStats).
inline constexpr std::size_t kNumOpCodes = 12;

/// Stable lowercase mnemonic ("true", "and", "eu", ...) — the label used by
/// disassembly, per-opcode evaluator spans, and bench counters alike.  The
/// pointer has static storage duration, as obs span names require.
[[nodiscard]] const char* opcode_name(OpCode op) noexcept;

/// True for the two fixpoint loop headers.
[[nodiscard]] constexpr bool is_fixpoint(OpCode op) noexcept {
  return op == OpCode::kEU || op == OpCode::kEG;
}

struct Instruction {
  OpCode op;
  Reg dst = 0;
  Reg a = 0;           ///< first operand register (unused for consts/leaf)
  Reg b = 0;           ///< second operand register (kAnd/kOr/kIff/kEU)
  std::uint32_t leaf = 0;  ///< kLeaf: index into FixpointProgram::leaves
};

/// What a leaf resolved to against the proposition registry.
enum class LeafKind : std::uint8_t {
  kFalse,       ///< an unknown atom, read as false in every state
  kProp,        ///< the states labeled props[0]
  kExactlyOne,  ///< the states labeled by exactly one of props (`one P`)
};

/// A leaf-table entry: the source formula node, which disassembly renders,
/// and the proposition ids it resolved to.
struct Leaf {
  logic::FormulaPtr formula;
  LeafKind kind = LeafKind::kFalse;
  std::vector<kripke::PropId> props;
};

/// A compiled formula: straight-line code over a small register file.
/// Programs are immutable once built and safe to share across evaluators
/// and threads — all mutable state lives in the evaluator's register file.
struct FixpointProgram {
  std::vector<Instruction> code;
  /// Leaf table, read by kLeaf instructions.  Distinct leaves appear once.
  std::vector<Leaf> leaves;
  /// Register-file size; the allocator reuses slots whose value is dead.
  std::uint32_t num_registers = 0;
  /// Register holding the satisfying set of the root formula on return.
  Reg result = 0;
  /// Identity of the compiled formula node (logic::Formula::id — never
  /// reused, so (structure fingerprint, formula_id) is a stable cache key).
  std::uint64_t formula_id = 0;
  /// The root formula, retained so disassembly can render the source and
  /// so the hash-cons table keeps the DAG alive for the program's lifetime.
  logic::FormulaPtr root;

  [[nodiscard]] std::size_t num_fixpoint_ops() const noexcept {
    std::size_t n = 0;
    for (const Instruction& in : code) n += is_fixpoint(in.op) ? 1 : 0;
    return n;
  }

  /// Deterministic textual rendering for golden tests: source line, leaf
  /// table, register count, then one line per instruction.  Fixpoint
  /// instructions carry their loop-header equation as a trailing comment.
  [[nodiscard]] std::string disassemble() const;
};

}  // namespace ictl::eval
