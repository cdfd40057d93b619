// The one evaluation core: a register-machine loop that runs a compiled
// FixpointProgram over any StateSetOps backend.  All three engines —
// explicit, symbolic, naive — execute the identical instruction sequence;
// only the set representation behind the registers differs.
//
// Register values are whole satisfying sets with value semantics (bitsets
// or BddRef roots, so symbolic registers stay GC/reorder-rooted for exactly
// as long as the allocator keeps the slot live).  Every instruction
// computes its result into a temporary before the destination assignment,
// which makes the allocator's in-place destinations (dst == operand slot)
// safe for every backend.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/fixpoint_program.hpp"
#include "eval/state_set_ops.hpp"
#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "support/error.hpp"

namespace ictl::eval {

template <StateSetOps Ops>
class ProgramEvaluator {
 public:
  explicit ProgramEvaluator(Ops& ops) : ops_(ops) {}

  /// Runs `program` and returns the satisfying set of its root formula.
  /// Each stat is recorded where it happens, twice: in this evaluator's
  /// EvalStats and, under the same name, in the process-wide obs registry
  /// ("eval/instructions", "eval/op_eu", ...), which thereby accounts for
  /// every checker's work with no publish step.
  [[nodiscard]] typename Ops::Set run(const FixpointProgram& program) {
    std::vector<typename Ops::Set> regs(program.num_registers);
    ++stats_.programs_run;
    ICTL_COUNT("eval", "programs_run");
    if (program.num_registers > stats_.register_high_water)
      stats_.register_high_water = program.num_registers;
    ICTL_COUNT_MAX("eval", "register_high_water", program.num_registers);
    // obs::enabled() is the constant false when the spine is compiled out,
    // so the timed branch below folds away entirely in obs-off builds.
    for (const Instruction& in : program.code) {
      // Between-instruction checkpoint: every register is a whole rooted
      // set here, so a budget trip unwinds without leaving partial state.
      // The fixpoint opcodes additionally checkpoint per iteration inside
      // the backend eu/eg loops.
      rt::checkpoint("eval/program");
      const auto op_index = static_cast<std::size_t>(in.op);
      ++stats_.op_count[op_index];
      if constexpr (obs::kCompiledIn) {
        static const OpCells counts = op_cells("");
        counts[op_index]->add();
      }
      if (obs::enabled()) {
        obs::SpanGuard span("eval", opcode_name(in.op));
        typename Ops::Set value = execute(in, program, regs);
        if (is_fixpoint(in.op))
          obs::span_arg("iterations", ops_.last_fixpoint_iterations());
        const std::uint64_t ns = span.elapsed_ns();
        stats_.op_ns[op_index] += ns;
        // Registered on the first timed run, so untimed runs export no
        // all-zero "_ns" cells.
        static const OpCells nanos = op_cells("_ns");
        nanos[op_index]->add(ns);
        regs[in.dst] = std::move(value);
      } else {
        typename Ops::Set value = execute(in, program, regs);
        regs[in.dst] = std::move(value);
      }
    }
    stats_.instructions += program.code.size();
    ICTL_COUNT_ADD("eval", "instructions", program.code.size());
    return std::move(regs[program.result]);
  }

  [[nodiscard]] const EvalStats& stats() const noexcept { return stats_; }

 private:
  typename Ops::Set execute(const Instruction& in, const FixpointProgram& program,
                            std::vector<typename Ops::Set>& regs) {
    switch (in.op) {
      case OpCode::kConstTrue:
        return ops_.top();
      case OpCode::kConstFalse:
        return ops_.bottom();
      case OpCode::kLeaf:
        ++stats_.leaf_evals;
        ICTL_COUNT("eval", "leaf_evals");
        return leaf_set(program.leaves[in.leaf]);
      case OpCode::kNot:
        return ops_.complement(regs[in.a]);
      case OpCode::kAnd:
        return ops_.conj(regs[in.a], regs[in.b]);
      case OpCode::kOr:
        return ops_.disj(regs[in.a], regs[in.b]);
      case OpCode::kIff:
        return ops_.iff(regs[in.a], regs[in.b]);
      case OpCode::kEX:
        return ops_.ex(regs[in.a]);
      case OpCode::kEU: {
        typename Ops::Set value = ops_.eu(regs[in.a], regs[in.b]);
        count_fixpoint();
        return value;
      }
      case OpCode::kEG: {
        typename Ops::Set value = ops_.eg(regs[in.a]);
        count_fixpoint();
        return value;
      }
      case OpCode::kOrbitAnd:
      case OpCode::kOrbitOr:
        if constexpr (RotationFoldOps<Ops>) {
          return ops_.orbit_fold(regs[in.a], in.op == OpCode::kOrbitAnd);
        } else {
          throw LogicError("ProgramEvaluator: this backend cannot fold over a rotation");
        }
    }
    throw LogicError("ProgramEvaluator: corrupt opcode");
  }

  typename Ops::Set leaf_set(const Leaf& leaf) {
    switch (leaf.kind) {
      case LeafKind::kProp:
        return ops_.prop(leaf.props.front());
      case LeafKind::kExactlyOne:
        return ops_.exactly_one(leaf.props);
      case LeafKind::kFalse:
        break;
    }
    return ops_.bottom();
  }

  void count_fixpoint() {
    ++stats_.fixpoint_ops;
    ICTL_COUNT("eval", "fixpoint_ops");
    stats_.fixpoint_iterations += ops_.last_fixpoint_iterations();
    ICTL_COUNT_ADD("eval", "fixpoint_iterations", ops_.last_fixpoint_iterations());
  }

  /// The registry cells "eval/op_<mnemonic><suffix>", indexed by OpCode.
  using OpCells = std::array<obs::Counter*, kNumOpCodes>;
  static OpCells op_cells(std::string_view suffix) {
    OpCells cells{};
    for (std::size_t i = 0; i < kNumOpCodes; ++i) {
      std::string name = "op_";
      name += opcode_name(static_cast<OpCode>(i));
      name += suffix;
      cells[i] = &obs::Registry::global().counter("eval", name);
    }
    return cells;
  }

  Ops& ops_;
  EvalStats stats_;
};

}  // namespace ictl::eval
