// The backend concept behind the one evaluation core: a StateSetOps models
// satisfying sets of one engine (explicit bitsets, BDD roots, or the naive
// reference) and supplies the primitive set operations the FixpointProgram
// instructions are defined over.
//
// Semantics contract: `top()` is the backend's universe and `complement`
// is taken relative to it.  The explicit engines use the whole state space;
// the symbolic engine uses the reachable set (its structures are compared
// against reachable-restricted explicit ones, so the engines still agree
// state-for-state — the same convention the recursive checkers followed).
// Leaves arrive resolved to proposition ids (resolve_leaf in
// program_compiler.hpp): `prop(p)` is the set of states labeled p — empty
// when the model carries no label for p, e.g. a proposition registered
// after the build — and `exactly_one(members)` the states labeled by
// exactly one member.
// `eu`/`eg` are whole fixpoints, not single steps: the IR's loop headers
// delegate the iteration schedule to the backend so each engine keeps its
// native algorithm (frontier worklists, successor-counting elimination,
// symbolic frontier rounds) and its allocation discipline.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <span>

#include "eval/fixpoint_program.hpp"
#include "kripke/prop_registry.hpp"

namespace ictl::eval {

// clang-format off
template <typename O>
concept StateSetOps =
    requires(O ops, const typename O::Set& s, kripke::PropId p,
             std::span<const kripke::PropId> members) {
      typename O::Set;
      { ops.top() } -> std::same_as<typename O::Set>;
      { ops.bottom() } -> std::same_as<typename O::Set>;
      { ops.prop(p) } -> std::same_as<typename O::Set>;
      { ops.exactly_one(members) } -> std::same_as<typename O::Set>;
      { ops.complement(s) } -> std::same_as<typename O::Set>;
      { ops.conj(s, s) } -> std::same_as<typename O::Set>;
      { ops.disj(s, s) } -> std::same_as<typename O::Set>;
      { ops.iff(s, s) } -> std::same_as<typename O::Set>;
      { ops.ex(s) } -> std::same_as<typename O::Set>;
      { ops.eu(s, s) } -> std::same_as<typename O::Set>;
      { ops.eg(s) } -> std::same_as<typename O::Set>;
      // Iterations (worklist steps or fixpoint rounds — the backend's
      // natural unit) taken by the most recent eu/eg call, for stats.
      { ops.last_fixpoint_iterations() } -> std::convertible_to<std::uint64_t>;
    };
// clang-format on

/// A backend that also folds a set over its model's rotation π — the
/// kOrbitAnd/kOrbitOr instructions.  Optional: the checker gives its
/// compiler `verified_rotation()` only for such a backend, and the compiler
/// emits a fold only when that answered true, so no other backend ever sees
/// one.  `orbit_fold(s, true)` is s & π(s) & π²(s) & ..., and
/// `orbit_fold(s, false)` the union.
// clang-format off
template <typename O>
concept RotationFoldOps =
    StateSetOps<O> && requires(O ops, const typename O::Set& s) {
      { ops.verified_rotation() } -> std::same_as<bool>;
      { ops.orbit_fold(s, true) } -> std::same_as<typename O::Set>;
    };
// clang-format on

/// Per-checker evaluation counters, accumulated across program runs by
/// ProgramEvaluator and surfaced by the checker façades.
struct EvalStats {
  std::uint64_t programs_run = 0;
  std::uint64_t instructions = 0;         ///< instructions executed
  std::uint64_t leaf_evals = 0;           ///< kLeaf instructions executed
  std::uint64_t fixpoint_ops = 0;         ///< kEU/kEG instructions executed
  std::uint64_t fixpoint_iterations = 0;  ///< backend iterations across them
  std::uint32_t register_high_water = 0;  ///< widest register file seen
  /// Executions per opcode, indexed by OpCode (always recorded).
  std::array<std::uint64_t, kNumOpCodes> op_count{};
  /// Nanoseconds per opcode, indexed by OpCode.  Recorded only while
  /// obs::enabled() — zero otherwise, since timing every instruction of a
  /// disabled run would tax the hot path for nothing.
  std::array<std::uint64_t, kNumOpCodes> op_ns{};
};

}  // namespace ictl::eval
