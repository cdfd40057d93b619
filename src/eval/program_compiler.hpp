// Compiles CTL state formulas (the logic::is_ctl fragment, plus EX for the
// NEXTTIME experiment) into FixpointProgram register code.
//
// One compile per formula DAG: programs are cached by the never-reused
// logic::Formula::id and shared by shared_ptr, so every engine evaluating
// the same formula runs the identical instruction sequence.  Two layers of
// common-subexpression elimination keep programs minimal:
//   * hash-consed subformulas lower once (memo on Formula::id — structural
//     equality IS pointer identity, so structurally equal subformulas
//     compile to one register), and
//   * instruction-level value numbering folds duplicates the expansion
//     dualities introduce (e.g. the two `!b` uses inside A[a U b], or the
//     shared `true` of nested EF).
// A linear-scan register allocator then reuses slots whose value is dead,
// so the register file stays near the formula's operand width rather than
// its instruction count — registers hold whole satisfying sets (bitsets or
// BDD roots), so dead-slot reuse is what keeps evaluation memory flat.
//
// Index quantifiers (/\i, \/i) expand over the compiler's index set into
// and/or chains of bind_index instances — unless the model has a verified
// rotation π (asked through the compiler's RotationQuery, on the first
// quantifier that could use it) and the body names no index constant and
// no index variable but its own.  Such a quantifier compiles its body once,
// at the first index, followed by one kOrbitAnd (/\i) or kOrbitOr (\/i)
// that folds the body's satisfying set over π: since π maps sat(g(k)) to
// sat(g(k+1)), the fold is the conjunction (disjunction) over every index.
// Without a RotationQuery — the explicit and naive checkers — or when π
// fails verification, every quantifier expands.  Atoms and `one P` stay
// leaves, resolved here once to proposition ids (resolve_leaf) so backends
// never see a name.  Compilation throws LogicError on non-state formulas,
// unbound index variables, index quantifiers over an empty index set, and
// unknown atoms unless they read as false — the same conditions the
// recursive checkers rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "eval/fixpoint_program.hpp"
#include "kripke/prop_registry.hpp"
#include "logic/formula.hpp"

namespace ictl::eval {

/// The one place atom names become proposition ids.  Resolves the closed
/// literal leaf `f` against `registry`:
///   * `A`     — the plain proposition A; when no plain A exists, the
///               index-erased A[.] of a reduction M|i, so "the process's A"
///               is written simply `A` over reduced structures;
///   * `A[c]`  — the indexed proposition A_c;
///   * `one P` — the theta proposition for P when one is registered (it
///               takes precedence), else exactly one of the registered P_c.
/// An unknown atom throws LogicError, or resolves to kFalse when
/// `unknown_atoms_are_false`.
[[nodiscard]] Leaf resolve_leaf(const kripke::PropRegistry& registry,
                                const logic::FormulaPtr& f,
                                bool unknown_atoms_are_false);

class ProgramCompiler {
 public:
  /// Whether the model has a verified rotation over the index set, in its
  /// order, the last index wrapping to the first (for the symbolic engine,
  /// TransitionSystem::verified_rotation).  Null: none, every quantifier
  /// expands.
  using RotationQuery = std::function<bool()>;

  /// `index_set` is the structure's process-index universe, captured once:
  /// compiled programs bake its expansion in, exactly like the recursive
  /// checkers expanded quantifiers against their structure's index set.
  /// Every leaf resolves against `registry` (required) at compile time.
  ProgramCompiler(std::vector<std::uint32_t> index_set,
                  std::shared_ptr<const kripke::PropRegistry> registry,
                  bool unknown_atoms_are_false = false,
                  RotationQuery rotation = nullptr);

  /// Compiles `f` (cached by Formula::id) into an immutable shared program.
  [[nodiscard]] std::shared_ptr<const FixpointProgram> compile(
      const logic::FormulaPtr& f);

  /// Also counted, under the same names, into the obs registry's "eval/"
  /// scope for every compiler in the process.
  struct Stats {
    std::size_t programs_compiled = 0;
    std::size_t cache_hits = 0;  ///< compile() calls answered from the cache
    std::size_t cse_hits = 0;    ///< instructions folded by value numbering
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  [[nodiscard]] const std::vector<std::uint32_t>& index_set() const noexcept {
    return index_set_;
  }

 private:
  std::vector<std::uint32_t> index_set_;
  std::shared_ptr<const kripke::PropRegistry> registry_;
  bool unknown_atoms_are_false_;
  RotationQuery rotation_;
  // Program cache keyed on hash-consed node identity; each cached program
  // retains its root formula, which keeps the DAG's cons-table entries
  // alive so structurally equal rebuilds still hit this cache.
  std::unordered_map<std::uint64_t, std::shared_ptr<const FixpointProgram>> cache_;
  Stats stats_;
};

}  // namespace ictl::eval
