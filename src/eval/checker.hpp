// The one CTL checker façade over the evaluation core: compile a formula
// once into a FixpointProgram (ProgramCompiler, which also resolves its
// atoms to proposition ids against the model's registry), run the program
// over a StateSetOps backend (ProgramEvaluator), and memoize the satisfying
// set per formula.  mc::CtlChecker and symbolic::CtlChecker are this
// template over the explicit and BDD backends.
//
// Beyond StateSetOps a backend names the model it is built from
// (`Ops::Model`, the constructor argument), exposes it as `model()` — whose
// registry() and index_set() the compiler reads — and answers
// `includes_initial(set)` for holds_initially().
//
// The memo is keyed on hash-consed node identity (logic::Formula::id —
// never reused, so no stale-entry aliasing).  The compiler's program cache
// retains the root formulas, keeping their cons-table entries alive, so a
// structurally equal rebuild hits both caches.  Symbolic sets are BddRefs,
// so the memo roots every answer it hands out.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/program_compiler.hpp"
#include "eval/program_evaluator.hpp"
#include "logic/classify.hpp"
#include "logic/formula.hpp"
#include "logic/printer.hpp"
#include "support/error.hpp"

namespace ictl::eval {

struct CheckerOptions {
  /// When false, an atom the registry does not know raises LogicError; when
  /// true it reads as false in every state.
  bool unknown_atoms_are_false = false;
};

template <StateSetOps Ops>
class Checker {
 public:
  using Set = typename Ops::Set;

  // Ops::Model is a reference (explicit) or an owning pointer (symbolic);
  // forward keeps the one and moves the other.
  explicit Checker(typename Ops::Model model, CheckerOptions options = {})
      : ops_(std::forward<typename Ops::Model>(model)),
        compiler_(index_vector(ops_.model().index_set()), ops_.model().registry(),
                  options.unknown_atoms_are_false, rotation_query()),
        evaluator_(ops_) {}

  // The evaluator refers to ops_, so a checker stays where it was built.
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Satisfying set of a CTL state formula.  Index quantifiers range over
  /// the model's index set (expanded, or folded over a verified rotation —
  /// see ProgramCompiler).  Throws LogicError outside the CTL fragment, on
  /// free index variables, and on unknown atoms unless the options read
  /// them as false.  The reference stays valid for the checker's lifetime.
  [[nodiscard]] const Set& sat(const logic::FormulaPtr& f) {
    support::require<LogicError>(f != nullptr, "CtlChecker::sat: null formula");
    if (const auto it = memo_.find(f->id()); it != memo_.end()) return it->second;
    Set result = evaluator_.run(*program(f));
    return memo_.emplace(f->id(), std::move(result)).first->second;
  }

  /// True when every initial state satisfies `f`.
  [[nodiscard]] bool holds_initially(const logic::FormulaPtr& f) {
    return ops_.includes_initial(sat(f));
  }

  /// The compiled program for `f` (cached; tests and tools inspect its
  /// disassembly).  Same checks as sat(), no evaluation.
  [[nodiscard]] std::shared_ptr<const FixpointProgram> program(
      const logic::FormulaPtr& f) {
    support::require<LogicError>(f != nullptr, "CtlChecker::program: null formula");
    support::require<LogicError>(
        logic::is_ctl(f), "CtlChecker: formula outside the CTL fragment: " +
                              logic::to_string(f) + " (use the CTL* checker)");
    return compiler_.compile(f);
  }

  [[nodiscard]] const Ops& ops() const noexcept { return ops_; }

  /// Compile-side counters (programs compiled, cache and CSE hits).
  [[nodiscard]] const ProgramCompiler::Stats& compile_stats() const noexcept {
    return compiler_.stats();
  }
  /// Run-side counters (instructions executed, fixpoint iterations,
  /// register high-water mark) accumulated across every sat() call.
  [[nodiscard]] const EvalStats& eval_stats() const noexcept {
    return evaluator_.stats();
  }

 private:
  static std::vector<std::uint32_t> index_vector(std::span<const std::uint32_t> indices) {
    return {indices.begin(), indices.end()};
  }

  /// The compiler's rotation question, for a backend that can fold; the
  /// model answers on the compiler's first foldable quantifier.
  ProgramCompiler::RotationQuery rotation_query() {
    if constexpr (RotationFoldOps<Ops>) {
      return [this] { return ops_.verified_rotation(); };
    } else {
      return nullptr;
    }
  }

  Ops ops_;
  ProgramCompiler compiler_;
  ProgramEvaluator<Ops> evaluator_;
  std::unordered_map<std::uint64_t, Set> memo_;
};

}  // namespace ictl::eval
