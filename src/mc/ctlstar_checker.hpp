// Full CTL* (and indexed CTL*) model checking.
//
// Strategy (Emerson–Lei recursion): satisfying sets are computed bottom-up
// over state subformulas.  For E(g) with a genuine path formula g, the
// maximal proper state subformulas of g are replaced by placeholder atoms
// whose satisfying sets are computed recursively; the abstracted formula is
// desugared to negation normal form, translated to a generalized Büchi
// automaton (ltl_tableau) and decided by fair-cycle search in the product
// (product.hpp).  A(g) is !E(!g).  Index quantifiers /\i and \/i expand over
// the structure's index set (paper Section 4 semantics: s |= \/i f(i) iff
// s |= f(c) for some c in I).
//
// Formulas classified as CTL take the linear labeling algorithm instead
// (ctl_checker) — a design-choice ablation measured by bench_ltl_to_buchi.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "kripke/structure.hpp"
#include "logic/formula.hpp"
#include "mc/ctl_checker.hpp"

namespace ictl::mc {

struct CheckerOptions {
  /// Route CTL-fragment formulas through the labeling algorithm.
  bool use_ctl_fast_path = true;
  /// Treat atoms missing from the registry as false instead of erroring.
  bool unknown_atoms_are_false = false;
};

struct CheckerStats {
  std::size_t tableau_builds = 0;
  std::size_t tableau_nodes_built = 0;
  std::size_t gba_nodes = 0;
  std::size_t product_states = 0;
  std::size_t ctl_fast_path_hits = 0;
};

class Checker {
 public:
  explicit Checker(const kripke::Structure& m, CheckerOptions options = {});

  /// Satisfying set of an arbitrary CTL*/ICTL* state formula (closed up to
  /// concrete indices).  Results are memoized per formula.
  [[nodiscard]] const SatSet& sat(const logic::FormulaPtr& f);

  /// True when M, s0 |= f.
  [[nodiscard]] bool holds_initially(const logic::FormulaPtr& f);

  [[nodiscard]] const CheckerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const kripke::Structure& structure() const noexcept { return m_; }

  /// Evaluation-core counters of the CTL engine (see ctl(); it compiles
  /// formulas to fixpoint programs, these are its run-side stats).  All
  /// zeroes before its first use.
  [[nodiscard]] eval::EvalStats ctl_eval_stats() const noexcept {
    return ctl_ != nullptr ? ctl_->eval_stats() : eval::EvalStats{};
  }

 private:
  /// The CTL engine, created on first use: it decides CTL-fragment formulas
  /// on the fast path and the literal leaves of every route, so atom names
  /// resolve in one place.
  CtlChecker& ctl();
  SatSet compute(const logic::FormulaPtr& f);
  SatSet sat_exists_path(const logic::FormulaPtr& g);

  /// Replaces every maximal state subformula of path formula `g` by a
  /// placeholder atom and records the mapping.
  logic::FormulaPtr abstract_state_subformulas(const logic::FormulaPtr& g);

  const kripke::Structure& m_;
  CheckerOptions options_;
  CheckerStats stats_;
  std::unique_ptr<CtlChecker> ctl_;  // see ctl()
  // Memo keyed on hash-consed node identity (Formula::id — never reused, so
  // no stale-entry aliasing); retaining the formulas keeps their cons-table
  // entries alive so structurally equal rebuilds still hit the cache.
  std::unordered_map<std::uint64_t, SatSet> memo_;
  std::vector<logic::FormulaPtr> retained_;
  std::unordered_map<std::uint64_t, logic::FormulaPtr> placeholder_of_;
  std::unordered_map<std::string, logic::FormulaPtr> placeholder_target_;
  std::size_t next_placeholder_ = 0;
};

}  // namespace ictl::mc
