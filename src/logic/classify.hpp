// Syntactic classification of formulas:
//   * state vs path formulas (paper Section 2),
//   * closedness and free index variables (Section 4),
//   * the CTL fragment (eligible for the fast labeling checker),
//   * the paper's restrictions on ICTL* (Section 4): no nested index
//     quantifiers and no index quantifiers under an until.
#pragma once

#include <string>
#include <vector>

#include "logic/formula.hpp"

namespace ictl::logic {

/// True when `f` is a state formula: its truth depends on a state only.
[[nodiscard]] bool is_state_formula(const FormulaPtr& f);

/// Free index variables of `f`, sorted and unique.
[[nodiscard]] std::vector<std::string> free_index_vars(const FormulaPtr& f);

/// True when some indexed atom carries a concrete index value (e.g. t[1]).
[[nodiscard]] bool has_concrete_indexed_atoms(const FormulaPtr& f);

/// Paper Section 4: a formula is closed when every indexed proposition is in
/// the scope of an index quantifier — no free index variables and no
/// constant-index atoms.  Closed formulas cannot refer to a specific
/// process, which is what makes them size-insensitive.
[[nodiscard]] bool is_closed(const FormulaPtr& f);

/// True when the formula mentions the (excluded) nexttime operator.
[[nodiscard]] bool uses_nexttime(const FormulaPtr& f);

/// Maximal nesting depth of index quantifiers (0 = none).  Section 6
/// conjectures that formulas of depth at most k cannot distinguish free
/// products of more than k identical processes.
[[nodiscard]] std::size_t index_quantifier_depth(const FormulaPtr& f);

/// True when `f` lies in the CTL fragment: booleans and index quantifiers
/// over state formulas, with every path quantifier immediately applied to a
/// single F/G/U/R whose operands are again CTL state formulas.  Such formulas
/// take the linear-time labeling algorithm instead of the tableau route.
[[nodiscard]] bool is_ctl(const FormulaPtr& f);

/// Result of checking the paper's ICTL* restrictions.
struct RestrictionReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Checks the Section 4 restrictions for closed ICTL* formulas:
///   * \/i f only if f contains no index quantifier (no nesting),
///   * g1 U g2 only if neither side contains an index quantifier
///     (F and G count as until-abbreviations),
///   * every quantifier body is a state formula whose only free index
///     variable is the quantified one,
///   * no nexttime operator,
///   * the overall formula is closed.
/// Violating formulas can count processes (Fig. 4.1), so Theorem 5 does not
/// apply to them.
[[nodiscard]] RestrictionReport check_ictl_restrictions(const FormulaPtr& f);

/// Shorthand: check_ictl_restrictions(f).ok().
[[nodiscard]] bool is_restricted_ictl(const FormulaPtr& f);

}  // namespace ictl::logic
