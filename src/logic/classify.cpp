#include "logic/classify.hpp"

#include <algorithm>
#include <set>

#include "logic/printer.hpp"
#include "support/error.hpp"

namespace ictl::logic {
namespace {

void collect_free_vars(const FormulaPtr& f, std::set<std::string>& bound,
                       std::set<std::string>& free) {
  if (f == nullptr) return;
  switch (f->kind()) {
    case Kind::kIndexedAtom:
      if (!f->index_var().empty() && bound.count(f->index_var()) == 0)
        free.insert(f->index_var());
      return;
    case Kind::kForallIndex:
    case Kind::kExistsIndex: {
      const bool was_bound = bound.count(f->name()) > 0;
      bound.insert(f->name());
      collect_free_vars(f->lhs(), bound, free);
      if (!was_bound) bound.erase(f->name());
      return;
    }
    default:
      collect_free_vars(f->lhs(), bound, free);
      collect_free_vars(f->rhs(), bound, free);
      return;
  }
}

bool any_node(const FormulaPtr& f, bool (*pred)(const Formula&)) {
  if (f == nullptr) return false;
  if (pred(*f)) return true;
  return any_node(f->lhs(), pred) || any_node(f->rhs(), pred);
}

}  // namespace

bool is_state_formula(const FormulaPtr& f) {
  support::require<LogicError>(f != nullptr, "is_state_formula: null formula");
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
    case Kind::kIndexedAtom:
    case Kind::kExactlyOne:
      return true;
    case Kind::kExistsPath:
    case Kind::kForallPath:
      return true;
    case Kind::kNot:
      return is_state_formula(f->lhs());
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
    case Kind::kIff:
      return is_state_formula(f->lhs()) && is_state_formula(f->rhs());
    case Kind::kForallIndex:
    case Kind::kExistsIndex:
      return is_state_formula(f->lhs());
    case Kind::kUntil:
    case Kind::kRelease:
    case Kind::kEventually:
    case Kind::kAlways:
    case Kind::kNext:
      return false;
  }
  return false;
}

std::vector<std::string> free_index_vars(const FormulaPtr& f) {
  support::require<LogicError>(f != nullptr, "free_index_vars: null formula");
  std::set<std::string> bound;
  std::set<std::string> free;
  collect_free_vars(f, bound, free);
  return {free.begin(), free.end()};
}

bool has_concrete_indexed_atoms(const FormulaPtr& f) {
  return any_node(f, [](const Formula& n) {
    return n.kind() == Kind::kIndexedAtom && n.index_value().has_value();
  });
}

bool is_closed(const FormulaPtr& f) {
  return free_index_vars(f).empty() && !has_concrete_indexed_atoms(f);
}

bool uses_nexttime(const FormulaPtr& f) {
  return any_node(f, [](const Formula& n) { return n.kind() == Kind::kNext; });
}

std::size_t index_quantifier_depth(const FormulaPtr& f) {
  if (f == nullptr) return 0;
  const std::size_t below =
      std::max(index_quantifier_depth(f->lhs()), index_quantifier_depth(f->rhs()));
  if (f->kind() == Kind::kForallIndex || f->kind() == Kind::kExistsIndex)
    return below + 1;
  return below;
}

namespace {

bool is_ctl_state(const FormulaPtr& f);

bool is_ctl_path_of_quantifier(const FormulaPtr& g) {
  // Path argument of a single E/A in the CTL fragment.
  switch (g->kind()) {
    case Kind::kEventually:
    case Kind::kAlways:
      return is_ctl_state(g->lhs());
    case Kind::kUntil:
    case Kind::kRelease:
      return is_ctl_state(g->lhs()) && is_ctl_state(g->rhs());
    default:
      return false;
  }
}

bool is_ctl_state(const FormulaPtr& f) {
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
    case Kind::kIndexedAtom:
    case Kind::kExactlyOne:
      return true;
    case Kind::kNot:
      return is_ctl_state(f->lhs());
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
    case Kind::kIff:
      return is_ctl_state(f->lhs()) && is_ctl_state(f->rhs());
    case Kind::kExistsPath:
    case Kind::kForallPath:
      return is_ctl_path_of_quantifier(f->lhs());
    case Kind::kForallIndex:
    case Kind::kExistsIndex:
      return is_ctl_state(f->lhs());
    default:
      return false;
  }
}

}  // namespace

bool is_ctl(const FormulaPtr& f) {
  support::require<LogicError>(f != nullptr, "is_ctl: null formula");
  return is_ctl_state(f);
}

namespace {

void check_restrictions(const FormulaPtr& f, bool under_quantifier, bool under_until,
                        RestrictionReport& report) {
  if (f == nullptr) return;
  switch (f->kind()) {
    case Kind::kForallIndex:
    case Kind::kExistsIndex: {
      if (under_quantifier)
        report.violations.push_back("nested index quantifier at: " + to_string(f));
      if (under_until)
        report.violations.push_back(
            "index quantifier under an until/eventually/always operator at: " +
            to_string(f));
      if (!is_state_formula(f->lhs()))
        report.violations.push_back("quantifier body is not a state formula at: " +
                                    to_string(f));
      const auto free = free_index_vars(f->lhs());
      if (!(free.size() == 1 && free.front() == f->name()))
        report.violations.push_back(
            "quantifier body must have exactly the quantified variable free at: " +
            to_string(f));
      check_restrictions(f->lhs(), /*under_quantifier=*/true, under_until, report);
      return;
    }
    case Kind::kUntil:
    case Kind::kRelease:
    case Kind::kEventually:
    case Kind::kAlways:
      // F g = true U g and G g = !(true U !g), so the until restriction
      // applies to them as well.
      check_restrictions(f->lhs(), under_quantifier, /*under_until=*/true, report);
      check_restrictions(f->rhs(), under_quantifier, /*under_until=*/true, report);
      return;
    case Kind::kNext:
      report.violations.push_back("nexttime operator at: " + to_string(f));
      check_restrictions(f->lhs(), under_quantifier, under_until, report);
      return;
    default:
      check_restrictions(f->lhs(), under_quantifier, under_until, report);
      check_restrictions(f->rhs(), under_quantifier, under_until, report);
      return;
  }
}

}  // namespace

RestrictionReport check_ictl_restrictions(const FormulaPtr& f) {
  support::require<LogicError>(f != nullptr, "check_ictl_restrictions: null formula");
  RestrictionReport report;
  if (!is_state_formula(f))
    report.violations.push_back("top-level formula is not a state formula");
  if (!is_closed(f)) {
    if (!free_index_vars(f).empty())
      report.violations.push_back("formula has free index variables");
    if (has_concrete_indexed_atoms(f))
      report.violations.push_back(
          "formula mentions a concrete process index; closed formulas cannot "
          "refer to a specific process (Section 4)");
  }
  check_restrictions(f, /*under_quantifier=*/false, /*under_until=*/false, report);
  return report;
}

bool is_restricted_ictl(const FormulaPtr& f) { return check_ictl_restrictions(f).ok(); }

}  // namespace ictl::logic
