#include "symbolic/symbolic_ops.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "support/error.hpp"

namespace ictl::symbolic {

using Set = SymbolicStateOps::Set;

SymbolicStateOps::SymbolicStateOps(std::shared_ptr<const TransitionSystem> system)
    : system_(std::move(system)) {
  support::require<ModelError>(system_ != nullptr, "SymbolicStateOps: null system");
  reach_ = BddRef(system_->manager(), system_->reachable());
}

Set SymbolicStateOps::top() const { return reach_; }

Set SymbolicStateOps::bottom() const {
  return BddRef(system_->manager(), kBddFalse);
}

Set SymbolicStateOps::prop(kripke::PropId p) const {
  const std::optional<Bdd> states = system_->prop_states(p);
  if (!states.has_value()) return bottom();
  return system_->manager().bdd_and(reach_, *states);
}

Set SymbolicStateOps::exactly_one(std::span<const kripke::PropId> members) const {
  BddManager& m = system_->manager();
  BddRef none(m, reach_.get());
  BddRef one(m, kBddFalse);
  for (const kripke::PropId p : members) {
    const auto member = system_->prop_states(p);
    if (!member.has_value()) continue;
    one = m.bdd_or(m.bdd_and(one, m.bdd_not(*member)),
                   m.bdd_and(none, *member));
    none = m.bdd_and(none, m.bdd_not(*member));
  }
  return one;
}

bool SymbolicStateOps::includes_initial(const Set& s) const {
  return system_->manager().bdd_diff(system_->initial(), s).get() == kBddFalse;
}

Set SymbolicStateOps::complement(const Set& s) const {
  return system_->manager().bdd_diff(reach_, s);
}

Set SymbolicStateOps::conj(const Set& a, const Set& b) const {
  return system_->manager().bdd_and(a, b);
}

Set SymbolicStateOps::disj(const Set& a, const Set& b) const {
  return system_->manager().bdd_or(a, b);
}

Set SymbolicStateOps::iff(const Set& a, const Set& b) const {
  // (a & b) | (!a & !b), complements relative to the reachable universe.
  BddManager& m = system_->manager();
  const BddRef both = m.bdd_and(a, b);
  const BddRef neither = m.bdd_and(complement(a), complement(b));
  return m.bdd_or(both, neither);
}

Set SymbolicStateOps::ex(const Set& f) const { return system_->reachable_pre_image(f); }

void SymbolicStateOps::prepare_rounds() const {
  // Every round's pre-image runs inside the round's protect_scope, where no
  // maintenance runs.  Built here instead, on first use, the rounds'
  // relation passes its maintenance point — GC, sifting, the node budget's
  // ladder — before the system caches it.  Called only by a fixpoint that
  // has something to image: an empty set's pre-image needs no relation.
  static_cast<void>(system_->reachable_transitions());
}

Set SymbolicStateOps::eu(const Set& f, const Set& g) {
  ICTL_PROFILE("sym", "eu_fixpoint");
  BddManager& m = system_->manager();
  if (g.get() != kBddFalse) prepare_rounds();
  BddRef z(m, g.get());
  BddRef frontier(m, g.get());
  last_iterations_ = 0;
  while (frontier.get() != kBddFalse) {
    // Checkpoint before opening the scope: a trip here unwinds across
    // nothing but the rooted z/frontier locals.
    rt::charge_iteration("sym/eu_fixpoint");
    ++last_iterations_;
    // The scope covers one iteration body: GC and growth-triggered sifting
    // are deferred across the and/or/pre_image chain until the first
    // operation after the fixpoint.
    const auto scope = m.protect_scope();
    BddRef next = m.bdd_or(z, m.bdd_and(f, system_->reachable_pre_image(frontier)));
    frontier = m.bdd_diff(next, z);
    z = std::move(next);
  }
  ICTL_SPAN_ARG("iterations", last_iterations_);
  return z;
}

Set SymbolicStateOps::eg(const Set& f) {
  ICTL_PROFILE("sym", "eg_fixpoint");
  BddManager& m = system_->manager();
  if (f.get() != kBddFalse) prepare_rounds();
  BddRef z(m, f.get());
  last_iterations_ = 0;
  while (true) {
    rt::charge_iteration("sym/eg_fixpoint");
    ++last_iterations_;
    const auto scope = m.protect_scope();
    BddRef next = m.bdd_and(z, system_->reachable_pre_image(z));
    if (next.get() == z.get()) {
      ICTL_SPAN_ARG("iterations", last_iterations_);
      return z;
    }
    z = std::move(next);
  }
}

Set SymbolicStateOps::orbit_fold(const Set& s, bool conjunctive) const {
  ICTL_PROFILE("sym", "orbit_fold");
  BddManager& m = system_->manager();
  const std::vector<std::uint32_t>& pi = system_->rotation();
  // After n steps acc holds the fold of s, π(s), ..., π^n(s); once π leaves
  // it unchanged it is the fold over the whole orbit, at most r - 1 steps
  // in.  A set that is already π-invariant stops after one.
  BddRef acc = s;
  while (true) {
    rt::charge_iteration("sym/orbit_fold");
    ICTL_COUNT("sym", "orbit_steps");
    BddRef image = m.rename(acc, pi);
    if (image.get() == acc.get()) return acc;
    acc = conjunctive ? m.bdd_and(acc, image) : m.bdd_or(acc, image);
  }
}

}  // namespace ictl::symbolic
