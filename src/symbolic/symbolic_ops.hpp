// The BDD StateSetOps backend: satisfying sets are BddRef roots over a
// symbolic::TransitionSystem's unprimed state variables, always intersected
// with the reachable set.  The explicit engines work on reachable
// restrictions of M_r, so top, complement, EX, EU and EG here are taken
// relative to reachable() and the engines agree state-for-state — the same
// convention the recursive symbolic checker followed.
//
// Every register the evaluator holds is a BddRef, so the whole register
// file is rooted against garbage collection and dynamic reordering for
// exactly as long as the program's allocator keeps a slot live; inside the
// eu/eg fixpoints each iteration body additionally runs under a
// protect_scope(), so GC, sifting and the node budget never fire mid-chain:
// what a round defers runs at the first operation after the fixpoint.
//
// The backend also models eval::RotationFoldOps: it answers whether the
// system's ring rotation is verified and folds a set over it, so the
// checker compiles `forall i`/`exists i` bodies once, at the first index.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "kripke/prop_registry.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::symbolic {

class SymbolicStateOps {
 public:
  using Set = BddRef;
  using Model = std::shared_ptr<const TransitionSystem>;

  explicit SymbolicStateOps(std::shared_ptr<const TransitionSystem> system);

  /// Universe = the reachable set (checker-rooted for the ops' lifetime).
  [[nodiscard]] Set top() const;
  [[nodiscard]] Set bottom() const;
  /// reach & the characteristic function of `p` — false everywhere when the
  /// system carries none, like the explicit engine's empty column for a
  /// proposition registered after the build.
  [[nodiscard]] Set prop(kripke::PropId p) const;
  /// reach & "exactly one member holds", by a running none/one scan over
  /// the members' characteristic functions.
  [[nodiscard]] Set exactly_one(std::span<const kripke::PropId> members) const;
  /// reach & !s — complement within the reachable universe.
  [[nodiscard]] Set complement(const Set& s) const;
  [[nodiscard]] Set conj(const Set& a, const Set& b) const;
  [[nodiscard]] Set disj(const Set& a, const Set& b) const;
  [[nodiscard]] Set iff(const Set& a, const Set& b) const;

  /// reach & pre_image(f), as one TransitionSystem::reachable_pre_image:
  /// a pair product against the reachable-restricted relation, so no
  /// trailing & reach.
  [[nodiscard]] Set ex(const Set& f) const;
  /// E[f U g]: least fixpoint of Z = g | (f & EX Z) from below, frontier
  /// style — only the states added in the previous round are pre-imaged,
  /// mirroring the explicit worklist EU.
  [[nodiscard]] Set eu(const Set& f, const Set& g);
  /// EG f: greatest fixpoint of Z = f & EX Z from above.
  [[nodiscard]] Set eg(const Set& f);

  /// Whether the system's ring rotation π checks out
  /// (TransitionSystem::verified_rotation) — the checker's compiler asks on
  /// its first quantifier that could fold.
  [[nodiscard]] bool verified_rotation() const { return system_->verified_rotation(); }
  /// s & π(s) & π²(s) & ... when `conjunctive`, by acc <- acc & π(acc)
  /// until π(acc) = acc; the union otherwise.  With s = sat(g(first index))
  /// this is sat(forall i. g), respectively sat(exists i. g).  Needs a
  /// verified rotation.
  [[nodiscard]] Set orbit_fold(const Set& s, bool conjunctive) const;

  /// Fixpoint rounds taken by the most recent eu/eg call.
  [[nodiscard]] std::uint64_t last_fixpoint_iterations() const noexcept {
    return last_iterations_;
  }

  /// True when every initial state lies in `s`.
  [[nodiscard]] bool includes_initial(const Set& s) const;

  [[nodiscard]] const TransitionSystem& model() const noexcept { return *system_; }

 private:
  /// Builds the relation eu/eg rounds pre-image against before the first
  /// round's protect_scope opens (see the definition).
  void prepare_rounds() const;

  std::shared_ptr<const TransitionSystem> system_;
  // Ops-rooted universe: the system caches reachable() too, but holding our
  // own ref keeps it alive even if the system is mutated or outlived —
  // raw Bdd members are exactly what tools/ictl_lint forbids.
  BddRef reach_;
  std::uint64_t last_iterations_ = 0;
};

}  // namespace ictl::symbolic
