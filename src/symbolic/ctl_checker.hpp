// CTL model checking by symbolic fixpoints (McMillan-style) over a
// symbolic::TransitionSystem — the BDD twin of mc::CtlChecker: the same
// eval::Checker façade (eval/checker.hpp), compiling the same programs —
// except that on a system with a verified rotation an index quantifier whose
// body names only its own index compiles once and folds over the rotation —
// over SymbolicStateOps, whose registers are BddRef roots (GC/reorder-safe
// for exactly as long as a slot is live) and whose fixpoint instructions
// run frontier EU and gfp EG with protect_scope() around each iteration
// body.
//
// Satisfying sets are BDDs over the system's unprimed state variables,
// always intersected with the reachable set: the explicit engine works on
// M_r's reachable restriction, so complement, EX, EU and EG here are taken
// relative to reachable() and the two engines agree state-for-state.
// holds_initially() asks that every initial state satisfy the formula.
#pragma once

#include "eval/checker.hpp"
#include "symbolic/symbolic_ops.hpp"

namespace ictl::symbolic {

using CtlChecker = eval::Checker<SymbolicStateOps>;

}  // namespace ictl::symbolic
