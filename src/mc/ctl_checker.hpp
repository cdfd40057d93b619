// CTL model checking by state labeling (Clarke, Emerson & Sistla 1986) —
// the algorithm the paper applies to the two-process mutual exclusion
// structure in Section 5.
//
// Works on the CTL fragment (see logic::is_ctl): booleans and index
// quantifiers over state formulas with path quantifiers applied directly to
// F/G/U/R.  The checker is the one eval::Checker façade (eval/checker.hpp)
// over ExplicitStateOps — bitset primitives on the structure's CSR
// transition engine: EX via Structure::pre_image, E[f U g] by
// frontier-based backward reachability, EG f by successor-counting
// elimination.  Every other connective reduces to these through the
// standard dualities, applied at compile time.  Linear-time in |S| + |R|
// per formula node.
//
// The backend owns a scratch arena (worklist + counters, pre-reserved at
// construction) that the fixpoint instructions reuse, so sat() performs no
// heap allocation per fixpoint iteration once the checker is warm.
#pragma once

#include "eval/checker.hpp"
#include "mc/explicit_ops.hpp"
#include "support/bitset.hpp"

namespace ictl::mc {

using SatSet = support::DynamicBitset;

/// Explicit-state CTL checker over a kripke::Structure whose transition
/// relation is total (ModelError otherwise).  sat() returns a bitset over
/// the structure's states; holds_initially() tests its initial state.
using CtlChecker = eval::Checker<ExplicitStateOps>;

}  // namespace ictl::mc
