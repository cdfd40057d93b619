// Stuttering equivalence by signature-based partition refinement
// (Groote–Vaandrager style, adapted to Kripke structures).
//
// CTL* without the nexttime operator cannot distinguish a state from a
// finite block of identically labeled states (paper Section 3); stuttering
// equivalence is the partition-level counterpart of that idea.  The
// divergence-blind variant over-approximates the paper's finite
// correspondence relation — every pair of states related by some
// correspondence relation lies in a common stuttering class — which makes it
// a sound and fast pre-filter for the exact degree fixpoint
// (bisim/correspondence.hpp); the ablation benchmark measures the payoff.
//
// With `divergence_sensitive`, states that can stutter forever inside their
// own class are separated from states that cannot, which is the right notion
// when matching must eventually make joint progress.
//
// Each refinement round computes every state's exit signature (the classes
// it reaches by an inert run, i.e. transitions inside its class, followed by
// one exiting transition) and its divergence in one iterative Tarjan pass
// over the inert subgraph.  Components close sinks-first, so when one
// closes, every component it reaches is final: its signature is the union
// of its members' exits and those components' signatures, and it diverges
// when it holds an inert cycle or reaches a diverging component.  The
// signatures are interned and split the classes through Partition::refine.
// A round costs O(states + transitions) plus the signature merges, and
// charges one rt iteration (`bisim/stutter_refine`); the pass itself
// checkpoints every 4096 states (`bisim/stutter_signatures`).  The rounds
// are counted in the obs registry as `bisim/stutter_rounds`.
#pragma once

#include "bisim/partition.hpp"
#include "kripke/structure.hpp"

namespace ictl::bisim {

struct StutteringOptions {
  bool divergence_sensitive = false;
};

/// Coarsest stuttering-equivalence partition of `m`: initial split by
/// labels, refined by the set of classes reachable through a (possibly
/// empty) run of same-class states followed by one exiting transition.
[[nodiscard]] Partition stuttering_partition(const kripke::Structure& m,
                                             StutteringOptions options = {});

/// The same partition for the disjoint union of `a` and `b` (the states of
/// `b` numbered after those of `a`), computed without building the union.
/// The structures must share a registry; labels of different widths compare
/// as labels_equal() does.
[[nodiscard]] Partition stuttering_partition(const kripke::Structure& a,
                                             const kripke::Structure& b,
                                             StutteringOptions options = {});

/// True when the initial states of `a` and `b` are stuttering-equivalent
/// (computed on their disjoint union; the structures must share a registry).
[[nodiscard]] bool stuttering_equivalent(const kripke::Structure& a,
                                         const kripke::Structure& b,
                                         StutteringOptions options = {});

}  // namespace ictl::bisim
