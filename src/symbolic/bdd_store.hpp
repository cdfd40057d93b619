// Persistence for the hash-consed BDD store: serializes a manager's
// variable order plus the nodes reachable from a set of NAMED roots to a
// versioned, checksummed binary stream, and reloads them into a fresh
// manager — so a transition relation or reachable fixpoint computed once
// (minutes of saturation sweeps at ring sizes past r = 64) reloads in
// milliseconds.
//
// Format (all integers little-endian):
//   magic "ICTLBDD\n" (8 bytes) · version u32 (2) · num_vars u32
//   level2var permutation (num_vars x u32)
//   node count u64 · root count u32
//   nodes, children first, densely renumbered (0 = false, 1 = true, first
//     record = id 2): var u32, low u32, high u32 — each id referencing only
//     earlier ids, so the loader is a single make_node pass and the loaded
//     store is hash-consed and reduced by construction
//   roots: name length u32, name bytes, node id u32
//   checksum u64 over every preceding byte: FNV-1a over 8-byte
//     little-endian words, each step multiplying twice with the halves
//     swapped in between, then the 0-7 byte tail as one word with its
//     length in the top byte (version 1 folded single bytes; it is refused)
//
// The node set saved is exactly what the roots reach: dead and retired
// nodes never travel.  Round-trip fidelity: the reloaded roots denote the
// same boolean functions under the same variable order (sat counts, CTL
// verdicts, and dag sizes are preserved).
//
// save_transition_system/load_transition_system layer a TransitionSystem
// header (state-var count, partition kind tag — always 0, disjunctive; the
// loader refuses any other — prop ids, index set) over the same blob, with
// roots "initial", "part/<k>", "prop/<k>" and — when the fixpoint has been
// computed — "reach", which the loader hands to adopt_reachable so
// reachability is NOT recomputed on reload.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "symbolic/bdd.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::symbolic {

/// A reloaded store: a fresh manager plus the named roots, each held live
/// by a BddRef.  The manager member is declared first so the refs are
/// destroyed before it.
struct LoadedBdds {
  std::shared_ptr<BddManager> manager;
  std::vector<std::pair<std::string, BddRef>> roots;

  /// Handle of the root with this name; throws Error when absent.
  [[nodiscard]] Bdd root(std::string_view name) const;
};

/// Serializes the nodes reachable from `roots` (with `mgr`'s current
/// variable order) to `out`.  Root names need not be distinct from each
/// other's prefixes but must not repeat; retired handles are an error.
void save_bdds(const BddManager& mgr, std::ostream& out,
               std::span<const std::pair<std::string, Bdd>> roots);

/// Reloads a save_bdds stream into a fresh manager.  Throws Error on a bad
/// magic/version, a truncated stream, a corrupt node record (out-of-range
/// variable or child, order violation, unreduced node), or a checksum
/// mismatch.
[[nodiscard]] LoadedBdds load_bdds(std::istream& in);

/// Serializes a TransitionSystem: its dimensioning header, the partition,
/// prop functions, initial set, and — if already computed — the reachable
/// fixpoint.  Prop ids are raw registry ids: reload against the SAME
/// registry (or one that registered the same names in the same order).
void save_transition_system(const TransitionSystem& system, std::ostream& out);

/// Reloads a save_transition_system stream into a fresh manager, handing
/// back a fully wired system; a saved reachable set is adopted, so
/// reachable() returns without recomputation.  Throws ModelError on a
/// partition kind tag other than 0 or a saved order that separates a state
/// pair (TransitionSystem's construction check).
[[nodiscard]] TransitionSystem load_transition_system(std::istream& in,
                                                      kripke::PropRegistryPtr registry);

}  // namespace ictl::symbolic
