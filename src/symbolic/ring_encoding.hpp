// Direct boolean encoding of the Section 5 token ring — M_r without ever
// enumerating its r * 2^r states, which is what carries the library past
// the explicit engine's r = 24 memory wall.
//
// State variables (0-based state-var indices; BDD variables through
// TransitionSystem::unprimed/primed):
//   * per process i in 1..r: d_i ("delayed", state var 2(i-1)) and h_i
//     ("holds the token", state var 2(i-1)+1) — interleaved per process so
//     the rule-2 guards (holder j, receiver i, no delayed process between)
//     stay local in the variable order;
//   * one phase bit c (state var 2r): the holder is critical (C) when set,
//     token-neutral (T) when clear.
// A process is neutral exactly when !d_i & !h_i; reachable states keep h
// one-hot and d_holder clear, so (holder, phase, D-mask) matches the
// explicit engine's canonical shape and |reachable| = r * 2^r.
//
// The four transition rules are emitted as a PARTITIONED disjunctive
// relation (see TransitionSystem): rules 1, 3 and 4 one part each, rule 2
// one part per cluster of ceil(r / 16) consecutive holders, never one
// monolithic T.  Under the canonical order every part is built bottom-up
// through BddManager::make_node alone, with no ITE recursion: rules 3 and
// 4 as constraint chains (one pass over the variable order), rule 1 and
// each rule-2 cluster as layered automata over the process positions (2
// and 6 states) with one handle per live state per position.  The whole
// relation then takes O(r) nodes and time; the build allocates about 1.1
// node slots per relation node (50k slots at r = 256).  A scrambled order
// builds one chain per rule instance and ORs them per part instead.  Labels:
// d_i = d_i; n_i = neutral or holder-in-T; t_i = h_i; c_i = h_i & c;
// Theta t = exactly-one h, a two-state automaton under any order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kripke/prop_registry.hpp"
#include "ring/ring.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::symbolic {

/// Cap for the symbolic construction, far past the explicit engine's
/// r = 24.  Under the canonical order the build is linear in r; a
/// scrambled initial order still ORs r(r-1) rule-2 chains of O(r) nodes
/// each, cubic in r.  256 is as far as the suites and benchmarks go.
constexpr std::uint32_t kMaxSymbolicRingSize = 256;

struct SymbolicRing {
  std::shared_ptr<TransitionSystem> system;
  std::uint32_t r = 0;

  /// State-var index of d_i / h_i for process i (1-based).
  [[nodiscard]] static constexpr std::uint32_t delayed_var(std::uint32_t i) {
    return 2 * (i - 1);
  }
  [[nodiscard]] static constexpr std::uint32_t holder_var(std::uint32_t i) {
    return 2 * (i - 1) + 1;
  }
  /// State-var index of the critical phase bit.
  [[nodiscard]] constexpr std::uint32_t critical_var() const { return 2 * r; }

  /// Full BDD-variable assignment (primed variables false) for an explicit
  /// ring tuple — the differential tests' explicit-to-symbolic state map.
  [[nodiscard]] std::vector<bool> assignment(const ring::RingState& s) const;
};

/// Builds the symbolic M_r for 2 <= r <= kMaxSymbolicRingSize over a fresh
/// or shared manager/registry.  Registers the same propositions in the same
/// order as RingSystem::build, so a shared registry yields identical
/// PropIds across the explicit and symbolic engines.  Sifting is the
/// caller's choice, made on the manager after the build
/// (BddManager::enable_dynamic_reordering): the interleaved default order
/// is already near-optimal for the ring, and scrambled initial orders
/// recover.
[[nodiscard]] SymbolicRing build_symbolic_ring(
    std::uint32_t r, std::shared_ptr<BddManager> mgr = nullptr,
    kripke::PropRegistryPtr registry = nullptr);

}  // namespace ictl::symbolic
