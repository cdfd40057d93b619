// Kripke structures M = (AP, IP, I, S, R, L, s0)  (paper Sections 2 and 4).
//
// A Structure is immutable after construction; build one with
// StructureBuilder.  The transition relation of a Kripke structure must be
// total (every state has at least one successor); the builder checks this
// unless explicitly told not to (the paper itself notes that the raw ring
// graph G_r is not a Kripke structure until restricted to reachable states).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "kripke/prop_registry.hpp"
#include "support/bitset.hpp"

namespace ictl::kripke {

using StateId = std::uint32_t;
constexpr StateId kNoState = static_cast<StateId>(-1);

class StructureBuilder;

struct BuildOptions {
  bool require_total = true;
};

class Structure {
 public:
  [[nodiscard]] std::size_t num_states() const noexcept { return labels_.size(); }
  [[nodiscard]] std::size_t num_transitions() const noexcept { return num_transitions_; }
  [[nodiscard]] StateId initial() const noexcept { return initial_; }

  // The transition relation is stored in compressed-sparse-row form: one
  // offsets array (n + 1 entries) plus one flat StateId array per direction.
  // successors(s) / predecessors(s) are contiguous, sorted slices of the
  // flat arrays — no per-state allocation, cache-friendly scans.
  [[nodiscard]] std::span<const StateId> successors(StateId s) const {
    ICTL_ASSERT(s + 1 < succ_offsets_.size());
    return {succ_flat_.data() + succ_offsets_[s],
            succ_offsets_[s + 1] - succ_offsets_[s]};
  }
  [[nodiscard]] std::span<const StateId> predecessors(StateId s) const {
    ICTL_ASSERT(s + 1 < pred_offsets_.size());
    return {pred_flat_.data() + pred_offsets_[s],
            pred_offsets_[s + 1] - pred_offsets_[s]};
  }

  /// out := { s | some successor of s is in `set` } — the EX / pre-image
  /// primitive of the model-checking engine.  `set` and `out` must both be
  /// sized num_states(); `out` is overwritten (callers reuse it as scratch
  /// so fixpoint iterations allocate nothing).  Aliasing is not allowed.
  void pre_image(const support::DynamicBitset& set, support::DynamicBitset& out) const;

  /// out := { t | some predecessor of t is in `set` } — the one-step
  /// post-image.  Same contract as pre_image.
  void post_image(const support::DynamicBitset& set, support::DynamicBitset& out) const;

  /// True when proposition `p` is in L(s).  Propositions registered after the
  /// structure was built are simply absent from every label.
  [[nodiscard]] bool has_prop(StateId s, PropId p) const {
    ICTL_ASSERT(s < labels_.size());
    return p < labels_[s].size() && labels_[s].test(p);
  }

  /// The full label bitset of `s` (width = registry size at build time).
  [[nodiscard]] const support::DynamicBitset& label(StateId s) const {
    ICTL_ASSERT(s < labels_.size());
    return labels_[s];
  }

  /// Column view of the labeling: the set of states whose label contains
  /// `p`, as a bitset over states (built once at build() time).  For
  /// propositions registered after the build, returns the empty state set.
  [[nodiscard]] const support::DynamicBitset& states_with(PropId p) const {
    return p < columns_.size() ? columns_[p] : empty_column_;
  }

  [[nodiscard]] const PropRegistryPtr& registry() const noexcept { return registry_; }

  /// The index set I (sorted).  Empty for structures without indexed props.
  [[nodiscard]] std::span<const std::uint32_t> index_set() const noexcept {
    return indices_;
  }

  /// Optional per-state debug name ("" when unset).
  [[nodiscard]] const std::string& state_name(StateId s) const {
    ICTL_ASSERT(s < names_.size());
    return names_[s];
  }

  /// True when every state has at least one successor.
  [[nodiscard]] bool is_total() const noexcept;

  /// All propositions used by at least one state label.
  [[nodiscard]] std::vector<PropId> used_props() const;

 private:
  friend class StructureBuilder;
  Structure() = default;

  PropRegistryPtr registry_;
  std::vector<support::DynamicBitset> labels_;
  // CSR transition relation (both directions), rows sorted ascending.
  std::vector<std::uint32_t> succ_offsets_;  // n + 1 entries
  std::vector<StateId> succ_flat_;
  std::vector<std::uint32_t> pred_offsets_;  // n + 1 entries
  std::vector<StateId> pred_flat_;
  // Transposed labeling: columns_[p] = bitset over states with p in L(s).
  std::vector<support::DynamicBitset> columns_;
  support::DynamicBitset empty_column_;  // all-zero state set, width n
  std::vector<std::string> names_;
  std::vector<std::uint32_t> indices_;
  StateId initial_ = kNoState;
  std::size_t num_transitions_ = 0;
};

/// Incrementally assembles a Structure.
class StructureBuilder {
 public:
  explicit StructureBuilder(PropRegistryPtr registry);

  /// Adds a state labeled with `props`; returns its id (dense, from 0).
  StateId add_state(std::span<const PropId> props);
  StateId add_state(std::initializer_list<PropId> props);
  /// Move-in overload for hot construction loops (no prop-list copy).
  StateId add_state(std::vector<PropId>&& props);

  /// Capacity hint for large constructions (e.g. the ring exploration):
  /// pre-sizes the state and transition arrays to avoid growth reallocation.
  void reserve(std::size_t states, std::size_t transitions);

  /// Adds the transition s1 -> s2 (duplicates are merged at build()).
  void add_transition(StateId from, StateId to);

  void set_initial(StateId s);
  void set_name(StateId s, std::string name);
  void set_index_set(std::vector<std::uint32_t> indices);

  [[nodiscard]] std::size_t num_states() const noexcept { return states_.size(); }

  /// Validates and produces the structure.  Throws ModelError when no initial
  /// state was set or (unless disabled) the relation is not total.
  [[nodiscard]] Structure build(BuildOptions options = BuildOptions{}) &&;

 private:
  struct PendingState {
    std::vector<PropId> props;
    std::string name;
  };

  PropRegistryPtr registry_;
  std::vector<PendingState> states_;
  std::vector<std::pair<StateId, StateId>> transitions_;
  std::vector<std::uint32_t> indices_;
  StateId initial_ = kNoState;
};

/// The reduction M|i (Section 4): keeps plain propositions and the indexed
/// propositions of index `i`; the kept indexed propositions are re-labeled as
/// index-erased placeholders (A_i becomes A[.]) so that the labelings of M|i
/// and M'|i' are directly comparable.
[[nodiscard]] Structure reduce_to_index(const Structure& m, std::uint32_t i);

/// Restriction of `m` to the states reachable from the initial state.
/// `old_to_new`, when non-null, receives the state mapping (kNoState for
/// removed states).
[[nodiscard]] Structure restrict_to_reachable(const Structure& m,
                                              std::vector<StateId>* old_to_new = nullptr);

/// Disjoint union of two structures over the same registry, used by the
/// equivalence algorithms.  States of `a` keep their ids; states of `b` are
/// shifted by a.num_states().  The union's initial state is a's.
[[nodiscard]] Structure disjoint_union(const Structure& a, const Structure& b);

/// Materializes the Theta_i P_i proposition ("exactly one index satisfies P")
/// as a plain label on every state of a built structure.  Returns the new
/// structure (labels are re-derived; everything else is unchanged).
[[nodiscard]] Structure materialize_theta(const Structure& m, std::string_view base);

}  // namespace ictl::kripke
