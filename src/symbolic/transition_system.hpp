// A Kripke structure encoded symbolically: state variables as BDD
// variables, the transition relation as a PARTITIONED list of BDDs whose
// disjunction is T(x, x') — the interleaving of per-rule/per-cluster
// relations, never combined into one monolithic BDD on the hot path — plus
// per-proposition characteristic functions and pre_image/post_image
// primitives mirroring the CSR primitives of kripke::Structure, over
// sets-as-BDDs, so the state space is never enumerated.
//
// Image computation is partition-aware: the parts are split into events
// by top level and saturated bottom-up inside reachable() (see there),
// while the single-step pre/post images run one relational product against
// the lazily combined relation — the parts keep the COMBINE cheap, and one
// product measured ~5x faster than a per-part product-and-OR loop for the
// EX-heavy CTL fixpoints.  The pre-image product is
// BddManager::pair_pre_image, which reads the set's x as x' one (x, x')
// pair at a time; the CTL fixpoints, whose every round wants reachable() &
// pre_image(S), run it against the relation restricted to reachable
// sources (reachable_pre_image), so no round walks the unreachable
// encodings only to intersect them away.
//
// Rotation symmetry: verified_rotation() derives the ring rotation π, a
// BDD-variable permutation taking each process's variables to the next
// process's, from the supports of the indexed propositions — one path for
// built and store-loaded systems — and checks once, by handle equality,
// that π fixes the reachable-restricted relation and the reachable set,
// maps each P_k to P_{k+1} and fixes every other proposition.  The
// symbolic checker folds `forall i`/`exists i` over a verified π instead of
// expanding them (eval/program_compiler.hpp); a system that fails the
// check never folds.
//
// Lifetimes: everything the system retains — initial set, partition,
// prop functions, the unprimed cube, the cached monolithic and
// reachable-restricted relations and reachable set — is held in BddRef
// roots, so it survives garbage collection and reordering while everything
// transient (image intermediates, fixpoint frontiers) becomes collectible
// the moment its ref dies.  The image primitives return BddRef: callers own
// their results.
//
// Variable convention: state variable v (0-based, v < num_state_vars) owns
// the BDD variable pair (2v, 2v+1), and the pair sits on adjacent levels,
// unprimed on top (BddManager::pairs_adjacent).  That is an invariant:
// construction refuses any other order, so a store blob with a separated
// pair fails to load, and audit() checks it again.  Sifting keeps it, as
// it moves the pairs only as blocks; once swap_adjacent_levels separates a
// pair, the next reach, pre-image or sift throws.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "kripke/prop_registry.hpp"
#include "kripke/structure.hpp"
#include "symbolic/bdd.hpp"

namespace ictl::symbolic {

class TransitionSystem {
 public:
  /// Assembles a system over `mgr` (which must already own the 2 *
  /// num_state_vars BDD variables, each state pair on adjacent levels with
  /// the unprimed variable on top).  `initial` and every prop function are
  /// over unprimed variables; each element of `partition` relates unprimed
  /// to primed, and T(x, x') is their disjunction.  `props` maps registry
  /// ids to characteristic functions; `index_set` mirrors
  /// kripke::Structure::index_set for the index quantifiers.  The raw
  /// handles are rooted (BddRef) before any further BDD operation runs, so
  /// callers may pass unrooted results built under a protect_scope.  Throws
  /// ModelError on a null manager, no state variable, too few BDD
  /// variables, an empty partition, or an order that separates a pair.
  TransitionSystem(std::shared_ptr<BddManager> mgr, std::uint32_t num_state_vars,
                   Bdd initial, std::vector<Bdd> partition,
                   kripke::PropRegistryPtr registry,
                   std::vector<std::pair<kripke::PropId, Bdd>> props,
                   std::vector<std::uint32_t> index_set);

  [[nodiscard]] static constexpr std::uint32_t unprimed(std::uint32_t v) {
    return 2 * v;
  }
  [[nodiscard]] static constexpr std::uint32_t primed(std::uint32_t v) {
    return 2 * v + 1;
  }

  [[nodiscard]] BddManager& manager() const noexcept { return *mgr_; }
  [[nodiscard]] const std::shared_ptr<BddManager>& manager_ptr() const noexcept {
    return mgr_;
  }
  [[nodiscard]] std::uint32_t num_state_vars() const noexcept { return num_state_vars_; }
  [[nodiscard]] Bdd initial() const noexcept { return initial_.get(); }

  /// The partitioned relation (system-rooted refs); T is their disjunction.
  [[nodiscard]] std::span<const BddRef> partition() const noexcept { return parts_; }

  /// The monolithic T(x, x') — the parts' OR in one BddManager::or_all
  /// pass, combined lazily on first request, cached and system-rooted.
  [[nodiscard]] Bdd transitions() const;

  /// T(x, x') & reachable(x): the relation from reachable sources only —
  /// one or_all pass over the parts with reachable() as its care set (T
  /// itself is not built), on first request, cached and system-rooted, and
  /// reset by adopt_reachable.  The relation reachable_pre_image runs
  /// against.
  [[nodiscard]] Bdd reachable_transitions() const;

  /// Whether reachable_transitions() is cached (a budget trip while it is
  /// built leaves it unset).
  [[nodiscard]] bool reachable_transitions_computed() const noexcept {
    return restricted_.has_value();
  }

  /// Total BDD nodes across the partition (shared nodes counted once).
  [[nodiscard]] std::size_t relation_node_count() const;

  /// { x | exists x'. T(x, x') & S(x') } — states with some successor in S:
  /// one pair_pre_image against transitions(), or false for an empty S
  /// without building T.  Throws Error when the order separates a pair the
  /// product meets (BddManager::pair_pre_image).
  [[nodiscard]] BddRef pre_image(Bdd states) const;

  /// reachable() & pre_image(S), the backward step of every symbolic EX,
  /// EU and EG round: one pair_pre_image against reachable_transitions(),
  /// so the restriction rides inside the product instead of trimming its
  /// result.  An empty S returns false and touches no relation; any other
  /// counts one sym/pre_images.  Throws as pre_image and reachable() do.
  [[nodiscard]] BddRef reachable_pre_image(Bdd states) const;

  /// { x' | exists x. S(x) & T(x, x') } — states with some predecessor in S,
  /// renamed back to unprimed variables.
  [[nodiscard]] BddRef post_image(Bdd states) const;

  /// Least fixpoint of I | post_image(.), computed once, cached and
  /// system-rooted.  The partition is SATURATED (Ciardo, Lüttgen &
  /// Siminiceanu, TACAS 2001): each part is split into events by top
  /// level (see saturation_events), one event per level after OR-ing, and
  /// the initial set is saturated bottom-up — a node's children first,
  /// then its level's event fired to a fixpoint on them — so every node
  /// built is closed under the events at its level and below.  The
  /// relational product returns the set unchanged once the relation is
  /// x' = x down to the bottom, so a ring rule that moves one process
  /// costs a walk down to that process's levels instead of a product over
  /// every variable per firing.  A split with a single event level
  /// (from_structure's minterm relation) iterates breadth-first over a
  /// frontier instead.  Throws ModelError when the order separates a pair,
  /// when a part mentions a BDD variable outside the 2 * num_state_vars
  /// state variables, or when the initial set mentions one that is not an
  /// unprimed state variable (a malformed store, say).
  [[nodiscard]] Bdd reachable() const;

  /// Partition part `part` split into saturation events, at most one per
  /// state level, top level first in the current order.  The part is
  /// walked down from the top level: a level where x' = x with one
  /// continuation for both values of x is skipped; where the two stay
  /// branches share one continuation but x may also change, the changing
  /// branches become an event there and the walk continues down the stay
  /// branch; otherwise the rest of the part is one event at that level.
  /// The part is the OR of its events, each conjoined with x' = x on every
  /// state variable above its `top_var`; a rest that is x' = x all the way
  /// down fires nothing and is dropped.  Throws ModelError as reachable()
  /// does.
  struct SaturationEvent {
    std::uint32_t top_var;  ///< state variable at the event's top level
    BddRef relation;        ///< over top_var and the state variables below
  };
  [[nodiscard]] std::vector<SaturationEvent> saturation_events(std::size_t part) const;

  /// Whether the ring rotation π is an automorphism of this system, checked
  /// on first call and cached.  π is a BDD-variable permutation derived
  /// from the indexed propositions' supports: a state variable belongs to
  /// index k when, among the indexed propositions, only index-k ones mention
  /// it; the j-th variable of the k-th index in index_set() goes to the j-th
  /// of the next, the last index wrapping to the first, primed partners
  /// alike, and every variable no single index owns stays fixed.  π is
  /// verified by handle equality — π(reachable_transitions()) and
  /// π(reachable()) unchanged, π(P_k) = P_next(k) for every indexed
  /// proposition and π(Q) = Q for every other — so nothing about it is
  /// trusted from a builder or a store blob.  When it holds, sat(g(next(k)))
  /// = π(sat(g(k))) for any formula g over index k's atoms, which is what
  /// lets the symbolic checker evaluate a `forall i`/`exists i` body at one
  /// index and fold it over π.  False when indices own different numbers of
  /// variables, an indexed proposition names an index outside index_set(),
  /// or any check fails.  A budget trip while it runs caches nothing.
  [[nodiscard]] bool verified_rotation() const;

  /// π as a rename map over every manager variable; requires
  /// verified_rotation() to have returned true.
  [[nodiscard]] const std::vector<std::uint32_t>& rotation() const;

  /// Whether verified_rotation() has a cached verdict.
  [[nodiscard]] bool rotation_checked() const noexcept { return rotation_.has_value(); }

  /// Installs a precomputed reachable set (the bdd_store loader's path:
  /// reload a saved fixpoint instead of recomputing it).  Drops the caches
  /// that depend on it: the restricted relation and the rotation verdict.
  void adopt_reachable(Bdd reach) const {
    reachable_ = BddRef(*mgr_, reach);
    restricted_.reset();
    rotation_.reset();
  }

  /// Whether reachable() has already been computed (or adopted) — lets the
  /// store persist the fixpoint without forcing its computation.
  [[nodiscard]] bool reachable_computed() const noexcept {
    return reachable_.has_value();
  }

  /// All (PropId, characteristic function) pairs, sorted by PropId.
  [[nodiscard]] std::span<const std::pair<kripke::PropId, BddRef>> props()
      const noexcept {
    return props_;
  }

  /// Exact count of states in a set-BDD over unprimed variables (primed
  /// variables must not occur in its support).
  [[nodiscard]] SatCount count_states_exact(Bdd set) const;

  /// Exact reachable-state count.
  [[nodiscard]] SatCount num_states() const { return count_states_exact(reachable()); }

  /// Characteristic function of a proposition; nullopt when the system
  /// carries no function for it.
  [[nodiscard]] std::optional<Bdd> prop_states(kripke::PropId p) const;

  [[nodiscard]] const kripke::PropRegistryPtr& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] std::span<const std::uint32_t> index_set() const noexcept {
    return index_set_;
  }

  /// Deep cross-structure audit (the system-level counterpart of
  /// BddManager::audit): every state pair sits on adjacent levels, unprimed
  /// on top; supports lie inside the declared variable sets (parts over the
  /// interleaved pairs, initial/props/reachable over unprimed variables
  /// only); the unprime rename map inverts primed() over the state pairs;
  /// and — once computed — reachable() contains the initial states and is
  /// closed under post_image, reachable_transitions() equals transitions()
  /// & reachable(), and a cached rotation verdict is the one a fresh
  /// derivation and verification give.
  [[nodiscard]] BddManager::AuditReport audit() const;

  /// Throws Error listing every failure when audit() fails.  The ICTL_AUDIT
  /// build calls this at construction and after each reachable() fixpoint.
  void assert_audit(const char* where = "audit") const;

 private:
  friend struct AuditInjector;  // tests/symbolic/audit_test.cpp: seeds
                                // corruption to prove each check fires

  /// Throws ModelError unless the parts stay within the state variables and
  /// the initial set within the unprimed ones — saturation's precondition,
  /// checked where a reach or a split needs it rather than at construction,
  /// which a store reload would otherwise pay.
  void require_state_support() const;

  /// The rotation candidate, derived from the indexed propositions'
  /// supports; empty when there is none.
  [[nodiscard]] std::vector<std::uint32_t> derive_rotation() const;
  /// The candidate if it passes verified_rotation()'s handle-equality
  /// checks, else empty.
  [[nodiscard]] std::vector<std::uint32_t> verify_rotation() const;

  std::shared_ptr<BddManager> mgr_;
  std::uint32_t num_state_vars_;
  BddRef initial_;
  std::vector<BddRef> parts_;
  kripke::PropRegistryPtr registry_;
  std::vector<std::pair<kripke::PropId, BddRef>> props_;  // sorted by PropId
  std::vector<std::uint32_t> index_set_;
  BddRef source_cube_;                      // the unprimed variables 2v
  std::vector<std::uint32_t> to_unprimed_;  // rename map: 2v+1 -> 2v
  mutable std::optional<BddRef> monolithic_;
  mutable std::optional<BddRef> restricted_;  // reachable_transitions()
  mutable std::optional<BddRef> reachable_;
  // verified_rotation(): unset until checked, then π, or empty when it failed.
  mutable std::optional<std::vector<std::uint32_t>> rotation_;
};

/// Generic bridge from the explicit engine: encodes an explicit structure
/// with ceil(log2 n) binary state variables (state s = the bits of its
/// StateId), the transition relation as a disjunction of transition
/// minterms, and every used proposition from its label column.  This makes
/// ANY explicit structure (stars, free products, random graphs) checkable
/// by the symbolic engine — the differential-testing workhorse.  The
/// result carries a single-part (monolithic) relation; the ring family's
/// direct encoding is where the partitioned path earns its keep.
[[nodiscard]] TransitionSystem from_structure(const kripke::Structure& m,
                                              std::shared_ptr<BddManager> mgr = nullptr);

/// The state-id minterm used by from_structure (exposed for tests): the
/// conjunction over all k state vars of x_v or !x_v per the bits of `s`.
/// Returns an UNROOTED handle — run under a protect_scope (or on a manager
/// with neither auto-GC nor dynamic reordering armed) and root what must
/// survive.
[[nodiscard]] Bdd state_minterm(BddManager& mgr, std::uint32_t num_state_vars,
                                kripke::StateId s, bool primed);

}  // namespace ictl::symbolic
