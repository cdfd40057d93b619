#include "symbolic/transition_system.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <unordered_map>

#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "support/error.hpp"

namespace ictl::symbolic {

namespace {

/// Throws ModelError unless each of the n state pairs sits on adjacent
/// levels, unprimed on top: pair_pre_image and saturation step through a
/// relation one (x, x') pair at a time.
void require_adjacent_pairs(const BddManager& mgr, std::uint32_t n) {
  support::require<ModelError>(
      mgr.pairs_adjacent(n),
      "TransitionSystem: the variable order separates a state variable's "
      "(x, x') pair");
}

}  // namespace

TransitionSystem::TransitionSystem(std::shared_ptr<BddManager> mgr,
                                   std::uint32_t num_state_vars, Bdd initial,
                                   std::vector<Bdd> partition,
                                   kripke::PropRegistryPtr registry,
                                   std::vector<std::pair<kripke::PropId, Bdd>> props,
                                   std::vector<std::uint32_t> index_set)
    : mgr_(std::move(mgr)),
      num_state_vars_(num_state_vars),
      registry_(std::move(registry)),
      index_set_(std::move(index_set)) {
  support::require<ModelError>(mgr_ != nullptr, "TransitionSystem: null manager");
  support::require<ModelError>(num_state_vars_ > 0,
                               "TransitionSystem: need at least one state variable");
  support::require<ModelError>(mgr_->num_vars() >= 2 * num_state_vars_,
                               "TransitionSystem: manager owns fewer than "
                               "2 * num_state_vars BDD variables");
  support::require<ModelError>(!partition.empty(),
                               "TransitionSystem: empty transition partition");
  require_adjacent_pairs(*mgr_, num_state_vars_);

  // Root every raw argument FIRST: the cube() call below is a public
  // operation, and on a manager with dynamic reordering or auto-GC armed
  // it may run deferred maintenance — which retires unrooted nodes.
  // Rooting the retained set also makes it what sifting minimizes.
  initial_ = BddRef(*mgr_, initial);
  parts_.reserve(partition.size());
  for (const Bdd part : partition) parts_.emplace_back(*mgr_, part);
  std::sort(props.begin(), props.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  props_.reserve(props.size());
  for (const auto& [prop, fn] : props) props_.emplace_back(prop, BddRef(*mgr_, fn));

  std::vector<std::uint32_t> uvars(num_state_vars_);
  for (std::uint32_t v = 0; v < num_state_vars_; ++v) uvars[v] = unprimed(v);
  source_cube_ = mgr_->cube(uvars);
  to_unprimed_.resize(mgr_->num_vars());
  std::iota(to_unprimed_.begin(), to_unprimed_.end(), 0u);
  for (std::uint32_t v = 0; v < num_state_vars_; ++v)
    to_unprimed_[primed(v)] = unprimed(v);

#ifdef ICTL_AUDIT
  assert_audit("construction");
#endif
}

Bdd TransitionSystem::transitions() const {
  if (!monolithic_.has_value())
    monolithic_ = mgr_->or_all(std::vector<Bdd>(parts_.begin(), parts_.end()));
  return monolithic_->get();
}

Bdd TransitionSystem::reachable_transitions() const {
  // One pass over the parts under the reachable set as care: T itself is
  // never built.  Assigned only once or_all has passed its maintenance
  // point — GC, sifting, the node budget's ladder — so a trip caches
  // nothing.
  if (!restricted_.has_value()) {
    const Bdd reach = reachable();
    restricted_ = mgr_->or_all(std::vector<Bdd>(parts_.begin(), parts_.end()), reach);
  }
  return restricted_->get();
}

std::size_t TransitionSystem::relation_node_count() const {
  return mgr_->dag_size(std::vector<Bdd>(parts_.begin(), parts_.end()));
}

BddRef TransitionSystem::pre_image(Bdd states) const {
  if (states == kBddFalse) return BddRef(*mgr_, kBddFalse);
  ICTL_COUNT("sym", "pre_images");
  return mgr_->pair_pre_image(transitions(), states);
}

BddRef TransitionSystem::reachable_pre_image(Bdd states) const {
  if (states == kBddFalse) return BddRef(*mgr_, kBddFalse);
  ICTL_COUNT("sym", "pre_images");
  return mgr_->pair_pre_image(reachable_transitions(), states);
}

BddRef TransitionSystem::post_image(Bdd states) const {
  ICTL_COUNT("sym", "post_images");
  const BddRef next = mgr_->and_exists(transitions(), states, source_cube_);
  return mgr_->rename(next, to_unprimed_);
}

namespace {

/// The state variables in current level order, top first: one saturation
/// level per (x, x') pair.  Throws ModelError when the order separates a
/// pair.
std::vector<std::uint32_t> pair_levels(const BddManager& mgr, std::uint32_t n) {
  require_adjacent_pairs(mgr, n);
  std::vector<std::uint32_t> levels(n);
  std::iota(levels.begin(), levels.end(), 0u);
  std::sort(levels.begin(), levels.end(), [&](std::uint32_t a, std::uint32_t b) {
    return mgr.level_of_var(TransitionSystem::unprimed(a)) <
           mgr.level_of_var(TransitionSystem::unprimed(b));
  });
  return levels;
}

/// f's cofactors on BDD variable `var`, which must not lie below f's top.
std::array<Bdd, 2> cofactors(const BddManager& mgr, Bdd f, std::uint32_t var) {
  if (BddManager::is_terminal(f) || mgr.node_var(f) != var) return {f, f};
  return {mgr.node_low(f), mgr.node_high(f)};
}

/// A relation's cofactors r[x][x'] on state variable v's pair.
using PairCofactors = std::array<std::array<Bdd, 2>, 2>;
PairCofactors pair_cofactors(const BddManager& mgr, Bdd r, std::uint32_t v) {
  const auto [r0, r1] = cofactors(mgr, r, TransitionSystem::unprimed(v));
  return {cofactors(mgr, r0, TransitionSystem::primed(v)),
          cofactors(mgr, r1, TransitionSystem::primed(v))};
}

/// The walk behind TransitionSystem::saturation_events: (level, event)
/// pairs, top first.  Raw handles — the caller holds a protect_scope.
std::vector<std::pair<std::uint32_t, Bdd>> split_by_top_level(
    BddManager& mgr, const std::vector<std::uint32_t>& levels, Bdd part) {
  std::vector<std::pair<std::uint32_t, Bdd>> events;
  Bdd rest = part;
  for (std::uint32_t k = 0; k < levels.size() && rest != kBddFalse; ++k) {
    const std::uint32_t v = levels[k];
    const PairCofactors c = pair_cofactors(mgr, rest, v);
    if (c[0][0] != c[1][1]) {
      events.emplace_back(k, rest);
      break;
    }
    if (c[0][1] != kBddFalse || c[1][0] != kBddFalse) {
      const std::uint32_t p = TransitionSystem::primed(v);
      events.emplace_back(k, mgr.make_node(TransitionSystem::unprimed(v),
                                           mgr.make_node(p, kBddFalse, c[0][1]),
                                           mgr.make_node(p, c[1][0], kBddFalse)));
    }
    rest = c[0][0];
  }
  return events;
}

/// Saturation over one event per level (the OR of the parts' events
/// there).  A node is saturated once its children are and its level's
/// event has been fired to a fixpoint on them; every node the relational
/// product builds is saturated the same way, so each result is closed
/// under every event at its level and below.  All handles are raw, the
/// unions' results included, and the memo tables live as long as the
/// object: the caller holds one protect_scope across its whole lifetime.
class Saturation {
 public:
  Saturation(BddManager& mgr, std::vector<std::uint32_t> levels,
             std::vector<Bdd> events)
      : mgr_(mgr),
        levels_(std::move(levels)),
        events_(std::move(events)),
        identity_(levels_.size() + 1, kBddTrue),
        saturated_(levels_.size()),
        images_(levels_.size()) {
    for (std::size_t k = levels_.size(); k-- > 0;) {
      const std::uint32_t p = TransitionSystem::primed(levels_[k]);
      identity_[k] = mgr_.make_node(TransitionSystem::unprimed(levels_[k]),
                                    mgr_.make_node(p, identity_[k + 1], kBddFalse),
                                    mgr_.make_node(p, kBddFalse, identity_[k + 1]));
    }
  }

  /// The closure of `set` under every event.
  Bdd run(Bdd set) { return saturate(0, set); }

 private:
  /// `s` (a set from level k down) closed under the events at k and below.
  Bdd saturate(std::uint32_t k, Bdd s) {
    if (s == kBddFalse || k == levels_.size()) return s;
    auto& memo = saturated_[k];
    if (const auto it = memo.find(s); it != memo.end()) return it->second;
    step();
    const auto [s0, s1] = cofactors(mgr_, s, TransitionSystem::unprimed(levels_[k]));
    const Bdd t0 = saturate(k + 1, s0);
    const Bdd result = fire(k, {t0, s1 == s0 ? t0 : saturate(k + 1, s1)});
    memo.emplace(s, result);
    return result;
  }

  /// The saturated image of `s` (saturated from level k down) under `r` (a
  /// relation from level k down).
  Bdd image(std::uint32_t k, Bdd s, Bdd r) {
    if (s == kBddFalse || r == kBddFalse) return kBddFalse;
    if (r == identity_[k]) return s;  // x' = x from here down: nothing moves
    auto& memo = images_[k];
    const std::uint64_t key = (std::uint64_t{s} << 32) | r;
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    step();
    const std::uint32_t v = levels_[k];
    const std::array<Bdd, 2> sc = cofactors(mgr_, s, TransitionSystem::unprimed(v));
    const PairCofactors rc = pair_cofactors(mgr_, r, v);
    std::array<Bdd, 2> t = {kBddFalse, kBddFalse};
    for (const std::size_t i : {0, 1})
      for (const std::size_t j : {0, 1})
        if (sc[i] != kBddFalse && rc[i][j] != kBddFalse)
          t[j] = mgr_.bdd_or(t[j], image(k + 1, sc[i], rc[i][j]));
    const Bdd result = fire(k, t);
    memo.emplace(key, result);
    return result;
  }

  /// Fires level k's event to a fixpoint on the saturated children `t`
  /// and returns the node.  Chained: an image grows its target child at
  /// once, and only a child that grew is fired from again.
  Bdd fire(std::uint32_t k, std::array<Bdd, 2> t) {
    const std::uint32_t v = levels_[k];
    if (events_[k] != kBddFalse) {
      const PairCofactors e = pair_cofactors(mgr_, events_[k], v);
      std::array<bool, 2> grew = {t[0] != kBddFalse, t[1] != kBddFalse};
      bool changed = grew[0] || grew[1];
      while (changed) {
        rt::charge_iteration("sym/saturation");
        ICTL_COUNT("sym", "saturation_rounds");
        changed = false;
        for (const std::size_t i : {0, 1}) {
          if (!grew[i]) continue;
          grew[i] = false;
          for (const std::size_t j : {0, 1}) {
            if (e[i][j] == kBddFalse) continue;
            // Raw like every handle here: the caller's protect_scope spans
            // this object's lifetime (see the class comment).
            // ictl-lint: allow(raw-bdd-binding)
            const Bdd next = mgr_.bdd_or(t[j], image(k + 1, t[i], e[i][j]));
            if (next == t[j]) continue;
            t[j] = next;
            grew[j] = changed = true;
          }
        }
      }
    }
    return mgr_.make_node(TransitionSystem::unprimed(v), t[0], t[1]);
  }

  /// Batched budget checkpoint over the recursion's memo misses.
  void step() {
    if ((++steps_ & 0xfff) == 0) rt::checkpoint("sym/saturation");
  }

  BddManager& mgr_;
  std::vector<std::uint32_t> levels_;  // state variable at each level
  // Raw handles, valid for the one protect_scope the caller holds across
  // the object's lifetime (see the class comment); so is every table below.
  // ictl-lint: allow(raw-bdd-member)
  std::vector<Bdd> events_;  // OR of the events at each level
  // ictl-lint: allow(raw-bdd-member)
  std::vector<Bdd> identity_;  // x' = x from level k to the bottom
  // ictl-lint: allow(raw-bdd-member)
  std::vector<std::unordered_map<Bdd, Bdd>> saturated_;  // per level: s -> result
  // ictl-lint: allow(raw-bdd-member)
  std::vector<std::unordered_map<std::uint64_t, Bdd>> images_;  // (s, r) -> result
  std::uint64_t steps_ = 0;
};

}  // namespace

void TransitionSystem::require_state_support() const {
  // Saturation has one level per (x, x') pair and none for any other
  // variable, so a relation or initial set reaching outside them would walk
  // off its level table.  audit() reports the same conditions in full.
  const std::uint32_t n = num_state_vars_;
  const std::vector<std::uint32_t> relation =
      mgr_->support_vars(std::vector<Bdd>(parts_.begin(), parts_.end()));
  if (!relation.empty() && relation.back() >= 2 * n)
    throw ModelError("TransitionSystem: the relation mentions BDD variable " +
                     std::to_string(relation.back()) +
                     ", outside the declared state variables");
  for (const std::uint32_t v : mgr_->support_vars(initial_))
    if (v >= 2 * n || v % 2 != 0)
      throw ModelError("TransitionSystem: the initial set mentions BDD variable " +
                       std::to_string(v) + ", not an unprimed state variable");
}

std::vector<TransitionSystem::SaturationEvent> TransitionSystem::saturation_events(
    std::size_t part) const {
  support::require<Error>(part < parts_.size(),
                          "TransitionSystem::saturation_events: no such part");
  std::vector<SaturationEvent> events;
  require_state_support();
  const auto scope = mgr_->protect_scope();
  const std::vector<std::uint32_t> levels = pair_levels(*mgr_, num_state_vars_);
  for (const auto& [k, relation] : split_by_top_level(*mgr_, levels, parts_[part]))
    events.push_back({levels[k], BddRef(*mgr_, relation)});
  return events;
}

Bdd TransitionSystem::reachable() const {
  if (reachable_.has_value()) return reachable_->get();
  ICTL_PROFILE_ARG("sym", "reach_fixpoint", "parts", parts_.size());
  require_state_support();
  std::optional<BddRef> saturated;
  {
    // One scope for the whole saturation: the memo tables hold raw
    // handles, so neither GC nor reordering may run until it closes.
    const auto scope = mgr_->protect_scope();
    std::vector<std::uint32_t> levels = pair_levels(*mgr_, num_state_vars_);
    std::vector<Bdd> events(levels.size(), kBddFalse);
    std::size_t event_levels = 0;
    for (const BddRef& part : parts_)
      for (const auto& [k, relation] : split_by_top_level(*mgr_, levels, part)) {
        event_levels += events[k] == kBddFalse ? 1 : 0;
        events[k] = mgr_->bdd_or(events[k], relation);
      }
    if (event_levels > 1) {
      ICTL_PROFILE("sym", "saturation_sweep");
      ICTL_COUNT("sym", "saturation_sweeps");
      saturated.emplace(
          *mgr_, Saturation(*mgr_, std::move(levels), std::move(events)).run(initial_));
    }
  }
  BddRef reach = initial_;
  if (saturated.has_value()) {
    // The scope deferred all maintenance.  This union (the initial states
    // are already in the closure) is the public operation that runs it — a
    // pending GC or sift and the node budget's ladder — while reachable_
    // is still unset, so a trip caches nothing.
    reach = mgr_->bdd_or(*saturated, initial_);
  } else {
    // Frontier iteration: only the newly discovered states are imaged.
    BddRef frontier = initial_;
    while (frontier.get() != kBddFalse) {
      rt::charge_iteration("sym/reach_frontier");
      ICTL_COUNT("sym", "frontier_rounds");
      BddRef next = mgr_->bdd_or(reach, post_image(frontier));
      frontier = mgr_->bdd_diff(next, reach);
      reach = std::move(next);
    }
  }
  reachable_ = std::move(reach);
#ifdef ICTL_AUDIT
  assert_audit("reachable fixpoint");
#endif
  return reachable_->get();
}

SatCount TransitionSystem::count_states_exact(Bdd set) const {
  // sat_count_exact ranges over every manager variable; each of the
  // num_state_vars primed variables (absent from a state set's support)
  // doubles the count, as does any extra variable the manager owns.
  SatCount over_all = mgr_->sat_count_exact(set);
  if (!over_all.is_zero())
    over_all.exponent -= static_cast<std::int32_t>(mgr_->num_vars()) -
                         static_cast<std::int32_t>(num_state_vars_);
  return over_all;
}

std::optional<Bdd> TransitionSystem::prop_states(kripke::PropId p) const {
  const auto it = std::lower_bound(
      props_.begin(), props_.end(), p,
      [](const auto& entry, kripke::PropId key) { return entry.first < key; });
  if (it == props_.end() || it->first != p) return std::nullopt;
  return it->second.get();
}

// ---- Rotation symmetry ------------------------------------------------------

std::vector<std::uint32_t> TransitionSystem::derive_rotation() const {
  const std::size_t r = index_set_.size();
  if (r == 0 || registry_ == nullptr) return {};
  std::unordered_map<std::uint32_t, std::size_t> position;
  for (std::size_t j = 0; j < r; ++j)
    if (!position.emplace(index_set_[j], j).second) return {};
  // owner[v]: the position of the one index whose propositions mention
  // state variable v, kNone when none does, kShared when several do.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  constexpr std::size_t kShared = kNone - 1;
  std::vector<std::size_t> owner(num_state_vars_, kNone);
  for (const auto& [prop, fn] : props_) {
    if (registry_->kind(prop) != kripke::PropKind::kIndexed) continue;
    const auto it = position.find(registry_->index_of(prop));
    if (it == position.end()) return {};
    for (const std::uint32_t bdd_var : mgr_->support_vars(fn)) {
      if (bdd_var >= 2 * num_state_vars_ || bdd_var % 2 != 0) return {};
      std::size_t& o = owner[bdd_var / 2];
      o = o == kNone || o == it->second ? it->second : kShared;
    }
  }
  std::vector<std::vector<std::uint32_t>> owned(r);
  for (std::uint32_t v = 0; v < num_state_vars_; ++v)
    if (owner[v] < r) owned[owner[v]].push_back(v);
  for (const auto& vars : owned)
    if (vars.size() != owned.front().size()) return {};
  std::vector<std::uint32_t> map(mgr_->num_vars());
  for (std::uint32_t v = 0; v < map.size(); ++v) map[v] = v;
  for (std::size_t j = 0; j < r; ++j)
    for (std::size_t t = 0; t < owned[j].size(); ++t) {
      const std::uint32_t from = owned[j][t];
      const std::uint32_t to = owned[(j + 1) % r][t];
      map[unprimed(from)] = unprimed(to);
      map[primed(from)] = primed(to);
    }
  return map;
}

std::vector<std::uint32_t> TransitionSystem::verify_rotation() const {
  std::vector<std::uint32_t> map = derive_rotation();
  if (map.empty()) return map;
  const auto maps_to = [&](Bdd f, Bdd image) {
    return mgr_->rename(f, map).get() == image;
  };
  const auto next_index = [&](std::uint32_t k) {
    const auto at = std::find(index_set_.begin(), index_set_.end(), k);
    ICTL_ASSERT(at != index_set_.end());  // derive_rotation saw every index
    const auto j = static_cast<std::size_t>(at - index_set_.begin());
    return index_set_[(j + 1) % index_set_.size()];
  };
  // Cheapest first: the labels, then the reachable set, then the relation.
  bool holds = true;
  for (const auto& [prop, fn] : props_) {
    if (registry_->kind(prop) != kripke::PropKind::kIndexed) {
      holds = maps_to(fn, fn);
    } else {
      const auto image = registry_->find_indexed(registry_->base_name(prop),
                                                 next_index(registry_->index_of(prop)));
      const std::optional<Bdd> target =
          image.has_value() ? prop_states(*image) : std::nullopt;
      holds = target.has_value() && maps_to(fn, *target);
    }
    if (!holds) break;
  }
  holds = holds && maps_to(reachable(), reachable()) &&
          maps_to(reachable_transitions(), reachable_transitions());
  if (!holds) map.clear();
  return map;
}

bool TransitionSystem::verified_rotation() const {
  if (!rotation_.has_value()) {
    ICTL_PROFILE("sym", "verify_rotation");
    ICTL_COUNT("sym", "rotation_verifications");
    // Assigned only once every check has passed its maintenance point, so
    // a budget trip caches no verdict.
    rotation_ = verify_rotation();
  }
  return !rotation_->empty();
}

const std::vector<std::uint32_t>& TransitionSystem::rotation() const {
  support::require<Error>(verified_rotation(),
                          "TransitionSystem::rotation: no verified rotation");
  return *rotation_;
}

// ---- Deep audit -------------------------------------------------------------

BddManager::AuditReport TransitionSystem::audit() const {
  BddManager::AuditReport report;
  const auto fail = [&](std::string message) {
    report.failures.push_back("TransitionSystem: " + std::move(message));
  };
  const std::uint32_t n = num_state_vars_;

  // The interleaving: each state pair on adjacent levels, unprimed on top.
  if (!mgr_->pairs_adjacent(n))
    fail("the variable order separates a state variable's (x, x') pair");

  // Support discipline: state sets live over unprimed variables only, the
  // relation parts over the declared interleaved pairs.
  const auto unprimed_only = [&](Bdd f, const std::string& what) {
    for (const std::uint32_t v : mgr_->support_vars(f)) {
      if (v >= 2 * n)
        fail(what + " mentions BDD variable " + std::to_string(v) +
             " outside the state space");
      else if (v % 2 != 0)
        fail(what + " mentions primed variable " + std::to_string(v));
    }
  };
  unprimed_only(initial_.get(), "initial set");
  for (std::size_t k = 0; k < parts_.size(); ++k)
    for (const std::uint32_t v : mgr_->support_vars(parts_[k]))
      if (v >= 2 * n)
        fail("partition part " + std::to_string(k) + " mentions BDD variable " +
             std::to_string(v) + " outside the declared variable set");
  for (const auto& [prop, fn] : props_)
    unprimed_only(fn.get(), "prop " + std::to_string(prop) + " function");

  // The unprime rename map inverts primed() over the state pairs.
  if (to_unprimed_.size() < 2 * n) {
    fail("rename map shorter than the state variable block");
  } else {
    for (std::uint32_t v = 0; v < n; ++v)
      if (to_unprimed_[primed(v)] != unprimed(v))
        fail("prime/unprime rename maps not mutually inverse at state variable " +
             std::to_string(v));
  }

  // post_image's quantification cube spans exactly the unprimed variables.
  std::vector<std::uint32_t> uvars(n);
  for (std::uint32_t v = 0; v < n; ++v) uvars[v] = unprimed(v);
  if (mgr_->support_vars(source_cube_.get()) != uvars)
    fail("unprimed cube does not span exactly its half of the state variables");

  // Reachable (when computed): a set over unprimed variables containing the
  // initial states and closed under the post image — i.e., a fixpoint.
  if (reachable_.has_value()) {
    const Bdd reach = reachable_->get();
    unprimed_only(reach, "reachable set");
    if (mgr_->bdd_diff(initial_.get(), reach).get() != kBddFalse)
      fail("initial states escape the reachable set");
    const BddRef image = post_image(reach);
    if (mgr_->bdd_diff(image.get(), reach).get() != kBddFalse)
      fail("reachable set is not a fixpoint: post_image adds states");
  }
  if (restricted_.has_value() &&
      mgr_->bdd_and(transitions(), reachable()).get() != restricted_->get())
    fail("cached reachable relation is not transitions() & reachable()");

  // A cached rotation verdict is re-derived and re-verified anew.
  if (rotation_.has_value() && verify_rotation() != *rotation_)
    fail("cached rotation is not what a fresh derivation and verification give");
  return report;
}

void TransitionSystem::assert_audit(const char* where) const {
  const BddManager::AuditReport report = audit();
  if (!report.ok())
    throw Error(std::string("TransitionSystem audit failed at ") + where + ":\n" +
                report.to_string());
}

// ---- Generic explicit-to-symbolic bridge ------------------------------------

Bdd state_minterm(BddManager& mgr, std::uint32_t num_state_vars, kripke::StateId s,
                  bool primed) {
  // Build bottom-up through the hash-consed node constructor, deepest
  // CURRENT level first, so every make_node call is already in order: one
  // node per bit, no ITE recursion, any variable order.
  std::vector<std::uint32_t> vars(num_state_vars);
  for (std::uint32_t v = 0; v < num_state_vars; ++v)
    vars[v] = primed ? TransitionSystem::primed(v) : TransitionSystem::unprimed(v);
  std::sort(vars.begin(), vars.end(), [&](std::uint32_t a, std::uint32_t b) {
    return mgr.level_of_var(a) > mgr.level_of_var(b);
  });
  Bdd acc = kBddTrue;
  for (const std::uint32_t bdd_var : vars) {
    const bool bit = ((s >> (bdd_var / 2)) & 1u) != 0;
    acc = bit ? mgr.make_node(bdd_var, kBddFalse, acc)
              : mgr.make_node(bdd_var, acc, kBddFalse);
  }
  return acc;
}

TransitionSystem from_structure(const kripke::Structure& m,
                                std::shared_ptr<BddManager> mgr) {
  const std::size_t n = m.num_states();
  support::require<ModelError>(n > 0, "from_structure: empty structure");
  support::require<ModelError>(m.initial() != kripke::kNoState,
                               "from_structure: structure has no initial state");
  std::uint32_t bits = 1;
  while ((std::size_t{1} << bits) < n) ++bits;

  if (mgr == nullptr) mgr = std::make_shared<BddManager>(2 * bits);
  support::require<ModelError>(mgr->num_vars() >= 2 * bits,
                               "from_structure: manager owns too few variables");

  // The whole build runs on raw handles under one scope; the
  // TransitionSystem constructor roots what it retains before the scope
  // exits.
  const auto scope = mgr->protect_scope();

  // Transition relation: per source state, its minterm as the care set of
  // one OR over its successors' primed minterms; then one OR of the rows.
  std::vector<Bdd> rows;
  rows.reserve(n);
  std::vector<Bdd> targets;
  for (kripke::StateId s = 0; s < n; ++s) {
    const auto succs = m.successors(s);
    if (succs.empty()) continue;
    targets.clear();
    for (const kripke::StateId t : succs)
      targets.push_back(state_minterm(*mgr, bits, t, /*primed=*/true));
    rows.push_back(
        mgr->or_all(targets, state_minterm(*mgr, bits, s, /*primed=*/false)));
  }
  const BddRef transitions = mgr->or_all(rows);

  // Per-prop characteristic functions from the label columns.
  std::vector<std::pair<kripke::PropId, Bdd>> props;
  for (const kripke::PropId p : m.used_props()) {
    std::vector<Bdd> holders;
    m.states_with(p).for_each([&](std::size_t s) {
      holders.push_back(
          state_minterm(*mgr, bits, static_cast<kripke::StateId>(s), false));
    });
    props.emplace_back(p, mgr->or_all(holders));
  }

  const Bdd initial = state_minterm(*mgr, bits, m.initial(), /*primed=*/false);
  std::vector<std::uint32_t> indices(m.index_set().begin(), m.index_set().end());
  return TransitionSystem(std::move(mgr), bits, initial, {transitions.get()}, m.registry(),
                          std::move(props), std::move(indices));
}

}  // namespace ictl::symbolic
