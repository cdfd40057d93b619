#include "symbolic/ring_encoding.hpp"

#include <algorithm>
#include <string>

#include "support/error.hpp"

namespace ictl::symbolic {

namespace {

/// Per state variable, what one transition rule demands of the (x, x')
/// pair.  Defaults describe an untouched variable: x free, x' framed.
enum class Unprimed : std::uint8_t { kFree, kTrue, kFalse };
enum class Primed : std::uint8_t { kFrame, kTrue, kFalse, kFree };
struct PairConstraint {
  Unprimed guard = Unprimed::kFree;
  Primed update = Primed::kFrame;
};

/// Builds the conjunction of all pair constraints as one chain, bottom-up
/// through the hash-consed node constructor in CURRENT level order — no
/// ITE recursion, no computed-cache traffic, linear in the variable count.
/// This is the whole reason a rule costs microseconds instead of a cascade
/// of cache-busting bdd_and/bdd_iff calls.
class ChainBuilder {
 public:
  ChainBuilder(BddManager& mgr, std::uint32_t num_state_vars)
      : mgr_(mgr), constraints_(num_state_vars) {
    // Pair blocks sorted by the unprimed variable's current level, deepest
    // first; the primed partner must sit directly below it (the
    // interleaving invariant, preserved by group sifting).
    support::require<ModelError>(
        mgr.pairs_adjacent(num_state_vars),
        "build_symbolic_ring: the variable order separates a state variable's "
        "(x, x') pair");
    vars_by_level_.resize(num_state_vars);
    for (std::uint32_t v = 0; v < num_state_vars; ++v) vars_by_level_[v] = v;
    std::sort(vars_by_level_.begin(), vars_by_level_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return mgr.level_of_var(TransitionSystem::unprimed(a)) >
                       mgr.level_of_var(TransitionSystem::unprimed(b));
              });
  }

  PairConstraint& at(std::uint32_t state_var) { return constraints_[state_var]; }
  void reset() {
    std::fill(constraints_.begin(), constraints_.end(), PairConstraint{});
  }

  [[nodiscard]] Bdd build() const {
    Bdd acc = kBddTrue;
    for (const std::uint32_t v : vars_by_level_) {
      const std::uint32_t u = TransitionSystem::unprimed(v);
      const std::uint32_t p = TransitionSystem::primed(v);
      const PairConstraint c = constraints_[v];
      if (c.update == Primed::kFrame) {
        // x' <-> x: both branches exist, each pinning x'.
        const Bdd hi = mgr_.make_node(p, kBddFalse, acc);
        const Bdd lo = mgr_.make_node(p, acc, kBddFalse);
        acc = c.guard == Unprimed::kFree   ? mgr_.make_node(u, lo, hi)
              : c.guard == Unprimed::kTrue ? mgr_.make_node(u, kBddFalse, hi)
                                           : mgr_.make_node(u, lo, kBddFalse);
      } else {
        Bdd t = acc;
        if (c.update == Primed::kTrue) t = mgr_.make_node(p, kBddFalse, acc);
        if (c.update == Primed::kFalse) t = mgr_.make_node(p, acc, kBddFalse);
        acc = c.guard == Unprimed::kFree   ? t
              : c.guard == Unprimed::kTrue ? mgr_.make_node(u, kBddFalse, t)
                                           : mgr_.make_node(u, t, kBddFalse);
      }
    }
    return acc;
  }

 private:
  BddManager& mgr_;
  std::vector<PairConstraint> constraints_;
  std::vector<std::uint32_t> vars_by_level_;
};

}  // namespace

SymbolicRing build_symbolic_ring(std::uint32_t r, std::shared_ptr<BddManager> mgr,
                                 kripke::PropRegistryPtr registry,
                                 const SymbolicRingOptions& options) {
  support::require<ModelError>(
      r >= 2,
      "build_symbolic_ring: need at least two processes (the paper notes no "
      "correspondence exists with one process)");
  support::require<ModelError>(
      r <= kMaxSymbolicRingSize,
      "build_symbolic_ring: capped at r = " + std::to_string(kMaxSymbolicRingSize) +
          " (the rule-2 relation build is cubic in r)");

  const std::uint32_t num_state_vars = 2 * r + 1;
  if (mgr == nullptr) mgr = std::make_shared<BddManager>(2 * num_state_vars);
  while (mgr->num_vars() < 2 * num_state_vars) mgr->new_var();
  if (registry == nullptr) registry = kripke::make_registry();

  // Same registration order as RingSystem::build: d/n/t/c per process, then
  // the materialized theta — shared registries line the PropIds up.
  std::vector<kripke::PropId> dprop(r + 1), nprop(r + 1), tprop(r + 1), cprop(r + 1);
  for (std::uint32_t i = 1; i <= r; ++i) {
    dprop[i] = registry->indexed("d", i);
    nprop[i] = registry->indexed("n", i);
    tprop[i] = registry->indexed("t", i);
    cprop[i] = registry->indexed("c", i);
  }
  const kripke::PropId one_t = registry->theta("t");

  BddManager& m = *mgr;
  const std::uint32_t c_var = 2 * r;  // state var of the phase bit
  // The whole build runs under one protect_scope: it defers both garbage
  // collection and growth-triggered reordering (a shared manager may arrive
  // with a growth hook from an earlier dynamic_reordering build, or with
  // auto-GC armed), so every raw make_node chain below stays valid until
  // the TransitionSystem constructor roots what it retains.
  const auto frozen_order = m.protect_scope();
  ChainBuilder chain(m, num_state_vars);

  // ---- Transition relation: the four Section 5 rules, partitioned -----------
  std::vector<Bdd> partition;

  // Rule 1 (one partition): a neutral process becomes delayed.
  {
    std::vector<Bdd> cases;
    cases.reserve(r);
    for (std::uint32_t i = 1; i <= r; ++i) {
      chain.reset();
      chain.at(SymbolicRing::delayed_var(i)) = {Unprimed::kFalse, Primed::kTrue};
      chain.at(SymbolicRing::holder_var(i)) = {Unprimed::kFalse, Primed::kFrame};
      cases.push_back(chain.build());
    }
    partition.push_back(or_all(m, std::move(cases)));
  }

  // Rule 3 (one partition): the holder moves from T to C (phase bit set).
  chain.reset();
  chain.at(c_var) = {Unprimed::kFalse, Primed::kTrue};
  partition.push_back(chain.build());

  // Rule 4 (one partition): with no process delayed, the holder returns
  // from C to T.
  chain.reset();
  chain.at(c_var) = {Unprimed::kTrue, Primed::kFalse};
  for (std::uint32_t i = 1; i <= r; ++i)
    chain.at(SymbolicRing::delayed_var(i)) = {Unprimed::kFalse, Primed::kFrame};
  partition.push_back(chain.build());

  // Rule 2 (clustered partitions): holder j hands the token to i = cln(j) —
  // the closest delayed process to j's left; i enters its critical section,
  // j goes neutral.  Per (j, i) pair the guard is h_j & d_i & (no delayed
  // strictly between i and j, walking left from j); per-holder relations
  // are OR-ed into clusters of ceil(r / 16) holders — at most 16 rule-2
  // parts however large the ring.
  const std::uint32_t cluster_width = (r + 15) / 16;
  std::vector<Bdd> holder_relations(r + 1, kBddFalse);

  const bool canonical_order = [&] {
    for (std::uint32_t v = 0; v < 2 * num_state_vars; ++v)
      if (m.level_of_var(v) != v) return false;
    return true;
  }();

  if (canonical_order) {
    // Fast path, O(r^2): under the identity order the leftward walk from j
    // visits positions in DESCENDING variable order, so the union over
    // receivers is a priority encoder that folds bottom-up — per holder,
    // one small OR per position instead of one O(r) chain per (j, i) pair.
    // Composite helpers stack a position's (d_i, h_i) constraint pairs on
    // top of `below`, innermost (h) first.
    const Bdd cnode =  // c free, c' = 1: the shared bottom of every rule
        m.make_node(TransitionSystem::primed(c_var), kBddFalse, kBddTrue);
    const auto frame_var = [&](std::uint32_t sv, Bdd below) {
      const std::uint32_t u = TransitionSystem::unprimed(sv);
      const std::uint32_t p = TransitionSystem::primed(sv);
      const Bdd hi = m.make_node(p, kBddFalse, below);
      const Bdd lo = m.make_node(p, below, kBddFalse);
      return m.make_node(u, lo, hi);
    };
    const auto frame_pos = [&](std::uint32_t i, Bdd below) {
      return frame_var(SymbolicRing::delayed_var(i),
                       frame_var(SymbolicRing::holder_var(i), below));
    };
    const auto betw_pos = [&](std::uint32_t i, Bdd below) {  // !d_i, d'_i = 0
      const Bdd h = frame_var(SymbolicRing::holder_var(i), below);
      const std::uint32_t du = TransitionSystem::unprimed(SymbolicRing::delayed_var(i));
      const std::uint32_t dp = TransitionSystem::primed(SymbolicRing::delayed_var(i));
      return m.make_node(du, m.make_node(dp, h, kBddFalse), kBddFalse);
    };
    const auto rec_pos = [&](std::uint32_t i, Bdd below) {  // d_i, d'_i=0, h'_i=1
      const Bdd h = m.make_node(
          TransitionSystem::primed(SymbolicRing::holder_var(i)), kBddFalse, below);
      const std::uint32_t du = TransitionSystem::unprimed(SymbolicRing::delayed_var(i));
      const std::uint32_t dp = TransitionSystem::primed(SymbolicRing::delayed_var(i));
      return m.make_node(du, kBddFalse, m.make_node(dp, h, kBddFalse));
    };
    const auto holder_pos = [&](std::uint32_t j, Bdd below) {  // h_j, h'_j = 0
      const std::uint32_t hu = TransitionSystem::unprimed(SymbolicRing::holder_var(j));
      const std::uint32_t hp = TransitionSystem::primed(SymbolicRing::holder_var(j));
      const Bdd h = m.make_node(hu, kBddFalse, m.make_node(hp, below, kBddFalse));
      return frame_var(SymbolicRing::delayed_var(j), h);
    };

    // Suffixes shared by every holder: positions i..r all framed / all
    // between-clear, above the c-node.
    std::vector<Bdd> suffix_frame(r + 2), suffix_betw(r + 2);
    suffix_frame[r + 1] = suffix_betw[r + 1] = cnode;
    for (std::uint32_t i = r; i >= 1; --i) {
      suffix_frame[i] = frame_pos(i, suffix_frame[i + 1]);
      suffix_betw[i] = betw_pos(i, suffix_betw[i + 1]);
    }

    for (std::uint32_t j = 1; j <= r; ++j) {
      Bdd t_j = kBddFalse;
      if (j >= 2) {
        // Receivers k in [1, j-1]: the closest delayed strictly left of j
        // with no wrap.  P[m] = betweens at positions m..j-1 above the
        // holder suffix; V folds "receiver here, or framed here and a
        // receiver further up" from k = j-1 upward to k = 1.
        const Bdd s_base = holder_pos(j, suffix_frame[j + 1]);
        std::vector<Bdd> p(j + 1);
        p[j] = s_base;
        for (std::uint32_t mpos = j - 1; mpos >= 1; --mpos)
          p[mpos] = betw_pos(mpos, p[mpos + 1]);
        Bdd v = rec_pos(j - 1, p[j]);
        for (std::uint32_t mpos = j - 1; mpos-- > 1;)
          v = m.bdd_or(rec_pos(mpos, p[mpos + 1]), frame_pos(mpos, v));
        t_j = v;
      }
      if (j < r) {
        // Wrap receivers k in [j+1, r]: the walk leaves j leftward through
        // 1, wraps to r, and descends — so [1, j-1] and (k, r] must be
        // clear of delayed processes while (j, k) is walked only after k
        // and stays framed.
        Bdd g = rec_pos(r, cnode);
        for (std::uint32_t mpos = r; mpos-- > j + 1;)
          g = m.bdd_or(rec_pos(mpos, suffix_betw[mpos + 1]), frame_pos(mpos, g));
        Bdd b = holder_pos(j, g);
        for (std::uint32_t mpos = j; mpos-- > 1;) b = betw_pos(mpos, b);
        t_j = t_j == kBddFalse ? b : m.bdd_or(t_j, b);
      }
      holder_relations[j] = t_j;
    }
  } else {
    // Generic path (scrambled initial orders): one constraint chain per
    // (j, i) rule instance in current-level order, OR-ed per holder.
    for (std::uint32_t j = 1; j <= r; ++j) {
      std::vector<Bdd> cases;
      cases.reserve(r - 1);
      std::vector<std::uint32_t> between;  // grows one i per step leftwards
      for (std::uint32_t step = 1; step < r; ++step) {
        const std::uint32_t i = ((j - 1 + r - (step % r)) % r) + 1;
        chain.reset();
        chain.at(SymbolicRing::holder_var(j)) = {Unprimed::kTrue, Primed::kFalse};
        chain.at(SymbolicRing::delayed_var(i)) = {Unprimed::kTrue, Primed::kFalse};
        chain.at(SymbolicRing::holder_var(i)).update = Primed::kTrue;
        chain.at(c_var).update = Primed::kTrue;
        for (const std::uint32_t k : between)
          chain.at(SymbolicRing::delayed_var(k)) = {Unprimed::kFalse, Primed::kFrame};
        cases.push_back(chain.build());
        between.push_back(i);
      }
      holder_relations[j] = or_all(m, std::move(cases));
    }
  }

  {
    std::vector<Bdd> cluster;
    std::uint32_t holders_in_cluster = 0;
    for (std::uint32_t j = 1; j <= r; ++j) {
      cluster.push_back(holder_relations[j]);
      if (++holders_in_cluster == cluster_width || j == r) {
        partition.push_back(or_all(m, std::move(cluster)));
        cluster.clear();
        holders_in_cluster = 0;
      }
    }
  }

  // ---- Initial state: s0 = (D = {}, N = {2..r}, T = {1}) --------------------
  chain.reset();
  for (std::uint32_t i = 1; i <= r; ++i) {
    chain.at(SymbolicRing::delayed_var(i)) = {Unprimed::kFalse, Primed::kFree};
    chain.at(SymbolicRing::holder_var(i)) = {
        i == 1 ? Unprimed::kTrue : Unprimed::kFalse, Primed::kFree};
  }
  chain.at(c_var) = {Unprimed::kFalse, Primed::kFree};
  const Bdd initial = chain.build();

  // The trigger means "the table outgrew the build", not an absolute size:
  // on a manager that already holds a large, well-ordered relation a fixed
  // threshold would fire immediately and sift for nothing.
  if (options.dynamic_reordering)
    mgr->enable_dynamic_reordering(
        std::max<std::size_t>(options.reorder_threshold, 2 * mgr->num_nodes()));

  // ---- Labels ---------------------------------------------------------------
  const auto d = [&](std::uint32_t i) {
    return m.var(TransitionSystem::unprimed(SymbolicRing::delayed_var(i)));
  };
  const auto h = [&](std::uint32_t i) {
    return m.var(TransitionSystem::unprimed(SymbolicRing::holder_var(i)));
  };
  const Bdd c = m.var(TransitionSystem::unprimed(c_var));

  std::vector<std::pair<kripke::PropId, Bdd>> props;
  props.reserve(static_cast<std::size_t>(4) * r + 1);
  Bdd exactly_one_h = kBddFalse;
  Bdd no_h = kBddTrue;
  for (std::uint32_t i = 1; i <= r; ++i) {
    props.emplace_back(dprop[i], d(i));
    props.emplace_back(
        nprop[i], m.bdd_or(m.bdd_and(m.bdd_not(d(i)), m.bdd_not(h(i))),
                           m.bdd_and(h(i), m.bdd_not(c))));
    props.emplace_back(tprop[i], h(i));
    props.emplace_back(cprop[i], m.bdd_and(h(i), c));
    // Running exactly-one scan over the holder bits.
    exactly_one_h = m.bdd_or(m.bdd_and(exactly_one_h, m.bdd_not(h(i))),
                             m.bdd_and(no_h, h(i)));
    no_h = m.bdd_and(no_h, m.bdd_not(h(i)));
  }
  props.emplace_back(one_t, exactly_one_h);

  std::vector<std::uint32_t> indices(r);
  for (std::uint32_t i = 0; i < r; ++i) indices[i] = i + 1;

  SymbolicRing ring;
  ring.r = r;
  ring.system = std::make_shared<TransitionSystem>(
      std::move(mgr), num_state_vars, initial, std::move(partition),
      std::move(registry), std::move(props), std::move(indices));
  return ring;
}

std::vector<bool> SymbolicRing::assignment(const ring::RingState& s) const {
  std::vector<bool> a(system->manager().num_vars(), false);
  const std::uint32_t holders = s.t | s.c;
  for (std::uint32_t i = 1; i <= r; ++i) {
    const std::uint32_t bit = std::uint32_t{1} << (i - 1);
    a[TransitionSystem::unprimed(delayed_var(i))] = (s.d & bit) != 0;
    a[TransitionSystem::unprimed(holder_var(i))] = (holders & bit) != 0;
  }
  a[TransitionSystem::unprimed(critical_var())] = s.c != 0;
  return a;
}

}  // namespace ictl::symbolic
