#include "symbolic/ring_encoding.hpp"

#include <algorithm>
#include <array>
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

/// What a layered automaton reads at one ring position: the values of the
/// process's d_i, d'_i, h_i, h'_i.
struct Letter {
  bool d = false;
  bool d_next = false;
  bool h = false;
  bool h_next = false;
  /// The step leaves the process untouched: d' = d and h' = h.
  [[nodiscard]] bool framed() const { return d_next == d && h_next == h; }
};

/// An automaton's successor on a letter it does not accept.
constexpr std::uint8_t kReject = 0xff;

/// Emits the language of a layered automaton over the ring positions 1..r
/// as one BDD, bottom-up through make_node: no ITE recursion, no
/// computed-cache traffic.  `next(q, i, x)` is state q's successor on
/// letter x at position i (or kReject); state 0 starts, and `accept[q]` is
/// the function of the phase pair (c, c') state q must meet after position
/// r.  Each position gives each live state (one some word over the
/// positions above reaches) one handle: a four-level decision over the
/// position's letter whose sixteen leaves are the next position's handles.
/// Needs the canonical order — process 1's block on top, each block
/// d, d', h, h', the phase pair last — and returns, by canonicity, the
/// handle every other construction of the same function returns.
template <std::size_t N, class Next>
Bdd emit_ring_automaton(BddManager& m, std::uint32_t r, const std::array<Bdd, N>& accept,
                        const Next& next) {
  static_assert(N <= 8, "live state sets are bytes");
  // Letter l carries d, d', h, h' in its bits 3..0.
  std::array<Letter, 16> letters;
  for (std::uint32_t l = 0; l < 16; ++l)
    letters[l] = {(l & 8) != 0, (l & 4) != 0, (l & 2) != 0, (l & 1) != 0};

  std::vector<std::uint8_t> live(r + 1, 0);  // bit q: state q is live at i
  live[1] = 1;
  for (std::uint32_t i = 1; i < r; ++i)
    for (std::uint32_t q = 0; q < N; ++q)
      if (((live[i] >> q) & 1u) != 0)
        for (const Letter& x : letters)
          if (const std::uint8_t s = next(q, i, x); s != kReject)
            live[i + 1] |= static_cast<std::uint8_t>(1u << s);

  std::array<Bdd, N> below = accept;
  for (std::uint32_t i = r; i >= 1; --i) {
    const std::array<std::uint32_t, 4> deepest_first = {
        TransitionSystem::primed(SymbolicRing::holder_var(i)),
        TransitionSystem::unprimed(SymbolicRing::holder_var(i)),
        TransitionSystem::primed(SymbolicRing::delayed_var(i)),
        TransitionSystem::unprimed(SymbolicRing::delayed_var(i))};
    std::array<Bdd, N> here{};
    for (std::uint32_t q = 0; q < N; ++q) {
      if (((live[i] >> q) & 1u) == 0) continue;
      std::array<Bdd, 16> level;
      for (std::uint32_t l = 0; l < 16; ++l) {
        const std::uint8_t s = next(q, i, letters[l]);
        level[l] = s == kReject ? kBddFalse : below[s];
      }
      // Each pass decides the lowest remaining letter bit: h', h, d', d.
      std::size_t width = 16;
      for (const std::uint32_t v : deepest_first) {
        width /= 2;
        for (std::size_t k = 0; k < width; ++k)
          level[k] = m.make_node(v, level[2 * k], level[2 * k + 1]);
      }
      here[q] = level[0];
    }
    below = here;
  }
  return below[0];
}

/// Theta t, "exactly one h_i", as a two-state automaton over the unprimed
/// holder bits, emitted bottom-up through make_node.  The function is
/// symmetric in those bits, so it reads the same in any variable order.
Bdd exactly_one_holder(BddManager& m, std::uint32_t r) {
  std::vector<std::uint32_t> holder_bits(r);
  for (std::uint32_t i = 1; i <= r; ++i)
    holder_bits[i - 1] = TransitionSystem::unprimed(SymbolicRing::holder_var(i));
  std::sort(holder_bits.begin(), holder_bits.end(), [&](std::uint32_t a, std::uint32_t b) {
    return m.level_of_var(a) > m.level_of_var(b);
  });
  Bdd none = kBddFalse;  // no holder bit set above this level
  Bdd one = kBddTrue;    // one holder bit set above this level
  for (const std::uint32_t v : holder_bits) {
    const Bdd none_here = m.make_node(v, none, one);
    one = m.make_node(v, one, kBddFalse);
    none = none_here;
  }
  return none;
}

}  // namespace

SymbolicRing build_symbolic_ring(std::uint32_t r, std::shared_ptr<BddManager> mgr,
                                 kripke::PropRegistryPtr registry) {
  support::require<ModelError>(
      r >= 2,
      "build_symbolic_ring: need at least two processes (the paper notes no "
      "correspondence exists with one process)");
  support::require<ModelError>(
      r <= kMaxSymbolicRingSize,
      "build_symbolic_ring: capped at r = " + std::to_string(kMaxSymbolicRingSize) +
          " (the largest size the suites cover; under a scrambled variable "
          "order the rule-2 build is cubic in r)");

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
  // with either armed), so every raw make_node handle below stays valid
  // until the TransitionSystem constructor roots what it retains.
  const auto frozen_order = m.protect_scope();
  ChainBuilder chain(m, num_state_vars);

  // ---- Transition relation: the four Section 5 rules, partitioned -----------
  // Under the canonical order (the identity on the ring's variables) rules 1
  // and 2 are layered automata over the process positions.  A scrambled
  // order builds one constraint chain per rule instance and ORs them per
  // part instead: the guards tie d_i to h_i and each receiver to ring
  // order, so an automaton reading the levels in a scrambled order would
  // have to remember which positions it has already passed.
  const bool canonical_order = [&] {
    for (std::uint32_t v = 0; v < 2 * num_state_vars; ++v)
      if (m.level_of_var(v) != v) return false;
    return true;
  }();
  const std::uint32_t cu = TransitionSystem::unprimed(c_var);
  const std::uint32_t cp = TransitionSystem::primed(c_var);
  std::vector<Bdd> partition;

  // Rule 1 (one partition): a neutral process becomes delayed
  // (!d_i, d'_i, !h_i, !h'_i), every other variable framed.
  if (canonical_order) {
    // Two states: waiting (every position so far framed), moved.
    constexpr std::uint8_t kWaiting = 0;
    constexpr std::uint8_t kMoved = 1;
    const std::array<Bdd, 2> accept = {
        kBddFalse, m.make_node(cu, m.make_node(cp, kBddTrue, kBddFalse),
                               m.make_node(cp, kBddFalse, kBddTrue))};
    partition.push_back(emit_ring_automaton(
        m, r, accept, [](std::uint32_t q, std::uint32_t, Letter x) -> std::uint8_t {
          if (x.framed()) return static_cast<std::uint8_t>(q);
          const bool becomes_delayed = !x.d && x.d_next && !x.h && !x.h_next;
          return q == kWaiting && becomes_delayed ? kMoved : kReject;
        }));
  } else {
    std::vector<Bdd> cases;
    cases.reserve(r);
    for (std::uint32_t i = 1; i <= r; ++i) {
      chain.reset();
      chain.at(SymbolicRing::delayed_var(i)) = {Unprimed::kFalse, Primed::kTrue};
      chain.at(SymbolicRing::holder_var(i)) = {Unprimed::kFalse, Primed::kFrame};
      cases.push_back(chain.build());
    }
    partition.push_back(m.or_all(cases));
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

  // Rule 2 (clustered partitions): holder j hands the token to i = cln(j),
  // the closest delayed process walking left from j (j-1, ..., 1, r, ...,
  // j+1); i enters its critical section, j goes neutral.  Per (j, i): h_j,
  // !h'_j; d_i, !d'_i, h'_i; !d_k framed at every k strictly between; c' = 1;
  // the rest framed.  Holders are clustered ceil(r / 16) at a time — at
  // most 16 rule-2 parts however large the ring.
  const std::uint32_t cluster_width = (r + 15) / 16;
  const Bdd phase_set = m.make_node(cp, kBddFalse, kBddTrue);  // c free, c' = 1
  for (std::uint32_t a = 1; a <= r; a += cluster_width) {
    const std::uint32_t b = std::min(r, a + cluster_width - 1);
    if (canonical_order) {
      // Six states over the letters F (framed), B (framed, not delayed),
      // R (the receiver: d, !d', h') and H (a holder j in [a, b]: d' = d,
      // h, !h'); B wins over F where both read:
      //   clear     H -> wrap due, R -> chosen, B -> clear, F -> skipped
      //   skipped   R -> chosen, F -> skipped
      //   chosen    B -> chosen, H -> done
      //   wrap due  R -> wrapped, F -> wrap due
      //   wrapped   B -> wrapped
      //   done      F -> done
      // Done (i < j) and wrapped (i > j) accept, above c' = 1.
      constexpr std::uint8_t kClear = 0;
      constexpr std::uint8_t kSkipped = 1;
      constexpr std::uint8_t kChosen = 2;
      constexpr std::uint8_t kWrapDue = 3;
      constexpr std::uint8_t kWrapped = 4;
      constexpr std::uint8_t kDone = 5;
      const std::array<Bdd, 6> accept = {kBddFalse, kBddFalse, kBddFalse,
                                         kBddFalse, phase_set, phase_set};
      partition.push_back(emit_ring_automaton(
          m, r, accept, [a, b](std::uint32_t q, std::uint32_t i, Letter x) -> std::uint8_t {
            const bool f = x.framed();
            const bool between = f && !x.d;
            const bool receiver = x.d && !x.d_next && x.h_next;
            const bool holder = a <= i && i <= b && x.d_next == x.d && x.h && !x.h_next;
            switch (q) {
              case kClear:
                return holder     ? kWrapDue
                       : receiver ? kChosen
                       : between  ? kClear
                       : f        ? kSkipped
                                  : kReject;
              case kSkipped: return receiver ? kChosen : f ? kSkipped : kReject;
              case kChosen: return between ? kChosen : holder ? kDone : kReject;
              case kWrapDue: return receiver ? kWrapped : f ? kWrapDue : kReject;
              case kWrapped: return between ? kWrapped : kReject;
              default: return f ? kDone : kReject;
            }
          }));
    } else {
      std::vector<Bdd> cases;
      cases.reserve(static_cast<std::size_t>(b - a + 1) * (r - 1));
      for (std::uint32_t j = a; j <= b; ++j) {
        std::vector<std::uint32_t> between;  // grows one i per step leftwards
        for (std::uint32_t step = 1; step < r; ++step) {
          const std::uint32_t i = (j - 1 + r - step) % r + 1;
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
      }
      partition.push_back(m.or_all(cases));
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

  // ---- Labels ---------------------------------------------------------------
  const auto d = [&](std::uint32_t i) {
    return m.var(TransitionSystem::unprimed(SymbolicRing::delayed_var(i)));
  };
  const auto h = [&](std::uint32_t i) {
    return m.var(TransitionSystem::unprimed(SymbolicRing::holder_var(i)));
  };
  const Bdd c = m.var(cu);

  std::vector<std::pair<kripke::PropId, Bdd>> props;
  props.reserve(static_cast<std::size_t>(4) * r + 1);
  for (std::uint32_t i = 1; i <= r; ++i) {
    props.emplace_back(dprop[i], d(i));
    props.emplace_back(
        nprop[i], m.bdd_or(m.bdd_and(m.bdd_not(d(i)), m.bdd_not(h(i))),
                           m.bdd_and(h(i), m.bdd_not(c))));
    props.emplace_back(tprop[i], h(i));
    props.emplace_back(cprop[i], m.bdd_and(h(i), c));
  }
  props.emplace_back(one_t, exactly_one_holder(m, r));

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
