// Reference implementation of the correspondence decision procedure, kept
// verbatim from the library's previous version: the stuttering prefilter iterates
// exit signatures chaotically (a fresh vector per inert edge per round) over
// a materialized disjoint union, and the degree fixpoint re-evaluates every
// candidate pair in every round.  Slow but obviously correct — the
// differential suite pits the production procedure (one Tarjan pass per
// refinement round, a dirty-pair sweep) against it.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "bisim/correspondence.hpp"
#include "bisim/partition.hpp"
#include "bisim/stuttering.hpp"
#include "kripke/structure.hpp"
#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "support/bitset.hpp"
#include "support/error.hpp"

namespace ictl::bisim::naive {

using kripke::StateId;

/// Per-state exit signature: the set of blocks (other than the state's own)
/// reachable by an inert run (states staying in the state's block) followed
/// by a single exiting transition.  Computed by a backward fixpoint within
/// each block.
inline std::vector<Partition::Signature> exit_signatures(const kripke::Structure& m,
                                                         const Partition& p) {
  const std::size_t n = m.num_states();
  std::vector<Partition::Signature> sig(n);
  // Direct exits.
  for (StateId s = 0; s < n; ++s) {
    for (const StateId t : m.successors(s))
      if (!p.same_block(s, t)) sig[s].push_back(p.block_of(t));
    std::sort(sig[s].begin(), sig[s].end());
    sig[s].erase(std::unique(sig[s].begin(), sig[s].end()), sig[s].end());
  }
  // Propagate backwards along inert transitions until stable.
  bool changed = true;
  while (changed) {
    changed = false;
    rt::charge_iteration("bisim/stutter_signatures");
    for (StateId s = 0; s < n; ++s) {
      for (const StateId t : m.successors(s)) {
        if (!p.same_block(s, t)) continue;
        // sig[s] |= sig[t]
        Partition::Signature merged;
        std::set_union(sig[s].begin(), sig[s].end(), sig[t].begin(), sig[t].end(),
                       std::back_inserter(merged));
        if (merged != sig[s]) {
          sig[s] = std::move(merged);
          changed = true;
        }
      }
    }
  }
  return sig;
}

/// States with an infinite inert run (a path that stays in the state's own
/// block forever).  With finite state spaces this means: can reach an inert
/// cycle via inert transitions.
inline std::vector<bool> divergent_states(const kripke::Structure& m, const Partition& p) {
  const std::size_t n = m.num_states();
  // Greatest fixpoint: D := all states with an inert successor;
  // D := { s : exists inert t in D } until stable.
  std::vector<bool> divergent(n, true);
  bool changed = true;
  while (changed) {
    changed = false;
    rt::charge_iteration("bisim/divergence");
    for (StateId s = 0; s < n; ++s) {
      if (!divergent[s]) continue;
      bool has_divergent_inert_succ = false;
      for (const StateId t : m.successors(s)) {
        if (p.same_block(s, t) && divergent[t]) {
          has_divergent_inert_succ = true;
          break;
        }
      }
      if (!has_divergent_inert_succ) {
        divergent[s] = false;
        changed = true;
      }
    }
  }
  return divergent;
}

inline Partition stuttering_partition(const kripke::Structure& m,
                                      StutteringOptions options = {}) {
  Partition p = Partition::by_labels(m);
  while (true) {
    rt::charge_iteration("bisim/stutter_refine");
    const auto sig = exit_signatures(m, p);
    std::vector<bool> divergent;
    if (options.divergence_sensitive) divergent = divergent_states(m, p);
    const bool changed = p.refine([&](StateId s) {
      Partition::Signature full = sig[s];
      if (options.divergence_sensitive && divergent[s])
        full.push_back(static_cast<std::uint32_t>(p.num_blocks()));  // divergence marker
      return full;
    });
    if (!changed) return p;
  }
}

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max() / 4;

inline FindResult find_correspondence(const kripke::Structure& m1,
                                      const kripke::Structure& m2,
                                      FindOptions options = {}) {
  support::require<ModelError>(
      m1.registry() == m2.registry(),
      "find_correspondence: structures must share a proposition registry");

  ICTL_PROFILE("bisim", "find_correspondence");
  FindResult result;
  const std::size_t n1 = m1.num_states();
  const std::size_t n2 = m2.num_states();
  const std::uint64_t cap =
      options.degree_cap != 0 ? options.degree_cap
                              : static_cast<std::uint64_t>(n1) + n2;

  // Candidate pairs: equal labels, optionally same stuttering class.
  std::vector<std::uint32_t> stutter_class;
  if (options.use_stuttering_prefilter) {
    ICTL_PROFILE("bisim", "stuttering_prefilter");
    const kripke::Structure u = kripke::disjoint_union(m1, m2);
    const Partition p = naive::stuttering_partition(u);
    stutter_class.resize(n1 + n2);
    for (StateId s = 0; s < n1 + n2; ++s) stutter_class[s] = p.block_of(s);
  }

  // md[s * n2 + s2] = current lower bound on the minimal degree; kInf = dead.
  std::vector<std::uint64_t> md(n1 * n2, kInf);
  std::vector<std::uint64_t> candidates;
  {
    ICTL_PROFILE("bisim", "candidate_generation");
    for (StateId s = 0; s < n1; ++s) {
      for (StateId s2 = 0; s2 < n2; ++s2) {
        if (options.use_stuttering_prefilter &&
            stutter_class[s] != stutter_class[n1 + s2])
          continue;
        if (!labels_equal(m1, s, m2, s2)) continue;
        md[static_cast<std::size_t>(s) * n2 + s2] = 0;
        candidates.push_back(static_cast<std::uint64_t>(s) * n2 + s2);
      }
    }
    ICTL_SPAN_ARG("candidates", candidates.size());
  }
  result.candidate_pairs = candidates.size();

  auto md_of = [&](StateId s, StateId s2) -> std::uint64_t {
    return md[static_cast<std::size_t>(s) * n2 + s2];
  };

  // Greatest fixpoint: raise each pair's minimal degree until the Section 3
  // clauses hold; pairs exceeding the cap die.  Monotone (degrees only
  // grow), so this terminates.  (A pair-level worklist was tried and lost
  // to the batched sweep: degrees creep up one unit at a time, so change
  // propagation re-examines pairs once per unit instead of once per round.)
  //
  // The inner "does s->t pair with some s'-move" test only depends on which
  // pairs are alive, so it is cached in two pair bitsets and maintained on
  // pair death, turning the per-pair work from O(deg1 * deg2) into
  // O(deg1 + deg2):
  //   joint_b(t, s2) = exists t2 in succ(s2) with (t, t2) alive,
  //   joint_c(s, t2) = exists t  in succ(s)  with (t, t2) alive.
  const std::size_t num_pairs = n1 * n2;
  support::DynamicBitset joint_b(num_pairs), joint_c(num_pairs);
  for (const std::uint64_t k : candidates) {
    const auto t = static_cast<StateId>(k / n2);
    const auto t2 = static_cast<StateId>(k % n2);
    for (const StateId s2 : m2.predecessors(t2))
      joint_b.set(static_cast<std::size_t>(t) * n2 + s2);
    for (const StateId s : m1.predecessors(t))
      joint_c.set(static_cast<std::size_t>(s) * n2 + t2);
  }

  auto on_death = [&](StateId u, StateId v) {
    // Recompute the joint flags that listed (u, v) as a witness.
    for (const StateId s2 : m2.predecessors(v)) {
      const std::size_t jk = static_cast<std::size_t>(u) * n2 + s2;
      if (!joint_b.test(jk)) continue;
      bool alive = false;
      for (const StateId t2 : m2.successors(s2))
        if (md_of(u, t2) < kInf) {
          alive = true;
          break;
        }
      if (!alive) joint_b.reset(jk);
    }
    for (const StateId s : m1.predecessors(u)) {
      const std::size_t jk = static_cast<std::size_t>(s) * n2 + v;
      if (!joint_c.test(jk)) continue;
      bool alive = false;
      for (const StateId t : m1.successors(s))
        if (md_of(t, v) < kInf) {
          alive = true;
          break;
        }
      if (!alive) joint_c.reset(jk);
    }
  };

  {
    ICTL_PROFILE("bisim", "degree_fixpoint");
    bool changed = true;
    std::uint64_t scanned = 0;
    while (changed) {
      changed = false;
      ++result.iterations;
      rt::charge_iteration("bisim/degree_fixpoint");
      for (const std::uint64_t k : candidates) {
        // Rounds over a large candidate set can be long on their own;
        // keep the deadline responsive with a batched in-round check.
        if ((++scanned & 0xfff) == 0) rt::checkpoint("bisim/degree_fixpoint");
        std::uint64_t& entry = md[k];
        if (entry >= kInf) continue;
        const auto s = static_cast<StateId>(k / n2);
        const auto s2 = static_cast<StateId>(k % n2);

        // Minimal degree satisfying clause 2b:
        //   min( A + 1, max over s-moves of per-move cost ), where
        //   A = min over s'-moves t2 of md(s, t2)   (first disjunct), and the
        //   per-move cost of s->t is 0 when t pairs with some s'-move, else
        //   md(t, s2) + 1 (t stays against s2, consuming one degree).
        std::uint64_t stay_b = kInf;  // A + 1
        for (const StateId t2 : m2.successors(s2))
          stay_b = std::min(stay_b, md_of(s, t2) >= kInf ? kInf : md_of(s, t2) + 1);
        std::uint64_t all_b = 0;
        for (const StateId t : m1.successors(s)) {
          if (joint_b.test(static_cast<std::size_t>(t) * n2 + s2)) continue;
          const std::uint64_t cost = md_of(t, s2) >= kInf ? kInf : md_of(t, s2) + 1;
          all_b = std::max(all_b, cost);
        }
        const std::uint64_t need_b = std::min(stay_b, all_b);

        // Mirror for clause 2c.
        std::uint64_t stay_c = kInf;
        for (const StateId t : m1.successors(s))
          stay_c = std::min(stay_c, md_of(t, s2) >= kInf ? kInf : md_of(t, s2) + 1);
        std::uint64_t all_c = 0;
        for (const StateId t2 : m2.successors(s2)) {
          if (joint_c.test(static_cast<std::size_t>(s) * n2 + t2)) continue;
          const std::uint64_t cost = md_of(s, t2) >= kInf ? kInf : md_of(s, t2) + 1;
          all_c = std::max(all_c, cost);
        }
        const std::uint64_t need_c = std::min(stay_c, all_c);

        const std::uint64_t need = std::max({entry, need_b, need_c});
        if (need != entry) {
          entry = need > cap ? kInf : need;
          if (entry >= kInf) on_death(s, s2);
          changed = true;
        }
      }
    }
    ICTL_SPAN_ARG("iterations", result.iterations);
  }

  std::size_t surviving = 0;
  for (const std::uint64_t k : candidates)
    if (md[k] < kInf) ++surviving;
  result.surviving_pairs = surviving;
  ICTL_SPAN_ARG("surviving", surviving);

  const std::uint64_t init_md = md_of(m1.initial(), m2.initial());
  if (init_md >= kInf) return result;  // no correspondence

  CorrespondenceRelation relation(m1, m2);
  for (const std::uint64_t k : candidates) {
    if (md[k] >= kInf) continue;
    relation.add(static_cast<StateId>(k / n2), static_cast<StateId>(k % n2),
                 static_cast<std::uint32_t>(md[k]));
  }
  result.relation = std::move(relation);
  return result;
}

}  // namespace ictl::bisim::naive
