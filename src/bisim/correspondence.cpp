#include "bisim/correspondence.hpp"

#include <algorithm>
#include <bit>

#include "bisim/stuttering.hpp"
#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "support/bitset.hpp"
#include "support/error.hpp"

namespace ictl::bisim {

using kripke::StateId;

CorrespondenceRelation::CorrespondenceRelation(const kripke::Structure& m1,
                                               const kripke::Structure& m2)
    : CorrespondenceRelation(
          m1, m2, std::vector<std::uint32_t>(m1.num_states() * m2.num_states(), kNoDegree),
          0) {}

CorrespondenceRelation::CorrespondenceRelation(const kripke::Structure& m1,
                                               const kripke::Structure& m2,
                                               std::vector<std::uint32_t> degrees,
                                               std::size_t num_pairs)
    : m1_(&m1), m2_(&m2), degree_(std::move(degrees)), num_pairs_(num_pairs) {
  support::require<ModelError>(m1.registry() == m2.registry(),
                               "CorrespondenceRelation: structures must share a "
                               "proposition registry");
  ICTL_ASSERT(degree_.size() == m1.num_states() * m2.num_states());
}

void CorrespondenceRelation::add(StateId s, StateId s2, std::uint32_t degree) {
  support::require<ModelError>(s < m1_->num_states() && s2 < m2_->num_states(),
                               "CorrespondenceRelation::add: state out of range");
  support::require<ModelError>(degree != kNoDegree,
                               "CorrespondenceRelation::add: invalid degree");
  std::uint32_t& entry = degree_[key(s, s2)];
  if (entry == kNoDegree) ++num_pairs_;
  entry = std::min(entry, degree);
}

bool CorrespondenceRelation::related(StateId s, StateId s2) const {
  return min_degree(s, s2).has_value();
}

std::optional<std::uint32_t> CorrespondenceRelation::min_degree(StateId s,
                                                                StateId s2) const {
  if (s >= m1_->num_states() || s2 >= m2_->num_states()) return std::nullopt;
  const std::uint32_t d = degree_[key(s, s2)];
  if (d == kNoDegree) return std::nullopt;
  return d;
}

std::vector<std::tuple<StateId, StateId, std::uint32_t>>
CorrespondenceRelation::entries() const {
  std::vector<std::tuple<StateId, StateId, std::uint32_t>> out;
  out.reserve(num_pairs_);
  for_each_pair([&](StateId s, StateId s2, std::uint32_t d) { out.emplace_back(s, s2, d); });
  return out;
}

bool labels_equal(const kripke::Structure& m1, StateId s, const kripke::Structure& m2,
                  StateId s2) {
  // Widths can differ when the shared registry grew between builds; compare
  // word-parallel and width-agnostically (no allocation: this runs O(n1*n2)
  // times during candidate generation).
  return m1.label(s).same_bits(m2.label(s2));
}

bool CorrespondenceRelation::clause_2b(StateId s, StateId s2, std::uint32_t k) const {
  // First disjunct: s' can advance while s stays, with a strictly smaller
  // degree:  ∃s1' in succ(s2): min_degree(s, s1') < k.
  for (const StateId t2 : m2_->successors(s2)) {
    if (const auto d = min_degree(s, t2); d.has_value() && *d < k) return true;
  }
  // Second disjunct: every move of s is answered.
  for (const StateId t : m1_->successors(s)) {
    if (const auto d = min_degree(t, s2); d.has_value() && *d < k) continue;
    bool matched = false;
    for (const StateId t2 : m2_->successors(s2)) {
      if (related(t, t2)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

bool CorrespondenceRelation::clause_2c(StateId s, StateId s2, std::uint32_t k) const {
  for (const StateId t : m1_->successors(s)) {
    if (const auto d = min_degree(t, s2); d.has_value() && *d < k) return true;
  }
  for (const StateId t2 : m2_->successors(s2)) {
    if (const auto d = min_degree(s, t2); d.has_value() && *d < k) continue;
    bool matched = false;
    for (const StateId t : m1_->successors(s)) {
      if (related(t, t2)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

std::vector<CorrespondenceRelation::Violation> CorrespondenceRelation::validate(
    std::size_t max_violations) const {
  std::vector<Violation> violations;
  auto report = [&](StateId s, StateId s2, std::uint32_t degree, std::string reason) {
    if (violations.size() < max_violations)
      violations.push_back({s, s2, degree, std::move(reason)});
  };

  // Clause 1: initial states related.
  if (!related(m1_->initial(), m2_->initial()))
    report(m1_->initial(), m2_->initial(), 0,
           "clause 1: initial states are not related");

  // Totality for both state spaces.
  {
    std::vector<bool> hit1(m1_->num_states(), false), hit2(m2_->num_states(), false);
    for_each_pair([&](StateId s, StateId s2, std::uint32_t) {
      hit1[s] = true;
      hit2[s2] = true;
    });
    for (StateId s = 0; s < m1_->num_states(); ++s)
      if (!hit1[s]) report(s, 0, 0, "totality: state of M unrelated to every state of M'");
    for (StateId s2 = 0; s2 < m2_->num_states(); ++s2)
      if (!hit2[s2])
        report(0, s2, 0, "totality: state of M' unrelated to every state of M");
  }

  // Clauses 2a/2b/2c for every recorded (minimal-degree) triple.
  for_each_pair([&](StateId s, StateId s2, std::uint32_t degree) {
    if (violations.size() >= max_violations) return;
    if (!labels_equal(*m1_, s, *m2_, s2))
      report(s, s2, degree, "clause 2a: labels differ");
    if (!clause_2b(s, s2, degree)) report(s, s2, degree, "clause 2b fails");
    if (!clause_2c(s, s2, degree)) report(s, s2, degree, "clause 2c fails");
  });
  return violations;
}

FindResult find_correspondence(const kripke::Structure& m1, const kripke::Structure& m2,
                               FindOptions options) {
  support::require<ModelError>(
      m1.registry() == m2.registry(),
      "find_correspondence: structures must share a proposition registry");

  ICTL_PROFILE("bisim", "find_correspondence");
  FindResult result;
  const std::size_t n1 = m1.num_states();
  const std::size_t n2 = m2.num_states();
  // Degrees are 32-bit and kNoDegree marks a dead pair, so the cap stays
  // below the sentinel: a degree past the cap is exactly a dead pair.
  const auto cap = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      options.degree_cap != 0 ? options.degree_cap : static_cast<std::uint64_t>(n1) + n2,
      kNoDegree - 1));
  auto key = [n2](StateId s, StateId s2) { return static_cast<std::size_t>(s) * n2 + s2; };

  // md[key(s, s2)] = current lower bound on the minimal degree; kNoDegree =
  // dead.  It becomes the relation's degree table at the end.
  std::vector<std::uint32_t> md(n1 * n2, kNoDegree);

  // Pairs to evaluate in the next sweep, as a bitset over keys.  Dead pairs
  // are never marked.
  std::vector<std::uint64_t> dirty((n1 * n2 + 63) / 64, 0);
  std::size_t num_dirty = 0;
  auto mark = [&](std::size_t k) {
    const std::uint64_t bit = std::uint64_t{1} << (k % 64);
    if (md[k] == kNoDegree || (dirty[k / 64] & bit) != 0) return;
    dirty[k / 64] |= bit;
    ++num_dirty;
  };

  // The inner "does s->t pair with some s'-move" test only depends on which
  // pairs are alive, so it is cached in two pair bitsets and maintained on
  // pair death, turning the per-pair work from O(deg1 * deg2) into
  // O(deg1 + deg2):
  //   joint_b(t, s2) = exists t2 in succ(s2) with (t, t2) alive,
  //   joint_c(s, t2) = exists t  in succ(s)  with (t, t2) alive.
  support::DynamicBitset joint_b(n1 * n2), joint_c(n1 * n2);

  // Candidate pairs: equal labels, optionally same stuttering class.  Every
  // candidate starts alive at degree 0 and dirty.
  std::vector<std::uint32_t> stutter_class;
  if (options.use_stuttering_prefilter) {
    ICTL_PROFILE("bisim", "stuttering_prefilter");
    const Partition p = stuttering_partition(m1, m2);
    stutter_class.resize(n1 + n2);
    for (StateId s = 0; s < n1 + n2; ++s) stutter_class[s] = p.block_of(s);
  }
  {
    ICTL_PROFILE("bisim", "candidate_generation");
    for (StateId t = 0; t < n1; ++t) {
      for (StateId t2 = 0; t2 < n2; ++t2) {
        if (options.use_stuttering_prefilter && stutter_class[t] != stutter_class[n1 + t2])
          continue;
        if (!labels_equal(m1, t, m2, t2)) continue;
        md[key(t, t2)] = 0;
        mark(key(t, t2));
        for (const StateId s2 : m2.predecessors(t2)) joint_b.set(key(t, s2));
        for (const StateId s : m1.predecessors(t)) joint_c.set(key(s, t2));
      }
    }
    ICTL_SPAN_ARG("candidates", num_dirty);
  }
  result.candidate_pairs = num_dirty;

  auto plus_one = [](std::uint32_t d) { return d == kNoDegree ? kNoDegree : d + 1; };

  // The pairs that read md(u, v): (u, p2) for p2 in pred(v) through their
  // s'-moves, and (p, v) for p in pred(u) through their s-moves.
  auto mark_readers = [&](StateId u, StateId v) {
    for (const StateId p2 : m2.predecessors(v)) mark(key(u, p2));
    for (const StateId p : m1.predecessors(u)) mark(key(p, v));
  };

  auto on_death = [&](StateId u, StateId v) {
    // Recompute the joint flags that listed (u, v) as a witness.  A cleared
    // flag dirties the pairs that read it.
    for (const StateId s2 : m2.predecessors(v)) {
      if (!joint_b.test(key(u, s2))) continue;
      const auto moves = m2.successors(s2);
      if (std::any_of(moves.begin(), moves.end(),
                      [&](StateId t2) { return md[key(u, t2)] != kNoDegree; }))
        continue;
      joint_b.reset(key(u, s2));
      for (const StateId p : m1.predecessors(u)) mark(key(p, s2));
    }
    for (const StateId s : m1.predecessors(u)) {
      if (!joint_c.test(key(s, v))) continue;
      const auto moves = m1.successors(s);
      if (std::any_of(moves.begin(), moves.end(),
                      [&](StateId t) { return md[key(t, v)] != kNoDegree; }))
        continue;
      joint_c.reset(key(s, v));
      for (const StateId p2 : m2.predecessors(v)) mark(key(s, p2));
    }
  };

  // Raises md(s, s2) to the least degree the Section 3 clauses allow given
  // the current table.
  auto evaluate = [&](StateId s, StateId s2) {
    std::uint32_t& entry = md[key(s, s2)];
    // Minimal degree satisfying clause 2b:
    //   min( A + 1, max over s-moves of per-move cost ), where
    //   A = min over s'-moves t2 of md(s, t2)   (first disjunct), and the
    //   per-move cost of s->t is 0 when t pairs with some s'-move, else
    //   md(t, s2) + 1 (t stays against s2, consuming one degree).
    std::uint32_t stay_b = kNoDegree;  // A + 1
    for (const StateId t2 : m2.successors(s2))
      stay_b = std::min(stay_b, plus_one(md[key(s, t2)]));
    std::uint32_t all_b = 0;
    for (const StateId t : m1.successors(s))
      if (!joint_b.test(key(t, s2))) all_b = std::max(all_b, plus_one(md[key(t, s2)]));

    // Mirror for clause 2c.
    std::uint32_t stay_c = kNoDegree;
    for (const StateId t : m1.successors(s))
      stay_c = std::min(stay_c, plus_one(md[key(t, s2)]));
    std::uint32_t all_c = 0;
    for (const StateId t2 : m2.successors(s2))
      if (!joint_c.test(key(s, t2))) all_c = std::max(all_c, plus_one(md[key(s, t2)]));

    const std::uint32_t need =
        std::max({entry, std::min(stay_b, all_b), std::min(stay_c, all_c)});
    if (need == entry) return;
    entry = need > cap ? kNoDegree : need;
    mark_readers(s, s2);
    if (entry == kNoDegree) on_death(s, s2);
  };

  // Least fixpoint of the degrees (greatest for the relation): raise each
  // pair's degree until the Section 3 clauses hold; pairs past the cap die.
  // Degrees only grow and every update is monotone, so any fair evaluation
  // order reaches the same table.
  //
  // Each round is the batched sweep over the candidates restricted to the
  // dirty pairs: those that read a degree or a joint flag (on_death clears
  // them) that changed since their last evaluation.  The sweep takes keys in
  // ascending order; a pair marked ahead of it is evaluated in the same
  // round, one marked at or behind it in the next.  So a pair is evaluated
  // at most once per round, and only when an input changed.  A pair-level
  // worklist was tried and lost to the full sweep: degrees creep up one
  // unit at a time, and a queue re-examines a pair once per unit its inputs
  // rise.  The dirty sweep keeps the full sweep's batching (marking a pair
  // again in the same round is free) and drops its waste, re-evaluating
  // pairs whose inputs did not change.
  {
    ICTL_PROFILE("bisim", "degree_fixpoint");
    [[maybe_unused]] std::uint64_t evaluations = 0;
    while (num_dirty != 0) {
      ++result.iterations;
      rt::charge_iteration("bisim/degree_fixpoint");
      for (std::size_t w = 0; w < dirty.size(); ++w) {
        std::uint64_t ahead = ~std::uint64_t{0};  // bits of word w not yet swept
        while ((dirty[w] & ahead) != 0) {
          const int bit = std::countr_zero(dirty[w] & ahead);
          dirty[w] &= ~(std::uint64_t{1} << bit);
          ahead = bit == 63 ? 0 : ~std::uint64_t{0} << (bit + 1);
          --num_dirty;
          const std::size_t k = w * 64 + static_cast<std::size_t>(bit);
          // A long round keeps the deadline responsive with a batched check.
          if ((++evaluations & 0xfff) == 0) rt::checkpoint("bisim/degree_fixpoint");
          evaluate(static_cast<StateId>(k / n2), static_cast<StateId>(k % n2));
        }
      }
    }
    ICTL_COUNT_ADD("bisim", "pair_evaluations", evaluations);
    ICTL_COUNT_ADD("bisim", "degree_rounds", result.iterations);
    ICTL_SPAN_ARG("iterations", result.iterations);
  }

  const auto surviving = static_cast<std::size_t>(
      std::count_if(md.begin(), md.end(), [](std::uint32_t d) { return d != kNoDegree; }));
  result.surviving_pairs = surviving;
  ICTL_SPAN_ARG("surviving", surviving);

  if (md[key(m1.initial(), m2.initial())] == kNoDegree) return result;  // no correspondence
  result.relation = CorrespondenceRelation(m1, m2, std::move(md), surviving);
  return result;
}

bool correspond(const kripke::Structure& m1, const kripke::Structure& m2,
                FindOptions options) {
  return find_correspondence(m1, m2, options).relation.has_value();
}

}  // namespace ictl::bisim
