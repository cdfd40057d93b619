#include "mc/explicit_ops.hpp"

#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "support/error.hpp"

namespace ictl::mc {

using Set = ExplicitStateOps::Set;

ExplicitStateOps::ExplicitStateOps(const kripke::Structure& m) : m_(m) {
  support::require<ModelError>(m.is_total(),
                               "CtlChecker: transition relation must be total");
  // Pre-size the scratch arena so the fixpoint primitives never allocate:
  // the worklist holds each state at most once per eu/eg call.
  worklist_.reserve(m.num_states());
  succ_in_count_.reserve(m.num_states());
}

Set ExplicitStateOps::top() const {
  Set s(m_.num_states());
  s.set_all();
  return s;
}

Set ExplicitStateOps::bottom() const { return Set(m_.num_states()); }

Set ExplicitStateOps::prop(kripke::PropId p) const { return m_.states_with(p); }

Set ExplicitStateOps::exactly_one(std::span<const kripke::PropId> members) const {
  // Word-parallel exactly-one over the member columns: `ones` accumulates
  // states holding >= 1 member, `twos` states holding >= 2; the answer is
  // ones & ~twos, computed 64 states per word op.
  Set ones(m_.num_states());
  Set twos(m_.num_states());
  const auto ones_w = ones.mutable_words();
  const auto twos_w = twos.mutable_words();
  for (const kripke::PropId p : members) {
    const auto col_w = m_.states_with(p).words();
    for (std::size_t w = 0; w < ones_w.size(); ++w) {
      twos_w[w] |= ones_w[w] & col_w[w];
      ones_w[w] |= col_w[w];
    }
  }
  for (std::size_t w = 0; w < ones_w.size(); ++w) ones_w[w] &= ~twos_w[w];
  return ones;
}

Set ExplicitStateOps::complement(const Set& s) const {
  Set r = s;
  r.flip();
  return r;
}

Set ExplicitStateOps::conj(const Set& a, const Set& b) const { return a & b; }

Set ExplicitStateOps::disj(const Set& a, const Set& b) const { return a | b; }

Set ExplicitStateOps::iff(const Set& a, const Set& b) const {
  Set r = a;
  r ^= b;
  r.flip();
  return r;
}

Set ExplicitStateOps::ex(const Set& f) const {
  Set s(m_.num_states());
  m_.pre_image(f, s);
  return s;
}

Set ExplicitStateOps::eu(const Set& f, const Set& g) {
  ICTL_PROFILE("mc", "eu_fixpoint");
  Set result = g;
  worklist_.clear();
  g.for_each([&](std::size_t s) {
    worklist_.push_back(static_cast<kripke::StateId>(s));
  });
  std::size_t head = 0;
  while (head < worklist_.size()) {
    // Batched checkpoint, the loop's entry one at head 0: one pop is a
    // handful of loads, so the deadline/work check amortizes over 4096.
    if ((head & 0xfff) == 0) rt::checkpoint("mc/eu_fixpoint", 0x1000);
    const kripke::StateId s = worklist_[head++];
    for (const kripke::StateId p : m_.predecessors(s)) {
      if (!result.test(p) && f.test(p)) {
        result.set(p);
        worklist_.push_back(p);
      }
    }
  }
  last_iterations_ = head;
  ICTL_SPAN_ARG("worklist_pops", head);
  return result;
}

Set ExplicitStateOps::eg(const Set& f) {
  // Greatest fixpoint of X = f & EX X by elimination: start from X = f and
  // maintain, for every state still in X, the number of its successors
  // inside X.  States whose count reaches zero leave X, decrementing only
  // their predecessors' counts.
  ICTL_PROFILE("mc", "eg_fixpoint");
  const std::size_t n = m_.num_states();
  Set x = f;
  succ_in_count_.assign(n, 0);
  worklist_.clear();
  x.for_each([&](std::size_t s) {
    std::uint32_t count = 0;
    for (const kripke::StateId t :
         m_.successors(static_cast<kripke::StateId>(s)))
      count += x.test(t) ? 1 : 0;
    succ_in_count_[s] = count;
    if (count == 0) worklist_.push_back(static_cast<kripke::StateId>(s));
  });
  // Seed removals after the counting scan so every count is exact w.r.t. f.
  for (const kripke::StateId s : worklist_) x.reset(s);
  std::size_t head = 0;
  while (head < worklist_.size()) {
    if ((head & 0xfff) == 0) rt::checkpoint("mc/eg_fixpoint", 0x1000);
    const kripke::StateId s = worklist_[head++];
    for (const kripke::StateId p : m_.predecessors(s)) {
      // Invariant: states in x have count > 0, so the decrement is safe.
      if (x.test(p) && --succ_in_count_[p] == 0) {
        x.reset(p);
        worklist_.push_back(p);
      }
    }
  }
  last_iterations_ = head;
  ICTL_SPAN_ARG("eliminated", head);
  return x;
}

}  // namespace ictl::mc
