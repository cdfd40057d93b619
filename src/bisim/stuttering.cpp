#include "bisim/stuttering.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "support/error.hpp"

namespace ictl::bisim {
namespace {

using kripke::StateId;

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// One structure, or the disjoint union of two read in place: the states of
/// `b`, when given, are numbered after those of `a`.
struct UnionView {
  const kripke::Structure& a;
  const kripke::Structure* b;  // nullptr: `a` alone

  [[nodiscard]] std::size_t num_states() const {
    return a.num_states() + (b != nullptr ? b->num_states() : 0);
  }

  /// The successors of `s`: one structure's CSR row, and the shift that
  /// numbers its targets in the union.
  [[nodiscard]] std::pair<std::span<const StateId>, StateId> successors(StateId s) const {
    const auto shift = static_cast<StateId>(a.num_states());
    if (s < shift) return {a.successors(s), 0};
    return {b->successors(s - shift), shift};
  }
};

/// Interned exit signature of every state under partition `p`: the blocks
/// other than its own that the state reaches by an inert run (transitions
/// inside its block) and one exiting transition, plus, when
/// `divergence_sensitive`, a marker no block id equals if some inert run
/// goes on forever.  See stuttering.hpp for the one-pass scheme.
///
/// This Tarjan pass is its own, not kripke::strongly_connected_components:
/// it follows only inert edges, interns each component's signature from
/// Tarjan's stack as the component closes, and checkpoints every 4096
/// states — and it is the hot path of every Theorem 5 certificate.  A
/// shared pass would have to branch on its caller for each of these.
std::vector<std::uint32_t> signature_ids(const UnionView& g, const Partition& p,
                                         bool divergence_sensitive) {
  const std::size_t n = g.num_states();
  const auto marker = static_cast<std::uint32_t>(p.num_blocks());
  SignatureInterner signatures;
  std::vector<std::uint32_t> sig_of(n, kNone);  // kNone until the state's component closes
  std::vector<std::uint32_t> index(n, kNone);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<StateId> open;  // Tarjan's stack
  struct Frame {
    StateId s;
    std::uint32_t next;  // next successor to scan
  };
  std::vector<Frame> frames;
  std::vector<std::uint32_t> merged;
  std::vector<std::uint32_t> merged_into;  // signature id -> last component that merged it
  std::uint32_t next_index = 0;
  std::uint32_t components = 0;

  // Pops the component rooted at `root` and gives its members one
  // signature.  An inert edge to an open state stays inside the component
  // (an inert cycle); any other inert edge enters a closed component, whose
  // signature is final.
  auto close = [&](StateId root) {
    std::size_t first = open.size();
    do --first;
    while (open[first] != root);
    merged.clear();
    merged_into.resize(signatures.size(), kNone);
    bool cycle = false;
    for (std::size_t k = first; k < open.size(); ++k) {
      const StateId u = open[k];
      const auto [targets, shift] = g.successors(u);
      for (const StateId target : targets) {
        const StateId t = target + shift;
        if (!p.same_block(u, t)) {
          merged.push_back(p.block_of(t));
        } else if (sig_of[t] == kNone) {
          cycle = true;
        } else if (merged_into[sig_of[t]] != components) {
          merged_into[sig_of[t]] = components;
          const auto child = signatures[sig_of[t]];
          merged.insert(merged.end(), child.begin(), child.end());
        }
      }
    }
    if (cycle && divergence_sensitive) merged.push_back(marker);
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    const std::uint32_t id = signatures.intern(merged);
    for (std::size_t k = first; k < open.size(); ++k) sig_of[open[k]] = id;
    open.resize(first);
    ++components;
  };

  auto enter = [&](StateId s) {
    if ((next_index & 0xfff) == 0xfff) rt::checkpoint("bisim/stutter_signatures");
    index[s] = low[s] = next_index++;
    open.push_back(s);
    frames.push_back({s, 0});
  };

  for (StateId root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    enter(root);
    while (!frames.empty()) {
      const StateId s = frames.back().s;
      const auto [targets, shift] = g.successors(s);
      if (frames.back().next < targets.size()) {
        const StateId t = targets[frames.back().next++] + shift;
        if (!p.same_block(s, t)) continue;
        if (index[t] == kNone)
          enter(t);
        else if (sig_of[t] == kNone)
          low[s] = std::min(low[s], index[t]);
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) low[frames.back().s] = std::min(low[frames.back().s], low[s]);
      if (low[s] == index[s]) close(s);
    }
  }
  return sig_of;
}

Partition refine_stuttering(const UnionView& g, Partition p, StutteringOptions options) {
  [[maybe_unused]] std::uint64_t rounds = 0;
  bool split = true;
  while (split) {
    ++rounds;
    rt::charge_iteration("bisim/stutter_refine");
    const std::vector<std::uint32_t> ids = signature_ids(g, p, options.divergence_sensitive);
    split = p.refine(ids);
  }
  ICTL_COUNT_ADD("bisim", "stutter_rounds", rounds);
  return p;
}

}  // namespace

Partition stuttering_partition(const kripke::Structure& m, StutteringOptions options) {
  return refine_stuttering(UnionView{m, nullptr}, Partition::by_labels(m), options);
}

Partition stuttering_partition(const kripke::Structure& a, const kripke::Structure& b,
                               StutteringOptions options) {
  support::require<ModelError>(a.registry() == b.registry(),
                               "stuttering_partition: structures must share a registry");
  return refine_stuttering(UnionView{a, &b}, Partition::by_labels(a, b), options);
}

bool stuttering_equivalent(const kripke::Structure& a, const kripke::Structure& b,
                           StutteringOptions options) {
  const Partition p = stuttering_partition(a, b, options);
  const kripke::StateId b_initial =
      static_cast<kripke::StateId>(a.num_states()) + b.initial();
  return p.same_block(a.initial(), b_initial);
}

}  // namespace ictl::bisim
