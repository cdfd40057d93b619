#include "mc/product.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "kripke/algorithms.hpp"
#include "rt/budget.hpp"
#include "support/error.hpp"

namespace ictl::mc {
namespace {

using kripke::StateId;
using support::DynamicBitset;

// Product node = (kripke state, gba node), interned densely.  Edges are
// accumulated as a flat (from, to) list during exploration and compiled to
// CSR afterwards — the SCC pass and the backward fair-reachability pass then
// scan contiguous rows instead of chasing per-node vectors.
struct ProductGraph {
  std::vector<std::pair<StateId, std::uint32_t>> nodes;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> roots;  // product nodes that are initial

  // CSR form of `edges` (and its transpose), built by compile().
  std::vector<std::uint32_t> succ_offsets, succ_flat;
  std::vector<std::uint32_t> pred_offsets, pred_flat;

  void compile() {
    const std::size_t pn = nodes.size();
    succ_offsets.assign(pn + 1, 0);
    pred_offsets.assign(pn + 1, 0);
    for (const auto& [from, to] : edges) {
      ++succ_offsets[from + 1];
      ++pred_offsets[to + 1];
    }
    for (std::size_t v = 0; v < pn; ++v) {
      succ_offsets[v + 1] += succ_offsets[v];
      pred_offsets[v + 1] += pred_offsets[v];
    }
    succ_flat.resize(edges.size());
    pred_flat.resize(edges.size());
    std::vector<std::uint32_t> scursor(succ_offsets.begin(), succ_offsets.end() - 1);
    std::vector<std::uint32_t> pcursor(pred_offsets.begin(), pred_offsets.end() - 1);
    for (const auto& [from, to] : edges) {
      succ_flat[scursor[from]++] = to;
      pred_flat[pcursor[to]++] = from;
    }
  }

  [[nodiscard]] std::span<const std::uint32_t> successors(std::uint32_t v) const {
    return {succ_flat.data() + succ_offsets[v], succ_offsets[v + 1] - succ_offsets[v]};
  }
  [[nodiscard]] std::span<const std::uint32_t> predecessors(std::uint32_t v) const {
    return {pred_flat.data() + pred_offsets[v], pred_offsets[v + 1] - pred_offsets[v]};
  }
};

}  // namespace

DynamicBitset exists_fair_path(const kripke::Structure& m, const Gba& gba,
                               const LeafResolver& resolve_leaf, ProductStats* stats) {
  const std::size_t n = m.num_states();

  // Compatibility set per GBA node: states satisfying all pos and no neg
  // literals.
  std::vector<DynamicBitset> compat;
  compat.reserve(gba.nodes.size());
  for (const GbaNode& node : gba.nodes) {
    DynamicBitset c(n);
    c.set_all();
    for (const auto& lit : node.pos) c &= resolve_leaf(lit);
    for (const auto& lit : node.neg) c.and_not(resolve_leaf(lit));
    compat.push_back(std::move(c));
  }

  // Lazily explore the reachable product from every compatible initial pair.
  ProductGraph g;
  std::unordered_map<std::uint64_t, std::uint32_t> ids;
  auto key = [n](StateId s, std::uint32_t q) {
    return static_cast<std::uint64_t>(q) * n + s;
  };
  auto intern = [&](StateId s, std::uint32_t q) {
    const auto [it, inserted] = ids.try_emplace(key(s, q),
                                                static_cast<std::uint32_t>(g.nodes.size()));
    if (inserted) g.nodes.emplace_back(s, q);
    return it->second;
  };

  std::vector<std::uint32_t> worklist;
  for (std::uint32_t q = 0; q < gba.nodes.size(); ++q) {
    if (!gba.nodes[q].initial) continue;
    compat[q].for_each([&](std::size_t s) {
      const std::uint32_t id = intern(static_cast<StateId>(s), q);
      g.roots.push_back(id);
    });
  }
  for (std::uint32_t id = 0; id < g.nodes.size(); ++id) worklist.push_back(id);
  std::uint64_t pops = 0;
  while (!worklist.empty()) {
    if ((++pops & 0xfff) == 0) rt::checkpoint("mc/product", 0x1000);
    const std::uint32_t id = worklist.back();
    worklist.pop_back();
    const auto [s, q] = g.nodes[id];
    for (const std::uint32_t r : gba.nodes[q].successors) {
      for (const StateId t : m.successors(s)) {
        if (!compat[r].test(t)) continue;
        const std::size_t before = g.nodes.size();
        const std::uint32_t target = intern(t, r);
        if (g.nodes.size() > before) worklist.push_back(target);
        g.edges.emplace_back(id, target);
      }
    }
  }
  g.compile();

  if (stats != nullptr) {
    stats->product_states = g.nodes.size();
    stats->product_transitions = g.edges.size();
  }

  // A component is fair when it carries a cycle and intersects every
  // acceptance set (in_set[a][q]: GBA node q lies in acceptance set a).
  const std::size_t pn = g.nodes.size();
  const auto successors = [&g](std::uint32_t v) { return g.successors(v); };
  const kripke::SccDecomposition scc = kripke::strongly_connected_components(pn, successors);
  std::vector<std::vector<bool>> in_set(gba.accepting_sets.size(),
                                        std::vector<bool>(gba.nodes.size(), false));
  for (std::size_t a = 0; a < gba.accepting_sets.size(); ++a)
    for (const std::uint32_t q : gba.accepting_sets[a]) in_set[a][q] = true;
  std::vector<bool> fair(scc.components.size(), false);
  for (std::uint32_t c = 0; c < scc.components.size(); ++c) {
    if (!scc.is_nontrivial(successors, c)) continue;
    fair[c] = std::all_of(in_set.begin(), in_set.end(), [&](const std::vector<bool>& set) {
      return std::any_of(scc.components[c].begin(), scc.components[c].end(),
                         [&](std::uint32_t v) { return set[g.nodes[v].second]; });
    });
  }
  if (stats != nullptr)
    stats->fair_sccs = static_cast<std::size_t>(
        std::count(fair.begin(), fair.end(), true));

  // Backward reachability from fair components over the predecessor CSR.
  std::vector<bool> can_reach_fair(pn, false);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t v = 0; v < pn; ++v) {
    if (fair[scc.component_of[v]] && !can_reach_fair[v]) {
      can_reach_fair[v] = true;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    for (const std::uint32_t p : g.predecessors(v)) {
      if (!can_reach_fair[p]) {
        can_reach_fair[p] = true;
        stack.push_back(p);
      }
    }
  }

  DynamicBitset result(n);
  for (const std::uint32_t root : g.roots)
    if (can_reach_fair[root]) result.set(g.nodes[root].first);
  return result;
}

}  // namespace ictl::mc
