#include "kripke/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "../helpers.hpp"

namespace ictl::kripke {
namespace {

Structure chain_with_cycle(PropRegistryPtr reg) {
  // 0 -> 1 -> 2 -> 3 -> 2 (cycle at the end), 0 -> 4 -> 4.
  StructureBuilder b(reg);
  for (int i = 0; i < 5; ++i) b.add_state({});
  b.add_transition(0, 1);
  b.add_transition(1, 2);
  b.add_transition(2, 3);
  b.add_transition(3, 2);
  b.add_transition(0, 4);
  b.add_transition(4, 4);
  b.set_initial(0);
  return std::move(b).build();
}

TEST(Scc, FindsComponentsInReverseTopologicalOrder) {
  auto reg = make_registry();
  const Structure m = chain_with_cycle(reg);
  const SccDecomposition scc = strongly_connected_components(m);
  // Components: {2,3} cycle, {4} self-loop, {0}, {1} singletons.
  EXPECT_EQ(scc.components.size(), 4u);
  EXPECT_EQ(scc.component_of[2], scc.component_of[3]);
  EXPECT_NE(scc.component_of[0], scc.component_of[1]);
  // Reverse topological: a successor's component appears before its
  // predecessor's.
  EXPECT_LT(scc.component_of[2], scc.component_of[1]);
  EXPECT_LT(scc.component_of[1], scc.component_of[0]);
}

TEST(Scc, NontrivialDetection) {
  auto reg = make_registry();
  const Structure m = chain_with_cycle(reg);
  const SccDecomposition scc = strongly_connected_components(m);
  const auto succ = [&m](StateId s) { return m.successors(s); };
  EXPECT_TRUE(scc.is_nontrivial(succ, scc.component_of[2]));   // 2-cycle
  EXPECT_TRUE(scc.is_nontrivial(succ, scc.component_of[4]));   // self-loop
  EXPECT_FALSE(scc.is_nontrivial(succ, scc.component_of[0]));  // no loop
}

TEST(Scc, WholeGraphStronglyConnected) {
  auto reg = make_registry();
  const Structure m = testing::two_state_loop(reg);
  const SccDecomposition scc = strongly_connected_components(m);
  EXPECT_EQ(scc.components.size(), 1u);
  EXPECT_TRUE(scc.is_nontrivial([&m](StateId s) { return m.successors(s); }, 0));
}

TEST(Scc, RunsOverAnySuccessorFunction) {
  // Adjacency lists with no Structure behind them, as mc's product graph:
  // 0 -> 1 -> 2 -> 0 (a cycle), 2 -> 3, 3 -> 3 (a self-loop), 4 isolated.
  const std::vector<std::vector<std::uint32_t>> adj = {{1}, {2}, {0, 3}, {3}, {}};
  const auto succ = [&adj](std::uint32_t v) -> const std::vector<std::uint32_t>& {
    return adj[v];
  };
  const SccDecomposition scc = strongly_connected_components(adj.size(), succ);
  EXPECT_EQ(scc.components.size(), 3u);
  EXPECT_EQ(scc.component_of[0], scc.component_of[1]);
  EXPECT_EQ(scc.component_of[0], scc.component_of[2]);
  EXPECT_LT(scc.component_of[3], scc.component_of[0]);
  EXPECT_TRUE(scc.is_nontrivial(succ, scc.component_of[0]));
  EXPECT_TRUE(scc.is_nontrivial(succ, scc.component_of[3]));
  EXPECT_FALSE(scc.is_nontrivial(succ, scc.component_of[4]));
}

class RandomStructureSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomStructureSweep, SccPartitionsAllStates) {
  auto reg = make_registry();
  const Structure m = testing::random_structure(reg, 60, GetParam());
  const SccDecomposition scc = strongly_connected_components(m);
  std::size_t total = 0;
  for (const auto& comp : scc.components) total += comp.size();
  EXPECT_EQ(total, m.num_states());
  for (StateId s = 0; s < m.num_states(); ++s) {
    ASSERT_LT(scc.component_of[s], scc.components.size());
    const auto& comp = scc.components[scc.component_of[s]];
    EXPECT_NE(std::find(comp.begin(), comp.end(), s), comp.end());
  }
}

TEST_P(RandomStructureSweep, SccsAreTheMutualReachabilityClasses) {
  // s and t share a component iff each reaches the other, by a test-local
  // depth-first closure from every state.
  auto reg = make_registry();
  const Structure m = testing::random_structure(reg, 40, GetParam());
  const std::size_t n = m.num_states();
  std::vector<std::vector<bool>> reaches(n, std::vector<bool>(n, false));
  for (StateId s = 0; s < n; ++s) {
    std::vector<StateId> stack = {s};
    reaches[s][s] = true;
    while (!stack.empty()) {
      const StateId u = stack.back();
      stack.pop_back();
      for (const StateId t : m.successors(u)) {
        if (reaches[s][t]) continue;
        reaches[s][t] = true;
        stack.push_back(t);
      }
    }
  }
  const SccDecomposition scc = strongly_connected_components(m);
  for (StateId s = 0; s < n; ++s)
    for (StateId t = 0; t < n; ++t)
      EXPECT_EQ(scc.component_of[s] == scc.component_of[t], reaches[s][t] && reaches[t][s])
          << "states " << s << ", " << t;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStructureSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 11u, 42u));

}  // namespace
}  // namespace ictl::kripke
