// Strongly connected components (Tarjan) over any graph with dense vertex
// ids, given as a vertex count and a successor function — the one pass
// behind kripke structures and mc's fair-cycle product.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "kripke/structure.hpp"
#include "support/error.hpp"

namespace ictl::kripke {

/// Strongly connected components in reverse topological order (Tarjan).
/// Component ids are dense; `component_of[s]` gives the id of s's SCC.
struct SccDecomposition {
  std::vector<std::vector<StateId>> components;  // reverse topological order
  std::vector<std::uint32_t> component_of;

  /// True when the component is a cycle-carrying SCC: more than one state, or
  /// a single state with a self-loop.  `successors` is the graph's successor
  /// function, as passed to strongly_connected_components.
  template <class Successors>
  [[nodiscard]] bool is_nontrivial(const Successors& successors, std::uint32_t c) const {
    ICTL_ASSERT(c < components.size());
    const auto& comp = components[c];
    if (comp.size() > 1) return true;
    const auto& succ = successors(comp.front());
    return std::find(succ.begin(), succ.end(), comp.front()) != succ.end();
  }
};

/// Iterative Tarjan over vertices 0..n-1; `successors(v)` returns a range of
/// v's successor ids.
template <class Successors>
[[nodiscard]] SccDecomposition strongly_connected_components(std::size_t n,
                                                             const Successors& successors) {
  constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<StateId> scc_stack;
  SccDecomposition out;
  out.component_of.assign(n, kUnvisited);

  struct Frame {
    StateId state;
    std::size_t next_child;
  };
  std::uint32_t next_index = 0;
  std::vector<Frame> call_stack;

  for (StateId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const StateId v = frame.state;
      const auto& succ = successors(v);
      if (frame.next_child < succ.size()) {
        const StateId w = succ[frame.next_child++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          std::vector<StateId> comp;
          StateId w;
          do {
            w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            out.component_of[w] = static_cast<std::uint32_t>(out.components.size());
            comp.push_back(w);
          } while (w != v);
          out.components.push_back(std::move(comp));
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const StateId parent = call_stack.back().state;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  return out;
}

[[nodiscard]] inline SccDecomposition strongly_connected_components(const Structure& m) {
  return strongly_connected_components(m.num_states(),
                                       [&m](StateId s) { return m.successors(s); });
}

}  // namespace ictl::kripke
