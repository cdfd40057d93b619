#include "kripke/structure.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace ictl::kripke {

bool Structure::is_total() const noexcept {
  for (std::size_t s = 0; s + 1 < succ_offsets_.size(); ++s)
    if (succ_offsets_[s] == succ_offsets_[s + 1]) return false;
  return true;
}

std::vector<PropId> Structure::used_props() const {
  std::vector<PropId> out;
  for (PropId p = 0; p < columns_.size(); ++p)
    if (columns_[p].any()) out.push_back(p);
  return out;
}

void Structure::pre_image(const support::DynamicBitset& set,
                          support::DynamicBitset& out) const {
  ICTL_ASSERT(set.size() == num_states());
  ICTL_ASSERT(out.size() == num_states());
  ICTL_ASSERT(&set != &out);
  // Counter only — this is the explicit engine's innermost kernel, called
  // once per EX; timing lives in the evaluator's per-opcode spans.
  ICTL_COUNT("kripke", "pre_images");
  out.reset_all();
  set.for_each([&](std::size_t t) {
    const std::uint32_t begin = pred_offsets_[t];
    const std::uint32_t end = pred_offsets_[t + 1];
    for (std::uint32_t i = begin; i != end; ++i) out.set(pred_flat_[i]);
  });
}

void Structure::post_image(const support::DynamicBitset& set,
                           support::DynamicBitset& out) const {
  ICTL_ASSERT(set.size() == num_states());
  ICTL_ASSERT(out.size() == num_states());
  ICTL_ASSERT(&set != &out);
  ICTL_COUNT("kripke", "post_images");
  out.reset_all();
  set.for_each([&](std::size_t s) {
    const std::uint32_t begin = succ_offsets_[s];
    const std::uint32_t end = succ_offsets_[s + 1];
    for (std::uint32_t i = begin; i != end; ++i) out.set(succ_flat_[i]);
  });
}

StructureBuilder::StructureBuilder(PropRegistryPtr registry)
    : registry_(std::move(registry)) {
  support::require<ModelError>(registry_ != nullptr,
                               "StructureBuilder: registry must not be null");
}

StateId StructureBuilder::add_state(std::span<const PropId> props) {
  const StateId id = static_cast<StateId>(states_.size());
  PendingState st;
  st.props.assign(props.begin(), props.end());
  states_.push_back(std::move(st));
  return id;
}

StateId StructureBuilder::add_state(std::initializer_list<PropId> props) {
  return add_state(std::span<const PropId>(props.begin(), props.size()));
}

StateId StructureBuilder::add_state(std::vector<PropId>&& props) {
  const StateId id = static_cast<StateId>(states_.size());
  PendingState st;
  st.props = std::move(props);
  states_.push_back(std::move(st));
  return id;
}

void StructureBuilder::reserve(std::size_t states, std::size_t transitions) {
  states_.reserve(states);
  transitions_.reserve(transitions);
}

void StructureBuilder::add_transition(StateId from, StateId to) {
  support::require<ModelError>(from < states_.size() && to < states_.size(),
                               "add_transition: unknown state id");
  transitions_.emplace_back(from, to);
}

void StructureBuilder::set_initial(StateId s) {
  support::require<ModelError>(s < states_.size(), "set_initial: unknown state id");
  initial_ = s;
}

void StructureBuilder::set_name(StateId s, std::string name) {
  support::require<ModelError>(s < states_.size(), "set_name: unknown state id");
  states_[s].name = std::move(name);
}

void StructureBuilder::set_index_set(std::vector<std::uint32_t> indices) {
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  indices_ = std::move(indices);
}

Structure StructureBuilder::build(BuildOptions options) && {
  support::require<ModelError>(initial_ != kNoState,
                               "build: no initial state was set");

  Structure m;
  m.registry_ = std::move(registry_);
  m.initial_ = initial_;
  m.indices_ = std::move(indices_);

  const std::size_t n = states_.size();
  const std::size_t width = m.registry_->size();
  m.labels_.reserve(n);
  m.names_.reserve(n);
  m.columns_.assign(width, support::DynamicBitset(n));
  m.empty_column_ = support::DynamicBitset(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto& st = states_[s];
    support::DynamicBitset lab(width);
    for (PropId p : st.props) {
      support::require<ModelError>(p < width, "build: unknown proposition id");
      lab.set(p);
      m.columns_[p].set(s);
    }
    m.labels_.push_back(std::move(lab));
    m.names_.push_back(std::move(st.name));
  }

  // CSR assembly by counting sort — no global sort, no per-state vectors.
  // Successor rows are bucketed by source, sorted and deduplicated in place;
  // the predecessor CSR is then filled from the deduplicated successor rows
  // in ascending source order, which leaves its rows sorted for free.
  // Offsets are 32-bit; fail loudly rather than wrap if a construction ever
  // exceeds them (the r = 24 ring cap is past this line in theory, but such
  // a build is out of memory reach long before).
  support::require<ModelError>(
      transitions_.size() <= std::numeric_limits<std::uint32_t>::max(),
      "build: more than 2^32 transitions cannot be indexed by the CSR offsets");
  m.succ_offsets_.assign(n + 1, 0);
  for (const auto& [from, to] : transitions_) {
    static_cast<void>(to);
    ++m.succ_offsets_[from + 1];
  }
  for (std::size_t s = 0; s < n; ++s) m.succ_offsets_[s + 1] += m.succ_offsets_[s];
  m.succ_flat_.resize(transitions_.size());
  {
    std::vector<std::uint32_t> cursor(m.succ_offsets_.begin(),
                                      m.succ_offsets_.end() - 1);
    for (const auto& [from, to] : transitions_) m.succ_flat_[cursor[from]++] = to;
  }
  // Sort + dedup each row, compacting the flat array left-to-right (the
  // write cursor never overtakes the read cursor, so this is in place).
  std::uint32_t write = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t begin = m.succ_offsets_[s];
    const std::uint32_t end = m.succ_offsets_[s + 1];
    std::sort(m.succ_flat_.begin() + begin, m.succ_flat_.begin() + end);
    m.succ_offsets_[s] = write;
    for (std::uint32_t i = begin; i != end; ++i) {
      if (i != begin && m.succ_flat_[i] == m.succ_flat_[i - 1]) continue;
      m.succ_flat_[write++] = m.succ_flat_[i];
    }
  }
  m.succ_offsets_[n] = write;
  m.succ_flat_.resize(write);
  m.succ_flat_.shrink_to_fit();
  m.num_transitions_ = write;

  m.pred_offsets_.assign(n + 1, 0);
  for (const StateId to : m.succ_flat_) ++m.pred_offsets_[to + 1];
  for (std::size_t s = 0; s < n; ++s) m.pred_offsets_[s + 1] += m.pred_offsets_[s];
  m.pred_flat_.resize(write);
  {
    std::vector<std::uint32_t> cursor(m.pred_offsets_.begin(),
                                      m.pred_offsets_.end() - 1);
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint32_t begin = m.succ_offsets_[s];
      const std::uint32_t end = m.succ_offsets_[s + 1];
      for (std::uint32_t i = begin; i != end; ++i)
        m.pred_flat_[cursor[m.succ_flat_[i]]++] = static_cast<StateId>(s);
    }
  }

  if (options.require_total) {
    for (StateId s = 0; s < n; ++s)
      support::require<ModelError>(
          m.succ_offsets_[s] != m.succ_offsets_[s + 1],
          "build: transition relation is not total (state " + std::to_string(s) +
              (m.names_[s].empty() ? "" : " '" + m.names_[s] + "'") +
              " has no successor); the paper requires R to be total");
  }
  return m;
}

Structure reduce_to_index(const Structure& m, std::uint32_t i) {
  const PropRegistryPtr& reg = m.registry();
  StructureBuilder b(reg);

  // Pre-register the index-erased placeholders so label widths include them.
  std::vector<std::pair<PropId, PropId>> rename;  // (indexed prop of i, placeholder)
  for (const std::string& base : reg->indexed_bases()) {
    if (auto src = reg->find_indexed(base, i)) {
      const PropId dst = reg->indexed_base(base);
      rename.emplace_back(*src, dst);
    }
  }

  for (StateId s = 0; s < m.num_states(); ++s) {
    std::vector<PropId> props;
    m.label(s).for_each([&](std::size_t p) {
      const auto pid = static_cast<PropId>(p);
      switch (reg->kind(pid)) {
        case PropKind::kPlain:
        case PropKind::kTheta:
          props.push_back(pid);
          break;
        case PropKind::kIndexed:
          break;  // handled through `rename`
        case PropKind::kIndexedBase:
          props.push_back(pid);  // already erased (reducing a reduction)
          break;
      }
    });
    for (auto [src, dst] : rename)
      if (m.has_prop(s, src)) props.push_back(dst);
    const StateId ns = b.add_state(props);
    ICTL_ASSERT(ns == s);
    if (!m.state_name(s).empty()) b.set_name(ns, m.state_name(s));
  }
  for (StateId s = 0; s < m.num_states(); ++s)
    for (StateId t : m.successors(s)) b.add_transition(s, t);
  b.set_initial(m.initial());
  // Rebuilding through the builder normalizes label widths to the current
  // registry size, so the reduction's labels are comparable with reductions
  // of structures built at a different registry size.
  return std::move(b).build({.require_total = m.is_total()});
}

Structure restrict_to_reachable(const Structure& m, std::vector<StateId>* old_to_new) {
  std::vector<StateId> map(m.num_states(), kNoState);
  std::vector<StateId> order;
  std::queue<StateId> frontier;
  frontier.push(m.initial());
  map[m.initial()] = 0;
  order.push_back(m.initial());
  while (!frontier.empty()) {
    const StateId s = frontier.front();
    frontier.pop();
    for (StateId t : m.successors(s)) {
      if (map[t] == kNoState) {
        map[t] = static_cast<StateId>(order.size());
        order.push_back(t);
        frontier.push(t);
      }
    }
  }

  StructureBuilder b(m.registry());
  for (StateId old : order) {
    std::vector<PropId> props;
    m.label(old).for_each([&](std::size_t p) { props.push_back(static_cast<PropId>(p)); });
    const StateId ns = b.add_state(props);
    if (!m.state_name(old).empty()) b.set_name(ns, m.state_name(old));
  }
  for (StateId old : order)
    for (StateId t : m.successors(old)) b.add_transition(map[old], map[t]);
  b.set_initial(0);
  std::vector<std::uint32_t> idx(m.index_set().begin(), m.index_set().end());
  b.set_index_set(std::move(idx));
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return std::move(b).build();
}

Structure disjoint_union(const Structure& a, const Structure& b) {
  support::require<ModelError>(a.registry() == b.registry(),
                               "disjoint_union: structures must share a registry");
  // `a` and `b` may have been built at different registry sizes (labels of
  // different widths).  Copying labels as prop-id lists and rebuilding
  // normalizes every label to the current registry size, so the equivalence
  // algorithms downstream only ever compare equal-width bitsets.
  StructureBuilder builder(a.registry());
  auto copy_states = [&](const Structure& m) {
    for (StateId s = 0; s < m.num_states(); ++s) {
      std::vector<PropId> props;
      m.label(s).for_each(
          [&](std::size_t p) { props.push_back(static_cast<PropId>(p)); });
      const StateId ns = builder.add_state(props);
      if (!m.state_name(s).empty()) builder.set_name(ns, m.state_name(s));
    }
  };
  copy_states(a);
  copy_states(b);
  const auto offset = static_cast<StateId>(a.num_states());
  for (StateId s = 0; s < a.num_states(); ++s)
    for (StateId t : a.successors(s)) builder.add_transition(s, t);
  for (StateId s = 0; s < b.num_states(); ++s)
    for (StateId t : b.successors(s)) builder.add_transition(offset + s, offset + t);
  builder.set_initial(a.initial());
  return std::move(builder).build();
}

Structure materialize_theta(const Structure& m, std::string_view base) {
  const PropRegistryPtr& reg = m.registry();
  const PropId theta = reg->theta(base);
  const std::vector<PropId> members = reg->indexed_with_base(base);

  StructureBuilder b(reg);
  for (StateId s = 0; s < m.num_states(); ++s) {
    std::vector<PropId> props;
    m.label(s).for_each([&](std::size_t p) { props.push_back(static_cast<PropId>(p)); });
    std::size_t holders = 0;
    for (PropId p : members) holders += m.has_prop(s, p) ? 1 : 0;
    if (holders == 1) props.push_back(theta);
    const StateId ns = b.add_state(props);
    if (!m.state_name(s).empty()) b.set_name(ns, m.state_name(s));
  }
  for (StateId s = 0; s < m.num_states(); ++s)
    for (StateId t : m.successors(s)) b.add_transition(s, t);
  b.set_initial(m.initial());
  std::vector<std::uint32_t> idx(m.index_set().begin(), m.index_set().end());
  b.set_index_set(std::move(idx));
  // Like reduce_to_index, the rebuild normalizes label widths to the
  // current registry size (theta itself may be newly interned here).
  return std::move(b).build({.require_total = m.is_total()});
}

}  // namespace ictl::kripke
