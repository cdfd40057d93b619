#include "bisim/partition.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace ictl::bisim {
namespace {

std::uint64_t hash_signature(std::span<const std::uint32_t> signature) {
  std::uint64_t h = signature.size();
  for (const std::uint32_t v : signature) h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
  // Finalize so the low bits, which the table mask keeps, see every input bit.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

/// Interned label ids over states [0, n), blind to trailing zero words, so
/// labels of different widths with the same set bits share an id.
template <typename LabelOf>
std::vector<std::uint32_t> label_ids(std::size_t n, LabelOf label_of) {
  SignatureInterner labels;
  std::vector<std::uint32_t> ids(n);
  std::vector<std::uint32_t> halves;
  for (kripke::StateId s = 0; s < n; ++s) {
    std::span<const std::uint64_t> words = label_of(s).words();
    while (!words.empty() && words.back() == 0) words = words.first(words.size() - 1);
    halves.clear();
    for (const std::uint64_t w : words) {
      halves.push_back(static_cast<std::uint32_t>(w));
      halves.push_back(static_cast<std::uint32_t>(w >> 32));
    }
    ids[s] = labels.intern(halves);
  }
  return ids;
}

}  // namespace

std::uint32_t SignatureInterner::intern(std::span<const std::uint32_t> signature) {
  if (2 * (size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash_signature(signature) & mask;; i = (i + 1) & mask) {
    if (slots_[i] == 0) {
      const auto id = static_cast<std::uint32_t>(size());
      pool_.insert(pool_.end(), signature.begin(), signature.end());
      starts_.push_back(static_cast<std::uint32_t>(pool_.size()));
      slots_[i] = id + 1;
      return id;
    }
    if (std::ranges::equal((*this)[slots_[i] - 1], signature)) return slots_[i] - 1;
  }
}

void SignatureInterner::grow() {
  slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t id = 0; id < size(); ++id) {
    std::size_t i = hash_signature((*this)[id]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id + 1;
  }
}

Partition::Partition(std::size_t num_states) : block_of_(num_states, 0) {
  blocks_.resize(num_states == 0 ? 0 : 1);
  for (kripke::StateId s = 0; s < num_states; ++s) blocks_[0].push_back(s);
}

Partition Partition::by_labels(const kripke::Structure& m) {
  Partition p(m.num_states());
  p.refine(label_ids(m.num_states(), [&](kripke::StateId s) -> const auto& {
    return m.label(s);
  }));
  return p;
}

Partition Partition::by_labels(const kripke::Structure& a, const kripke::Structure& b) {
  const std::size_t na = a.num_states();
  Partition p(na + b.num_states());
  p.refine(label_ids(p.num_states(), [&](kripke::StateId s) -> const auto& {
    return s < na ? a.label(s) : b.label(static_cast<kripke::StateId>(s - na));
  }));
  return p;
}

bool Partition::refine(std::span<const std::uint32_t> signature_ids) {
  ICTL_ASSERT(signature_ids.size() == block_of_.size());
  // Group by (block, signature id).  The interner numbers the groups in
  // order of first encounter (state order), so block ids are deterministic.
  SignatureInterner groups;
  for (kripke::StateId s = 0; s < block_of_.size(); ++s) {
    const std::uint32_t key[2] = {block_of_[s], signature_ids[s]};
    block_of_[s] = groups.intern(key);
  }
  const bool changed = groups.size() != blocks_.size();
  rebuild_blocks(groups.size());
  return changed;
}

bool Partition::refine(const std::function<Signature(kripke::StateId)>& signature_of) {
  SignatureInterner signatures;
  std::vector<std::uint32_t> ids(block_of_.size());
  for (kripke::StateId s = 0; s < ids.size(); ++s) ids[s] = signatures.intern(signature_of(s));
  return refine(ids);
}

void Partition::refine_to_fixpoint(
    const std::function<Signature(kripke::StateId)>& signature_of) {
  while (refine(signature_of)) {
  }
}

void Partition::rebuild_blocks(std::size_t num_blocks) {
  blocks_.assign(num_blocks, {});
  for (kripke::StateId s = 0; s < block_of_.size(); ++s)
    blocks_[block_of_[s]].push_back(s);
}

}  // namespace ictl::bisim
