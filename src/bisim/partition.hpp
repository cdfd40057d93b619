// Partition of a state space with signature-based refinement, the shared
// machinery of the strong-bisimulation and stuttering-equivalence
// algorithms.  Both intern each round's per-state signatures to dense ids
// (SignatureInterner) and split blocks through one path, refine(ids).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "kripke/structure.hpp"

namespace ictl::bisim {

/// Dense ids for integer sequences: equal sequences get equal ids, numbered
/// in order of first insertion.  The sequences sit back to back in one pool
/// behind an open-addressing table, so interning allocates nothing per
/// sequence.
class SignatureInterner {
 public:
  std::uint32_t intern(std::span<const std::uint32_t> signature);

  [[nodiscard]] std::span<const std::uint32_t> operator[](std::uint32_t id) const {
    return std::span<const std::uint32_t>(pool_).subspan(starts_[id],
                                                         starts_[id + 1] - starts_[id]);
  }

  [[nodiscard]] std::size_t size() const noexcept { return starts_.size() - 1; }

 private:
  void grow();

  std::vector<std::uint32_t> pool_;
  std::vector<std::uint32_t> starts_{0};  // id -> offset in pool_, plus the end
  std::vector<std::uint32_t> slots_;      // id + 1 per slot; 0 = empty
};

class Partition {
 public:
  /// All states in one block.
  explicit Partition(std::size_t num_states);

  /// Initial partition grouping states with identical label bitsets.
  [[nodiscard]] static Partition by_labels(const kripke::Structure& m);

  /// The same for the disjoint union of `a` and `b` (the states of `b`
  /// numbered after those of `a`), read in place.  Labels of different
  /// widths compare as labels_equal() does.
  [[nodiscard]] static Partition by_labels(const kripke::Structure& a,
                                           const kripke::Structure& b);

  [[nodiscard]] std::uint32_t block_of(kripke::StateId s) const {
    ICTL_ASSERT(s < block_of_.size());
    return block_of_[s];
  }

  [[nodiscard]] std::size_t num_blocks() const noexcept { return blocks_.size(); }
  [[nodiscard]] std::size_t num_states() const noexcept { return block_of_.size(); }

  [[nodiscard]] const std::vector<std::vector<kripke::StateId>>& blocks() const noexcept {
    return blocks_;
  }

  /// Signature of a state: any vector of integers; states in the same block
  /// with different signatures are separated.
  using Signature = std::vector<std::uint32_t>;

  /// One refinement round over interned signatures, one id per state:
  /// states of one block with different ids are separated.  Blocks are
  /// renumbered in order of their first state.  Returns true when some
  /// block was split.
  bool refine(std::span<const std::uint32_t> signature_ids);

  /// One refinement round; interns `signature_of` and refines by the ids.
  bool refine(const std::function<Signature(kripke::StateId)>& signature_of);

  /// Refines until stable.
  void refine_to_fixpoint(const std::function<Signature(kripke::StateId)>& signature_of);

  /// True when s and t are in the same block.
  [[nodiscard]] bool same_block(kripke::StateId s, kripke::StateId t) const {
    return block_of(s) == block_of(t);
  }

 private:
  void rebuild_blocks(std::size_t num_blocks);

  std::vector<std::uint32_t> block_of_;
  std::vector<std::vector<kripke::StateId>> blocks_;
};

}  // namespace ictl::bisim
