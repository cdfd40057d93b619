// The paper's finite correspondence relation (Section 3).
//
// E ⊆ S x S' x N, total for both S and S', where a triple (s, s', k) means:
// s behaves like s' and k bounds the number of one-sided ("stuttering")
// moves either side may take before the pair reaches an exact match.
// Formally E is a correspondence relation when
//   1. s0 E^k s0' for some k, and
//   2. for every (s, s', k) in E:
//      a. L(s) = L(s'),
//      b. [∃s1': s'->s1' and s E^v s1' with v < k]  or
//         [∀s1: s->s1 implies (s1 E^v s' with v < k, or
//                              ∃s1': s'->s1' and s1 E^w s1' with w >= 0)],
//      c. the mirror image of (b) with the roles of s and s' swapped.
// Degree 0 forces an exact match: every move of one side is answered by a
// move of the other.  The paper proves minimal degrees are bounded by
// |S| + |S'|, which the decision procedure uses as its degree cap.
//
// Two operations are provided, mirroring the paper's remark that the
// definition "can be used to determine if a given relation E is a
// correspondence relation" while an algorithm is needed to find one:
//   * CorrespondenceRelation::validate() — the literal clause checker for an
//     explicitly given relation (used to certify the ring's analytic
//     relation from the Appendix), and
//   * find_correspondence() — a greatest-fixpoint decision procedure that
//     computes the coarsest valid relation (with minimal degrees) or
//     reports that none exists.  A stuttering-equivalence pre-filter prunes
//     candidate pairs soundly (see stuttering.hpp); the ablation benchmark
//     measures its effect.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "kripke/structure.hpp"

namespace ictl::bisim {

/// Sentinel for "not related".
constexpr std::uint32_t kNoDegree = static_cast<std::uint32_t>(-1);

struct FindOptions;
struct FindResult;

/// A relation with one minimal degree per related pair, stored as a flat
/// |S| x |S'| table of degrees (kNoDegree = unrelated).
class CorrespondenceRelation {
 public:
  CorrespondenceRelation(const kripke::Structure& m1, const kripke::Structure& m2);

  /// Adds the triple (s, s2, degree).  Adding a smaller degree for an
  /// existing pair lowers the pair's minimal degree.
  void add(kripke::StateId s, kripke::StateId s2, std::uint32_t degree);

  [[nodiscard]] bool related(kripke::StateId s, kripke::StateId s2) const;

  /// Minimal degree recorded for the pair; nullopt when unrelated.
  [[nodiscard]] std::optional<std::uint32_t> min_degree(kripke::StateId s,
                                                        kripke::StateId s2) const;

  [[nodiscard]] std::size_t num_pairs() const noexcept { return num_pairs_; }

  /// All (s, s2, min degree) entries.
  [[nodiscard]] std::vector<std::tuple<kripke::StateId, kripke::StateId, std::uint32_t>>
  entries() const;

  struct Violation {
    kripke::StateId s = 0;
    kripke::StateId s2 = 0;
    std::uint32_t degree = 0;
    std::string reason;
  };

  /// Checks the Section 3 definition literally: clause 1 (initial states),
  /// totality for both state spaces, and clauses 2a/2b/2c for every
  /// recorded triple.  Returns the violations found (empty = valid).
  [[nodiscard]] std::vector<Violation> validate(std::size_t max_violations = 16) const;

  [[nodiscard]] bool is_valid() const { return validate(1).empty(); }

  [[nodiscard]] const kripke::Structure& m1() const noexcept { return *m1_; }
  [[nodiscard]] const kripke::Structure& m2() const noexcept { return *m2_; }

 private:
  friend FindResult find_correspondence(const kripke::Structure& m1,
                                        const kripke::Structure& m2, FindOptions options);

  /// Adopts a degree table laid out as key() maps pairs, holding
  /// `num_pairs` related pairs.
  CorrespondenceRelation(const kripke::Structure& m1, const kripke::Structure& m2,
                         std::vector<std::uint32_t> degrees, std::size_t num_pairs);

  [[nodiscard]] std::size_t key(kripke::StateId s, kripke::StateId s2) const {
    return static_cast<std::size_t>(s) * m2_->num_states() + s2;
  }

  /// Calls fn(s, s2, degree) for every related pair, in (s, s2) order.
  template <typename Fn>
  void for_each_pair(Fn&& fn) const {
    const std::size_t n2 = m2_->num_states();
    for (std::size_t k = 0; k < degree_.size(); ++k)
      if (degree_[k] != kNoDegree)
        fn(static_cast<kripke::StateId>(k / n2), static_cast<kripke::StateId>(k % n2),
           degree_[k]);
  }

  [[nodiscard]] bool clause_2b(kripke::StateId s, kripke::StateId s2,
                               std::uint32_t k) const;
  [[nodiscard]] bool clause_2c(kripke::StateId s, kripke::StateId s2,
                               std::uint32_t k) const;

  const kripke::Structure* m1_;
  const kripke::Structure* m2_;
  std::vector<std::uint32_t> degree_;  // degree_[key(s, s2)], kNoDegree = unrelated
  std::size_t num_pairs_ = 0;
};

/// True when s (in m1) and s2 (in m2) carry exactly the same propositions.
/// Label bitsets may have different widths when the shared registry grew
/// between builds; missing tail bits read as false.
[[nodiscard]] bool labels_equal(const kripke::Structure& m1, kripke::StateId s,
                                const kripke::Structure& m2, kripke::StateId s2);

struct FindOptions {
  /// Prune candidate pairs with the stuttering-equivalence partition first.
  bool use_stuttering_prefilter = true;
  /// Maximal degree considered; 0 means the paper's bound |S| + |S'|.
  std::uint32_t degree_cap = 0;
};

struct FindResult {
  /// The coarsest correspondence relation with minimal degrees, or nullopt
  /// when the initial states cannot be related.
  std::optional<CorrespondenceRelation> relation;
  std::size_t candidate_pairs = 0;
  std::size_t surviving_pairs = 0;
  /// Fixpoint sweep rounds until stabilization.
  std::size_t iterations = 0;
};

/// Decides whether `m1` and `m2` correspond (Section 3) and returns the
/// coarsest relation with minimal degrees.  The structures must share a
/// proposition registry.
[[nodiscard]] FindResult find_correspondence(const kripke::Structure& m1,
                                             const kripke::Structure& m2,
                                             FindOptions options = {});

/// Convenience: do the structures correspond?
[[nodiscard]] bool correspond(const kripke::Structure& m1, const kripke::Structure& m2,
                              FindOptions options = {});

}  // namespace ictl::bisim
