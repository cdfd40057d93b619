#include "ring/ring_correspondence.hpp"

#include <string>

#include "logic/parser.hpp"
#include "support/error.hpp"

namespace ictl::ring {

std::vector<bisim::IndexPair> ring_index_relation(std::uint32_t r0, std::uint32_t r) {
  support::require<ModelError>(r0 >= 2 && r0 <= r,
                               "ring_index_relation: need 2 <= r0 <= r");
  std::vector<bisim::IndexPair> in;
  for (std::uint32_t i = 1; i < r0; ++i) in.push_back({i, i});
  for (std::uint32_t i = r0; i <= r; ++i) in.push_back({r0, i});
  return in;
}

logic::FormulaPtr distinguishing_formula() {
  return logic::parse_formula(
      "exists i. EF(d[i] & !E[d[i] U (c[i] & E[c[i] U (n[i] & t[i])])])");
}

ExplicitRingCorrespondence::ExplicitRingCorrespondence(const RingSystem& a,
                                                       std::uint32_t i,
                                                       const RingSystem& b,
                                                       std::uint32_t i2) {
  r1_ = std::make_unique<kripke::Structure>(kripke::reduce_to_index(a.structure(), i));
  r2_ = std::make_unique<kripke::Structure>(kripke::reduce_to_index(b.structure(), i2));
  rel_ = std::make_unique<bisim::CorrespondenceRelation>(*r1_, *r2_);

  for (kripke::StateId s = 0; s < a.structure().num_states(); ++s) {
    const Part part1 = a.part_of(s, i);
    const bool d_empty1 = a.state(s).d == 0;
    for (kripke::StateId s2 = 0; s2 < b.structure().num_states(); ++s2) {
      if (b.part_of(s2, i2) != part1) continue;
      if (part1 == Part::kCritical && d_empty1 != (b.state(s2).d == 0)) continue;
      rel_->add(s, s2, correspondence_degree(a, s, i, b, s2, i2));
    }
  }
}

bisim::Theorem5Certificate explicit_ring_certificate(const RingSystem& base,
                                                     const RingSystem& target,
                                                     bisim::FindOptions options) {
  return bisim::certify_theorem5(base.structure(), target.structure(),
                                 ring_index_relation(base.size(), target.size()), options);
}

bisim::Theorem5Certificate analytic_ring_certificate(std::uint32_t r) {
  support::require<ModelError>(
      r >= kRingBaseSize,
      "analytic_ring_certificate: the corrected base case is r0 = 3; M_2 is "
      "not equivalent to larger rings (see distinguishing_formula())");
  bisim::Theorem5Certificate cert;
  cert.valid = true;
  cert.in_relation = ring_index_relation(kRingBaseSize, r);
  for (std::size_t k = 0; k < cert.in_relation.size(); ++k)
    cert.initial_degrees.push_back(0);  // all-neutral initial states match exactly
  std::string basis =
      "analytic certificate with base M_3: the generic Section 3 decision "
      "procedure certifies every IN pair of M_3 ~ M_r explicitly for all r "
      "up to ";
  basis += std::to_string(kLargestCheckedRingSize);
  basis +=
      " (tests + bench_ring_certificate), and the symbolic prover discharges "
      "the Section 5 invariants for every r; beyond that size the "
      "certificate extrapolates along the ring's structure, exactly as the "
      "paper's Appendix argument does";
  cert.notes.push_back(std::move(basis));
  cert.notes.push_back(
      "note: the paper claims base M_2; the reproduction found that claim "
      "off by one (see ring::distinguishing_formula())");
  return cert;
}

}  // namespace ictl::ring
