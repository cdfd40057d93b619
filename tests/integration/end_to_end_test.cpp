// The paper's complete story, end to end: model check a small ring,
// establish the correspondence, conclude properties of a huge ring — plus
// the reproduction finding about the base case.
#include <gtest/gtest.h>

#include "ictl.hpp"

#include "../helpers.hpp"

namespace ictl {
namespace {

TEST(EndToEnd, TheHeadlineWorkflow) {
  // 1. Build the base instance (24 states) and model check the paper's
  //    liveness property "every delayed process eventually enters its
  //    critical section".
  core::RingMutexFamily family;
  const auto base = family.instance(ring::kRingBaseSize);
  EXPECT_EQ(base.num_states(), 24u);
  const auto p4 = ring::property_eventually_critical();
  ASSERT_TRUE(mc::holds(base, p4));

  // 2. Certify the correspondence and transfer the verdict to r = 1000
  //    without ever constructing the 1000 * 2^1000-state structure.
  const std::vector<std::uint32_t> sizes = {10, 100, 1000};
  const auto result = core::verify_for_all(family, p4, ring::kRingBaseSize, sizes);
  EXPECT_TRUE(result.all_transferred());
  for (const auto& outcome : result.outcomes) EXPECT_TRUE(outcome.verdict);
}

TEST(EndToEnd, CertificatesAreCrossValidatedExplicitly) {
  // The analytic certificate's claims agree with the mechanically verified
  // explicit certificates on every size we can build quickly.
  auto reg = kripke::make_registry();
  const auto m3 = testing::ring_of(3, reg);
  for (std::uint32_t r = 4; r <= ring::kLargestCheckedRingSize; ++r) {
    const auto mr = testing::ring_of(r, reg);
    const auto cert = ring::explicit_ring_certificate(m3, mr);
    ASSERT_TRUE(cert.valid) << r;
    const auto analytic = ring::analytic_ring_certificate(r);
    ASSERT_EQ(cert.initial_degrees.size(), analytic.initial_degrees.size());
    for (std::size_t k = 0; k < cert.initial_degrees.size(); ++k)
      EXPECT_EQ(cert.initial_degrees[k], analytic.initial_degrees[k]) << r;
  }
}

TEST(EndToEnd, SymbolicProofBacksTheAnalyticCertificate) {
  const auto report = ring::prove_ring_invariants();
  EXPECT_TRUE(report.all_proved());
}

TEST(EndToEnd, TheReproductionFindingIsStable) {
  // The paper's claimed base (2) fails; the corrected base (3) works; the
  // distinguishing formula is genuinely in the restricted logic.
  auto reg = kripke::make_registry();
  const auto m2 = testing::ring_of(2, reg);
  const auto m3 = testing::ring_of(3, reg);
  const auto m4 = testing::ring_of(4, reg);
  EXPECT_FALSE(bisim::find_indexed_correspondence(m2.structure(), m3.structure(), 2, 2)
                   .corresponds());
  EXPECT_TRUE(bisim::find_indexed_correspondence(m3.structure(), m4.structure(), 2, 2)
                  .corresponds());
  const auto psi = ring::distinguishing_formula();
  EXPECT_TRUE(logic::is_restricted_ictl(psi));
  EXPECT_FALSE(mc::holds(m2.structure(), psi));
  EXPECT_TRUE(mc::holds(m3.structure(), psi));
  EXPECT_TRUE(mc::holds(m4.structure(), psi));
}

TEST(EndToEnd, AllSpecificationsAgreeAcrossBuildableSizes) {
  // Brute-force ground truth for the transfer claims: every Section 5
  // specification has the same verdict on every ring size we can build.
  auto reg = kripke::make_registry();
  for (const auto& [name, f] : ring::section5_specifications()) {
    bool expected = true;
    for (std::uint32_t r = 2; r <= 9; ++r) {
      const auto sys = testing::ring_of(r, reg);
      EXPECT_EQ(mc::holds(sys.structure(), f), expected) << name << " r=" << r;
    }
  }
}

TEST(EndToEnd, ReducedCheckingAgreesWithDirectChecking) {
  // The point of the method: checking on M_3 and transferring equals
  // checking directly on M_r.
  core::RingMutexFamily family;
  const auto base = family.instance(3);
  for (std::uint32_t r = 4; r <= ring::kLargestCheckedRingSize; ++r) {
    const auto direct = family.instance(r);
    for (const auto& [name, f] : ring::section5_specifications()) {
      EXPECT_EQ(mc::holds(base, f), mc::holds(direct, f)) << name << " r=" << r;
    }
  }
}

}  // namespace
}  // namespace ictl
