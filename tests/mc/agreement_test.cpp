// Cross-checker agreement and semantic sanity properties on a battery of
// structures: the CTL fast path, the generic tableau route and hand-derived
// truths must coincide.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "logic/parser.hpp"
#include "logic/printer.hpp"
#include "mc/ctl_checker.hpp"
#include "mc/ctlstar_checker.hpp"
#include "ring/ring.hpp"

namespace ictl::mc {
namespace {

using logic::parse_formula;

struct Case {
  const char* formula;
  bool is_ctl_fragment;
};

class AgreementSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(AgreementSweep, FastPathAndTableauAgree) {
  const auto [size, seed] = GetParam();
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, size, seed);
  Checker fast(m);            // fast path on
  CheckerOptions no_fast_options;
  no_fast_options.use_ctl_fast_path = false;
  Checker slow(m, no_fast_options);
  for (const char* text :
       {"E F p", "A G q", "E (p U q)", "A (p U (p | q))", "E G (p | q)",
        "A F p", "A G (p -> E F q)", "E ((p U q) | G p)",
        "A (F p -> F q)", "E (G p | G q)", "A (p U q) | E G !q"}) {
    const auto f = parse_formula(text);
    EXPECT_TRUE(fast.sat(f) == slow.sat(f))
        << text << " on size=" << size << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AgreementSweep,
    ::testing::Combine(::testing::Values(10u, 25u, 50u),
                       ::testing::Values(2u, 4u, 8u, 16u)));

TEST(FastPathAndTableau, AgreeOnQuantifiedRingSpecsAndIff) {
  // P3 and P4 quantify over indices and `<->` is a connective of its own:
  // with the fast path off, the generic checker evaluates both itself.
  const auto sys = testing::ring_of(4);
  Checker fast(sys.structure());
  CheckerOptions no_fast_options;
  no_fast_options.use_ctl_fast_path = false;
  Checker slow(sys.structure(), no_fast_options);
  for (const auto& f : {ring::property_request_granted(), ring::property_eventually_critical(),
                        parse_formula("E F c[1] <-> t[1]")})
    EXPECT_TRUE(fast.sat(f) == slow.sat(f)) << logic::to_string(f);
  EXPECT_EQ(slow.stats().ctl_fast_path_hits, 0u);
  EXPECT_GT(slow.stats().tableau_builds, 0u);
}

class SemanticLaws
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SemanticLaws, StandardEquivalencesHold) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 35, GetParam());
  Checker checker(m);
  const auto sat = [&](const char* text) { return checker.sat(parse_formula(text)); };

  // Dualities.
  EXPECT_TRUE(sat("A G p") == sat("!(E F !p)"));
  EXPECT_TRUE(sat("A F p") == sat("!(E G !p)"));
  EXPECT_TRUE(sat("E (p U q)") == sat("!(A (!p R !q))"));
  // Expansion laws (no X in the logic, so use the fixpoint shape directly).
  EXPECT_TRUE(sat("E F p") == sat("E (true U p)"));
  EXPECT_TRUE(sat("A G p") == sat("A (false R p)"));
  // Idempotence.
  EXPECT_TRUE(sat("E F (E F p)") == sat("E F p"));
  EXPECT_TRUE(sat("A G (A G p)") == sat("A G p"));
  EXPECT_TRUE(sat("E F E F (p & q)") == sat("E F (p & q)"));
  // Monotonicity: AG p implies AG (p | q).
  EXPECT_TRUE(sat("A G p").is_subset_of(sat("A G (p | q)")));
  EXPECT_TRUE(sat("A F (p & q)").is_subset_of(sat("A F p")));
  // A implies E on total structures.
  EXPECT_TRUE(sat("A F p").is_subset_of(sat("E F p")));
  EXPECT_TRUE(sat("A (p U q)").is_subset_of(sat("E (p U q)")));
  // Until unrolling: p U q  ==  q | (p & "can continue") — check the weaker
  // containment q subset of E(p U q).
  EXPECT_TRUE(sat("q").is_subset_of(sat("E (p U q)")));
}

TEST_P(SemanticLaws, PathBooleanDistribution) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 30, GetParam() + 100);
  Checker checker(m);
  const auto sat = [&](const char* text) { return checker.sat(parse_formula(text)); };
  // E distributes over path disjunction; A over conjunction.
  EXPECT_TRUE(sat("E (F p | F q)") == sat("E F p | E F q"));
  EXPECT_TRUE(sat("A (G p & G q)") == sat("A G p & A G q"));
  // F distributes over disjunction along a single path.
  EXPECT_TRUE(sat("E F (p | q)") == sat("E F p | E F q"));
  // G over conjunction.
  EXPECT_TRUE(sat("E G (p & q)").is_subset_of(sat("E G p")));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticLaws,
                         ::testing::Values(3u, 6u, 12u, 24u, 48u));

}  // namespace
}  // namespace ictl::mc
