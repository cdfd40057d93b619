#include "mc/ltl_tableau.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "logic/parser.hpp"
#include "logic/rewrite.hpp"
#include "support/error.hpp"

namespace ictl::mc {
namespace {

Gba gba_for(const char* text) {
  logic::ParseOptions options;
  options.allow_nexttime = true;
  return build_gba(logic::to_nnf(logic::desugar(logic::parse_formula(text, options))));
}

TEST(Tableau, SingleLiteral) {
  const Gba gba = gba_for("p");
  // Some initial node requires p; every node is reachable.
  bool initial_with_p = false;
  for (const auto& node : gba.nodes) {
    if (!node.initial) continue;
    for (const auto& lit : node.pos) initial_with_p |= lit->name() == "p";
  }
  EXPECT_TRUE(initial_with_p);
  EXPECT_TRUE(gba.accepting_sets.empty());  // no untils
}

TEST(Tableau, UntilHasOneAcceptingSet) {
  const Gba gba = gba_for("p U q");
  EXPECT_EQ(gba.accepting_sets.size(), 1u);
  EXPECT_FALSE(gba.nodes.empty());
  // The accepting set is non-empty (the "q reached" nodes).
  EXPECT_FALSE(gba.accepting_sets[0].empty());
}

TEST(Tableau, EventuallyDesugarsToUntil) {
  const Gba gba = gba_for("F p");
  EXPECT_EQ(gba.accepting_sets.size(), 1u);
  EXPECT_FALSE(gba.accepting_sets[0].empty());
}

TEST(Tableau, AlwaysHasNoAcceptingSets) {
  const Gba gba = gba_for("G p");
  EXPECT_TRUE(gba.accepting_sets.empty());
  // Every node requires p.
  for (const auto& node : gba.nodes) {
    bool has_p = false;
    for (const auto& lit : node.pos) has_p |= lit->name() == "p";
    EXPECT_TRUE(has_p);
  }
}

TEST(Tableau, ContradictionPrunesNodes) {
  const Gba gba = gba_for("p & !p");
  // All branches die: no initial node can exist.
  for (const auto& node : gba.nodes) EXPECT_FALSE(node.initial);
}

TEST(Tableau, NestedUntilsGetOneSetEach) {
  const Gba gba = gba_for("(p U q) U r");
  EXPECT_EQ(gba.accepting_sets.size(), 2u);
}

TEST(Tableau, NextCreatesSuccessorObligation) {
  const Gba gba = gba_for("X p");
  // Initial nodes have no constraint on the current state; their successors
  // require p.
  bool found_initial = false;
  for (const auto& node : gba.nodes) {
    if (!node.initial) continue;
    found_initial = true;
    EXPECT_TRUE(node.pos.empty());
    for (const auto succ : node.successors) {
      bool has_p = false;
      for (const auto& lit : gba.nodes[succ].pos) has_p |= lit->name() == "p";
      EXPECT_TRUE(has_p);
    }
  }
  EXPECT_TRUE(found_initial);
}

TEST(Tableau, RejectsStateOperators) {
  // E/A must have been abstracted away before tableau construction.
  EXPECT_THROW(static_cast<void>(build_gba(logic::parse_formula("E F p"))),
               LogicError);
}

TEST(Tableau, RejectsSectionFiveStateFormulas) {
  // The paper's Section 5 specifications are state formulas (path
  // quantifiers and index quantifiers at top level): each must take the
  // labeling/abstraction route — the tableau rejects them all, even after
  // desugaring to NNF.
  for (const auto& [name, f] : testing::section_five_properties()) {
    EXPECT_THROW(static_cast<void>(build_gba(logic::to_nnf(logic::desugar(f)))),
                 LogicError)
        << name;
  }
}

TEST(Tableau, RejectsSugaredInput) {
  EXPECT_THROW(static_cast<void>(build_gba(logic::parse_formula("F p"))),
               LogicError);
}

TEST(Tableau, StatsReported) {
  const Gba gba = gba_for("p U (q U r)");
  EXPECT_GT(gba.tableau_nodes_built, 0u);
  EXPECT_GE(gba.tableau_nodes_built, gba.nodes.size());
}

class TableauSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TableauSizeSweep, UntilChainGrowsBoundedly) {
  // phi_n = p1 U (p2 U (... U pn)): n-1 acceptance sets, finite automaton.
  const std::size_t n = GetParam();
  const auto p = [](std::size_t i) {
    std::string name = "p";
    name += std::to_string(i);
    return logic::atom(name);
  };
  logic::FormulaPtr f = p(n);
  for (std::size_t i = n - 1; i >= 1; --i) f = logic::make_until(p(i), f);
  const Gba gba = build_gba(logic::to_nnf(logic::desugar(f)));
  EXPECT_EQ(gba.accepting_sets.size(), n - 1);
  EXPECT_GT(gba.nodes.size(), 0u);
  EXPECT_LE(gba.nodes.size(), (std::size_t{1} << n));  // classic 2^|phi| bound
}

INSTANTIATE_TEST_SUITE_P(Depths, TableauSizeSweep, ::testing::Values(2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace ictl::mc
