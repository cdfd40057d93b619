// Differential suite: the production correspondence procedure (one Tarjan
// pass per stuttering round, dirty-pair degree sweep, flat degree table)
// against the reference in naive_correspondence.hpp.  Every case must agree
// on the verdict, the candidate and surviving pair counts, the related pairs
// and their minimal degrees, and the stuttering partition's block ids.
#include <gtest/gtest.h>

#include <string>

#include "../helpers.hpp"
#include "bisim/correspondence.hpp"
#include "bisim/stuttering.hpp"
#include "naive_correspondence.hpp"
#include "ring/ring_correspondence.hpp"

namespace ictl::bisim {
namespace {

using kripke::StateId;
using kripke::Structure;

std::vector<std::uint32_t> block_ids(const Partition& p) {
  std::vector<std::uint32_t> ids(p.num_states());
  for (StateId s = 0; s < ids.size(); ++s) ids[s] = p.block_of(s);
  return ids;
}

void expect_same_partitions(const Structure& m) {
  for (const bool sensitive : {false, true}) {
    SCOPED_TRACE(sensitive ? "divergence-sensitive" : "divergence-blind");
    const StutteringOptions options{.divergence_sensitive = sensitive};
    EXPECT_EQ(block_ids(stuttering_partition(m, options)),
              block_ids(naive::stuttering_partition(m, options)));
  }
}

void expect_same_union_partitions(const Structure& a, const Structure& b) {
  const Structure u = kripke::disjoint_union(a, b);
  for (const bool sensitive : {false, true}) {
    SCOPED_TRACE(sensitive ? "divergence-sensitive" : "divergence-blind");
    const StutteringOptions options{.divergence_sensitive = sensitive};
    EXPECT_EQ(block_ids(stuttering_partition(a, b, options)),
              block_ids(naive::stuttering_partition(u, options)));
  }
}

/// Runs both procedures and compares everything they report.  Returns true
/// when some candidate pair died.
bool expect_same_correspondence(const Structure& m1, const Structure& m2,
                                FindOptions options) {
  SCOPED_TRACE("prefilter " + std::to_string(options.use_stuttering_prefilter) +
               ", degree cap " + std::to_string(options.degree_cap));
  const FindResult got = find_correspondence(m1, m2, options);
  const FindResult want = naive::find_correspondence(m1, m2, options);
  EXPECT_EQ(got.relation.has_value(), want.relation.has_value());
  EXPECT_EQ(got.candidate_pairs, want.candidate_pairs);
  EXPECT_EQ(got.surviving_pairs, want.surviving_pairs);
  if (got.relation.has_value() && want.relation.has_value()) {
    EXPECT_EQ(got.relation->num_pairs(), want.relation->num_pairs());
    EXPECT_EQ(got.relation->entries(), want.relation->entries());
  }
  return want.surviving_pairs < want.candidate_pairs;
}

/// Every prefilter setting and degree cap 0 (the paper's bound) to 3.
/// Returns the number of runs in which some candidate pair died.
std::size_t expect_same_under_all_options(const Structure& m1, const Structure& m2) {
  std::size_t with_deaths = 0;
  for (const bool prefilter : {true, false})
    for (const std::uint32_t cap : {0u, 1u, 2u, 3u})
      with_deaths += expect_same_correspondence(
          m1, m2, {.use_stuttering_prefilter = prefilter, .degree_cap = cap});
  return with_deaths;
}

/// `m` with every state whose id is a multiple of `stride` split into a run
/// of `run` identically labeled copies: edges into the state enter the
/// first copy, the last copy keeps the state's moves.  Matching it against
/// `m` needs positive degrees, which tight caps then kill.
Structure stutter_expand(const Structure& m, StateId stride, std::size_t run) {
  kripke::StructureBuilder b(m.registry());
  std::vector<StateId> first(m.num_states()), last(m.num_states());
  for (StateId s = 0; s < m.num_states(); ++s) {
    std::vector<kripke::PropId> props;
    m.label(s).for_each([&](std::size_t p) { props.push_back(static_cast<kripke::PropId>(p)); });
    const std::size_t copies = s % stride == 0 ? run : 1;
    first[s] = b.add_state(props);
    last[s] = first[s];
    for (std::size_t k = 1; k < copies; ++k) {
      const StateId next = b.add_state(props);
      b.add_transition(last[s], next);
      last[s] = next;
    }
  }
  for (StateId s = 0; s < m.num_states(); ++s)
    for (const StateId t : m.successors(s)) b.add_transition(last[s], first[t]);
  b.set_initial(first[m.initial()]);
  return std::move(b).build();
}

TEST(CorrespondenceDifferential, RandomPairsAndSelfPairs) {
  auto reg = kripke::make_registry();
  std::size_t runs = 0;
  std::size_t with_deaths = 0;
  for (std::uint32_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Structure a = testing::random_structure(reg, 6 + seed % 13, seed);
    const Structure b = testing::random_structure(reg, 6 + (seed * 7) % 17, seed + 1000);
    with_deaths += expect_same_under_all_options(a, a);
    with_deaths += expect_same_under_all_options(a, b);
    with_deaths += expect_same_under_all_options(b, a);
    runs += 24;
  }
  // Tight caps kill pairs, which drives the joint-flag maintenance.
  EXPECT_GT(with_deaths, runs / 10);
}

TEST(CorrespondenceDifferential, StutterExpandedRandomStructures) {
  auto reg = kripke::make_registry();
  std::size_t with_deaths = 0;
  for (std::uint32_t seed = 0; seed < 80; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Structure m = testing::random_structure(reg, 5 + seed % 11, seed + 77);
    const Structure expanded = stutter_expand(m, 2 + seed % 3, 2 + seed % 4);
    with_deaths += expect_same_under_all_options(m, expanded);
    with_deaths += expect_same_under_all_options(expanded, m);
    expect_same_union_partitions(m, expanded);
  }
  EXPECT_GT(with_deaths, 0u);
}

TEST(CorrespondenceDifferential, StutteredLoops) {
  auto reg = kripke::make_registry();
  for (std::size_t run_a = 1; run_a <= 3; ++run_a) {
    for (std::size_t run_b = 1; run_b <= 6; ++run_b) {
      SCOPED_TRACE("runs " + std::to_string(run_a) + " and " + std::to_string(run_b));
      const Structure a = testing::stuttered_loop(reg, run_a);
      const Structure b = testing::stuttered_loop(reg, run_b);
      expect_same_under_all_options(a, b);
      expect_same_union_partitions(a, b);
    }
  }
}

TEST(CorrespondenceDifferential, StutteringPartitionsOfRandomStructures) {
  auto reg = kripke::make_registry();
  for (std::uint32_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Structure m = testing::random_structure(reg, 4 + seed % 40, seed + 500);
    expect_same_partitions(m);
    expect_same_partitions(stutter_expand(m, 1 + seed % 4, 3));
    expect_same_union_partitions(m, testing::random_structure(reg, 9, seed + 900));
  }
}

TEST(CorrespondenceDifferential, EveryInPairOfRingBaseThree) {
  auto reg = kripke::make_registry();
  const auto m3 = testing::ring_of(ring::kRingBaseSize, reg);
  for (std::uint32_t r = ring::kRingBaseSize; r <= 7; ++r) {
    const auto mr = testing::ring_of(r, reg);
    for (const IndexPair& p : ring::ring_index_relation(ring::kRingBaseSize, r)) {
      SCOPED_TRACE("M_" + std::to_string(r) + ", IN pair (" + std::to_string(p.i) + "," +
                   std::to_string(p.i2) + ")");
      const Structure a = kripke::reduce_to_index(m3.structure(), p.i);
      const Structure b = kripke::reduce_to_index(mr.structure(), p.i2);
      expect_same_correspondence(a, b, {});
      expect_same_correspondence(a, b, {.use_stuttering_prefilter = false});
      expect_same_correspondence(a, b, {.degree_cap = 2});
      expect_same_union_partitions(a, b);
    }
  }
}

TEST(CorrespondenceDifferential, MixedRegistryWidths) {
  // Labels of different widths: m1 is built before the registry grows.
  auto reg = kripke::make_registry();
  const auto pa = reg->plain("a");
  const auto pb = reg->plain("b");
  kripke::StructureBuilder builder1(reg);
  const StateId s0 = builder1.add_state({pa});
  const StateId s1 = builder1.add_state({pb});
  builder1.add_transition(s0, s1);
  builder1.add_transition(s1, s0);
  builder1.set_initial(s0);
  const Structure m1 = std::move(builder1).build();

  for (int k = 0; k < 70; ++k) reg->plain("registered-between-builds-" + std::to_string(k));
  const Structure m2 = testing::stuttered_loop(reg, 3);
  ASSERT_NE(m1.label(s0).size(), m2.label(m2.initial()).size());

  expect_same_under_all_options(m1, m2);
  expect_same_under_all_options(m2, m1);
  expect_same_union_partitions(m1, m2);
  expect_same_union_partitions(m2, m1);
  EXPECT_TRUE(correspond(m1, m2));
}

}  // namespace
}  // namespace ictl::bisim
