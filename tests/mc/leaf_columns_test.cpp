// Differential tests for the column-based leaf evaluation: atom leaves are
// now a copy of the structure's per-prop column bitset and kExactlyOne is a
// word-parallel exactly-one over the member columns.  Both must agree with
// the old per-state has_prop scan on the ring families, where every
// combination (theta materialized in labels, theta absent, props registered
// after the build) occurs.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "logic/formula.hpp"
#include "mc/ctl_checker.hpp"

namespace ictl::mc {
namespace {

using support::DynamicBitset;

/// The pre-column implementation: scan every state with has_prop.
DynamicBitset scan_prop(const kripke::Structure& m, kripke::PropId p) {
  DynamicBitset s(m.num_states());
  for (kripke::StateId st = 0; st < m.num_states(); ++st)
    if (m.has_prop(st, p)) s.set(st);
  return s;
}

DynamicBitset scan_exactly_one(const kripke::Structure& m,
                               const std::vector<kripke::PropId>& members) {
  DynamicBitset s(m.num_states());
  for (kripke::StateId st = 0; st < m.num_states(); ++st) {
    std::size_t holders = 0;
    for (const kripke::PropId p : members) holders += m.has_prop(st, p) ? 1 : 0;
    if (holders == 1) s.set(st);
  }
  return s;
}

TEST(LeafColumns, ColumnsMatchHasPropScanOnRings) {
  for (const std::uint32_t r : {2u, 3u, 4u, 5u, 6u}) {
    const auto sys = testing::ring_of(r);
    const auto& m = sys.structure();
    for (const kripke::PropId p : m.used_props())
      EXPECT_TRUE(m.states_with(p) == scan_prop(m, p))
          << "r=" << r << " prop " << m.registry()->display(p);
  }
}

TEST(LeafColumns, PropRegisteredAfterBuildHasEmptyColumn) {
  const auto sys = testing::ring_of(3);
  const auto& m = sys.structure();
  const auto late = m.registry()->plain("registered-after-build");
  EXPECT_TRUE(m.states_with(late).none());
  EXPECT_EQ(m.states_with(late).size(), m.num_states());
  EXPECT_TRUE(m.states_with(late) == scan_prop(m, late));
}

TEST(LeafColumns, WordParallelExactlyOneMatchesScanOnRings) {
  // The ring materializes theta("t") in its labels, so force the
  // word-parallel path on bases without a theta prop: d, n, c.
  for (const std::uint32_t r : {2u, 3u, 4u, 5u, 6u}) {
    const auto sys = testing::ring_of(r);
    const auto& m = sys.structure();
    for (const std::string base : {"d", "n", "c", "t"}) {
      const auto f = logic::exactly_one(base);
      const auto members = m.registry()->indexed_with_base(base);
      // For "t" the ring materialized theta at build time (column-copy
      // path); d/n/c have no theta and take the word-parallel path.  Both
      // must agree with the per-state recount.
      const DynamicBitset fast = CtlChecker(m).sat(f);
      const DynamicBitset slow = scan_exactly_one(m, members);
      EXPECT_TRUE(fast == slow) << "r=" << r << " one(" << base << ")";
    }
  }
}

TEST(LeafColumns, ExactlyOneOnWideRegistries) {
  // More than 64 member props forces multi-word columns through the
  // ones/twos accumulators.
  auto reg = kripke::make_registry();
  std::vector<kripke::PropId> members;
  for (std::uint32_t i = 0; i < 130; ++i) members.push_back(reg->indexed("P", i));

  kripke::StructureBuilder b(reg);
  // State 0: exactly one member.  State 1: two members.  State 2: none.
  // State 3: exactly one, chosen past the first word boundary.
  const auto s0 = b.add_state({members[7]});
  static_cast<void>(b.add_state({members[80], members[81]}));
  static_cast<void>(b.add_state({}));
  static_cast<void>(b.add_state({members[129]}));
  for (kripke::StateId s = 0; s < 4; ++s) b.add_transition(s, (s + 1) % 4);
  b.set_initial(s0);
  const auto m = std::move(b).build();

  const DynamicBitset fast = CtlChecker(m).sat(logic::exactly_one("P"));
  EXPECT_TRUE(fast == scan_exactly_one(m, members));
  EXPECT_TRUE(fast.test(0));
  EXPECT_FALSE(fast.test(1));
  EXPECT_FALSE(fast.test(2));
  EXPECT_TRUE(fast.test(3));
}

}  // namespace
}  // namespace ictl::mc
