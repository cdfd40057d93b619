// Allocation accounting for the fixpoint engine: CtlChecker::sat must
// perform no heap allocation per fixpoint iteration — the eu/eg loops run
// entirely on the checker's scratch arena, so the number of allocations for
// a formula is a small constant independent of the structure size and of
// how many elimination/propagation steps the fixpoints take.  Verified by
// instrumenting global operator new and comparing counts across structure
// sizes that differ by an order of magnitude.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "kripke/structure.hpp"
#include "logic/formula.hpp"
#include "mc/ctl_checker.hpp"

namespace {

// Not atomic: the suite is single-threaded and the counter is only read
// between sequence points around the measured calls.
std::size_t g_alloc_count = 0;

}  // namespace

// The replacements stay out of line.  Once gcc 12 inlines one side of the
// pair but not the other, -Wmismatched-new-delete sees std::free applied to
// a pointer from operator new (the TSan build at -O2 inlines only delete)
// or operator delete applied to one from std::malloc.  Called as operator
// new and operator delete everywhere, the pair matches.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ictl::mc {
namespace {

/// p-labeled chain of `n` states ending in a self-loop: EG p converges only
/// after ~n elimination steps under the old per-round algorithm, making the
/// iteration count proportional to n.
kripke::Structure chain(std::uint32_t n, const kripke::PropRegistryPtr& reg) {
  kripke::StructureBuilder b(reg);
  const auto p = reg->plain("p");
  const auto q = reg->plain("q");
  std::vector<kripke::StateId> states;
  for (std::uint32_t i = 0; i < n; ++i)
    states.push_back(i + 1 == n ? b.add_state({p, q}) : b.add_state({p}));
  for (std::uint32_t i = 0; i + 1 < n; ++i) b.add_transition(states[i], states[i + 1]);
  b.add_transition(states.back(), states.back());
  b.set_initial(states.front());
  return std::move(b).build();
}

/// Allocations performed by sat() on a fresh formula against a chain of
/// `n` states, measured on a checker warmed by one prior fixpoint.
std::size_t allocs_for_chain(std::uint32_t n) {
  auto reg = kripke::make_registry();
  const auto m = chain(n, reg);
  CtlChecker checker(m);
  // Warm the scratch arena and the memo/retained containers.
  static_cast<void>(checker.sat(logic::EG(logic::atom("q"))));

  const auto f = logic::AF(logic::atom("q"));      // !EG !q: a draining EG
  const auto g = logic::EU(logic::atom("p"), logic::atom("q"));
  const std::size_t before = g_alloc_count;
  static_cast<void>(checker.sat(f));
  static_cast<void>(checker.sat(g));
  return g_alloc_count - before;
}

TEST(CtlCheckerAllocation, FixpointIterationsAllocateNothing) {
  // The chains differ 16x in length, hence 16x in fixpoint iterations; a
  // per-iteration allocation would make the counts differ by thousands.
  const std::size_t small = allocs_for_chain(256);
  const std::size_t large = allocs_for_chain(4096);
  EXPECT_EQ(small, large) << "allocation count grew with fixpoint iteration "
                             "count: the scratch arena is being bypassed";
  // Belt and braces: per-formula bookkeeping (result set, memo entry,
  // retained pin) stays within a small constant.
  EXPECT_LE(large, 64u);
}

}  // namespace
}  // namespace ictl::mc
