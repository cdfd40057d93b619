// Deep-audit coverage: every audit() tier must (a) pass on healthy
// managers/systems — including after GC, reordering, and full fixpoint
// workloads — and (b) FIRE when its fault class is seeded.  AuditInjector
// is the friend declared in bdd.hpp/transition_system.hpp: it reaches into
// private state to corrupt exactly one invariant per test, then the test
// asserts the matching tier reports it while the tiers below stay clean
// (proving the tiering, not just the detection).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../helpers.hpp"
#include "symbolic/bdd.hpp"
#include "symbolic/bdd_store.hpp"
#include "symbolic/ring_encoding.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::symbolic {

struct AuditInjector {
  // ---- BddManager corruption (tier 1: structure) ----
  static void set_children(BddManager& m, Bdd id, Bdd low, Bdd high) {
    m.nodes_[id].low = low;
    m.nodes_[id].high = high;
  }
  static void set_var(BddManager& m, Bdd id, std::uint32_t var) {
    m.nodes_[id].var = var;
  }
  static void swap_order_map_entries(BddManager& m) {
    std::swap(m.level2var_[0], m.level2var_[1]);  // var2level_ left stale
  }
  // ---- tier 2: liveness ----
  static void bump_ref(BddManager& m, Bdd id) { ++m.ref_[id]; }
  static void bump_live_nodes(BddManager& m) { ++m.live_nodes_; }
  static void flag_queued_dead(BddManager& m, Bdd id) {
    m.queued_dead_[id] = 1;  // flag without queue entry, on a rooted node
    ++m.queued_dead_count_;
  }
  // ---- tier 3: caches ----
  static void poison_computed_cache(BddManager& m, Bdd operand) {
    m.cache_[0] = BddManager::CacheEntry{BddManager::Op::kIte, operand, kBddTrue,
                                         kBddFalse, kBddTrue, 1};
  }
  static void poison_rename_memo(BddManager& m, Bdd key, Bdd value) {
    if (m.rename_stamp_.size() < m.nodes_.size()) {
      m.rename_stamp_.resize(m.nodes_.size(), 0);
      m.rename_val_.resize(m.nodes_.size(), kBddFalse);
    }
    m.rename_stamp_[key] = m.rename_epoch_;
    m.rename_val_[key] = value;
  }
  // ---- tier 4: counts (drives the normalization checker directly — a
  // denormalized SatCount cannot be produced through manager state, so the
  // injector feeds one straight into the audit helper) ----
  static BddManager::AuditReport check_satcount(const SatCount& count) {
    BddManager::AuditReport report;
    BddManager::audit_satcount(count, "injected", report);
    return report;
  }
  // ---- TransitionSystem corruption ----
  static void set_initial(TransitionSystem& ts, BddRef initial) {
    ts.initial_ = std::move(initial);
  }
  static void corrupt_rename_map(TransitionSystem& ts) {
    std::swap(ts.to_unprimed_[1], ts.to_unprimed_[3]);
  }
  static void set_reachable_transitions(TransitionSystem& ts, BddRef relation) {
    ts.restricted_ = std::move(relation);
  }
  /// Swaps where the cached rotation sends two variables.
  static void swap_rotation_entries(TransitionSystem& ts, std::uint32_t a, std::uint32_t b) {
    std::swap((*ts.rotation_)[a], (*ts.rotation_)[b]);
  }
};

namespace {

using AuditLevel = BddManager::AuditLevel;

bool mentions(const BddManager::AuditReport& report, const std::string& needle) {
  return std::any_of(report.failures.begin(), report.failures.end(),
                     [&](const std::string& f) {
                       return f.find(needle) != std::string::npos;
                     });
}

/// A manager with a few rooted functions — enough shared structure for
/// every corruption below to have a live internal node to hit.
struct Workbench {
  BddManager mgr{6};
  BddRef a, b, c;
  Workbench() {
    a = mgr.bdd_and(mgr.var(0), mgr.var(1));
    b = mgr.bdd_or(a, mgr.var(2));
    c = mgr.bdd_xor(b, mgr.var(3));
    EXPECT_TRUE(mgr.audit().ok());
  }
};

TEST(BddAudit, CleanManagerPassesAllTiers) {
  Workbench w;
  const auto report = w.mgr.audit(AuditLevel::kFull);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.to_string(), "");
}

TEST(BddAudit, CleanAfterGcReorderAndStress) {
  BddManager mgr(8);
  BddRef acc = mgr.var(0);
  for (std::uint32_t v = 1; v < 8; ++v) {
    acc = mgr.bdd_xor(acc, mgr.var(v));
    BddRef dropped = mgr.bdd_and(acc, mgr.var(v));  // dies each iteration
  }
  EXPECT_TRUE(mgr.audit().ok());
  mgr.garbage_collect();
  EXPECT_TRUE(mgr.audit().ok());
  mgr.reorder_now();
  EXPECT_TRUE(mgr.audit().ok());
  mgr.swap_adjacent_levels(2);
  EXPECT_TRUE(mgr.audit().ok());
  EXPECT_TRUE(mgr.check_invariants());  // the boolean wrapper agrees
}

TEST(BddAudit, AuditIsConstAndKeepsQueuedZombies) {
  // audit() must not settle the deferred-death queue (check_invariants used
  // to): dropping a root then auditing leaves the zombie revivable and the
  // report clean, because queued cones still carry their counts.
  BddManager mgr(4);
  BddRef f = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const Bdd id = f.get();
  f.reset();  // queued, not yet torn down
  EXPECT_TRUE(mgr.audit().ok());
  BddRef revived(mgr, id);  // O(1) revive must still be possible post-audit
  EXPECT_TRUE(mgr.audit().ok());
}

// ---- Tier 1: structure ----

TEST(BddAudit, DetectsFlippedChildPointer) {
  Workbench w;
  AuditInjector::set_children(w.mgr, w.a.get(), kBddTrue, kBddTrue);
  const auto report = w.mgr.audit(AuditLevel::kStructure);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "unreduced"));
}

TEST(BddAudit, DetectsForeignVarInSubtableChain) {
  Workbench w;
  AuditInjector::set_var(w.mgr, w.a.get(), 5);
  const auto report = w.mgr.audit(AuditLevel::kStructure);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "foreign var"));
}

TEST(BddAudit, DetectsDesyncedOrderMaps) {
  Workbench w;
  AuditInjector::swap_order_map_entries(w.mgr);
  const auto report = w.mgr.audit(AuditLevel::kStructure);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "order maps not inverse"));
}

// ---- Tier 2: liveness (structure tier must stay clean: the tiers are
// separable, not one blob) ----

TEST(BddAudit, DetectsRefcountDesync) {
  Workbench w;
  AuditInjector::bump_ref(w.mgr, w.a.get());
  EXPECT_TRUE(w.mgr.audit(AuditLevel::kStructure).ok());
  const auto report = w.mgr.audit(AuditLevel::kLiveness);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "recount"));
}

TEST(BddAudit, DetectsLiveNodeCountDesync) {
  Workbench w;
  AuditInjector::bump_live_nodes(w.mgr);
  EXPECT_TRUE(w.mgr.audit(AuditLevel::kStructure).ok());
  const auto report = w.mgr.audit(AuditLevel::kLiveness);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "live_nodes_"));
}

TEST(BddAudit, DetectsSpuriousDeadQueueFlag) {
  Workbench w;
  AuditInjector::flag_queued_dead(w.mgr, w.c.get());  // still rooted
  EXPECT_TRUE(w.mgr.audit(AuditLevel::kStructure).ok());
  const auto report = w.mgr.audit(AuditLevel::kLiveness);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "externally referenced"));
  EXPECT_TRUE(mentions(report, "not in the dead queue"));
}

// ---- Tier 3: caches ----

/// Retires a node and returns its (now zombie) handle.
Bdd make_retired(BddManager& mgr) {
  BddRef doomed = mgr.bdd_and(mgr.var(4), mgr.var(5));
  const Bdd id = doomed.get();
  doomed.reset();
  EXPECT_GT(mgr.garbage_collect(), 0u);
  EXPECT_TRUE(mgr.is_retired(id));
  return id;
}

TEST(BddAudit, DetectsRetiredHandleInComputedCache) {
  Workbench w;
  const Bdd zombie = make_retired(w.mgr);
  AuditInjector::poison_computed_cache(w.mgr, zombie);
  EXPECT_TRUE(w.mgr.audit(AuditLevel::kLiveness).ok());
  const auto report = w.mgr.audit(AuditLevel::kCaches);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "retired handle"));
}

TEST(BddAudit, DetectsStaleRenameMemoEntry) {
  Workbench w;
  // Initialize the memo through a real rename, then plant a current-epoch
  // entry whose value is a retired zombie.
  std::vector<std::uint32_t> identity(w.mgr.num_vars());
  for (std::uint32_t v = 0; v < identity.size(); ++v) identity[v] = v;
  BddRef renamed = w.mgr.rename(w.b.get(), identity);
  const Bdd zombie = make_retired(w.mgr);
  AuditInjector::poison_rename_memo(w.mgr, w.b.get(), zombie);
  EXPECT_TRUE(w.mgr.audit(AuditLevel::kLiveness).ok());
  const auto report = w.mgr.audit(AuditLevel::kCaches);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "rename memo"));
}

// ---- One manager's computed table after another's ----

/// Every assignment of variables 0..3 on which f holds, as a 16-bit mask.
std::uint32_t table4(const BddManager& mgr, Bdd f) {
  std::uint32_t table = 0;
  for (std::uint32_t a = 0; a < 16; ++a) {
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (std::uint32_t v = 0; v < 4; ++v) assignment[v] = ((a >> v) & 1u) != 0;
    if (mgr.eval(f, assignment)) table |= 1u << a;
  }
  return table;
}

/// !x2 & x3 over variables 0..3 (bit a holds it at assignment a).
constexpr std::uint32_t kNotX2AndX3 = 0x0f00;

TEST(BddCacheHandover, ANewManagersCoincidingHandlesGetNoStaleHit) {
  // The first manager caches x0 & x1 under handles 2 and 3; the second
  // gives handles 2 and 3 to !x2 and x3.  Its first conjunction asks the
  // very same question, and must miss: each manager's table is its own.
  {
    BddManager first(4);
    const BddRef x0 = first.var(0);
    const BddRef x1 = first.var(1);
    ASSERT_EQ(x0.get(), 2u);
    ASSERT_EQ(x1.get(), 3u);
    const BddRef both = first.bdd_and(x0, x1);
  }
  BddManager second(4);
  const BddRef not_x2 = second.nvar(2);
  const BddRef x3 = second.var(3);
  ASSERT_EQ(not_x2.get(), 2u);
  ASSERT_EQ(x3.get(), 3u);
  const auto hits = second.stats().cache_hits;
  const BddRef both = second.bdd_and(not_x2, x3);
  EXPECT_EQ(second.stats().cache_hits, hits);
  EXPECT_EQ(table4(second, both), kNotX2AndX3);
  EXPECT_TRUE(second.audit(AuditLevel::kCaches).ok());
}

// ---- The computed table's size ----

/// x0 & x1, x2 | x3 and x0 ^ x3 over variables 0..3.
constexpr std::uint32_t kX0AndX1 = 0x8888;
constexpr std::uint32_t kX2OrX3 = 0xfff0;
constexpr std::uint32_t kX0XorX3 = 0x55aa;

TEST(BddCacheSizing, AReloadOnlyManagerHasNoTable) {
  BddManager mgr(6);
  const BddRef f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(3)),
                              mgr.bdd_xor(mgr.var(2), mgr.var(5)));
  std::stringstream stream;
  const std::vector<std::pair<std::string, Bdd>> roots = {{"f", f}};
  save_bdds(mgr, stream, roots);
  const LoadedBdds loaded = load_bdds(stream);
  // Loading, counting, measuring and saving consult no computed table.
  const std::vector<std::pair<std::string, Bdd>> reloaded = {{"f", loaded.root("f")}};
  static_cast<void>(loaded.manager->sat_count_exact(reloaded[0].second));
  static_cast<void>(loaded.manager->dag_size(reloaded[0].second));
  std::stringstream again;
  save_bdds(*loaded.manager, again, reloaded);
  EXPECT_EQ(loaded.manager->stats().cache_entries, 0u);
}

TEST(BddCacheSizing, AFreshManagersFirstIteGetsTheFloor) {
  BddManager mgr(4);
  const BddRef x0 = mgr.var(0);
  const BddRef x1 = mgr.var(1);
  EXPECT_EQ(mgr.stats().cache_entries, 0u);
  const BddRef both = mgr.bdd_and(x0, x1);
  EXPECT_EQ(mgr.stats().cache_entries, 4096u);
  EXPECT_EQ(table4(mgr, both), kX0AndX1);
}

TEST(BddCacheSizing, AReloadedM128GetsTheRuleSizeOnItsFirstPreImage) {
  auto reg = kripke::make_registry();
  const SymbolicRing ring = build_symbolic_ring(128, nullptr, reg);
  static_cast<void>(ring.system->reachable());
  std::stringstream stream;
  save_transition_system(*ring.system, stream);
  const TransitionSystem loaded = load_transition_system(stream, reg);
  const BddManager& mgr = loaded.manager();
  // The relation is built by or_all, which keeps its own memo; the first
  // operation to consult the table is the pre-image's pair_pre_image,
  // which sizes it for the slots then allocated: one entry per four.
  static_cast<void>(loaded.transitions());
  const std::size_t slots = mgr.num_nodes();
  EXPECT_GT(slots, 4u * 4096);
  EXPECT_LE(slots, 4u * 8192);
  const BddRef pre = loaded.pre_image(loaded.reachable());
  EXPECT_EQ(mgr.stats().cache_entries, 8192u) << slots << " node slots";
}

TEST(BddCacheSizing, ALongSequenceDoublesTheTableUpToTheCap) {
  // 256 rooted nodes on variables 7-9, then batches of nodes on variable 6
  // over pairs of them, each batch swept before the next (a retired
  // triple's slot is never reused, so rebuilding it takes a fresh one).
  // One ITE after each batch sizes the table for the slots allocated so
  // far.  A batch adds at most the table's size in slots, so the table
  // passes through every size from the floor to the cap.
  BddManager mgr(10);
  std::vector<BddRef> pool = {BddRef(mgr, kBddFalse), BddRef(mgr, kBddTrue)};
  for (std::uint32_t v = 9; v >= 7; --v) {
    const std::size_t n = pool.size();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i != j) pool.emplace_back(mgr, mgr.make_node(v, pool[i], pool[j]));
  }
  ASSERT_EQ(pool.size(), 256u);
  const BddRef x0 = mgr.var(0);
  const BddRef x1 = mgr.var(1);
  const BddRef x2 = mgr.var(2);
  const BddRef x3 = mgr.var(3);
  std::vector<std::size_t> sizes;
  while (mgr.num_nodes() <= 4 * (std::size_t{1} << 18) + 65536) {
    {
      // Node k pairs pool[i] with pool[i + 1 + k / 256], i = k % 256: all
      // distinct triples while k < 255 * 256.
      const auto scope = mgr.protect_scope();
      const std::size_t batch =
          std::clamp<std::size_t>(mgr.stats().cache_entries, 4096, 32768);
      for (std::size_t k = 0; k < batch; ++k) {
        const std::size_t i = k % 256;
        static_cast<void>(mgr.make_node(6, pool[i], pool[(i + 1 + k / 256) % 256]));
      }
    }
    ASSERT_GT(mgr.garbage_collect(), 0u);
    const BddRef both = mgr.bdd_and(x0, x1);
    if (!sizes.empty() && sizes.back() == mgr.stats().cache_entries) continue;
    sizes.push_back(mgr.stats().cache_entries);
    SCOPED_TRACE(::testing::Message() << mgr.stats().cache_entries << " entries, "
                                      << mgr.num_nodes() << " node slots");
    EXPECT_TRUE(mgr.audit(AuditLevel::kCaches).ok());
    EXPECT_EQ(table4(mgr, both), kX0AndX1);
    EXPECT_EQ(table4(mgr, mgr.bdd_or(x2, x3)), kX2OrX3);
    EXPECT_EQ(table4(mgr, mgr.bdd_xor(x0, x3)), kX0XorX3);
  }
  const std::vector<std::size_t> doublings = {4096,  8192,  16384, 32768,
                                              65536, 131072, 262144};
  EXPECT_EQ(sizes, doublings);
  EXPECT_GT(mgr.num_nodes(), 4 * (std::size_t{1} << 18));
  EXPECT_TRUE(mgr.audit(AuditLevel::kCaches).ok());
}

// ---- Tier 4: counts ----

TEST(BddAudit, CleanCountsOnRootedFunctions) {
  Workbench w;
  EXPECT_TRUE(w.mgr.audit(AuditLevel::kFull).ok());
}

TEST(BddAudit, SatCountCheckerRejectsDenormalizedCounts) {
  // Even mantissa (6 * 2^3 should be 3 * 2^4).
  EXPECT_TRUE(mentions(AuditInjector::check_satcount(SatCount{0, 6, 3}),
                       "not normalized odd"));
  // Zero with a nonzero exponent.
  EXPECT_TRUE(mentions(AuditInjector::check_satcount(SatCount{0, 0, 5}),
                       "zero SatCount"));
  // Negative exponent: assignment counts are integers.
  EXPECT_TRUE(mentions(AuditInjector::check_satcount(SatCount{0, 3, -2}),
                       "negative exponent"));
  // A healthy count passes.
  EXPECT_TRUE(AuditInjector::check_satcount(SatCount{0, 3, 4}).ok());
  EXPECT_TRUE(AuditInjector::check_satcount(SatCount{}).ok());
}

TEST(BddAudit, AssertAuditThrowsWithReport) {
  Workbench w;
  w.mgr.assert_audit(AuditLevel::kFull, "healthy");  // no throw
  AuditInjector::bump_ref(w.mgr, w.a.get());
  try {
    w.mgr.assert_audit(AuditLevel::kFull, "seeded-corruption");
    FAIL() << "assert_audit did not throw on a corrupted manager";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("seeded-corruption"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("recount"), std::string::npos);
  }
}

// ---- TransitionSystem audits ----

/// Small system: x0' = !x0, x1' = x0 (a 2-bit shift/flip), as one part.
TransitionSystem small_shift() {
  auto mgr = std::make_shared<BddManager>(4);
  const BddRef part0 = mgr->bdd_iff(mgr->var(1), mgr->bdd_not(mgr->var(0)));
  const BddRef part1 = mgr->bdd_iff(mgr->var(3), mgr->var(0));
  const BddRef initial = mgr->bdd_and(mgr->nvar(0), mgr->nvar(2));
  return TransitionSystem(mgr, 2, initial.get(),
                          std::vector<Bdd>{mgr->bdd_and(part0, part1).get()},
                          kripke::make_registry(), {}, {});
}

TEST(TransitionSystemAudit, CleanSystemsPass) {
  TransitionSystem conj = small_shift();
  EXPECT_TRUE(conj.audit().ok());
  (void)conj.reachable();
  EXPECT_TRUE(conj.audit().ok());
  conj.assert_audit("clean");  // no throw

  // The explicit bridge on a real ring, through the full fixpoint.
  const auto ring = ictl::testing::ring_of(5);
  TransitionSystem sym = from_structure(ring.structure());
  (void)sym.reachable();
  EXPECT_TRUE(sym.audit().ok());
}

TEST(TransitionSystemAudit, DetectsAdoptedNonFixpoint) {
  TransitionSystem ts = small_shift();
  // The initial set alone is not closed: 00 steps to 10.  adopt_reachable
  // is the public store-loader path — no injector needed.
  ts.adopt_reachable(ts.initial());
  const auto report = ts.audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "not a fixpoint"));
}

TEST(TransitionSystemAudit, DetectsPrimedVariableInStateSet) {
  TransitionSystem ts = small_shift();
  AuditInjector::set_initial(ts, ts.manager().var(1));
  const auto report = ts.audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "initial set mentions primed variable"));
}

TEST(TransitionSystemAudit, DetectsAPairSeparatedAfterConstruction) {
  // Construction refuses a separated order, but swap_adjacent_levels (or
  // ungrouped sifting) can separate a pair later; the audit reports it.
  TransitionSystem ts = small_shift();
  (void)ts.reachable();
  ASSERT_TRUE(ts.audit().ok());
  ts.manager().swap_adjacent_levels(1);  // x0 x1 x0' x1'
  const auto report = ts.audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "separates a state variable's (x, x') pair"));
  ts.manager().swap_adjacent_levels(1);
  EXPECT_TRUE(ts.audit().ok());
}

TEST(TransitionSystemAudit, DetectsStaleReachableRelation) {
  // A cached reachable relation that is not transitions() & reachable() —
  // here the unrestricted relation — would let every EX, EU and EG round
  // step from unreachable states.
  const SymbolicRing ring = build_symbolic_ring(4);
  TransitionSystem& ts = *ring.system;
  static_cast<void>(ts.reachable_pre_image(ts.reachable()));
  ASSERT_TRUE(ts.reachable_transitions_computed());
  EXPECT_TRUE(ts.audit().ok());
  ASSERT_NE(ts.reachable_transitions(), ts.transitions());
  AuditInjector::set_reachable_transitions(ts, BddRef(ts.manager(), ts.transitions()));
  const auto report = ts.audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "cached reachable relation"));
}

TEST(TransitionSystemAudit, DetectsCorruptCachedRotation) {
  // A cached rotation that is not the derived, verified one would fold
  // every quantified formula over the wrong permutation.
  const SymbolicRing ring = build_symbolic_ring(4);
  TransitionSystem& ts = *ring.system;
  ASSERT_TRUE(ts.verified_rotation());
  EXPECT_TRUE(ts.audit().ok());
  AuditInjector::swap_rotation_entries(ts, TransitionSystem::unprimed(0),
                                       TransitionSystem::unprimed(1));
  const auto report = ts.audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "cached rotation"));
}

TEST(TransitionSystemAudit, DetectsCorruptRenameMaps) {
  TransitionSystem ts = small_shift();
  AuditInjector::corrupt_rename_map(ts);
  const auto report = ts.audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "rename maps not mutually inverse"));
}

}  // namespace
}  // namespace ictl::symbolic
