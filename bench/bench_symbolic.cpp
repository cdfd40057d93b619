// Benchmarks for the symbolic (BDD) engine: partitioned relation
// construction, rule-wise reachability, CTL fixpoints, and sifting-based
// reordering on rings at and far beyond the explicit engine's r = 24 cap —
// the numbers that justify the third engine.  The small sizes overlap
// BM_BuildRing / BM_CtlLabelingOnRing in bench_state_explosion.cpp and
// bench_mc_direct_vs_reduced.cpp for a direct explicit-vs-symbolic
// comparison.  Per-run counters surface the BddManager::Stats block:
// computed-cache hit rate, peak node count, sift passes/swaps.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "ictl.hpp"

namespace {

using namespace ictl;

// Reports the growth of an obs::Registry counter across the timed loop as a
// benchmark counter of the same name.  Counters record whenever the
// instrumentation is compiled in (no runtime arming needed); in an obs-off
// build the delta is 0 and the key simply reads as absent activity.
class RegistryDelta {
 public:
  RegistryDelta(const char* scope, const char* name)
      : scope_(scope),
        name_(name),
        start_(obs::Registry::global().value(scope, name)) {}
  void report(benchmark::State& state) const {
    state.counters[name_] = static_cast<double>(
        obs::Registry::global().value(scope_, name_) - start_);
  }

 private:
  const char* scope_;
  const char* name_;
  std::uint64_t start_;
};

void report_manager_counters(benchmark::State& state,
                             const symbolic::BddManager& mgr) {
  const auto& s = mgr.stats();
  state.counters["peak_nodes"] = static_cast<double>(s.peak_nodes);
  state.counters["live_nodes"] = static_cast<double>(mgr.live_nodes());
  const double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  state.counters["cache_hit_pct"] =
      lookups > 0 ? 100.0 * static_cast<double>(s.cache_hits) / lookups : 0.0;
  state.counters["cache_evictions"] = static_cast<double>(s.cache_evictions);
  state.counters["cache_entries"] = static_cast<double>(s.cache_entries);
  state.counters["sift_passes"] = static_cast<double>(s.sift_passes);
  state.counters["sift_swaps"] = static_cast<double>(s.sift_swaps);
  state.counters["gc_runs"] = static_cast<double>(s.gc_runs);
  state.counters["gc_retired"] = static_cast<double>(s.gc_retired);
}

void BM_SymbolicBuildRing(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  std::size_t relation_nodes = 0;
  std::size_t slots = 0;
  for (auto _ : state) {
    const auto ring = symbolic::build_symbolic_ring(r);
    relation_nodes = ring.system->relation_node_count();
    slots = ring.system->manager().num_nodes();
    benchmark::DoNotOptimize(relation_nodes);
  }
  state.counters["relation_nodes"] = static_cast<double>(relation_nodes);
  // Node slots the build allocated on its fresh manager: beside
  // relation_nodes, the build's allocation ratio.
  state.counters["slots"] = static_cast<double>(slots);
  state.SetComplexityN(r);
}
BENCHMARK(BM_SymbolicBuildRing)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(96)
    ->Arg(128)
    ->Arg(192)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_SymbolicReachable(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  std::shared_ptr<symbolic::TransitionSystem> last;
  const RegistryDelta sweeps("sym", "saturation_sweeps");
  const RegistryDelta posts("sym", "post_images");
  for (auto _ : state) {
    // Build + saturation least fixpoint + count: the whole "how many
    // states" pipeline, which the relation build now dominates.
    const auto ring = symbolic::build_symbolic_ring(r);
    benchmark::DoNotOptimize(ring.system->num_states());
    last = ring.system;
  }
  if (last != nullptr) report_manager_counters(state, last->manager());
  sweeps.report(state);
  posts.report(state);
}
BENCHMARK(BM_SymbolicReachable)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(96)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_SymbolicReachable256(benchmark::State& state) {
  // The raised cap, measured separately so its multi-second runs don't
  // crowd the sweep above.
  for (auto _ : state) {
    const auto ring = symbolic::build_symbolic_ring(256);
    benchmark::DoNotOptimize(ring.system->num_states());
  }
}
BENCHMARK(BM_SymbolicReachable256)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_SymbolicCheckCriticalImpliesToken(benchmark::State& state) {
  // P2 of Section 5, /\i AG(c_i -> t_i): an index-quantified AG checked by
  // symbolic fixpoint (the property the acceptance criteria pin at r = 32).
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto ring = symbolic::build_symbolic_ring(r);
  const auto f = ring::property_critical_implies_token();
  for (auto _ : state) {
    symbolic::CtlChecker checker(ring.system);
    benchmark::DoNotOptimize(checker.holds_initially(f));
  }
  report_manager_counters(state, ring.system->manager());
}
BENCHMARK(BM_SymbolicCheckCriticalImpliesToken)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Unit(benchmark::kMillisecond);

void BM_SymbolicCheckOneToken(benchmark::State& state) {
  // I3, AG one(t), over the materialized theta function.
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto ring = symbolic::build_symbolic_ring(r);
  const auto f = ring::invariant_one_token();
  for (auto _ : state) {
    symbolic::CtlChecker checker(ring.system);
    benchmark::DoNotOptimize(checker.holds_initially(f));
  }
}
BENCHMARK(BM_SymbolicCheckOneToken)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_SymbolicSectionFiveSuite(benchmark::State& state) {
  // All six Section 5 specifications on one symbolic instance, sharing one
  // checker (and so the hash-consed-formula memo) across the suite.
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto ring = symbolic::build_symbolic_ring(r);
  const auto specs = ring::section5_specifications();
  const RegistryDelta pres("sym", "pre_images");
  for (auto _ : state) {
    symbolic::CtlChecker checker(ring.system);
    for (const auto& [name, f] : specs)
      benchmark::DoNotOptimize(checker.holds_initially(f));
  }
  pres.report(state);
}
BENCHMARK(BM_SymbolicSectionFiveSuite)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SymbolicSiftScrambledRing(benchmark::State& state) {
  // Dynamic reordering at work: the ring built under a scrambled pair-block
  // order, reachability computed, then one full sifting pass.  The counters
  // report how much of the damage sifting undoes.
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t num_vars = 2 * (2 * r + 1);
  std::size_t live_before = 0, live_after = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Inline copy of testing::scrambled_pair_order (tests/helpers.hpp) —
    // bench binaries do not include the test tree.
    std::vector<std::uint32_t> order;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + r;
    std::vector<std::uint32_t> blocks(num_vars / 2);
    for (std::uint32_t b = 0; b < blocks.size(); ++b) blocks[b] = b;
    for (std::size_t i = blocks.size(); i > 1; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(blocks[i - 1], blocks[x % i]);
    }
    for (const std::uint32_t b : blocks) {
      order.push_back(2 * b);
      order.push_back(2 * b + 1);
    }
    auto mgr = std::make_shared<symbolic::BddManager>(num_vars);
    mgr->set_initial_order(order);
    const auto ring = symbolic::build_symbolic_ring(r, mgr);
    benchmark::DoNotOptimize(ring.system->num_states());
    live_before = mgr->live_nodes();
    state.ResumeTiming();
    live_after = mgr->reorder_now();
    benchmark::DoNotOptimize(live_after);
  }
  state.counters["live_before"] = static_cast<double>(live_before);
  state.counters["live_after"] = static_cast<double>(live_after);
}
BENCHMARK(BM_SymbolicSiftScrambledRing)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SymbolicStoreSaveRing(benchmark::State& state) {
  // Serializing the partitioned relation + reachable fixpoint of M_r to the
  // versioned node store (bdd_store): the write half of "compute once,
  // reload forever".
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto ring = symbolic::build_symbolic_ring(r);
  benchmark::DoNotOptimize(ring.system->num_states());
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    symbolic::save_transition_system(*ring.system, out);
    bytes = out.str().size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["blob_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SymbolicStoreSaveRing)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_SymbolicStoreLoadRing(benchmark::State& state) {
  // Reloading the same blob into a fresh manager — the number to compare
  // against BM_SymbolicReachable at the same r: the loaded system adopts
  // the saved fixpoint, so num_states() returns without any saturation.
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto ring = symbolic::build_symbolic_ring(r);
  benchmark::DoNotOptimize(ring.system->num_states());
  std::ostringstream out;
  symbolic::save_transition_system(*ring.system, out);
  const std::string blob = out.str();
  for (auto _ : state) {
    std::istringstream in(blob);
    const auto loaded =
        symbolic::load_transition_system(in, ring.system->registry());
    benchmark::DoNotOptimize(loaded.num_states());
  }
  state.counters["blob_bytes"] = static_cast<double>(blob.size());
}
BENCHMARK(BM_SymbolicStoreLoadRing)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_SymbolicVerifyRotation(benchmark::State& state) {
  // The rotation check a cold folding checker pays once per system: every
  // iteration reloads the ring into a fresh manager and builds T & reach
  // untimed, then times verified_rotation() — the labels, the reachable
  // set and T & reach each renamed by π and compared by handle.  A false
  // verdict is an error, not a number.
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto ring = symbolic::build_symbolic_ring(r);
  benchmark::DoNotOptimize(ring.system->num_states());
  std::ostringstream out;
  symbolic::save_transition_system(*ring.system, out);
  const std::string blob = out.str();
  std::optional<symbolic::TransitionSystem> loaded;
  std::size_t nodes_added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    loaded.reset();
    std::istringstream in(blob);
    loaded.emplace(symbolic::load_transition_system(in, ring.system->registry()));
    benchmark::DoNotOptimize(loaded->reachable_transitions());
    const std::size_t nodes = loaded->manager().num_nodes();
    state.ResumeTiming();
    const bool verified = loaded->verified_rotation();
    benchmark::DoNotOptimize(verified);
    if (!verified) {
      state.SkipWithError("the ring rotation failed verification");
      break;
    }
    nodes_added = loaded->manager().num_nodes() - nodes;
  }
  // Node slots the verification allocated on the reloaded manager.
  state.counters["nodes_added"] = static_cast<double>(nodes_added);
}
BENCHMARK(BM_SymbolicVerifyRotation)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_SymbolicRestrictedRelation(benchmark::State& state) {
  // The relation every EU/EG round and the rotation check read: each
  // iteration reloads the ring (with its reachable set) into a fresh
  // manager untimed, then times reachable_transitions() — one or_all pass
  // over the parts with reach as its care set.
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto ring = symbolic::build_symbolic_ring(r);
  benchmark::DoNotOptimize(ring.system->num_states());
  std::ostringstream out;
  symbolic::save_transition_system(*ring.system, out);
  const std::string blob = out.str();
  std::optional<symbolic::TransitionSystem> loaded;
  std::size_t nodes_added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    loaded.reset();
    std::istringstream in(blob);
    loaded.emplace(symbolic::load_transition_system(in, ring.system->registry()));
    const std::size_t nodes = loaded->manager().num_nodes();
    state.ResumeTiming();
    benchmark::DoNotOptimize(loaded->reachable_transitions());
    nodes_added = loaded->manager().num_nodes() - nodes;
  }
  // Node slots the build allocated on the reloaded manager.
  state.counters["nodes_added"] = static_cast<double>(nodes_added);
}
BENCHMARK(BM_SymbolicRestrictedRelation)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_SymbolicColdCheck(benchmark::State& state) {
  // One cold liveness query as perfbench's sym_check runs it: every
  // iteration reloads M_r into a fresh manager and checks P4,
  // /\i AG(d_i -> AF c_i), with a fresh checker, so the computed table is
  // sized and filled from nothing each time.  P4 holds on every M_r; a
  // false verdict is an error, not a number.
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto ring = symbolic::build_symbolic_ring(r);
  benchmark::DoNotOptimize(ring.system->num_states());
  std::ostringstream out;
  symbolic::save_transition_system(*ring.system, out);
  const std::string blob = out.str();
  const auto f = ring::property_eventually_critical();
  symbolic::BddManager::Stats stats;
  for (auto _ : state) {
    std::istringstream in(blob);
    const auto loaded = std::make_shared<const symbolic::TransitionSystem>(
        symbolic::load_transition_system(in, ring.system->registry()));
    symbolic::CtlChecker checker(loaded);
    const bool holds = checker.holds_initially(f);
    benchmark::DoNotOptimize(holds);
    if (!holds) {
      state.SkipWithError("P4 failed on the reloaded ring");
      break;
    }
    stats = loaded->manager().stats();
  }
  // The last query's table: its size and how the lookups fared in it.
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  state.counters["cache_entries"] = static_cast<double>(stats.cache_entries);
  state.counters["cache_lookups"] = lookups;
  state.counters["cache_hit_pct"] =
      lookups > 0 ? 100.0 * static_cast<double>(stats.cache_hits) / lookups : 0.0;
}
BENCHMARK(BM_SymbolicColdCheck)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_SymbolicReachableWithAutoGc(benchmark::State& state) {
  // The full reachability pipeline with mark-and-sweep armed: transient
  // frontier garbage is reclaimed as it dies instead of accumulating, at
  // the cost of the sweeps themselves — the gc_runs/live_nodes counters
  // tell the story against BM_SymbolicReachable.
  const auto r = static_cast<std::uint32_t>(state.range(0));
  std::shared_ptr<symbolic::TransitionSystem> last;
  for (auto _ : state) {
    auto mgr =
        std::make_shared<symbolic::BddManager>(2 * (2 * r + 1));
    mgr->enable_auto_gc(/*slack=*/1u << 12);
    const auto ring = symbolic::build_symbolic_ring(r, mgr);
    benchmark::DoNotOptimize(ring.system->num_states());
    last = ring.system;
  }
  if (last != nullptr) report_manager_counters(state, last->manager());
}
BENCHMARK(BM_SymbolicReachableWithAutoGc)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_FromStructureBridge(benchmark::State& state) {
  // Cost of lifting an explicit structure into the symbolic engine —
  // the differential tests' path.
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto sys = ring::RingSystem::build(r);
  for (auto _ : state) {
    const auto ts = symbolic::from_structure(sys.structure());
    benchmark::DoNotOptimize(ts.transitions());
  }
}
BENCHMARK(BM_FromStructureBridge)->Arg(6)->Arg(8)->Arg(10)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
