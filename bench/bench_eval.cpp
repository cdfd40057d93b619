// Benchmarks for the evaluation core introduced with src/eval/: compiling
// CTL to FixpointProgram IR (throughput + the per-formula program cache)
// and running the compiled programs through the explicit backend on rings.
// BM_CompiledCtlLabelingOnRing mirrors BM_CtlLabelingOnRing in
// bench_mc_direct_vs_reduced.cpp — same structure, same formula — so the
// compile-then-evaluate façade's overhead over the old recursive walk is a
// direct A/B in one snapshot.  Per-run counters surface the compiler and
// evaluator stats blocks (instructions, CSE hits, fixpoint iterations,
// register high-water).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "ictl.hpp"

namespace {

using namespace ictl;

std::vector<std::uint32_t> indices_up_to(std::uint32_t r) {
  std::vector<std::uint32_t> indices;
  for (std::uint32_t i = 1; i <= r; ++i) indices.push_back(i);
  return indices;
}

// Pure compile throughput: lower the whole Section 5 suite for an r-process
// index set, cold compiler every iteration (no cache hits).  Index
// expansion makes program size linear in r, so the Arg sweep doubles as a
// codegen-scaling check.
void BM_CompileSectionFiveSuite(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto indices = indices_up_to(r);
  // Leaves resolve against the ring's own propositions, as in every
  // production compile.
  const auto registry = symbolic::build_symbolic_ring(r).system->registry();
  const auto suite = ring::section5_specifications();
  std::uint64_t instructions = 0;
  std::uint64_t cse_hits = 0;
  for (auto _ : state) {
    eval::ProgramCompiler compiler(indices, registry);
    instructions = 0;
    for (const auto& [name, f] : suite) {
      const auto program = compiler.compile(f);
      instructions += program->code.size();
      benchmark::DoNotOptimize(program->num_registers);
    }
    cse_hits = compiler.stats().cse_hits;
  }
  state.counters["instructions"] = static_cast<double>(instructions);
  state.counters["cse_hits"] = static_cast<double>(cse_hits);
  state.SetComplexityN(r);
}
BENCHMARK(BM_CompileSectionFiveSuite)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Complexity();

// The warm path every re-check takes: compile() on an already-compiled
// formula is one hash lookup returning the shared program.
void BM_CompileCacheHit(benchmark::State& state) {
  eval::ProgramCompiler compiler(indices_up_to(8),
                                 symbolic::build_symbolic_ring(8).system->registry());
  const auto suite = ring::section5_specifications();
  for (const auto& [name, f] : suite)
    benchmark::DoNotOptimize(compiler.compile(f));
  for (auto _ : state) {
    for (const auto& [name, f] : suite)
      benchmark::DoNotOptimize(compiler.compile(f));
  }
  state.counters["cache_hits"] =
      static_cast<double>(compiler.stats().cache_hits);
}
BENCHMARK(BM_CompileCacheHit);

// Compile + evaluate through the mc::CtlChecker façade on growing rings:
// the compiled-core twin of BM_CtlLabelingOnRing (same structure, same
// property_eventually_critical).  Fresh checker per iteration so the memo
// never short-circuits the evaluator.
void BM_CompiledCtlLabelingOnRing(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto sys = ring::RingSystem::build(r);
  const auto f = ring::property_eventually_critical();
  eval::EvalStats stats;
  for (auto _ : state) {
    mc::CtlChecker checker(sys.structure());
    benchmark::DoNotOptimize(checker.sat(f));
    stats = checker.eval_stats();
  }
  state.counters["states"] = static_cast<double>(sys.structure().num_states());
  state.counters["instructions"] = static_cast<double>(stats.instructions);
  state.counters["fixpoint_iterations"] =
      static_cast<double>(stats.fixpoint_iterations);
  state.counters["register_high_water"] =
      static_cast<double>(stats.register_high_water);
  // Per-opcode executed-instruction counts (one checker run), so the
  // BENCH_N.json snapshot records the opcode mix, not just the total.
  for (std::size_t i = 0; i < eval::kNumOpCodes; ++i) {
    if (stats.op_count[i] == 0) continue;
    state.counters["op_" +
                   std::string(eval::opcode_name(
                       static_cast<eval::OpCode>(i)))] =
        static_cast<double>(stats.op_count[i]);
  }
}
BENCHMARK(BM_CompiledCtlLabelingOnRing)
    ->DenseRange(2, 13, 1)
    ->Unit(benchmark::kMillisecond);

// The full Section 5 suite through one warm explicit checker: programs
// compile once, every sat() after that is evaluator time only.
void BM_CompiledSectionFiveSuite(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto sys = ring::RingSystem::build(r);
  const auto suite = ring::section5_specifications();
  mc::CtlChecker warm(sys.structure());
  for (const auto& [name, f] : suite)
    benchmark::DoNotOptimize(warm.holds_initially(f));
  for (auto _ : state) {
    mc::CtlChecker checker(sys.structure());
    for (const auto& [name, f] : suite)
      benchmark::DoNotOptimize(checker.holds_initially(f));
  }
  state.counters["programs"] =
      static_cast<double>(warm.compile_stats().programs_compiled);
}
BENCHMARK(BM_CompiledSectionFiveSuite)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
