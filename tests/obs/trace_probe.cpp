// Non-gtest probe behind the obs_trace_wellformed ctest case: arms tracing,
// drives every instrumented layer — the symbolic engine's Section 5 suite at
// r = 8 (encode, saturation reachability, compiled-program evaluation), a
// forced BDD GC sweep and sift pass, the explicit engine's EU/EG fixpoints
// at r = 4, and the Section 3 correspondence — then writes the Chrome-trace
// JSON to argv[1] for tools/check_trace.py to validate.
#include <cstdio>
#include <string>

#include "ictl.hpp"

int main(int argc, char** argv) {
  using namespace ictl;
  if (argc != 2) {
    std::fprintf(stderr, "usage: trace_probe <out.json>\n");
    return 2;
  }
  obs::trace_start();

  // Symbolic engine: reach_fixpoint / saturation_sweep / eval opcode spans.
  const auto sym = symbolic::build_symbolic_ring(8);
  symbolic::CtlChecker sym_checker(sym.system);
  for (const auto& [name, f] : ring::section5_specifications()) {
    if (!sym_checker.holds_initially(f)) {
      std::fprintf(stderr, "symbolic Section 5 FAILS: %s\n", name.c_str());
      return 1;
    }
  }
  // Force the BDD maintenance paths the small suite might not trigger on
  // its own: one explicit GC sweep and one sift pass.
  static_cast<void>(sym.system->manager().garbage_collect());
  static_cast<void>(sym.system->manager().reorder_now());

  // Explicit engine: mc eu/eg fixpoint spans over the r = 4 ring.
  auto reg = kripke::make_registry();
  const auto m4 = ring::RingSystem::build(4, reg);
  mc::CtlChecker mc_checker(m4.structure());
  if (!mc_checker.holds_initially(ring::property_critical_implies_token())) {
    std::fprintf(stderr, "explicit P2 FAILS at r=4\n");
    return 1;
  }

  // Correspondence layer: bisim/find_correspondence and friends.
  const auto m3 = ring::RingSystem::build(3, reg);
  if (!ring::explicit_ring_certificate(m3, m4).valid) {
    std::fprintf(stderr, "M_3 ~ M_4 certificate FAILED\n");
    return 1;
  }

  const std::size_t events = obs::trace_stop_to_file(argv[1]);
  std::printf("%zu trace events -> %s\n", events, argv[1]);
  return events == 0 ? 1 : 0;
}
