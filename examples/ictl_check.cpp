// Command-line model checker: read a Kripke structure from a file in the
// text format (see kripke/text_format.hpp) and check a formula against it.
//
//   $ ./ictl_check <structure-file> "<formula>"
//   $ ./ictl_check --demo            (writes and checks a demo model)
//
// Observability switches (combinable with either form):
//   --profile      print the obs percent-of-total profile report at exit
//   --trace=FILE   record a Chrome-trace JSON (chrome://tracing, Perfetto)
//   --stats=FILE   write the unified obs::Registry counter JSON ("-" = stdout)
//
// Resource budgets (see README "Resilience & budgets"):
//   --timeout=SECS     wall-clock deadline (fractional seconds accepted)
//   --node-limit=N     live-BDD-node cap (GC -> forced sift -> error ladder)
//   --iter-limit=N     cumulative fixpoint-iteration cap
//   --work-limit=N     cumulative abstract-work cap
//   --failpoint=SPEC   arm failpoints on checkpoint phases: "phase" trips
//                      the phase's next checkpoint, "phase@N" skips N
//                      checkpoints first (N below 2^64); comma-separated.
//                      The ICTL_FAILPOINT environment variable takes the
//                      same spec.
//
// Exit codes: 0 holds, 1 fails, 2 usage/model/formula error, 3 wall-clock
// budget exceeded, 4 node budget exceeded, 5 iteration/work budget
// exceeded, 6 interrupted (cancellation or tripped failpoint).  On a budget
// trip with --stats=, the stats file carries the JSON error report (kind,
// phase, obs-counter snapshot at the trip) instead of plain counters.
//
// Prints the verdict, the number of satisfying states, the ICTL*
// restriction report (whether Theorem 5 would license transferring the
// verdict across network sizes), and — for E/A-shaped CTL formulas — a
// witness or counterexample trace.
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "ictl.hpp"

namespace {

constexpr const char* kDemoModel = R"(# two-process handshake demo
state 0 both_idle
label 0 idle[1] idle[2]
state 1 one_busy
label 1 busy[1] idle[2]
state 2 both_busy
label 2 busy[1] busy[2]
edge 0 1
edge 1 2
edge 1 0
edge 2 0
init 0
indices 1 2
)";

int run(const ictl::kripke::Structure& m, const std::string& formula_text) {
  using namespace ictl;
  logic::FormulaPtr formula;
  try {
    formula = logic::parse_formula(formula_text);
  } catch (const LogicError& e) {
    std::cerr << "formula error: " << e.what() << "\n";
    return 2;
  }

  const auto result = mc::check_indexed(m, formula);
  std::cout << "formula : " << logic::to_string(formula) << "\n";
  std::cout << "verdict : " << (result.holds ? "holds" : "fails")
            << " at the initial state (" << result.satisfying_states << "/"
            << m.num_states() << " states satisfy it)\n";
  if (result.restrictions.ok()) {
    std::cout << "transfer: closed restricted ICTL* formula; Theorem 5 applies "
                 "to corresponding structures\n";
  } else {
    std::cout << "transfer: NOT transferable across network sizes:\n";
    for (const auto& violation : result.restrictions.violations)
      std::cout << "          * " << violation << "\n";
  }

  // Try to produce a trace for CTL-shaped formulas.
  if (logic::is_ctl(formula)) {
    mc::CtlChecker checker(m);
    if (const auto explanation = mc::explain(checker, formula, m.initial())) {
      std::cout << (explanation->kind == mc::WitnessKind::kWitness
                        ? "witness : "
                        : "counter : ")
                << mc::to_string(m, explanation->trace) << "\n";
      std::cout << "          (demonstrates "
                << logic::to_string(explanation->shape) << ")\n";
    }
  }
  return result.holds ? 0 : 1;
}

int flush_observability(const std::string& trace_path, bool profile,
                        const std::string& stats_path,
                        const std::string& error_report) {
  using namespace ictl;
  if (!trace_path.empty()) {
    const std::size_t events = obs::trace_stop_to_file(trace_path);
    std::cout << "trace   : " << events << " events -> " << trace_path << "\n";
  }
  if (profile) std::cout << obs::Profiler::global().report();
  if (!stats_path.empty()) {
    // A budget trip's JSON error report replaces the plain counter dump:
    // it carries the same registry snapshot plus kind/phase/what.
    const std::string json =
        error_report.empty() ? obs::Registry::global().to_json() : error_report;
    if (stats_path == "-") {
      std::cout << json << "\n";
    } else {
      std::ofstream out(stats_path);
      if (!out) {
        std::cerr << "cannot open " << stats_path << "\n";
        return 2;
      }
      out << json << "\n";
    }
  }
  return 0;
}

/// Distinct exit code for each budget kind (documented in the header
/// comment and the README).
int budget_exit_code(ictl::BudgetKind kind) {
  switch (kind) {
    case ictl::BudgetKind::kWallClock:
      return 3;
    case ictl::BudgetKind::kNodes:
      return 4;
    case ictl::BudgetKind::kIterations:
    case ictl::BudgetKind::kWork:
      return 5;
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ictl;

  bool demo = false;
  bool profile = false;
  std::string trace_path;
  std::string stats_path;
  rt::BudgetLimits limits;
  std::vector<std::string> positional;
  // Digits only: strtoull would read "-1" as 2^64 - 1 and clamp an
  // out-of-range value to it.
  const auto parse_u64 = [](const char* text, std::uint64_t& out) {
    if (*text < '0' || *text > '9') return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE) return false;
    out = v;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      profile = true;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
    } else if (std::strncmp(arg, "--stats=", 8) == 0) {
      stats_path = arg + 8;
    } else if (std::strncmp(arg, "--timeout=", 10) == 0) {
      char* end = nullptr;
      const double ns = std::strtod(arg + 10, &end) * 1e9;
      // At least 1 ns, since a 0 deadline reads as unlimited, and below
      // 2^64 ns, past which (and for NaN) the conversion is undefined.
      if (end == arg + 10 || *end != '\0' || !(ns >= 1 && ns < 0x1p64)) {
        std::cerr << "bad --timeout value: " << (arg + 10) << "\n";
        return 2;
      }
      limits.deadline_ns = static_cast<std::uint64_t>(ns);
    } else if (std::strncmp(arg, "--node-limit=", 13) == 0) {
      std::uint64_t v = 0;
      if (!parse_u64(arg + 13, v) || v == 0) {
        std::cerr << "bad --node-limit value: " << (arg + 13) << "\n";
        return 2;
      }
      limits.node_cap = static_cast<std::size_t>(v);
    } else if (std::strncmp(arg, "--iter-limit=", 13) == 0) {
      if (!parse_u64(arg + 13, limits.iteration_cap) ||
          limits.iteration_cap == 0) {
        std::cerr << "bad --iter-limit value: " << (arg + 13) << "\n";
        return 2;
      }
    } else if (std::strncmp(arg, "--work-limit=", 13) == 0) {
      if (!parse_u64(arg + 13, limits.work_cap) || limits.work_cap == 0) {
        std::cerr << "bad --work-limit value: " << (arg + 13) << "\n";
        return 2;
      }
    } else if (std::strncmp(arg, "--failpoint=", 12) == 0) {
      if (!rt::arm_failpoints_from_spec(arg + 12)) {
        std::cerr << "bad --failpoint spec: " << (arg + 12) << "\n";
        return 2;
      }
    } else {
      positional.emplace_back(arg);
    }
  }
  if (demo ? !positional.empty() : positional.size() != 2) {
    std::cerr << "usage: " << argv[0]
              << " [--profile] [--trace=FILE] [--stats=FILE]"
                 " [--timeout=SECS] [--node-limit=N] [--iter-limit=N]"
                 " [--work-limit=N] [--failpoint=PHASE[@SKIP][,...]]"
                 " <structure-file> \"<formula>\"\n"
              << "       " << argv[0] << " [switches] --demo\n";
    return 2;
  }
  if (!trace_path.empty())
    obs::trace_start();
  else if (profile)
    obs::set_enabled(true);

  // The budget governs everything from parse to witness extraction; the
  // scope closes before observability flushes, so the flush itself can
  // never trip.
  rt::ResourceBudget budget(limits);
  std::string error_report;
  int status = 0;
  try {
    const rt::BudgetScope scope(budget);
    if (demo) {
      auto registry = kripke::make_registry();
      const auto m = kripke::parse_structure(kDemoModel, registry);
      std::cout << "demo model:\n" << kripke::to_text(m) << "\n";
      for (const char* text : {"AG !(busy[1] & busy[2] & idle[1])",
                               "forall i. AG (busy[i] -> AF idle[i])",
                               "EF (busy[1] & busy[2])",
                               "AG (idle[1] -> AF busy[1])"}) {
        std::cout << "---\n";
        status |= run(m, text) == 2 ? 2 : 0;
      }
    } else {
      std::ifstream file(positional[0]);
      if (!file) {
        std::cerr << "cannot open " << positional[0] << "\n";
        return 2;
      }
      try {
        auto registry = kripke::make_registry();
        const auto m = kripke::read_structure(file, registry);
        status = run(m, positional[1]);
      } catch (const BudgetExceeded&) {
        throw;  // handled by the outer budget handler
      } catch (const Interrupted&) {
        throw;
      } catch (const Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
      }
    }
  } catch (const BudgetExceeded& e) {
    std::cerr << "budget  : " << e.what() << "\n";
    error_report = rt::error_report_json(e);
    status = budget_exit_code(e.kind());
  } catch (const Interrupted& e) {
    std::cerr << "aborted : " << e.what() << "\n";
    error_report = rt::error_report_json(e);
    status = 6;
  }
  const int obs_status =
      flush_observability(trace_path, profile, stats_path, error_report);
  return obs_status != 0 ? obs_status : status;
}
