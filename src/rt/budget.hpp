// Resource governance: budgets and cooperative cancellation for every
// long-running loop in the library.
//
// A ResourceBudget bundles four independent limits — a wall-clock deadline
// (measured on obs::now_ns(), the library's one clock), a live-BDD-node cap,
// a cumulative fixpoint-iteration cap, and an abstract work cap — plus a
// CancellationToken another thread (or a signal handler trampoline) may
// flip.  Engines never poll the budget directly: they call the free
// checkpoint helpers below, which first hit an armed failpoint of the same
// phase (rt/failpoint.hpp) and then consult the budget installed by the
// innermost BudgetScope.  A tripped checkpoint throws the typed errors
// declared here (ictl::Interrupted for cancellation or a failpoint,
// ictl::BudgetExceeded for a limit), always from a point where every
// manager and checker is consistent and reusable — the budget-trip stress
// suite re-runs the same query after a trip and demands the correct answer.
//
// Checkpoint discipline mirrors the BddManager's deferred-maintenance rule:
// checkpoints sit at iteration boundaries of public loops, never inside
// operator recursions, so unwinding only ever crosses RAII roots
// (BddRef/ProtectScope) that restore their invariants on destruction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rt/failpoint.hpp"
#include "support/error.hpp"

namespace ictl {

/// Which limit a BudgetExceeded names.
enum class BudgetKind : std::uint8_t {
  kWallClock,   ///< the deadline_ns budget elapsed
  kNodes,       ///< live BDD nodes stayed above the cap after GC and sifting
  kIterations,  ///< cumulative fixpoint iterations hit the cap
  kWork,        ///< cumulative abstract work units hit the cap
};

/// Stable lowercase name for a BudgetKind ("wall-clock", "nodes", ...).
[[nodiscard]] const char* to_string(BudgetKind kind) noexcept;

/// Raised on cooperative cancellation (a flipped CancellationToken or a
/// tripped failpoint).  The computation stopped because it was told to, not
/// because a resource ran out.
class Interrupted : public Error {
 public:
  explicit Interrupted(const std::string& what) : Error(what) {}
};

/// Raised when a ResourceBudget limit trips.  Carries which limit, the
/// checkpoint phase that observed it, and a snapshot of the obs counter
/// registry at the throw — enough for a caller (or the ictl_check JSON
/// error report) to say what the engine was doing when the budget ran out.
class BudgetExceeded : public Error {
 public:
  BudgetExceeded(BudgetKind kind, std::string phase,
                 std::vector<std::pair<std::string, std::uint64_t>> counters,
                 const std::string& what)
      : Error(what),
        kind_(kind),
        phase_(std::move(phase)),
        counters_(std::move(counters)) {}

  [[nodiscard]] BudgetKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& phase() const noexcept { return phase_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
  counters() const noexcept {
    return counters_;
  }

 private:
  BudgetKind kind_;
  std::string phase_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
};

namespace rt {

/// Cooperative cancellation flag with shared-handle semantics: copies refer
/// to the same flag, so a caller keeps one copy and hands another to the
/// budget.  cancel() is safe from any thread; the engines poll it at their
/// checkpoints and unwind with ictl::Interrupted.
class CancellationToken {
 public:
  CancellationToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() noexcept { state_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return state_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// The four limits; 0 always means unlimited.
struct BudgetLimits {
  std::uint64_t deadline_ns = 0;   ///< wall-clock budget from construction
  std::size_t node_cap = 0;        ///< live BDD nodes (per manager)
  std::uint64_t iteration_cap = 0; ///< cumulative fixpoint iterations
  std::uint64_t work_cap = 0;      ///< cumulative abstract work units
};

/// A budget for one query (or one batch): construction stamps the start
/// time, checkpoints accumulate iterations/work and compare against the
/// limits.  Install with BudgetScope; the same budget object may govern
/// several sequential scopes (counters carry over), but a fresh query
/// conventionally gets a fresh budget.
class ResourceBudget {
 public:
  /// Unlimited budget with no cancellation token.
  ResourceBudget();

  explicit ResourceBudget(BudgetLimits limits,
                          CancellationToken token = CancellationToken());

  /// Deadline/cancellation checkpoint charging `units` of work (tight
  /// worklist loops check every few thousand pops and charge them at
  /// once).  Throws Interrupted when the token is cancelled,
  /// BudgetExceeded when the deadline or the work cap tripped.
  void checkpoint(const char* phase, std::uint64_t units = 1);

  /// checkpoint() that additionally counts one fixpoint iteration against
  /// the iteration cap.  Call once per iteration of every fixpoint loop.
  void charge_iteration(const char* phase);

  /// Non-throwing poll: has the deadline passed or the token been
  /// cancelled?  For loops (sift passes) that must restore invariants
  /// before raising — poll, break cleanly, then checkpoint().
  [[nodiscard]] bool interrupt_pending() const;

  /// The live-BDD-node cap (0 = unlimited).  BddManager reads it at its
  /// maintenance points and runs the GC -> forced-sift -> throw ladder.
  [[nodiscard]] std::size_t node_cap() const noexcept {
    return limits_.node_cap;
  }

  /// Throws the BudgetExceeded for `kind` with the current obs-counter
  /// snapshot attached.  Engines call this after their own recovery has
  /// run (the BddManager node ladder); checkpoints call it internally.
  [[noreturn]] void trip(BudgetKind kind, const char* phase) const;

  [[nodiscard]] const BudgetLimits& limits() const noexcept { return limits_; }
  [[nodiscard]] std::uint64_t iterations() const noexcept { return iterations_; }
  [[nodiscard]] std::uint64_t work() const noexcept { return work_; }
  /// Nanoseconds since construction.
  [[nodiscard]] std::uint64_t elapsed_ns() const;

 private:
  BudgetLimits limits_;
  CancellationToken token_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t work_ = 0;
};

/// The budget installed by the innermost live BudgetScope, or nullptr.
/// Like the obs registry, this is a single (per-process) slot: the engines
/// are single-threaded by design, and the parallel roadmap item gets
/// per-worker slots before this grows a mutex.
[[nodiscard]] ResourceBudget* current_budget() noexcept;

/// RAII installer: the budget governs every checkpoint until the scope
/// closes (restoring the previously installed budget, so scopes nest).
/// After an unwound trip the scope has closed — which is exactly why a
/// post-trip audit() or retry runs unthrottled.
class BudgetScope {
 public:
  explicit BudgetScope(ResourceBudget& budget);
  ~BudgetScope();
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  ResourceBudget* prev_;
};

/// The one interruption point the engine loops call.  It hits an armed
/// failpoint named `phase`, with or without a budget, and then charges
/// `units` of work to the installed budget.  With nothing armed and no
/// budget installed it is two loads and two never-taken branches.
inline void checkpoint(const char* phase, std::uint64_t units = 1) {
  if (detail::g_failpoints_armed) [[unlikely]] detail::failpoint_hit(phase);
  if (ResourceBudget* b = current_budget()) b->checkpoint(phase, units);
}

/// checkpoint(phase) that also counts one fixpoint iteration.
inline void charge_iteration(const char* phase) {
  if (detail::g_failpoints_armed) [[unlikely]] detail::failpoint_hit(phase);
  if (ResourceBudget* b = current_budget()) b->charge_iteration(phase);
}

/// Non-throwing poll of the installed budget (false when none).
[[nodiscard]] inline bool interrupt_pending() noexcept {
  ResourceBudget* b = current_budget();
  return b != nullptr && b->interrupt_pending();
}

/// {"error": {"kind": ..., "phase": ..., "what": ...}, "counters": {...}} —
/// the machine-readable trip report ictl_check emits, built from the
/// snapshot the exception captured at the throw.
[[nodiscard]] std::string error_report_json(const BudgetExceeded& e);

/// The Interrupted variant ({"error": {"kind": "interrupted", ...}}).
[[nodiscard]] std::string error_report_json(const Interrupted& e);

}  // namespace rt
}  // namespace ictl
