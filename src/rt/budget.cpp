#include "rt/budget.hpp"

#include <sstream>

#include "obs/obs.hpp"

namespace ictl {

const char* to_string(BudgetKind kind) noexcept {
  switch (kind) {
    case BudgetKind::kWallClock:
      return "wall-clock";
    case BudgetKind::kNodes:
      return "nodes";
    case BudgetKind::kIterations:
      return "iterations";
    case BudgetKind::kWork:
      return "work";
  }
  return "unknown";
}

namespace rt {

namespace {

// The single installed-budget slot behind current_budget()/BudgetScope.
ResourceBudget* g_current_budget = nullptr;

using obs::append_json_counters;
using obs::append_json_string;

std::string build_report(
    std::string_view kind, std::string_view phase, std::string_view what,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  std::ostringstream out;
  out << "{\n  \"error\": {\n    \"kind\": ";
  append_json_string(out, kind);
  out << ",\n    \"phase\": ";
  append_json_string(out, phase);
  out << ",\n    \"what\": ";
  append_json_string(out, what);
  out << "\n  },\n  \"counters\": ";
  append_json_counters(out, counters);
  out << "\n}";
  return out.str();
}

}  // namespace

ResourceBudget::ResourceBudget() : start_ns_(obs::now_ns()) {}

ResourceBudget::ResourceBudget(BudgetLimits limits, CancellationToken token)
    : limits_(limits), token_(std::move(token)), start_ns_(obs::now_ns()) {}

std::uint64_t ResourceBudget::elapsed_ns() const {
  return obs::now_ns() - start_ns_;
}

bool ResourceBudget::interrupt_pending() const {
  if (token_.cancelled()) return true;
  return limits_.deadline_ns != 0 && elapsed_ns() >= limits_.deadline_ns;
}

void ResourceBudget::checkpoint(const char* phase, std::uint64_t units) {
  work_ += units;
  if (limits_.work_cap != 0 && work_ > limits_.work_cap)
    trip(BudgetKind::kWork, phase);
  if (token_.cancelled()) {
    ICTL_COUNT("rt", "cancellations");
    throw Interrupted(std::string("interrupted: cancellation requested (phase ") +
                      phase + ")");
  }
  if (limits_.deadline_ns != 0 && elapsed_ns() >= limits_.deadline_ns)
    trip(BudgetKind::kWallClock, phase);
}

void ResourceBudget::charge_iteration(const char* phase) {
  ++iterations_;
  if (limits_.iteration_cap != 0 && iterations_ > limits_.iteration_cap)
    trip(BudgetKind::kIterations, phase);
  checkpoint(phase);
}

void ResourceBudget::trip(BudgetKind kind, const char* phase) const {
  ICTL_COUNT("rt", "budget_trips");
  std::ostringstream what;
  what << "budget exceeded: " << ictl::to_string(kind) << " (phase " << phase;
  switch (kind) {
    case BudgetKind::kWallClock:
      what << ", " << elapsed_ns() << " ns elapsed of " << limits_.deadline_ns;
      break;
    case BudgetKind::kNodes:
      what << ", live nodes above cap " << limits_.node_cap
           << " after GC and forced sifting";
      break;
    case BudgetKind::kIterations:
      what << ", " << iterations_ << " fixpoint iterations of "
           << limits_.iteration_cap;
      break;
    case BudgetKind::kWork:
      what << ", " << work_ << " work units of " << limits_.work_cap;
      break;
  }
  what << ")";
  throw BudgetExceeded(kind, phase, obs::Registry::global().snapshot(),
                       what.str());
}

ResourceBudget* current_budget() noexcept { return g_current_budget; }

BudgetScope::BudgetScope(ResourceBudget& budget) : prev_(g_current_budget) {
  g_current_budget = &budget;
}

BudgetScope::~BudgetScope() { g_current_budget = prev_; }

std::string error_report_json(const BudgetExceeded& e) {
  // Built from the exception's own snapshot, not the live registry: the
  // report documents the state AT the trip.
  return build_report(ictl::to_string(e.kind()), e.phase(), e.what(),
                      e.counters());
}

std::string error_report_json(const Interrupted& e) {
  return build_report("interrupted", "", e.what(),
                      obs::Registry::global().snapshot());
}

}  // namespace rt
}  // namespace ictl
