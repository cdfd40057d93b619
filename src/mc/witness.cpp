#include "mc/witness.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "logic/printer.hpp"
#include "rt/budget.hpp"
#include "support/error.hpp"

namespace ictl::mc {

using kripke::StateId;
using logic::FormulaPtr;
using logic::Kind;

namespace {

/// Shortest path from `start` through `allowed` states ending in `targets`
/// (the start may itself be a target).  Parents via BFS.
std::optional<std::vector<StateId>> bfs_until(const kripke::Structure& m,
                                              StateId start, const SatSet& allowed,
                                              const SatSet& targets) {
  if (targets.test(start)) return std::vector<StateId>{start};
  if (!allowed.test(start)) return std::nullopt;
  std::vector<StateId> parent(m.num_states(), kripke::kNoState);
  std::queue<StateId> frontier;
  frontier.push(start);
  parent[start] = start;
  std::uint64_t pops = 0;
  while (!frontier.empty()) {
    if ((++pops & 0xfff) == 0) rt::checkpoint("mc/witness_bfs", 0x1000);
    const StateId s = frontier.front();
    frontier.pop();
    for (const StateId t : m.successors(s)) {
      if (parent[t] != kripke::kNoState) continue;
      parent[t] = s;
      if (targets.test(t)) {
        std::vector<StateId> path{t};
        for (StateId at = s; at != start; at = parent[at]) path.push_back(at);
        path.push_back(start);
        std::reverse(path.begin(), path.end());
        return path;
      }
      if (allowed.test(t)) frontier.push(t);
    }
  }
  return std::nullopt;
}

/// A lasso from `start` staying inside `core` forever.  Every state of
/// `core` = Sat(EG f) has a successor in `core`, so a greedy walk must
/// eventually revisit a state.
Trace lasso_within(const kripke::Structure& m, StateId start, const SatSet& core) {
  ICTL_ASSERT(core.test(start));
  std::vector<StateId> path;
  std::vector<std::size_t> position(m.num_states(), static_cast<std::size_t>(-1));
  StateId current = start;
  while (position[current] == static_cast<std::size_t>(-1)) {
    position[current] = path.size();
    path.push_back(current);
    StateId next = kripke::kNoState;
    for (const StateId t : m.successors(current)) {
      if (core.test(t)) {
        next = t;
        break;
      }
    }
    ICTL_ASSERT(next != kripke::kNoState);  // core is closed under some successor
    current = next;
  }
  Trace trace;
  trace.states = std::move(path);
  trace.cycle_start = position[current];
  return trace;
}

/// Builds the witness trace for an E-shape at `state` (which must satisfy
/// it).  Supported shapes: E F f, E G f, E (f U g).
Trace build_witness(CtlChecker& checker, const FormulaPtr& shape, StateId state) {
  const kripke::Structure& m = checker.ops().model();
  ICTL_ASSERT(shape->kind() == Kind::kExistsPath);
  const FormulaPtr& path_formula = shape->lhs();
  switch (path_formula->kind()) {
    case Kind::kEventually: {
      SatSet all(m.num_states());
      all.set_all();
      auto path = bfs_until(m, state, all, checker.sat(path_formula->lhs()));
      ICTL_ASSERT(path.has_value());
      return Trace{std::move(*path), std::nullopt};
    }
    case Kind::kUntil: {
      auto path = bfs_until(m, state, checker.sat(path_formula->lhs()),
                            checker.sat(path_formula->rhs()));
      ICTL_ASSERT(path.has_value());
      return Trace{std::move(*path), std::nullopt};
    }
    case Kind::kAlways: {
      return lasso_within(m, state, checker.sat(shape));
    }
    default:
      throw LogicError("build_witness: unsupported shape: " +
                       logic::to_string(shape));
  }
}

}  // namespace

std::optional<Explanation> explain(CtlChecker& checker, const FormulaPtr& f,
                                   StateId state) {
  support::require<LogicError>(f != nullptr, "explain: null formula");
  const kripke::Structure& m = checker.ops().model();
  support::require<ModelError>(state < m.num_states(), "explain: bad state");
  const bool verdict = checker.sat(f).test(state);

  auto witness_for = [&](const FormulaPtr& shape) -> std::optional<Explanation> {
    if (!checker.sat(shape).test(state)) return std::nullopt;
    Explanation e;
    e.kind = WitnessKind::kWitness;
    e.shape = shape;
    e.trace = build_witness(checker, shape, state);
    return e;
  };

  if (f->kind() == Kind::kExistsPath && verdict) {
    const FormulaPtr& g = f->lhs();
    switch (g->kind()) {
      case Kind::kEventually:
      case Kind::kAlways:
      case Kind::kUntil:
        return witness_for(f);
      case Kind::kRelease: {
        // E(a R b) holds through EG b or E[b U (a & b)].
        const FormulaPtr eg = logic::EG(g->rhs());
        if (auto e = witness_for(eg)) return e;
        return witness_for(
            logic::EU(g->rhs(), logic::make_and(g->lhs(), g->rhs())));
      }
      default:
        return std::nullopt;
    }
  }

  if (f->kind() == Kind::kForallPath && !verdict) {
    const FormulaPtr& g = f->lhs();
    auto counterexample_for = [&](const FormulaPtr& shape)
        -> std::optional<Explanation> {
      auto e = witness_for(shape);
      if (e.has_value()) e->kind = WitnessKind::kCounterexample;
      return e;
    };
    switch (g->kind()) {
      case Kind::kAlways:  // AG f fails: EF !f
        return counterexample_for(logic::EF(logic::make_not(g->lhs())));
      case Kind::kEventually:  // AF f fails: EG !f
        return counterexample_for(logic::EG(logic::make_not(g->lhs())));
      case Kind::kUntil: {
        // A(a U b) fails: E[!b U (!a & !b)] or EG !b.
        const FormulaPtr nb = logic::make_not(g->rhs());
        if (auto e = counterexample_for(
                logic::EU(nb, logic::make_and(logic::make_not(g->lhs()), nb))))
          return e;
        return counterexample_for(logic::EG(nb));
      }
      case Kind::kRelease:  // A(a R b) fails: E[!a U !b]
        return counterexample_for(
            logic::EU(logic::make_not(g->lhs()), logic::make_not(g->rhs())));
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

bool validate_trace(CtlChecker& checker, const FormulaPtr& shape, const Trace& trace,
                    StateId start) {
  const kripke::Structure& m = checker.ops().model();
  if (trace.states.empty() || trace.states.front() != start) return false;
  // Transition validity, including the closing edge of a lasso.
  for (std::size_t i = 0; i + 1 < trace.states.size(); ++i) {
    const auto succ = m.successors(trace.states[i]);
    if (std::find(succ.begin(), succ.end(), trace.states[i + 1]) == succ.end())
      return false;
  }
  if (trace.is_lasso()) {
    if (*trace.cycle_start >= trace.states.size()) return false;
    const auto succ = m.successors(trace.states.back());
    if (std::find(succ.begin(), succ.end(), trace.states[*trace.cycle_start]) ==
        succ.end())
      return false;
  }

  if (shape->kind() != Kind::kExistsPath) return false;
  const FormulaPtr& g = shape->lhs();
  switch (g->kind()) {
    case Kind::kEventually:
      return checker.sat(g->lhs()).test(trace.states.back());
    case Kind::kUntil: {
      if (!checker.sat(g->rhs()).test(trace.states.back())) return false;
      for (std::size_t i = 0; i + 1 < trace.states.size(); ++i)
        if (!checker.sat(g->lhs()).test(trace.states[i])) return false;
      return true;
    }
    case Kind::kAlways: {
      if (!trace.is_lasso()) return false;
      const SatSet& body = checker.sat(g->lhs());
      for (const StateId s : trace.states)
        if (!body.test(s)) return false;
      return true;
    }
    default:
      return false;
  }
}

std::string to_string(const kripke::Structure& m, const Trace& trace) {
  std::ostringstream os;
  for (std::size_t i = 0; i < trace.states.size(); ++i) {
    if (i > 0) os << " -> ";
    if (trace.cycle_start.has_value() && *trace.cycle_start == i) os << "[";
    const StateId s = trace.states[i];
    if (!m.state_name(s).empty())
      os << m.state_name(s);
    else
      os << "s" << s;
    os << "{";
    bool first = true;
    m.label(s).for_each([&](std::size_t p) {
      if (!first) os << ",";
      os << m.registry()->display(static_cast<kripke::PropId>(p));
      first = false;
    });
    os << "}";
  }
  if (trace.is_lasso()) os << "]*";
  return os.str();
}

}  // namespace ictl::mc
