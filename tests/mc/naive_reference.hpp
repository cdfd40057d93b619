// Reference implementation of the CTL labeling primitives, kept verbatim
// from the pre-CSR checker: EX materializes a fresh set from predecessor
// lookups, E[f U g] is stack-based backward reachability, and EG recomputes
// EX of the whole candidate set every round until it stabilizes.  Slow but
// obviously correct — the differential tests pit the production engine
// (frontier worklists over the CSR arrays) against these.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "kripke/structure.hpp"
#include "logic/formula.hpp"
#include "support/bitset.hpp"
#include "support/error.hpp"

namespace ictl::mc::naive {

using SatSet = support::DynamicBitset;

inline SatSet ex(const kripke::Structure& m, const SatSet& f) {
  SatSet s(m.num_states());
  f.for_each([&](std::size_t t) {
    for (const kripke::StateId p : m.predecessors(static_cast<kripke::StateId>(t)))
      s.set(p);
  });
  return s;
}

inline SatSet eu(const kripke::Structure& m, const SatSet& f, const SatSet& g) {
  SatSet result = g;
  std::vector<kripke::StateId> stack;
  g.for_each([&](std::size_t s) { stack.push_back(static_cast<kripke::StateId>(s)); });
  while (!stack.empty()) {
    const kripke::StateId s = stack.back();
    stack.pop_back();
    for (const kripke::StateId p : m.predecessors(s)) {
      if (!result.test(p) && f.test(p)) {
        result.set(p);
        stack.push_back(p);
      }
    }
  }
  return result;
}

inline SatSet eg(const kripke::Structure& m, const SatSet& f) {
  // Greatest fixpoint: X := f; X := f & EX X until stable.
  SatSet x = f;
  while (true) {
    SatSet next = ex(m, x);
    next &= f;
    if (next == x) return x;
    x = std::move(next);
  }
}

/// States labeled `p`, by the per-state has_prop scan (independent of the
/// engine's prop columns).
inline SatSet prop(const kripke::Structure& m, kripke::PropId p) {
  SatSet s(m.num_states());
  for (kripke::StateId st = 0; st < m.num_states(); ++st)
    if (m.has_prop(st, p)) s.set(st);
  return s;
}

/// States labeled by exactly one of `members`, by per-state recount.
inline SatSet exactly_one(const kripke::Structure& m,
                          std::span<const kripke::PropId> members) {
  SatSet s(m.num_states());
  for (kripke::StateId st = 0; st < m.num_states(); ++st) {
    std::size_t holders = 0;
    for (const kripke::PropId p : members) holders += m.has_prop(st, p) ? 1 : 0;
    if (holders == 1) s.set(st);
  }
  return s;
}

/// Leaf sets, with names resolved here rather than by the engines' resolver
/// (eval::resolve_leaf), so the differential suites test that too: a plain
/// name falls back to the index-erased A[.], `one P` scans the registry for
/// P's members when no theta proposition is registered, and unknown atoms
/// read as false.
inline SatSet leaf(const kripke::Structure& m, const logic::FormulaPtr& f) {
  using logic::Kind;
  const kripke::PropRegistry& reg = *m.registry();
  SatSet s(m.num_states());
  std::optional<kripke::PropId> p;
  switch (f->kind()) {
    case Kind::kTrue:
      s.set_all();
      return s;
    case Kind::kFalse:
      return s;
    case Kind::kAtom:
      p = reg.find_plain(f->name());
      if (!p.has_value()) p = reg.find_indexed_base(f->name());
      break;
    case Kind::kIndexedAtom:
      p = reg.find_indexed(f->name(), f->index_value().value());
      break;
    case Kind::kExactlyOne: {
      p = reg.find_theta(f->name());
      if (p.has_value()) break;
      std::vector<kripke::PropId> members;
      for (kripke::PropId id = 0; id < reg.size(); ++id)
        if (reg.kind(id) == kripke::PropKind::kIndexed && reg.base_name(id) == f->name())
          members.push_back(id);
      return exactly_one(m, members);
    }
    default:
      throw LogicError("naive::leaf: unsupported leaf");
  }
  return p.has_value() ? prop(m, *p) : s;
}

/// Recursive CTL evaluation over the naive primitives; handles exactly the
/// grammar the randomized differential test generates.
inline SatSet sat(const kripke::Structure& m, const logic::FormulaPtr& f) {
  using logic::Kind;
  const std::size_t n = m.num_states();
  auto top = [&] {
    SatSet s(n);
    s.set_all();
    return s;
  };
  auto complement = [](SatSet s) {
    s.flip();
    return s;
  };
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
    case Kind::kIndexedAtom:
    case Kind::kExactlyOne:
      return leaf(m, f);
    case Kind::kNot:
      return complement(sat(m, f->lhs()));
    case Kind::kAnd:
      return sat(m, f->lhs()) & sat(m, f->rhs());
    case Kind::kOr:
      return sat(m, f->lhs()) | sat(m, f->rhs());
    case Kind::kImplies:
      return complement(sat(m, f->lhs())) | sat(m, f->rhs());
    case Kind::kIff: {
      SatSet s = sat(m, f->lhs());
      s ^= sat(m, f->rhs());
      s.flip();
      return s;
    }
    case Kind::kExistsPath:
    case Kind::kForallPath: {
      const bool exists = f->kind() == Kind::kExistsPath;
      const logic::FormulaPtr& g = f->lhs();
      switch (g->kind()) {
        case Kind::kEventually: {
          const SatSet target = sat(m, g->lhs());
          if (exists) return eu(m, top(), target);
          return complement(eg(m, complement(target)));
        }
        case Kind::kAlways: {
          const SatSet body = sat(m, g->lhs());
          if (exists) return eg(m, body);
          return complement(eu(m, top(), complement(body)));
        }
        case Kind::kUntil: {
          const SatSet a = sat(m, g->lhs());
          const SatSet b = sat(m, g->rhs());
          if (exists) return eu(m, a, b);
          SatSet na = complement(a);
          SatSet nb = complement(b);
          SatSet bad = eu(m, nb, na & nb);
          bad |= eg(m, nb);
          return complement(std::move(bad));
        }
        case Kind::kRelease: {
          const SatSet a = sat(m, g->lhs());
          const SatSet b = sat(m, g->rhs());
          if (exists) {  // E[a R b] = EG b | E[b U (a & b)]
            SatSet res = eg(m, b);
            res |= eu(m, b, a & b);
            return res;
          }
          // A[a R b] = !E[!a U !b]
          return complement(eu(m, complement(a), complement(b)));
        }
        default:
          throw LogicError("naive::sat: unsupported path formula");
      }
    }
    default:
      throw LogicError("naive::sat: unsupported state formula");
  }
}

/// The naive engine as an eval::StateSetOps backend: the differential
/// harness runs the *same* compiled FixpointProgram on these primitives,
/// the production CSR ops, and the BDD ops.  EG deliberately recomputes EX
/// of the whole candidate set per round (counting rounds as iterations) —
/// slow but obviously correct.
class NaiveStateOps {
 public:
  using Set = SatSet;

  explicit NaiveStateOps(const kripke::Structure& m) : m_(m) {}

  [[nodiscard]] Set top() const {
    Set s(m_.num_states());
    s.set_all();
    return s;
  }
  [[nodiscard]] Set bottom() const { return Set(m_.num_states()); }
  [[nodiscard]] Set prop(kripke::PropId p) const { return naive::prop(m_, p); }
  [[nodiscard]] Set exactly_one(std::span<const kripke::PropId> members) const {
    return naive::exactly_one(m_, members);
  }
  [[nodiscard]] Set complement(const Set& s) const {
    Set r = s;
    r.flip();
    return r;
  }
  [[nodiscard]] Set conj(const Set& a, const Set& b) const { return a & b; }
  [[nodiscard]] Set disj(const Set& a, const Set& b) const { return a | b; }
  [[nodiscard]] Set iff(const Set& a, const Set& b) const {
    Set r = a;
    r ^= b;
    r.flip();
    return r;
  }
  [[nodiscard]] Set ex(const Set& f) const { return naive::ex(m_, f); }
  [[nodiscard]] Set eu(const Set& f, const Set& g) {
    last_iterations_ = 0;
    Set result = g;
    std::vector<kripke::StateId> stack;
    g.for_each([&](std::size_t s) { stack.push_back(static_cast<kripke::StateId>(s)); });
    while (!stack.empty()) {
      ++last_iterations_;
      const kripke::StateId s = stack.back();
      stack.pop_back();
      for (const kripke::StateId p : m_.predecessors(s)) {
        if (!result.test(p) && f.test(p)) {
          result.set(p);
          stack.push_back(p);
        }
      }
    }
    return result;
  }
  [[nodiscard]] Set eg(const Set& f) {
    last_iterations_ = 0;
    Set x = f;
    while (true) {
      ++last_iterations_;
      Set next = naive::ex(m_, x);
      next &= f;
      if (next == x) return x;
      x = std::move(next);
    }
  }
  [[nodiscard]] std::uint64_t last_fixpoint_iterations() const noexcept {
    return last_iterations_;
  }

 private:
  const kripke::Structure& m_;
  std::uint64_t last_iterations_ = 0;
};

}  // namespace ictl::mc::naive
