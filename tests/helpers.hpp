// Shared structure builders for the test suite.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "ictl.hpp"

namespace ictl::symbolic {

/// gtest prints a SatCount through this (found by argument-dependent
/// lookup), so a failing exact pin shows the count, not its raw bytes: the
/// decimal integer, or mantissa*2^exponent when the exponent is negative.
inline void PrintTo(const SatCount& count, std::ostream* os) {
  if (count.exponent >= 0) {
    *os << count.to_decimal_string();
    return;
  }
  SatCount mantissa = count;
  mantissa.exponent = 0;
  *os << mantissa.to_decimal_string() << "*2^" << count.exponent;
}

}  // namespace ictl::symbolic

namespace ictl::testing {

/// A deterministic level2var order that keeps each (2k, 2k+1) BDD-variable
/// pair adjacent (unprimed on top) but scrambles the pair blocks — the
/// legal order family for a manager carrying a symbolic::TransitionSystem's
/// unprimed/primed interleaving (rename's order-preservation and group
/// sifting both rely on it).
inline std::vector<std::uint32_t> scrambled_pair_order(std::uint32_t num_vars,
                                                       std::uint64_t seed) {
  std::vector<std::uint32_t> blocks(num_vars / 2);
  for (std::uint32_t b = 0; b < blocks.size(); ++b) blocks[b] = b;
  std::uint64_t x = seed * 2654435761u + 88172645463325252ULL;  // xorshift64
  for (std::size_t i = blocks.size(); i > 1; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(blocks[i - 1], blocks[x % i]);
  }
  std::vector<std::uint32_t> level2var;
  level2var.reserve(num_vars);
  for (const std::uint32_t b : blocks) {
    level2var.push_back(2 * b);
    level2var.push_back(2 * b + 1);
  }
  return level2var;
}

/// "exists v. t" for a truth table t over 6 variables (bit a holds t at
/// the assignment whose variable u is bit u of a).
inline std::uint64_t exists_table(std::uint64_t t, std::uint32_t v) {
  std::uint64_t table = 0;
  for (std::uint32_t a = 0; a < 64; ++a) {
    const std::uint32_t lo = a & ~(1u << v);
    const std::uint32_t hi = a | (1u << v);
    if (((t >> lo) & 1u) != 0 || ((t >> hi) & 1u) != 0)
      table |= std::uint64_t{1} << a;
  }
  return table;
}

/// A two-state loop a -> b -> a with labels {a} and {b}.
inline kripke::Structure two_state_loop(kripke::PropRegistryPtr reg) {
  kripke::StructureBuilder b(reg);
  const auto pa = reg->plain("a");
  const auto pb = reg->plain("b");
  const auto s0 = b.add_state({pa});
  const auto s1 = b.add_state({pb});
  b.add_transition(s0, s1);
  b.add_transition(s1, s0);
  b.set_initial(s0);
  return std::move(b).build();
}

/// The stuttered variant: a -> a -> a -> b -> (first a).  Corresponds to
/// two_state_loop with degrees 2, 1, 0 against the first/second/third
/// a-state — the Fig. 3.1 situation.
inline kripke::Structure stuttered_loop(kripke::PropRegistryPtr reg,
                                        std::size_t a_run = 3) {
  kripke::StructureBuilder b(reg);
  const auto pa = reg->plain("a");
  const auto pb = reg->plain("b");
  std::vector<kripke::StateId> as;
  for (std::size_t i = 0; i < a_run; ++i) as.push_back(b.add_state({pa}));
  const auto sb = b.add_state({pb});
  for (std::size_t i = 0; i + 1 < a_run; ++i) b.add_transition(as[i], as[i + 1]);
  b.add_transition(as.back(), sb);
  b.add_transition(sb, as.front());
  b.set_initial(as.front());
  return std::move(b).build();
}

/// A deterministic pseudo-random total structure over propositions {p, q}.
/// Same seed, same structure: usable in parameterized sweeps.
inline kripke::Structure random_structure(kripke::PropRegistryPtr reg,
                                          std::uint32_t num_states,
                                          std::uint32_t seed) {
  kripke::StructureBuilder b(reg);
  const auto pp = reg->plain("p");
  const auto pq = reg->plain("q");
  std::uint64_t x = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t s = 0; s < num_states; ++s) {
    std::vector<kripke::PropId> props;
    if (next() & 1) props.push_back(pp);
    if (next() & 1) props.push_back(pq);
    b.add_state(props);
  }
  for (std::uint32_t s = 0; s < num_states; ++s) {
    const std::uint32_t out_degree = 1 + next() % 3;
    for (std::uint32_t k = 0; k < out_degree; ++k)
      b.add_transition(s, static_cast<kripke::StateId>(next() % num_states));
  }
  b.set_initial(0);
  return kripke::restrict_to_reachable(std::move(b).build());
}

/// Token-ring family generator shared by the ring/network/bisim suites.
/// Builds the Section 5 mutual-exclusion ring M_n; pass a registry to put
/// several sizes of the family on shared propositions (the common case when
/// comparing M_n against M_{n+1}), or omit it for a fresh one.
inline ring::RingSystem ring_of(std::uint32_t n,
                                kripke::PropRegistryPtr reg = nullptr) {
  return ring::RingSystem::build(n, std::move(reg));
}

/// The family {M_n : n in sizes}, all over one shared registry so indexed
/// propositions line up across sizes.
inline std::vector<ring::RingSystem> ring_family(
    std::initializer_list<std::uint32_t> sizes,
    kripke::PropRegistryPtr reg = nullptr) {
  if (!reg) reg = kripke::make_registry();
  std::vector<ring::RingSystem> family;
  for (const auto n : sizes) family.push_back(ring::RingSystem::build(n, reg));
  return family;
}

/// The Section 5 property suite {P1..P4, I2, I3} as (name, formula) pairs —
/// the single builder every suite that checks, compiles, differentials or
/// benches the paper's specifications goes through.  Delegates to
/// ring::section5_specifications() (src/ring/ring.cpp), the library's
/// source of truth, so tests can never drift from the shipped formulas.
inline std::vector<std::pair<std::string, logic::FormulaPtr>>
section_five_properties() {
  return ring::section5_specifications();
}

/// How asymmetric_ring breaks the ring's rotation symmetry.
enum class Asymmetry {
  kExtraRule,     ///< one extra rule instance: process 1 may drop its request
  kRelabelledD1,  ///< d[1] also labels the states where process 1 holds the token
};

/// The symbolic M_r with one asymmetric process, on propositions registered
/// in `reg`: its rotation must fail verification.  kExtraRule leaves the
/// labels and the reachable set alone and breaks only the relation;
/// kRelabelledD1 breaks only a label.
inline std::shared_ptr<const symbolic::TransitionSystem> asymmetric_ring(
    std::uint32_t r, kripke::PropRegistryPtr reg, Asymmetry how) {
  using symbolic::TransitionSystem;
  const symbolic::SymbolicRing ring = symbolic::build_symbolic_ring(r, nullptr, reg);
  const TransitionSystem& ts = *ring.system;
  symbolic::BddManager& m = ts.manager();
  std::vector<symbolic::BddRef> roots(ts.partition().begin(), ts.partition().end());
  std::vector<std::pair<kripke::PropId, symbolic::BddRef>> props(ts.props().begin(),
                                                                 ts.props().end());
  const std::uint32_t d1 = symbolic::SymbolicRing::delayed_var(1);
  if (how == Asymmetry::kExtraRule) {
    symbolic::BddRef rule =
        m.bdd_and(m.var(TransitionSystem::unprimed(d1)), m.nvar(TransitionSystem::primed(d1)));
    for (std::uint32_t v = 0; v < ts.num_state_vars(); ++v)
      if (v != d1)
        rule = m.bdd_and(rule, m.bdd_iff(m.var(TransitionSystem::unprimed(v)),
                                         m.var(TransitionSystem::primed(v))));
    roots.push_back(rule);
  } else {
    const kripke::PropId d1_prop = *reg->find_indexed("d", 1);
    const std::uint32_t h1 = symbolic::SymbolicRing::holder_var(1);
    for (auto& [p, fn] : props)
      if (p == d1_prop)
        fn = m.bdd_or(m.var(TransitionSystem::unprimed(d1)),
                      m.var(TransitionSystem::unprimed(h1)));
  }
  std::vector<symbolic::Bdd> parts(roots.begin(), roots.end());
  std::vector<std::pair<kripke::PropId, symbolic::Bdd>> prop_fns;
  for (const auto& [p, fn] : props) prop_fns.emplace_back(p, fn.get());
  return std::make_shared<const TransitionSystem>(
      ring.system->manager_ptr(), ts.num_state_vars(), ts.initial(), std::move(parts),
      std::move(reg), std::move(prop_fns),
      std::vector<std::uint32_t>(ts.index_set().begin(), ts.index_set().end()));
}

}  // namespace ictl::testing
