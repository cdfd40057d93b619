#include "network/counting_family.hpp"

namespace ictl::network {

using logic::FormulaPtr;

ProcessTemplate fig41_process() {
  ProcessTemplate t;
  const std::uint32_t a = t.add_state({"a"}, "A");
  const std::uint32_t b = t.add_state({"b"}, "B");
  t.add_transition(a, b);
  t.add_transition(b, b);  // B is absorbing: once true, it remains true
  t.set_initial(a);
  return t;
}

kripke::Structure counting_network(std::size_t n, kripke::PropRegistryPtr registry) {
  return free_product(fig41_process(), n, std::move(registry));
}

FormulaPtr at_least_k_processes(std::size_t k) {
  FormulaPtr body = logic::f_true();
  // Build inside-out: phi_0 = true, phi_j = \/i (a[i] & EF(b[i] & phi_{j-1})).
  for (std::size_t j = k; j >= 1; --j) {
    std::string var = "i";
    var += std::to_string(j);
    body = logic::exists_index(
        var, logic::make_and(logic::iatom("a", var),
                             logic::EF(logic::make_and(logic::iatom("b", var), body))));
  }
  return body;
}

std::vector<FormulaPtr> depth_k_formula_family(std::size_t depth) {
  using namespace logic;
  if (depth == 0)
    return {f_true(), f_false()};

  std::vector<FormulaPtr> inner = depth_k_formula_family(depth - 1);
  std::vector<FormulaPtr> out;
  std::string var = "v";
  var += std::to_string(depth);
  const FormulaPtr a = iatom("a", var);
  const FormulaPtr b = iatom("b", var);
  for (const FormulaPtr& body : inner) {
    // Quantified shells with the inner formula guarded by an eventuality or
    // an invariant, exercising both linear- and branching-time connectives.
    out.push_back(exists_index(var, make_and(a, EF(make_and(b, body)))));
    out.push_back(forall_index(var, make_implies(a, AF(make_or(b, body)))));
    out.push_back(exists_index(var, make_and(a, EG(make_or(a, body)))));
    out.push_back(forall_index(var, make_or(b, EF(make_and(b, body)))));
  }
  return out;
}

}  // namespace ictl::network
