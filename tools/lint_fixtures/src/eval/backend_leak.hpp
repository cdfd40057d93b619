// Fixture: the evaluation core reaching into a backend.  Of kripke/, eval/
// may include only the proposition registry; kripke/structure.hpp and
// symbolic/ must stay behind the StateSetOps concept.
#pragma once

#include "logic/formula.hpp"      // fine: the IR speaks formulas
#include "support/error.hpp"      // fine: shared error types
#include "kripke/structure.hpp"   // violation: explicit backend leaks in
#include "symbolic/bdd.hpp"       // violation: BDD backend leaks in
#include "kripke/prop_registry.hpp"  // fine: the name table leaves resolve against

// System headers are always fine.
#include <vector>
