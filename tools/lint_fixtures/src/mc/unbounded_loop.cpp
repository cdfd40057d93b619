// budget-loop fixture: fixpoint-shaped while loops in an engine directory
// must contain an rt:: budget checkpoint so the resource-budget layer can
// interrupt them.

namespace rt {
void checkpoint(const char*, unsigned long long = 1);
}  // namespace rt

void eu_fixpoint(bool changed) {
  unsigned head = 0;
  const unsigned worklist = 4;
  while (head < worklist) {  // fires: worklist-shaped condition, no checkpoint
    ++head;
  }
  while (changed) {  // fires: classic `changed` fixpoint, no checkpoint
    changed = false;
  }
  while (changed) {  // clean: checkpointed body
    rt::checkpoint("fixture/fixpoint", 1);
    changed = false;
  }
  unsigned frontier = 3;
  // ictl-lint: allow(budget-loop)
  while (frontier != 0) {  // clean: suppressed on the line above
    --frontier;
  }
  while (head < 2) ++head;  // clean: condition is not fixpoint-shaped
  do {
    ++head;
  } while (changed);  // clean: do-while tail, body already scanned above it
}
