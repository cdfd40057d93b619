#include "eval/program_compiler.hpp"

#include <optional>
#include <utility>

#include "logic/classify.hpp"
#include "logic/printer.hpp"
#include "logic/rewrite.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace ictl::eval {

using logic::FormulaPtr;
using logic::Kind;

namespace {

/// Builds SSA-form code (every instruction's destination is its own index),
/// then finish() runs the linear-scan allocator that maps SSA values onto a
/// small physical register file.
class Emitter {
 public:
  Emitter(const std::vector<std::uint32_t>& index_set,
          const kripke::PropRegistry& registry, bool unknown_atoms_are_false,
          const ProgramCompiler::RotationQuery& rotation, ProgramCompiler::Stats& stats)
      : index_set_(index_set),
        registry_(registry),
        unknown_atoms_are_false_(unknown_atoms_are_false),
        rotation_(rotation),
        stats_(stats) {
    code_.reserve(16);
  }

  Reg lower(const FormulaPtr& f) {
    if (const auto it = formula_memo_.find(f->id()); it != formula_memo_.end())
      return it->second;
    const Reg r = lower_uncached(f);
    formula_memo_.emplace(f->id(), r);
    return r;
  }

  std::shared_ptr<const FixpointProgram> finish(Reg root_value, FormulaPtr root);

 private:
  Reg lower_uncached(const FormulaPtr& f) {
    switch (f->kind()) {
      case Kind::kTrue:
        return emit(OpCode::kConstTrue, 0, 0);
      case Kind::kFalse:
        return emit(OpCode::kConstFalse, 0, 0);
      case Kind::kAtom:
      case Kind::kIndexedAtom:
      case Kind::kExactlyOne:
        return emit_leaf(f);
      case Kind::kNot:
        return emit(OpCode::kNot, lower(f->lhs()), 0);
      case Kind::kAnd:
        return emit(OpCode::kAnd, lower(f->lhs()), lower(f->rhs()));
      case Kind::kOr:
        return emit(OpCode::kOr, lower(f->lhs()), lower(f->rhs()));
      case Kind::kImplies: {
        // a -> b  =  !a | b
        const Reg na = emit(OpCode::kNot, lower(f->lhs()), 0);
        return emit(OpCode::kOr, na, lower(f->rhs()));
      }
      case Kind::kIff:
        return emit(OpCode::kIff, lower(f->lhs()), lower(f->rhs()));
      case Kind::kExistsPath:
      case Kind::kForallPath:
        return lower_path_quantified(f);
      case Kind::kForallIndex:
      case Kind::kExistsIndex:
        return lower_index_quantified(f);
      default:
        throw LogicError("ProgramCompiler: not a state formula: " +
                         logic::to_string(f));
    }
  }

  Reg lower_path_quantified(const FormulaPtr& f) {
    const bool exists = f->kind() == Kind::kExistsPath;
    const FormulaPtr& g = f->lhs();
    switch (g->kind()) {
      case Kind::kEventually: {  // EF f = E[true U f];  AF f = !EG !f
        const Reg target = lower(g->lhs());
        if (exists) return emit_eu(emit(OpCode::kConstTrue, 0, 0), target);
        return emit_not(emit_eg(emit_not(target)));
      }
      case Kind::kAlways: {  // EG f;  AG f = !E[true U !f]
        const Reg body = lower(g->lhs());
        if (exists) return emit_eg(body);
        return emit_not(emit_eu(emit(OpCode::kConstTrue, 0, 0), emit_not(body)));
      }
      case Kind::kUntil: {
        const Reg a = lower(g->lhs());
        const Reg b = lower(g->rhs());
        if (exists) return emit_eu(a, b);
        // A[a U b] = !( E[!b U (!a & !b)] | EG !b )
        const Reg na = emit_not(a);
        const Reg nb = emit_not(b);
        const Reg bad = emit(OpCode::kOr,
                             emit_eu(nb, emit(OpCode::kAnd, na, nb)),
                             emit_eg(nb));
        return emit_not(bad);
      }
      case Kind::kRelease: {
        const Reg a = lower(g->lhs());
        const Reg b = lower(g->rhs());
        if (exists)  // E[a R b] = EG b | E[b U (a & b)]
          return emit(OpCode::kOr, emit_eg(b),
                      emit_eu(b, emit(OpCode::kAnd, a, b)));
        // A[a R b] = !E[!a U !b]
        return emit_not(emit_eu(emit_not(a), emit_not(b)));
      }
      case Kind::kNext: {  // EX f;  AX f = !EX !f  (NEXTTIME experiment only:
        // is_ctl rejects X, so the checker façades never reach this — it
        // exists for direct per-opcode exercise of the kEX instruction.)
        const Reg body = lower(g->lhs());
        if (exists) return emit(OpCode::kEX, body, 0);
        return emit_not(emit(OpCode::kEX, emit_not(body), 0));
      }
      default:
        throw LogicError(
            "ProgramCompiler: path quantifier not applied to F/G/U/R (outside "
            "CTL): " +
            logic::to_string(f));
    }
  }

  Reg lower_index_quantified(const FormulaPtr& f) {
    support::require<LogicError>(
        !index_set_.empty(),
        "ProgramCompiler: empty index set but the formula quantifies over "
        "indices: " +
            logic::to_string(f));
    const bool forall = f->kind() == Kind::kForallIndex;
    if (folds(f)) {
      const FormulaPtr first = logic::bind_index(f->lhs(), f->name(), index_set_.front());
      return emit(forall ? OpCode::kOrbitAnd : OpCode::kOrbitOr, lower(first), 0);
    }
    Reg acc = 0;
    bool first = true;
    for (const std::uint32_t i : index_set_) {
      const FormulaPtr inst = logic::bind_index(f->lhs(), f->name(), i);
      const Reg r = lower(inst);
      acc = first ? r : emit(forall ? OpCode::kAnd : OpCode::kOr, acc, r);
      first = false;
    }
    return acc;
  }

  /// Whether index quantifier `f` folds over the rotation: its body names
  /// no index constant and no index variable but its own, and the model's
  /// rotation is verified — asked last, so only such a body pays for it.
  bool folds(const FormulaPtr& f) const {
    if (!rotation_) return false;
    const FormulaPtr& body = f->lhs();
    if (logic::has_concrete_indexed_atoms(body)) return false;
    for (const std::string& var : logic::free_index_vars(body))
      if (var != f->name()) return false;
    return rotation_();
  }

  Reg emit_leaf(const FormulaPtr& f) {
    if (f->kind() == Kind::kIndexedAtom) {
      support::require<LogicError>(
          f->index_value().has_value(),
          "ProgramCompiler: indexed atom with unbound index variable '" +
              f->index_var() + "': " + logic::to_string(f));
    }
    std::uint32_t slot;
    if (const auto it = leaf_index_.find(f->id()); it != leaf_index_.end()) {
      slot = it->second;
    } else {
      slot = static_cast<std::uint32_t>(leaves_.size());
      leaves_.push_back(resolve_leaf(registry_, f, unknown_atoms_are_false_));
      leaf_index_.emplace(f->id(), slot);
    }
    return emit(OpCode::kLeaf, 0, 0, slot);
  }

  Reg emit_not(Reg a) { return emit(OpCode::kNot, a, 0); }
  Reg emit_eu(Reg a, Reg b) { return emit(OpCode::kEU, a, b); }
  Reg emit_eg(Reg a) { return emit(OpCode::kEG, a, 0); }

  Reg emit(OpCode op, Reg a, Reg b, std::uint32_t leaf = 0) {
    // Canonicalize commutative operand order so value numbering sees
    // and(x, y) and and(y, x) as one instruction.
    if ((op == OpCode::kAnd || op == OpCode::kOr || op == OpCode::kIff) && a > b)
      std::swap(a, b);
    const std::uint64_t key = pack_key(op, a, b, leaf);
    if (const auto it = value_numbers_.find(key); it != value_numbers_.end()) {
      ++stats_.cse_hits;
      return it->second;
    }
    const Reg dst = static_cast<Reg>(code_.size());
    code_.push_back(Instruction{op, dst, a, b, leaf});
    value_numbers_.emplace(key, dst);
    return dst;
  }

  static std::uint64_t pack_key(OpCode op, Reg a, Reg b, std::uint32_t leaf) {
    // Operands fit 28 bits each (programs are bounded by formula size times
    // index-set size — nowhere near 2^28 instructions); kLeaf reuses the
    // operand field for the leaf slot.
    const std::uint64_t x = op == OpCode::kLeaf ? leaf : a;
    return (static_cast<std::uint64_t>(op) << 56) | (x << 28) |
           static_cast<std::uint64_t>(b);
  }

  const std::vector<std::uint32_t>& index_set_;
  const kripke::PropRegistry& registry_;
  bool unknown_atoms_are_false_;
  const ProgramCompiler::RotationQuery& rotation_;
  ProgramCompiler::Stats& stats_;
  std::vector<Instruction> code_;  // SSA: instruction i defines value i
  std::vector<Leaf> leaves_;
  std::unordered_map<std::uint64_t, Reg> formula_memo_;   // Formula::id -> value
  std::unordered_map<std::uint64_t, Reg> value_numbers_;  // packed op key -> value
  std::unordered_map<std::uint64_t, std::uint32_t> leaf_index_;
};

/// Which operand fields an opcode reads.
constexpr bool reads_a(OpCode op) {
  switch (op) {
    case OpCode::kConstTrue:
    case OpCode::kConstFalse:
    case OpCode::kLeaf:
      return false;
    default:
      return true;
  }
}
constexpr bool reads_b(OpCode op) {
  switch (op) {
    case OpCode::kAnd:
    case OpCode::kOr:
    case OpCode::kIff:
    case OpCode::kEU:
      return true;
    default:
      return false;
  }
}

std::shared_ptr<const FixpointProgram> Emitter::finish(Reg root_value,
                                                       FormulaPtr root) {
  const std::size_t n = code_.size();
  // Last instruction index reading each SSA value; the root result must
  // survive to the end.
  std::vector<std::uint32_t> last_use(n);
  for (std::size_t i = 0; i < n; ++i) {
    last_use[i] = static_cast<std::uint32_t>(i);
    const Instruction& in = code_[i];
    if (reads_a(in.op)) last_use[in.a] = static_cast<std::uint32_t>(i);
    if (reads_b(in.op)) last_use[in.b] = static_cast<std::uint32_t>(i);
  }
  last_use[root_value] = static_cast<std::uint32_t>(n);

  auto program = std::make_shared<FixpointProgram>();
  program->code.reserve(n);
  std::vector<Reg> phys(n);
  std::vector<Reg> free_regs;
  Reg high_water = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& in = code_[i];
    Instruction out = in;
    if (reads_a(in.op)) out.a = phys[in.a];
    if (reads_b(in.op)) out.b = phys[in.b];
    // Release operands dying here before allocating the destination, so a
    // value's last consumer can write its result into the freed slot (the
    // evaluator computes into a temporary before the register assignment,
    // making in-place destinations safe for every backend).
    if (reads_a(in.op) && last_use[in.a] == i) free_regs.push_back(phys[in.a]);
    if (reads_b(in.op) && in.b != in.a && last_use[in.b] == i)
      free_regs.push_back(phys[in.b]);
    if (free_regs.empty()) {
      out.dst = high_water++;
    } else {
      out.dst = free_regs.back();
      free_regs.pop_back();
    }
    phys[i] = out.dst;
    program->code.push_back(out);
  }

  program->leaves = std::move(leaves_);
  program->num_registers = high_water;
  program->result = phys[root_value];
  program->formula_id = root->id();
  program->root = std::move(root);
  return program;
}

}  // namespace

Leaf resolve_leaf(const kripke::PropRegistry& registry, const FormulaPtr& f,
                  bool unknown_atoms_are_false) {
  std::optional<kripke::PropId> prop;
  switch (f->kind()) {
    case Kind::kAtom:
      prop = registry.find_plain(f->name());
      if (!prop.has_value()) prop = registry.find_indexed_base(f->name());
      break;
    case Kind::kIndexedAtom:
      ICTL_ASSERT(f->index_value().has_value());
      prop = registry.find_indexed(f->name(), *f->index_value());
      break;
    case Kind::kExactlyOne:
      prop = registry.find_theta(f->name());
      if (!prop.has_value())
        return Leaf{f, LeafKind::kExactlyOne, registry.indexed_with_base(f->name())};
      break;
    default:
      throw LogicError("resolve_leaf: not a literal leaf: " + logic::to_string(f));
  }
  if (prop.has_value()) return Leaf{f, LeafKind::kProp, {*prop}};
  support::require<LogicError>(unknown_atoms_are_false,
                               "unknown atomic proposition: " + logic::to_string(f));
  return Leaf{f, LeafKind::kFalse, {}};
}

ProgramCompiler::ProgramCompiler(std::vector<std::uint32_t> index_set,
                                 std::shared_ptr<const kripke::PropRegistry> registry,
                                 bool unknown_atoms_are_false,
                                 RotationQuery rotation)
    : index_set_(std::move(index_set)),
      registry_(std::move(registry)),
      unknown_atoms_are_false_(unknown_atoms_are_false),
      rotation_(std::move(rotation)) {
  support::require<LogicError>(registry_ != nullptr,
                               "ProgramCompiler: null proposition registry");
}

std::shared_ptr<const FixpointProgram> ProgramCompiler::compile(
    const FormulaPtr& f) {
  support::require<LogicError>(f != nullptr, "ProgramCompiler: null formula");
  // The registry mirrors of stats_ are added once per call, zero or not,
  // so the export carries every key from the first compile on.
  const auto cached = cache_.find(f->id());
  ICTL_COUNT_ADD("eval", "cache_hits", cached != cache_.end() ? 1 : 0);
  if (cached != cache_.end()) {
    ++stats_.cache_hits;
    return cached->second;
  }
  // Below the cache hit: a memoized return is not a compilation.
  ICTL_PROFILE("eval", "compile");
  [[maybe_unused]] const std::size_t cse_hits_before = stats_.cse_hits;
  Emitter emitter(index_set_, *registry_, unknown_atoms_are_false_, rotation_, stats_);
  const Reg root_value = emitter.lower(f);
  auto program = emitter.finish(root_value, f);
  ++stats_.programs_compiled;
  ICTL_COUNT("eval", "programs_compiled");
  ICTL_COUNT_ADD("eval", "cse_hits", stats_.cse_hits - cse_hits_before);
  cache_.emplace(f->id(), program);
  return program;
}

}  // namespace ictl::eval
