#include "eval/fixpoint_program.hpp"

#include "logic/printer.hpp"

namespace ictl::eval {

namespace {

void append_reg(std::string& out, Reg r) {
  out += 'r';
  out += std::to_string(r);
}

}  // namespace

const char* opcode_name(OpCode op) noexcept {
  switch (op) {
    case OpCode::kConstTrue:
      return "true";
    case OpCode::kConstFalse:
      return "false";
    case OpCode::kLeaf:
      return "leaf";
    case OpCode::kNot:
      return "not";
    case OpCode::kAnd:
      return "and";
    case OpCode::kOr:
      return "or";
    case OpCode::kIff:
      return "iff";
    case OpCode::kEX:
      return "ex";
    case OpCode::kEU:
      return "eu";
    case OpCode::kEG:
      return "eg";
    case OpCode::kOrbitAnd:
      return "orbit_and";
    case OpCode::kOrbitOr:
      return "orbit_or";
  }
  return "?";
}

std::string FixpointProgram::disassemble() const {
  std::string out = "program: ";
  out += root != nullptr ? logic::to_string(root) : "<null>";
  out += '\n';
  if (!leaves.empty()) {
    out += "leaves:\n";
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      out += "  L";
      out += std::to_string(i);
      out += " = ";
      out += logic::to_string(leaves[i].formula);
      out += '\n';
    }
  }
  out += "registers: ";
  out += std::to_string(num_registers);
  out += '\n';
  for (const Instruction& in : code) {
    out += "  ";
    append_reg(out, in.dst);
    out += " = ";
    switch (in.op) {
      case OpCode::kConstTrue:
        out += "true";
        break;
      case OpCode::kConstFalse:
        out += "false";
        break;
      case OpCode::kLeaf:
        out += "leaf L";
        out += std::to_string(in.leaf);
        break;
      case OpCode::kNot:
        out += "not ";
        append_reg(out, in.a);
        break;
      case OpCode::kAnd:
        out += "and ";
        append_reg(out, in.a);
        out += ", ";
        append_reg(out, in.b);
        break;
      case OpCode::kOr:
        out += "or ";
        append_reg(out, in.a);
        out += ", ";
        append_reg(out, in.b);
        break;
      case OpCode::kIff:
        out += "iff ";
        append_reg(out, in.a);
        out += ", ";
        append_reg(out, in.b);
        break;
      case OpCode::kEX:
        out += "ex ";
        append_reg(out, in.a);
        break;
      case OpCode::kEU:
        out += "eu ";
        append_reg(out, in.a);
        out += ", ";
        append_reg(out, in.b);
        out += "  ; lfp Z . ";
        append_reg(out, in.b);
        out += " | (";
        append_reg(out, in.a);
        out += " & EX Z)";
        break;
      case OpCode::kEG:
        out += "eg ";
        append_reg(out, in.a);
        out += "  ; gfp Z . ";
        append_reg(out, in.a);
        out += " & EX Z";
        break;
      case OpCode::kOrbitAnd:
      case OpCode::kOrbitOr:
        out += opcode_name(in.op);
        out += ' ';
        append_reg(out, in.a);
        out += in.op == OpCode::kOrbitAnd ? "  ; fold & over the rotation"
                                          : "  ; fold | over the rotation";
        break;
    }
    out += '\n';
  }
  out += "  ret ";
  append_reg(out, result);
  out += '\n';
  return out;
}

}  // namespace ictl::eval
