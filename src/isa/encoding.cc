#include "isa/encoding.hh"

#include "common/logging.hh"

namespace msim::isa {

void
checkFields(const Instruction &inst, Addr pc)
{
    const OpInfo &info = opInfo(inst.op);

    auto check_simm = [&](std::int64_t v) {
        fatalIf(v < kMinImm16 || v > kMaxImm16,
                "immediate ", v, " out of signed 16-bit range in ",
                info.mnemonic);
    };
    auto check_uimm = [&](std::int64_t v) {
        fatalIf(v < 0 || v > kMaxUImm16,
                "immediate ", v, " out of unsigned 16-bit range in ",
                info.mnemonic);
    };

    switch (info.format) {
      case Format::kSh:
        fatalIf(inst.imm < 0 || inst.imm > 31,
                "shift amount out of range in ", info.mnemonic);
        return;
      case Format::kRI:
        if (inst.op == Opcode::kAndi || inst.op == Opcode::kOri ||
            inst.op == Opcode::kXori)
            check_uimm(inst.imm);
        else
            check_simm(inst.imm);
        return;
      case Format::kLS:
        check_simm(inst.imm);
        return;
      case Format::kLui:
        check_uimm(inst.imm);
        return;
      case Format::kBr2:
      case Format::kBr1: {
        std::int64_t diff = std::int64_t(inst.target) -
                            (std::int64_t(pc) + kInstrBytes);
        fatalIf(diff % kInstrBytes != 0, "misaligned branch target");
        check_simm(diff / kInstrBytes);
        return;
      }
      case Format::kJ:
        fatalIf(inst.target % kInstrBytes != 0, "misaligned jump target");
        fatalIf(inst.target / kInstrBytes >= (1u << 26),
                "jump target out of range");
        return;
      default:
        return;  // register-only formats
    }
}

} // namespace msim::isa
