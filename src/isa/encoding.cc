#include "isa/encoding.hh"

#include <array>

#include "common/logging.hh"
#include "isa/registers.hh"

namespace msim::isa {

namespace {

/** Which register operands of an opcode live in the FP file. */
struct Banks
{
    bool rdFp = false;
    bool rsFp = false;
    bool rtFp = false;
};

Banks
operandBanks(Opcode op)
{
    using enum Opcode;
    switch (op) {
      case kAddS: case kSubS: case kMulS: case kDivS:
      case kAddD: case kSubD: case kMulD: case kDivD:
        return {true, true, true};
      case kMovD: case kNegD: case kAbsD:
        return {true, true, false};
      case kCvtDW:
        return {true, false, false};
      case kCvtWD:
        return {false, true, false};
      case kCLtD: case kCLeD: case kCEqD:
        return {false, true, true};
      case kLdc1: case kLwc1:
        return {true, false, false};
      case kSdc1: case kSwc1:
        return {false, false, true};
      default:
        return {false, false, false};
    }
}

/** True when the opcode encodes in the R-format (primary opcode 0). */
bool
isRFormat(Opcode op)
{
    switch (opInfo(op).format) {
      case Format::kR3:
      case Format::kR2:
      case Format::kSh:
      case Format::kJr:
      case Format::kJalr:
      case Format::kRel:
      case Format::kNone:
        return true;
      default:
        return false;
    }
}

/** True for zero-extended (logical) immediates. */
bool
isZeroExtImm(Opcode op)
{
    return op == Opcode::kAndi || op == Opcode::kOri ||
           op == Opcode::kXori || op == Opcode::kLui;
}

/** Encoding tables built once: opcode <-> (primary, funct). */
struct CodeTables
{
    std::array<unsigned, kNumOps> primary{};
    std::array<unsigned, kNumOps> funct{};
    // Reverse maps. 64 primaries, 64 functs.
    std::array<int, 64> primaryToOp;
    std::array<int, 64> functToOp;

    CodeTables()
    {
        primaryToOp.fill(-1);
        functToOp.fill(-1);
        unsigned next_funct = 0;
        unsigned next_primary = 1;
        for (size_t i = 0; i < kNumOps; ++i) {
            auto op = Opcode(i);
            if (isRFormat(op)) {
                panicIf(next_funct >= 64, "too many R-format opcodes");
                primary[i] = 0;
                funct[i] = next_funct;
                functToOp[next_funct] = int(i);
                ++next_funct;
            } else {
                panicIf(next_primary >= 64, "too many primary opcodes");
                primary[i] = next_primary;
                funct[i] = 0;
                primaryToOp[next_primary] = int(i);
                ++next_primary;
            }
        }
    }
};

const CodeTables &
tables()
{
    static const CodeTables t;
    return t;
}

unsigned
regField(RegIndex reg)
{
    if (reg == kNoReg)
        return 0;
    return unsigned(reg) & 0x1f;
}

std::int32_t
signExtend16(Word v)
{
    return std::int32_t(std::int16_t(v & 0xffff));
}

} // namespace

Word
encode(const Instruction &inst, Addr pc)
{
    const OpInfo &info = opInfo(inst.op);
    const CodeTables &t = tables();
    const unsigned primary = t.primary[size_t(inst.op)];
    const unsigned funct = t.funct[size_t(inst.op)];

    auto check_simm = [&](std::int64_t v) {
        fatalIf(v < kMinImm16 || v > kMaxImm16,
                "immediate ", v, " out of signed 16-bit range in ",
                info.mnemonic);
        return Word(v) & 0xffff;
    };
    auto check_uimm = [&](std::int64_t v) {
        fatalIf(v < 0 || v > kMaxUImm16,
                "immediate ", v, " out of unsigned 16-bit range in ",
                info.mnemonic);
        return Word(v) & 0xffff;
    };

    if (isRFormat(inst.op)) {
        unsigned shamt = 0;
        unsigned rs = regField(inst.rs);
        unsigned rt = regField(inst.rt);
        unsigned rd = regField(inst.rd);
        switch (info.format) {
          case Format::kSh:
            fatalIf(inst.imm < 0 || inst.imm > 31,
                    "shift amount out of range in ", info.mnemonic);
            shamt = unsigned(inst.imm);
            break;
          case Format::kRel:
            // aux = number of registers released.
            rt = regField(inst.rel2);
            shamt = inst.rel2 == kNoReg ? 1 : 2;
            break;
          default:
            break;
        }
        return (0u << 26) | (rs << 21) | (rt << 16) | (rd << 11) |
               (shamt << 6) | funct;
    }

    switch (info.format) {
      case Format::kRI: {
        Word imm = isZeroExtImm(inst.op) ? check_uimm(inst.imm)
                                         : check_simm(inst.imm);
        return (primary << 26) | (regField(inst.rs) << 21) |
               (regField(inst.rd) << 16) | imm;
      }
      case Format::kLui: {
        Word imm = check_uimm(std::uint32_t(inst.imm) & 0xffff);
        return (primary << 26) | (regField(inst.rd) << 16) | imm;
      }
      case Format::kLS: {
        // Loads carry the destination in rd; stores carry the value
        // register in rt. Both use rs as the base.
        RegIndex data = info.cls == InstClass::kLoad ? inst.rd : inst.rt;
        Word imm = check_simm(inst.imm);
        return (primary << 26) | (regField(inst.rs) << 21) |
               (regField(data) << 16) | imm;
      }
      case Format::kBr2:
      case Format::kBr1: {
        std::int64_t diff = std::int64_t(inst.target) -
                            (std::int64_t(pc) + kInstrBytes);
        fatalIf(diff % kInstrBytes != 0, "misaligned branch target");
        Word imm = check_simm(diff / kInstrBytes);
        return (primary << 26) | (regField(inst.rs) << 21) |
               (regField(inst.rt) << 16) | imm;
      }
      case Format::kJ: {
        fatalIf(inst.target % kInstrBytes != 0, "misaligned jump target");
        Word idx = inst.target / kInstrBytes;
        fatalIf(idx >= (1u << 26), "jump target out of range");
        return (primary << 26) | idx;
      }
      default:
        panic("encode: unexpected format for ", info.mnemonic);
    }
}

std::optional<Instruction>
decode(Word word, Addr pc)
{
    const CodeTables &t = tables();
    const unsigned primary = (word >> 26) & 0x3f;
    Instruction inst;

    if (primary == 0) {
        const unsigned funct = word & 0x3f;
        int opi = t.functToOp[funct];
        if (opi < 0)
            return std::nullopt;
        inst.op = Opcode(opi);
        const OpInfo &info = opInfo(inst.op);
        const Banks banks = operandBanks(inst.op);
        const unsigned rs = (word >> 21) & 0x1f;
        const unsigned rt = (word >> 16) & 0x1f;
        const unsigned rd = (word >> 11) & 0x1f;
        const unsigned shamt = (word >> 6) & 0x1f;
        auto mk = [](unsigned n, bool fp) {
            return fp ? fpReg(int(n)) : intReg(int(n));
        };
        switch (info.format) {
          case Format::kR3:
            inst.rd = mk(rd, banks.rdFp);
            inst.rs = mk(rs, banks.rsFp);
            inst.rt = mk(rt, banks.rtFp);
            break;
          case Format::kR2:
            inst.rd = mk(rd, banks.rdFp);
            inst.rs = mk(rs, banks.rsFp);
            break;
          case Format::kSh:
            inst.rd = intReg(int(rd));
            inst.rs = intReg(int(rs));
            inst.imm = std::int32_t(shamt);
            break;
          case Format::kJr:
            inst.rs = intReg(int(rs));
            break;
          case Format::kJalr:
            inst.rd = intReg(int(rd));
            inst.rs = intReg(int(rs));
            break;
          case Format::kRel:
            inst.rs = intReg(int(rs));
            inst.rel2 = shamt >= 2 ? intReg(int(rt)) : kNoReg;
            break;
          case Format::kNone:
            break;
          default:
            panic("decode: unexpected R format");
        }
        inst.predecode();
        return inst;
    }

    int opi = t.primaryToOp[primary];
    if (opi < 0)
        return std::nullopt;
    inst.op = Opcode(opi);
    const OpInfo &info = opInfo(inst.op);
    const Banks banks = operandBanks(inst.op);
    const unsigned rs = (word >> 21) & 0x1f;
    const unsigned rt = (word >> 16) & 0x1f;
    const Word imm16 = word & 0xffff;

    switch (info.format) {
      case Format::kRI:
        inst.rs = intReg(int(rs));
        inst.rd = intReg(int(rt));
        inst.imm = isZeroExtImm(inst.op) ? std::int32_t(imm16)
                                         : signExtend16(imm16);
        break;
      case Format::kLui:
        inst.rd = intReg(int(rt));
        inst.imm = std::int32_t(imm16);
        break;
      case Format::kLS:
        inst.rs = intReg(int(rs));
        if (info.cls == InstClass::kLoad)
            inst.rd = banks.rdFp ? fpReg(int(rt)) : intReg(int(rt));
        else
            inst.rt = banks.rtFp ? fpReg(int(rt)) : intReg(int(rt));
        inst.imm = signExtend16(imm16);
        break;
      case Format::kBr2:
        inst.rs = intReg(int(rs));
        inst.rt = intReg(int(rt));
        inst.target = Addr(std::int64_t(pc) + kInstrBytes +
                           std::int64_t(signExtend16(imm16)) * kInstrBytes);
        break;
      case Format::kBr1:
        inst.rs = intReg(int(rs));
        inst.target = Addr(std::int64_t(pc) + kInstrBytes +
                           std::int64_t(signExtend16(imm16)) * kInstrBytes);
        break;
      case Format::kJ:
        inst.target = (word & 0x03ffffff) * kInstrBytes;
        if (inst.op == Opcode::kJal)
            inst.rd = intReg(kRegRa);
        break;
      default:
        panic("decode: unexpected I format");
    }
    inst.predecode();
    return inst;
}

} // namespace msim::isa
