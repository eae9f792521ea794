#include "isa/exec.hh"

#include <cmath>

#include "common/logging.hh"
#include "isa/registers.hh"

namespace msim::isa {

namespace {

Word
shiftAmount(RegValue v)
{
    return v.asWord() & 0x1f;
}

} // namespace

RegValue
evalAlu(const Instruction &inst, RegValue rs_val, RegValue rt_val, Addr pc)
{
    using enum Opcode;
    const Word a = rs_val.asWord();
    const Word b = rt_val.asWord();
    const std::int32_t sa = rs_val.asSWord();
    const std::int32_t sb = rt_val.asSWord();
    const double fa = rs_val.asDouble();
    const double fb = rt_val.asDouble();

    switch (inst.op) {
      case kAdd:
      case kAddu:
        return RegValue::fromWord(a + b);
      case kSub:
      case kSubu:
        return RegValue::fromWord(a - b);
      case kAnd:
        return RegValue::fromWord(a & b);
      case kOr:
        return RegValue::fromWord(a | b);
      case kXor:
        return RegValue::fromWord(a ^ b);
      case kNor:
        return RegValue::fromWord(~(a | b));
      case kSllv:
        return RegValue::fromWord(a << shiftAmount(rt_val));
      case kSrlv:
        return RegValue::fromWord(a >> shiftAmount(rt_val));
      case kSrav:
        return RegValue::fromWord(Word(sa >> shiftAmount(rt_val)));
      case kSlt:
        return RegValue::fromWord(sa < sb ? 1 : 0);
      case kSltu:
        return RegValue::fromWord(a < b ? 1 : 0);
      case kAddi:
      case kAddiu:
        return RegValue::fromWord(a + Word(inst.imm));
      case kAndi:
        return RegValue::fromWord(a & Word(inst.imm));
      case kOri:
        return RegValue::fromWord(a | Word(inst.imm));
      case kXori:
        return RegValue::fromWord(a ^ Word(inst.imm));
      case kSlti:
        return RegValue::fromWord(sa < inst.imm ? 1 : 0);
      case kSltiu:
        return RegValue::fromWord(a < Word(inst.imm) ? 1 : 0);
      case kLui:
        return RegValue::fromWord(Word(inst.imm) << 16);
      case kSll:
        return RegValue::fromWord(a << unsigned(inst.imm));
      case kSrl:
        return RegValue::fromWord(a >> unsigned(inst.imm));
      case kSra:
        return RegValue::fromWord(Word(sa >> unsigned(inst.imm)));
      case kMul:
        return RegValue::fromWord(Word(std::int64_t(sa) * sb));
      case kDiv:
        // Division by zero is defined to produce zero (no trap).
        if (sb == 0)
            return RegValue::fromWord(0);
        if (sa == std::int32_t(0x80000000) && sb == -1)
            return RegValue::fromWord(0x80000000u);
        return RegValue::fromWord(Word(sa / sb));
      case kRem:
        if (sb == 0)
            return RegValue::fromWord(Word(sa));
        if (sa == std::int32_t(0x80000000) && sb == -1)
            return RegValue::fromWord(0);
        return RegValue::fromWord(Word(sa % sb));
      case kJal:
      case kJalr:
        return RegValue::fromWord(pc + kInstrBytes);
      case kAddS:
        return RegValue::fromDouble(double(float(fa) + float(fb)));
      case kSubS:
        return RegValue::fromDouble(double(float(fa) - float(fb)));
      case kMulS:
        return RegValue::fromDouble(double(float(fa) * float(fb)));
      case kDivS:
        return RegValue::fromDouble(double(float(fa) / float(fb)));
      case kAddD:
        return RegValue::fromDouble(fa + fb);
      case kSubD:
        return RegValue::fromDouble(fa - fb);
      case kMulD:
        return RegValue::fromDouble(fa * fb);
      case kDivD:
        return RegValue::fromDouble(fa / fb);
      case kMovD:
        return rs_val;
      case kNegD:
        return RegValue::fromDouble(-fa);
      case kAbsD:
        return RegValue::fromDouble(std::fabs(fa));
      case kCvtDW:
        return RegValue::fromDouble(double(sa));
      case kCvtWD:
        return RegValue::fromWord(Word(std::int32_t(fa)));
      case kCLtD:
        return RegValue::fromWord(fa < fb ? 1 : 0);
      case kCLeD:
        return RegValue::fromWord(fa <= fb ? 1 : 0);
      case kCEqD:
        return RegValue::fromWord(fa == fb ? 1 : 0);
      default:
        panic("evalAlu: not an ALU op: ", opInfo(inst.op).mnemonic);
    }
}

BranchResult
evalBranch(const Instruction &inst, RegValue rs_val, RegValue rt_val)
{
    using enum Opcode;
    const std::int32_t sa = rs_val.asSWord();

    switch (inst.op) {
      case kBeq:
        return {rs_val.asWord() == rt_val.asWord(), inst.target};
      case kBne:
        return {rs_val.asWord() != rt_val.asWord(), inst.target};
      case kBlez:
        return {sa <= 0, inst.target};
      case kBgtz:
        return {sa > 0, inst.target};
      case kBltz:
        return {sa < 0, inst.target};
      case kBgez:
        return {sa >= 0, inst.target};
      case kJ:
      case kJal:
        return {true, inst.target};
      case kJr:
      case kJalr:
        return {true, rs_val.asWord()};
      default:
        panic("evalBranch: not a control op: ", opInfo(inst.op).mnemonic);
    }
}

Addr
memAddr(const Instruction &inst, RegValue rs_val)
{
    return rs_val.asWord() + Word(inst.imm);
}

unsigned
memSize(Opcode op)
{
    using enum Opcode;
    switch (op) {
      case kLb: case kLbu: case kSb:
        return 1;
      case kLh: case kLhu: case kSh:
        return 2;
      case kLw: case kSw: case kLwc1: case kSwc1:
        return 4;
      case kLdc1: case kSdc1:
        return 8;
      default:
        panic("memSize: not a memory op");
    }
}

RegValue
loadResult(Opcode op, std::uint64_t raw_bytes)
{
    using enum Opcode;
    switch (op) {
      case kLb:
        return RegValue::fromWord(Word(std::int32_t(
            std::int8_t(raw_bytes & 0xff))));
      case kLbu:
        return RegValue::fromWord(Word(raw_bytes & 0xff));
      case kLh:
        return RegValue::fromWord(Word(std::int32_t(
            std::int16_t(raw_bytes & 0xffff))));
      case kLhu:
        return RegValue::fromWord(Word(raw_bytes & 0xffff));
      case kLw:
        return RegValue::fromWord(Word(raw_bytes & 0xffffffffu));
      case kLwc1: {
        float f;
        Word w = Word(raw_bytes & 0xffffffffu);
        std::memcpy(&f, &w, sizeof(f));
        return RegValue::fromDouble(double(f));
      }
      case kLdc1:
        return RegValue{raw_bytes};
      default:
        panic("loadResult: not a load");
    }
}

std::uint64_t
storeBytes(Opcode op, RegValue value)
{
    using enum Opcode;
    switch (op) {
      case kSb:
        return value.asWord() & 0xff;
      case kSh:
        return value.asWord() & 0xffff;
      case kSw:
        return value.asWord();
      case kSwc1: {
        float f = float(value.asDouble());
        Word w;
        std::memcpy(&w, &f, sizeof(w));
        return w;
      }
      case kSdc1:
        return value.raw;
      default:
        panic("storeBytes: not a store");
    }
}

} // namespace msim::isa
