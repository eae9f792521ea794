/**
 * @file
 * ISA tests: register name parsing, opcode table sanity, Table 1
 * latencies, operand field ranges and a round trip through assembly
 * text (a property-style sweep over every opcode), and functional
 * semantics of the evaluator against reference computations.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/encoding.hh"
#include "isa/exec.hh"
#include "isa/instruction.hh"
#include "isa/opcodes.hh"
#include "isa/registers.hh"

namespace msim::isa {
namespace {

TEST(Registers, ParseNumericAndAliases)
{
    EXPECT_EQ(parseRegName("$0"), intReg(0));
    EXPECT_EQ(parseRegName("$31"), intReg(31));
    EXPECT_EQ(parseRegName("$zero"), intReg(0));
    EXPECT_EQ(parseRegName("$sp"), intReg(29));
    EXPECT_EQ(parseRegName("$ra"), intReg(31));
    EXPECT_EQ(parseRegName("$v0"), intReg(2));
    EXPECT_EQ(parseRegName("$a0"), intReg(4));
    EXPECT_EQ(parseRegName("$f0"), fpReg(0));
    EXPECT_EQ(parseRegName("$f31"), fpReg(31));
}

TEST(Registers, RejectBadNames)
{
    EXPECT_FALSE(parseRegName("$32").has_value());
    EXPECT_FALSE(parseRegName("$f32").has_value());
    EXPECT_FALSE(parseRegName("$bogus").has_value());
    EXPECT_FALSE(parseRegName("zero").has_value());
    EXPECT_FALSE(parseRegName("$").has_value());
}

TEST(Registers, NamesRoundTrip)
{
    EXPECT_EQ(regName(intReg(17)), "$17");
    EXPECT_EQ(regName(fpReg(4)), "$f4");
    EXPECT_EQ(*parseRegName(regName(fpReg(20))), fpReg(20));
}

TEST(Opcodes, MnemonicsRoundTrip)
{
    for (size_t i = 0; i < size_t(Opcode::kNumOpcodes); ++i) {
        const Opcode op = Opcode(i);
        auto parsed = parseMnemonic(opInfo(op).mnemonic);
        ASSERT_TRUE(parsed.has_value()) << opInfo(op).mnemonic;
        EXPECT_EQ(*parsed, op);
    }
    EXPECT_FALSE(parseMnemonic("bogus").has_value());
}

TEST(Opcodes, Table1Latencies)
{
    // The functional unit latencies of the paper's Table 1.
    EXPECT_EQ(execLatency(InstClass::kIntAlu), 1u);
    EXPECT_EQ(execLatency(InstClass::kIntMult), 4u);
    EXPECT_EQ(execLatency(InstClass::kIntDiv), 12u);
    EXPECT_EQ(execLatency(InstClass::kStore), 1u);
    EXPECT_EQ(execLatency(InstClass::kBranch), 1u);
    EXPECT_EQ(execLatency(InstClass::kFpAddSP), 2u);
    EXPECT_EQ(execLatency(InstClass::kFpMulSP), 4u);
    EXPECT_EQ(execLatency(InstClass::kFpDivSP), 12u);
    EXPECT_EQ(execLatency(InstClass::kFpAddDP), 2u);
    EXPECT_EQ(execLatency(InstClass::kFpMulDP), 5u);
    EXPECT_EQ(execLatency(InstClass::kFpDivDP), 18u);
}

TEST(Opcodes, FuAssignment)
{
    EXPECT_EQ(fuKind(InstClass::kIntAlu), FuKind::kSimpleInt);
    EXPECT_EQ(fuKind(InstClass::kIntMult), FuKind::kComplexInt);
    EXPECT_EQ(fuKind(InstClass::kIntDiv), FuKind::kComplexInt);
    EXPECT_EQ(fuKind(InstClass::kLoad), FuKind::kMem);
    EXPECT_EQ(fuKind(InstClass::kStore), FuKind::kMem);
    EXPECT_EQ(fuKind(InstClass::kBranch), FuKind::kBranch);
    EXPECT_EQ(fuKind(InstClass::kFpMulDP), FuKind::kFp);
}

// --- field ranges and assembly round trip ----------------------------

Instruction
randomInstruction(Opcode op, Rng &rng, Addr pc)
{
    Instruction inst;
    inst.op = op;
    const Format f = opInfo(op).format;
    auto r = [&] { return intReg(int(rng.below(32))); };
    switch (f) {
      case Format::kR3:
        inst.rd = r();
        inst.rs = r();
        inst.rt = r();
        break;
      case Format::kR2:
        inst.rd = r();
        inst.rs = r();
        break;
      case Format::kRI:
        inst.rd = r();
        inst.rs = r();
        inst.imm = std::int32_t(rng.range(kMinImm16, kMaxImm16));
        if (op == Opcode::kAndi || op == Opcode::kOri ||
            op == Opcode::kXori)
            inst.imm = std::int32_t(rng.below(0x10000));
        break;
      case Format::kSh:
        inst.rd = r();
        inst.rs = r();
        inst.imm = std::int32_t(rng.below(32));
        break;
      case Format::kLui:
        inst.rd = r();
        inst.imm = std::int32_t(rng.below(0x10000));
        break;
      case Format::kLS:
        if (opInfo(op).cls == InstClass::kLoad)
            inst.rd = r();
        else
            inst.rt = r();
        inst.rs = r();
        inst.imm = std::int32_t(rng.range(kMinImm16, kMaxImm16));
        break;
      case Format::kBr2:
        inst.rs = r();
        inst.rt = r();
        inst.target =
            Addr(std::int64_t(pc) + 4 + rng.range(-1000, 1000) * 4);
        break;
      case Format::kBr1:
        inst.rs = r();
        inst.target =
            Addr(std::int64_t(pc) + 4 + rng.range(-1000, 1000) * 4);
        break;
      case Format::kJ:
        inst.target = Addr(rng.below(1 << 20)) * 4;
        if (op == Opcode::kJal)
            inst.rd = intReg(kRegRa);
        break;
      case Format::kJr:
        inst.rs = r();
        break;
      case Format::kJalr:
        inst.rd = r();
        inst.rs = r();
        break;
      case Format::kRel:
        inst.rs = r();
        inst.rel2 = rng.below(2) ? r() : kNoReg;
        break;
      case Format::kNone:
        break;
    }
    // FP banks for FP opcodes.
    auto fix = [&](RegIndex &reg, bool fp) {
        if (reg != kNoReg && fp)
            reg = fpReg(int(reg) & 31);
    };
    switch (op) {
      case Opcode::kAddS: case Opcode::kSubS: case Opcode::kMulS:
      case Opcode::kDivS: case Opcode::kAddD: case Opcode::kSubD:
      case Opcode::kMulD: case Opcode::kDivD:
        fix(inst.rd, true);
        fix(inst.rs, true);
        fix(inst.rt, true);
        break;
      case Opcode::kMovD: case Opcode::kNegD: case Opcode::kAbsD:
        fix(inst.rd, true);
        fix(inst.rs, true);
        break;
      case Opcode::kCvtDW:
        fix(inst.rd, true);
        break;
      case Opcode::kCvtWD:
        fix(inst.rs, true);
        break;
      case Opcode::kCLtD: case Opcode::kCLeD: case Opcode::kCEqD:
        fix(inst.rs, true);
        fix(inst.rt, true);
        break;
      case Opcode::kLdc1: case Opcode::kLwc1:
        fix(inst.rd, true);
        break;
      case Opcode::kSdc1: case Opcode::kSwc1:
        fix(inst.rt, true);
        break;
      default:
        break;
    }
    return inst;
}

/** Render @p inst as a line of assembly source. */
std::string
asmLine(const Instruction &inst)
{
    const OpInfo &info = opInfo(inst.op);
    auto n = [](std::int64_t v) { return std::to_string(v); };
    std::vector<std::string> ops;
    switch (info.format) {
      case Format::kR3:
        ops = {regName(inst.rd), regName(inst.rs), regName(inst.rt)};
        break;
      case Format::kR2:
      case Format::kJalr:
        ops = {regName(inst.rd), regName(inst.rs)};
        break;
      case Format::kRI:
      case Format::kSh:
        ops = {regName(inst.rd), regName(inst.rs), n(inst.imm)};
        break;
      case Format::kLui:
        ops = {regName(inst.rd), n(inst.imm)};
        break;
      case Format::kLS:
        ops = {regName(inst.rd == kNoReg ? inst.rt : inst.rd),
               n(inst.imm) + "(" + regName(inst.rs) + ")"};
        break;
      case Format::kBr2:
        ops = {regName(inst.rs), regName(inst.rt), n(inst.target)};
        break;
      case Format::kBr1:
        ops = {regName(inst.rs), n(inst.target)};
        break;
      case Format::kJ:
        ops = {n(inst.target)};
        break;
      case Format::kJr:
        ops = {regName(inst.rs)};
        break;
      case Format::kRel:
        ops = {regName(inst.rs)};
        if (inst.rel2 != kNoReg)
            ops.push_back(regName(inst.rel2));
        break;
      case Format::kNone:
        break;
    }
    std::string line = info.mnemonic;
    for (size_t i = 0; i < ops.size(); ++i)
        line += (i == 0 ? " " : ", ") + ops[i];
    return line;
}

/** Copies of @p inst with one range-checked field one past its limit. */
std::vector<Instruction>
pastRange(const Instruction &inst, Addr pc)
{
    std::vector<Instruction> out;
    auto imm = [&](std::int64_t v) {
        out.push_back(inst);
        out.back().imm = std::int32_t(v);
    };
    auto target = [&](std::int64_t v) {
        out.push_back(inst);
        out.back().target = Addr(v);
    };
    const std::int64_t next = std::int64_t(pc) + kInstrBytes;
    switch (opInfo(inst.op).format) {
      case Format::kSh:
        imm(-1);
        imm(32);
        break;
      case Format::kRI:
        if (inst.op == Opcode::kAndi || inst.op == Opcode::kOri ||
            inst.op == Opcode::kXori) {
            imm(-1);
            imm(kMaxUImm16 + 1);
            break;
        }
        [[fallthrough]];
      case Format::kLS:
        imm(kMinImm16 - 1);
        imm(kMaxImm16 + 1);
        break;
      case Format::kBr2:
      case Format::kBr1:
        target(next + (kMinImm16 - 1) * 4);
        target(next + (kMaxImm16 + 1) * 4);
        target(inst.target + 2);
        break;
      case Format::kJ:
        target(std::int64_t(1) << 28);
        target(inst.target + 2);
        break;
      default:
        break;  // register operands only, or lui's free immediate
    }
    return out;
}

class EncodingRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(EncodingRoundTrip, EveryOpcodeRoundTrips)
{
    // Random in-range instructions of one opcode pass checkFields and
    // come back field for field from their assembly text; each
    // range-checked field pushed one past its limit throws.
    const Opcode op = Opcode(GetParam());
    Rng rng(std::uint64_t(GetParam()) * 7919 + 1);
    const Addr pc = kTextBase;
    assembler::AsmOptions opts;
    opts.multiscalar = true;  // keeps release
    for (int iter = 0; iter < 50; ++iter) {
        Instruction inst = randomInstruction(op, rng, pc);
        const std::string line = asmLine(inst);
        EXPECT_NO_THROW(checkFields(inst, pc)) << line;
        const Program prog =
            assembler::assemble(".text\nmain: " + line + "\n", opts);
        ASSERT_EQ(prog.code.size(), 1u) << line;
        const Instruction &back = prog.code[0];
        EXPECT_EQ(back.op, inst.op) << line;
        EXPECT_EQ(back.rd, inst.rd) << line;
        EXPECT_EQ(back.rs, inst.rs) << line;
        EXPECT_EQ(back.rt, inst.rt) << line;
        EXPECT_EQ(back.imm, inst.imm) << line;
        EXPECT_EQ(back.target, inst.target) << line;
        EXPECT_EQ(back.rel2, inst.rel2) << line;
        // The assembler derives the static facts too.
        inst.predecode();
        EXPECT_EQ(back.dest, inst.dest) << line;
        EXPECT_EQ(back.srcs, inst.srcs) << line;
        for (const Instruction &bad : pastRange(inst, pc))
            EXPECT_THROW(checkFields(bad, pc), msim::FatalError)
                << asmLine(bad);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, EncodingRoundTrip,
    ::testing::Range(0, int(Opcode::kNumOpcodes)),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string n = opInfo(Opcode(info.param)).mnemonic;
        for (char &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

TEST(Encoding, ImmediateRangeEnforced)
{
    Instruction inst;
    inst.op = Opcode::kAddiu;
    inst.rd = intReg(1);
    inst.rs = intReg(2);
    inst.imm = 0x8000;  // one past the signed max
    EXPECT_THROW(checkFields(inst, 0), msim::FatalError);
    inst.imm = -0x8001;
    EXPECT_THROW(checkFields(inst, 0), msim::FatalError);
}

TEST(Encoding, BranchRangeAndAlignment)
{
    Instruction inst;
    inst.op = Opcode::kBeq;
    inst.rs = intReg(1);
    inst.rt = intReg(2);
    inst.target = 0x00400002;  // misaligned
    EXPECT_THROW(checkFields(inst, 0x00400000), msim::FatalError);
    inst.target = 0x00400000 + (40000 * 4);  // out of range
    EXPECT_THROW(checkFields(inst, 0x00400000), msim::FatalError);
}

// --- exec semantics ---------------------------------------------------

Instruction
mk(Opcode op, std::int32_t imm = 0)
{
    Instruction inst;
    inst.op = op;
    inst.rd = intReg(1);
    inst.rs = intReg(2);
    inst.rt = intReg(3);
    inst.imm = imm;
    return inst;
}

RegValue
alu(Opcode op, Word a, Word b, std::int32_t imm = 0)
{
    return evalAlu(mk(op, imm), RegValue::fromWord(a),
                   RegValue::fromWord(b), 0x400000);
}

TEST(Exec, IntegerArithmetic)
{
    EXPECT_EQ(alu(Opcode::kAddu, 7, 8).asWord(), 15u);
    EXPECT_EQ(alu(Opcode::kAddu, 0xffffffff, 1).asWord(), 0u);
    EXPECT_EQ(alu(Opcode::kSubu, 5, 7).asSWord(), -2);
    EXPECT_EQ(alu(Opcode::kMul, Word(-3), 7).asSWord(), -21);
    EXPECT_EQ(alu(Opcode::kDiv, Word(-40), 6).asSWord(), -6);
    EXPECT_EQ(alu(Opcode::kRem, 40, 6).asWord(), 4u);
    // Division by zero is defined, not a trap.
    EXPECT_EQ(alu(Opcode::kDiv, 40, 0).asWord(), 0u);
    EXPECT_EQ(alu(Opcode::kRem, 40, 0).asWord(), 40u);
    // INT_MIN / -1 does not trap either.
    EXPECT_EQ(alu(Opcode::kDiv, 0x80000000, Word(-1)).asWord(),
              0x80000000u);
}

TEST(Exec, LogicAndShifts)
{
    EXPECT_EQ(alu(Opcode::kAnd, 0xf0f0, 0xff00).asWord(), 0xf000u);
    EXPECT_EQ(alu(Opcode::kOr, 0xf0f0, 0x0f0f).asWord(), 0xffffu);
    EXPECT_EQ(alu(Opcode::kXor, 0xff, 0x0f).asWord(), 0xf0u);
    EXPECT_EQ(alu(Opcode::kNor, 0, 0).asWord(), 0xffffffffu);
    EXPECT_EQ(alu(Opcode::kSll, 1, 0, 4).asWord(), 16u);
    EXPECT_EQ(alu(Opcode::kSrl, 0x80000000, 0, 31).asWord(), 1u);
    EXPECT_EQ(alu(Opcode::kSra, 0x80000000, 0, 31).asWord(),
              0xffffffffu);
    EXPECT_EQ(alu(Opcode::kSllv, 1, 33).asWord(), 2u);  // shamt mod 32
}

TEST(Exec, Comparisons)
{
    EXPECT_EQ(alu(Opcode::kSlt, Word(-1), 1).asWord(), 1u);
    EXPECT_EQ(alu(Opcode::kSltu, Word(-1), 1).asWord(), 0u);
    EXPECT_EQ(alu(Opcode::kSlti, Word(-5), 0, -4).asWord(), 1u);
    EXPECT_EQ(alu(Opcode::kSltiu, 3, 0, 7).asWord(), 1u);
}

TEST(Exec, ImmediatesAndLui)
{
    EXPECT_EQ(alu(Opcode::kAddiu, 10, 0, -3).asWord(), 7u);
    EXPECT_EQ(alu(Opcode::kOri, 0xf0000000, 0, 0x1234).asWord(),
              0xf0001234u);
    EXPECT_EQ(alu(Opcode::kLui, 0, 0, 0x1234).asWord(), 0x12340000u);
}

TEST(Exec, LinkValues)
{
    Instruction jal = mk(Opcode::kJal);
    EXPECT_EQ(evalAlu(jal, RegValue{}, RegValue{}, 0x400100).asWord(),
              0x400104u);
}

TEST(Exec, FloatingPoint)
{
    auto d = [](double v) { return RegValue::fromDouble(v); };
    Instruction add = mk(Opcode::kAddD);
    EXPECT_DOUBLE_EQ(evalAlu(add, d(1.5), d(2.25), 0).asDouble(), 3.75);
    Instruction div = mk(Opcode::kDivD);
    EXPECT_DOUBLE_EQ(evalAlu(div, d(1.0), d(3.0), 0).asDouble(),
                     1.0 / 3.0);
    Instruction neg = mk(Opcode::kNegD);
    EXPECT_DOUBLE_EQ(evalAlu(neg, d(2.5), d(0), 0).asDouble(), -2.5);
    Instruction cvt = mk(Opcode::kCvtWD);
    EXPECT_EQ(evalAlu(cvt, d(3.99), d(0), 0).asSWord(), 3);
    EXPECT_EQ(evalAlu(cvt, d(-3.99), d(0), 0).asSWord(), -3);
    Instruction clt = mk(Opcode::kCLtD);
    EXPECT_EQ(evalAlu(clt, d(1.0), d(2.0), 0).asWord(), 1u);
    EXPECT_EQ(evalAlu(clt, d(2.0), d(1.0), 0).asWord(), 0u);
}

TEST(Exec, SinglePrecisionRounding)
{
    // SP ops round through float even though registers hold doubles.
    Instruction add = mk(Opcode::kAddS);
    const double a = 0.1, b = 0.2;
    const double expect = double(float(a) + float(b));
    EXPECT_DOUBLE_EQ(evalAlu(add, RegValue::fromDouble(a),
                             RegValue::fromDouble(b), 0)
                         .asDouble(),
                     expect);
}

TEST(Exec, Branches)
{
    auto w = [](Word v) { return RegValue::fromWord(v); };
    Instruction beq = mk(Opcode::kBeq);
    beq.target = 0x400200;
    EXPECT_TRUE(evalBranch(beq, w(5), w(5)).taken);
    EXPECT_FALSE(evalBranch(beq, w(5), w(6)).taken);
    EXPECT_EQ(evalBranch(beq, w(5), w(5)).target, 0x400200u);

    Instruction bltz = mk(Opcode::kBltz);
    EXPECT_TRUE(evalBranch(bltz, w(Word(-1)), w(0)).taken);
    EXPECT_FALSE(evalBranch(bltz, w(0), w(0)).taken);

    Instruction blez = mk(Opcode::kBlez);
    EXPECT_TRUE(evalBranch(blez, w(0), w(0)).taken);

    Instruction jr = mk(Opcode::kJr);
    auto out = evalBranch(jr, w(0x00400abc), w(0));
    EXPECT_TRUE(out.taken);
    EXPECT_EQ(out.target, 0x00400abcu);
}

TEST(Exec, MemoryHelpers)
{
    Instruction lw = mk(Opcode::kLw, 8);
    EXPECT_EQ(memAddr(lw, RegValue::fromWord(0x1000)), 0x1008u);
    EXPECT_EQ(memSize(Opcode::kLb), 1u);
    EXPECT_EQ(memSize(Opcode::kLh), 2u);
    EXPECT_EQ(memSize(Opcode::kLw), 4u);
    EXPECT_EQ(memSize(Opcode::kLdc1), 8u);

    EXPECT_EQ(loadResult(Opcode::kLb, 0x80).asSWord(), -128);
    EXPECT_EQ(loadResult(Opcode::kLbu, 0x80).asWord(), 128u);
    EXPECT_EQ(loadResult(Opcode::kLh, 0x8000).asSWord(), -32768);
    EXPECT_EQ(loadResult(Opcode::kLhu, 0x8000).asWord(), 32768u);

    EXPECT_EQ(storeBytes(Opcode::kSb, RegValue::fromWord(0x1234)),
              0x34u);
    EXPECT_EQ(storeBytes(Opcode::kSh, RegValue::fromWord(0x12345678)),
              0x5678u);

    // Double round trip through raw bytes.
    const double v = 3.14159;
    EXPECT_DOUBLE_EQ(
        loadResult(Opcode::kLdc1,
                   storeBytes(Opcode::kSdc1, RegValue::fromDouble(v)))
            .asDouble(),
        v);
    // Float narrows.
    const double f = double(float(2.71828));
    EXPECT_DOUBLE_EQ(
        loadResult(Opcode::kLwc1,
                   storeBytes(Opcode::kSwc1,
                              RegValue::fromDouble(2.71828)))
            .asDouble(),
        f);
}

/** mk() with its static facts derived. */
Instruction
decoded(Opcode op)
{
    Instruction inst = mk(op);
    inst.predecode();
    return inst;
}

TEST(Instruction, Predicates)
{
    EXPECT_TRUE(decoded(Opcode::kLw).memOp);
    EXPECT_TRUE(decoded(Opcode::kSw).memOp);
    EXPECT_FALSE(decoded(Opcode::kAddu).memOp);
    EXPECT_TRUE(mk(Opcode::kBeq).isCondBranch());
    EXPECT_FALSE(mk(Opcode::kJ).isCondBranch());
    EXPECT_TRUE(mk(Opcode::kJ).isJump());
    EXPECT_TRUE(mk(Opcode::kJr).isJump());
    EXPECT_TRUE(isControl(decoded(Opcode::kBeq).opClass));
}

TEST(Instruction, PredecodeDerivesTheOperandModel)
{
    const Instruction add = decoded(Opcode::kAddu);
    EXPECT_EQ(add.dest, intReg(1));
    EXPECT_EQ(add.srcs, (RegMask{intReg(2), intReg(3)}));
    EXPECT_EQ(add.fu, FuKind::kSimpleInt);
    EXPECT_EQ(add.latency, 1u);
    EXPECT_FALSE(add.barrier);
    // Stores write no register; syscalls read $v0/$a0/$a1 and write
    // $v0 whatever their fields say; releases read what they release.
    const Instruction sw = decoded(Opcode::kSw);
    EXPECT_EQ(sw.dest, kNoReg);
    EXPECT_EQ(sw.srcs, (RegMask{intReg(2), intReg(3)}));
    const Instruction sys = decoded(Opcode::kSyscall);
    EXPECT_EQ(sys.dest, intReg(kRegV0));
    EXPECT_EQ(sys.srcs,
              (RegMask{intReg(kRegV0), intReg(kRegA0), intReg(kRegA1)}));
    EXPECT_TRUE(sys.barrier);
    Instruction rel = mk(Opcode::kRelease);
    rel.rd = kNoReg;
    rel.rel2 = intReg(9);
    rel.predecode();
    EXPECT_EQ(rel.srcs, (RegMask{intReg(2), intReg(9)}));
    EXPECT_EQ(rel.dest, kNoReg);
    // Class, FU and latency follow Table 1.
    const Instruction div = decoded(Opcode::kDivD);
    EXPECT_EQ(div.opClass, InstClass::kFpDivDP);
    EXPECT_EQ(div.fu, FuKind::kFp);
    EXPECT_EQ(div.latency, 18u);
    EXPECT_TRUE(decoded(Opcode::kJr).barrier);
}

} // namespace
} // namespace msim::isa
