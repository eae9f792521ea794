/**
 * @file
 * Assembler tests: lexing, labels, data directives, pseudo
 * expansion, multiscalar annotations (task descriptors, tag bits,
 * release), conditional assembly, and error diagnostics.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "asm/assembler.hh"
#include "asm/lexer.hh"
#include "common/logging.hh"
#include "isa/registers.hh"

namespace msim {
namespace {

using assembler::AsmOptions;
using assembler::assemble;
using isa::Opcode;
using isa::StopKind;

Program
asms(const std::string &body, bool multiscalar = false,
     std::set<std::string> defines = {})
{
    AsmOptions opts;
    opts.multiscalar = multiscalar;
    opts.defines = std::move(defines);
    return assemble(body, opts);
}

// --- lexer ------------------------------------------------------------

TEST(Lexer, TokenKinds)
{
    auto toks = assembler::tokenizeLine(
        "lw $4, 8($sp) # comment", 1, "t");
    ASSERT_EQ(toks.size(), 7u);
    EXPECT_EQ(toks[0].kind, assembler::TokKind::kIdent);
    EXPECT_EQ(toks[1].kind, assembler::TokKind::kReg);
    EXPECT_EQ(toks[1].reg, isa::intReg(4));
    EXPECT_EQ(toks[2].kind, assembler::TokKind::kComma);
    EXPECT_EQ(toks[3].kind, assembler::TokKind::kNumber);
    EXPECT_EQ(toks[4].kind, assembler::TokKind::kLParen);
    EXPECT_EQ(toks[5].reg, isa::intReg(29));
    EXPECT_EQ(toks[6].kind, assembler::TokKind::kRParen);
}

TEST(Lexer, TagsAndPrefixes)
{
    auto toks =
        assembler::tokenizeLine("@ms addu $1, $2, $3 !f !s", 1, "t");
    EXPECT_EQ(toks.front().kind, assembler::TokKind::kAt);
    EXPECT_EQ(toks.front().text, "@ms");
    EXPECT_EQ(toks[toks.size() - 2].text, "!f");
    EXPECT_EQ(toks.back().text, "!s");
}

TEST(Lexer, CharAndStringLiterals)
{
    auto toks = assembler::tokenizeLine(".byte 'a', '\\n'", 1, "t");
    EXPECT_EQ(toks[1].text, "97");
    EXPECT_EQ(toks[3].text, "10");
    auto stoks =
        assembler::tokenizeLine(".asciiz \"hi\\n\"", 1, "t");
    EXPECT_EQ(stoks[1].kind, assembler::TokKind::kString);
    EXPECT_EQ(stoks[1].text, "hi\n");
}

TEST(Lexer, Errors)
{
    EXPECT_THROW(assembler::tokenizeLine("$nope", 1, "t"), FatalError);
    EXPECT_THROW(assembler::tokenizeLine("!bogus", 1, "t"), FatalError);
    EXPECT_THROW(assembler::tokenizeLine("\"open", 1, "t"), FatalError);
    EXPECT_THROW(assembler::tokenizeLine("addu ` $1", 1, "t"),
                 FatalError);
}

// --- basic assembly ----------------------------------------------------

TEST(Asm, LabelsAndEntry)
{
    Program p = asms(R"(
        .text
start:  nop
main:   addu $1, $2, $3
    )");
    EXPECT_EQ(p.symbols.at("start"), kTextBase);
    EXPECT_EQ(p.symbols.at("main"), kTextBase + 4);
    EXPECT_EQ(p.entry, kTextBase + 4);  // "main" wins by default
    EXPECT_EQ(p.code.size(), 2u);
}

TEST(Asm, ExplicitEntry)
{
    Program p = asms(R"(
        .entry go
        .text
main:   nop
go:     nop
    )");
    EXPECT_EQ(p.entry, kTextBase + 4);
}

TEST(Asm, DataDirectives)
{
    Program p = asms(R"(
        .data
w:      .word 0x11223344, -1
h:      .half 0x5566
b:      .byte 7
a:      .align 2
w2:     .word 99
s:      .asciiz "ab"
sp:     .space 3
        .align 3
d:      .double 1.5
    )");
    ASSERT_EQ(p.data.size(), 1u);
    const auto &bytes = p.data[0].bytes;
    EXPECT_EQ(p.symbols.at("w"), kDataBase);
    EXPECT_EQ(bytes[0], 0x44u);
    EXPECT_EQ(bytes[3], 0x11u);
    EXPECT_EQ(bytes[4], 0xffu);
    EXPECT_EQ(p.symbols.at("h"), kDataBase + 8);
    EXPECT_EQ(p.symbols.at("b"), kDataBase + 10);
    EXPECT_EQ(p.symbols.at("w2"), kDataBase + 12);
    EXPECT_EQ(p.symbols.at("s"), kDataBase + 16);
    EXPECT_EQ(bytes[16], 'a');
    EXPECT_EQ(bytes[18], 0u);
    // Explicit .align 3 placed d on an 8-byte boundary.
    EXPECT_EQ(p.symbols.at("d") % 8, 0u);
    EXPECT_EQ(p.symbols.at("d"), kDataBase + 24);
}

TEST(Asm, WordWithSymbolFixup)
{
    Program p = asms(R"(
        .data
ptr:    .word tgt
tgt:    .word 42
    )");
    const auto &bytes = p.data[0].bytes;
    std::uint32_t v;
    std::memcpy(&v, bytes.data(), 4);
    EXPECT_EQ(v, kDataBase + 4);
}

TEST(Asm, PseudoLiExpansion)
{
    Program p = asms(R"(
        .text
main:   li $4, 100
        li $5, -5
        li $6, 0x9000
        li $7, 0x12345678
    )");
    // 100 -> addiu; -5 -> addiu; 0x9000 -> ori; big -> lui+ori.
    ASSERT_EQ(p.code.size(), 5u);
    EXPECT_EQ(p.code[0].op, Opcode::kAddiu);
    EXPECT_EQ(p.code[1].op, Opcode::kAddiu);
    EXPECT_EQ(p.code[2].op, Opcode::kOri);
    EXPECT_EQ(p.code[3].op, Opcode::kLui);
    EXPECT_EQ(p.code[3].imm, 0x1234);
    EXPECT_EQ(p.code[4].op, Opcode::kOri);
    EXPECT_EQ(p.code[4].imm, 0x5678);
    // The assembler emits every instruction with its static facts.
    EXPECT_EQ(p.code[4].dest, isa::intReg(7));
    EXPECT_EQ(p.code[4].srcs, RegMask{isa::intReg(7)});
}

TEST(Asm, PseudoBranchesAndMoves)
{
    Program p = asms(R"(
        .text
main:   move $4, $5
        b main
        beqz $4, main
        bnez $4, main
        bgt $4, $5, main
        blt $4, $5, main
        bge $4, $5, main
        ble $4, $5, main
        neg $4, $5
        not $4, $5
        subi $4, $5, 3
    )");
    EXPECT_EQ(p.code[0].op, Opcode::kAddu);  // move
    EXPECT_EQ(p.code[1].op, Opcode::kBeq);   // b
    EXPECT_EQ(p.code[2].op, Opcode::kBeq);   // beqz
    EXPECT_EQ(p.code[3].op, Opcode::kBne);   // bnez
    EXPECT_EQ(p.code[4].op, Opcode::kSlt);   // bgt = slt at,rt,rs
    EXPECT_EQ(p.code[4].rs, isa::intReg(5));
    EXPECT_EQ(p.code[5].op, Opcode::kBne);
    EXPECT_EQ(p.code[6].op, Opcode::kSlt);   // blt = slt at,rs,rt
    EXPECT_EQ(p.code[6].rs, isa::intReg(4));
    EXPECT_EQ(p.code[8].op, Opcode::kSlt);   // bge -> beq
    EXPECT_EQ(p.code[9].op, Opcode::kBeq);
    EXPECT_EQ(p.code[12].op, Opcode::kSubu); // neg
    EXPECT_EQ(p.code[13].op, Opcode::kNor);  // not
    EXPECT_EQ(p.code[14].op, Opcode::kAddiu);
    EXPECT_EQ(p.code[14].imm, -3);
}

TEST(Asm, RegisterFormWithImmediateOperand)
{
    Program p = asms(R"(
        .text
main:   addu $20, $20, 16
        and  $4, $4, 255
        mul  $5, $6, 31
    )");
    EXPECT_EQ(p.code[0].op, Opcode::kAddiu);
    EXPECT_EQ(p.code[0].imm, 16);
    EXPECT_EQ(p.code[1].op, Opcode::kAndi);
    // mul with immediate goes through $at.
    EXPECT_EQ(p.code[2].op, Opcode::kAddiu);
    EXPECT_EQ(p.code[2].rd, isa::intReg(isa::kRegAt));
    EXPECT_EQ(p.code[3].op, Opcode::kMul);
    EXPECT_EQ(p.code[3].rt, isa::intReg(isa::kRegAt));
}

TEST(Asm, AbsoluteLoadStoreExpansion)
{
    Program p = asms(R"(
        .data
g:      .word 5
        .text
main:   lw $4, g
        sw $4, g
        lw $5, 4($6)
    )");
    EXPECT_EQ(p.code[0].op, Opcode::kLui);
    EXPECT_EQ(p.code[1].op, Opcode::kLw);
    EXPECT_EQ(p.code[1].rs, isa::intReg(isa::kRegAt));
    EXPECT_EQ(p.code[2].op, Opcode::kLui);
    EXPECT_EQ(p.code[3].op, Opcode::kSw);
    EXPECT_EQ(p.code[4].op, Opcode::kLw);
    EXPECT_EQ(p.code[4].imm, 4);
}

TEST(Asm, ReleaseSplitsLongLists)
{
    AsmOptions opts;
    opts.multiscalar = true;
    Program p = assemble(R"(
        .text
main:   release $4, $8, $17
    )", opts);
    ASSERT_EQ(p.code.size(), 2u);
    EXPECT_EQ(p.code[0].op, Opcode::kRelease);
    EXPECT_EQ(p.code[0].rs, isa::intReg(4));
    EXPECT_EQ(p.code[0].rel2, isa::intReg(8));
    EXPECT_EQ(p.code[1].rs, isa::intReg(17));
    EXPECT_EQ(p.code[1].rel2, kNoReg);
}

// --- multiscalar annotations -------------------------------------------

const char *const kTaskSource = R"(
        .text
main:   li $20, 0
        b OUTER !s

.task main
.targets OUTER
.create $20
.endtask

.task OUTER
.targets OUTER:loop, DONE, FN:call:BACK, ret
.create $20, $f2
.endtask
OUTER:
        addu $20, $20, 4 !f
        bne $20, $0, OUTER !st
BACK:
        nop !sn
DONE:   nop
FN:     jr $31 !s
)";

TEST(Asm, TaskDescriptors)
{
    AsmOptions opts;
    opts.multiscalar = true;
    Program p = assemble(kTaskSource, opts);
    ASSERT_EQ(p.tasks.size(), 2u);
    const TaskDescriptor *t = p.taskAt(p.symbols.at("OUTER"));
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->createMask.test(20));
    EXPECT_TRUE(t->createMask.test(isa::fpReg(2)));
    ASSERT_EQ(t->targets.size(), 4u);
    EXPECT_EQ(t->targets[0].spec, TargetSpec::kLoop);
    EXPECT_EQ(t->targets[0].addr, p.symbols.at("OUTER"));
    EXPECT_EQ(t->targets[1].spec, TargetSpec::kNormal);
    EXPECT_EQ(t->targets[2].spec, TargetSpec::kCall);
    EXPECT_EQ(t->targets[2].addr, p.symbols.at("FN"));
    EXPECT_EQ(t->targets[2].returnTo, p.symbols.at("BACK"));
    EXPECT_EQ(t->targets[3].spec, TargetSpec::kReturn);
}

TEST(Asm, TagBits)
{
    AsmOptions opts;
    opts.multiscalar = true;
    Program p = assemble(kTaskSource, opts);
    const auto at = [&](const char *sym, int off = 0) {
        return p.instrAt(p.symbols.at(sym) + Addr(off) * 4);
    };
    EXPECT_TRUE(at("OUTER")->tags.forward);
    EXPECT_EQ(at("OUTER", 1)->tags.stop, StopKind::kIfTaken);
    EXPECT_EQ(at("BACK")->tags.stop, StopKind::kIfNotTaken);
    EXPECT_EQ(at("FN")->tags.stop, StopKind::kAlways);
}

TEST(Asm, ScalarModeStripsAnnotations)
{
    AsmOptions scalar_opts;
    scalar_opts.multiscalar = false;
    Program p = assemble(kTaskSource, scalar_opts);
    EXPECT_TRUE(p.tasks.empty());
    for (const auto &inst : p.code) {
        EXPECT_FALSE(inst.tags.forward);
        EXPECT_EQ(inst.tags.stop, StopKind::kNone);
    }
}

TEST(Asm, ConditionalLines)
{
    const char *src = R"(
        .text
main:   nop
@ms     addu $1, $2, $3
@sc     subu $1, $2, $3
@def(X) and  $1, $2, $3
@ndef(X) or  $1, $2, $3
    )";
    Program ms = asms(src, true);
    ASSERT_EQ(ms.code.size(), 3u);
    EXPECT_EQ(ms.code[1].op, Opcode::kAddu);
    EXPECT_EQ(ms.code[2].op, Opcode::kOr);

    Program sc = asms(src, false);
    EXPECT_EQ(sc.code[1].op, Opcode::kSubu);

    Program with_x = asms(src, true, {"X"});
    EXPECT_EQ(with_x.code[2].op, Opcode::kAnd);
}

TEST(Asm, InstructionCountsDifferByMode)
{
    // The Table 2 mechanism: @ms lines only exist in the multiscalar
    // binary.
    const char *src = R"(
        .text
main:   nop
@ms     release $4
        nop
    )";
    EXPECT_EQ(asms(src, true).code.size(), 3u);
    EXPECT_EQ(asms(src, false).code.size(), 2u);
}

// --- errors ------------------------------------------------------------

TEST(AsmErrors, Diagnostics)
{
    EXPECT_THROW(asms(".text\nmain: bogus $1\n"), FatalError);
    EXPECT_THROW(asms(".text\nmain: addu $1, $2\n"), FatalError);
    EXPECT_THROW(asms(".text\nmain: b nowhere\n"), FatalError);
    EXPECT_THROW(asms(".text\nx: nop\nx: nop\n"), FatalError);
    EXPECT_THROW(asms(".data\nw: .word\n  .text\nmain: lw $4, w($5)($6)\n"),
                 FatalError);
    EXPECT_THROW(asms(".text\nmain: addiu $1, $2, 40000\n"),
                 FatalError);
}

TEST(AsmErrors, TaskBlocks)
{
    AsmOptions ms;
    ms.multiscalar = true;
    EXPECT_THROW(assemble(".text\n.task main\nmain: nop\n", ms),
                 FatalError);  // unterminated
    EXPECT_THROW(assemble(".text\n.endtask\nmain: nop\n", ms),
                 FatalError);
    EXPECT_THROW(assemble(".text\n.create $4\nmain: nop\n", ms),
                 FatalError);
    EXPECT_THROW(
        assemble(".text\nmain: nop\n.task nowhere\n.endtask\n", ms),
        FatalError);  // undefined label
    EXPECT_THROW(
        assemble(".text\nmain: nop\n"
                 ".task main\n.targets a,b,c,d,e\n.endtask\n",
                 ms),
        FatalError);  // too many targets
}

TEST(AsmErrors, InstructionOutsideText)
{
    EXPECT_THROW(asms(".data\nmain: nop\n"), FatalError);
}

/** @return the FatalError text of assembling @p src ("" if none). */
std::string
asmError(const std::string &src)
{
    try {
        asms(src);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(AsmErrors, OperandsOutsideTheirFields)
{
    // Every operand must fit the field a 32-bit format gives it.
    EXPECT_EQ(asmError(".text\nmain: addiu $1, $2, 40000\n"),
              "fatal: immediate 40000 out of signed 16-bit range in "
              "addiu");
    EXPECT_EQ(asmError(".text\nmain: ori $1, $2, -1\n"),
              "fatal: immediate -1 out of unsigned 16-bit range in ori");
    EXPECT_EQ(asmError(".text\nmain: sll $1, $2, 32\n"),
              "fatal: <asm>:2: shift amount out of range");
    std::string far = ".text\nmain: beq $1, $2, far\n";
    for (int i = 0; i < 33000; ++i)
        far += "nop\n";
    far += "far: nop\n";
    EXPECT_EQ(asmError(far),
              "fatal: immediate 33000 out of signed 16-bit range in beq");
    EXPECT_EQ(asmError(".text\nmain: beq $1, $2, 0x400002\n"),
              "fatal: misaligned branch target");
    EXPECT_EQ(asmError(".text\nmain: j 0x400002\n"),
              "fatal: misaligned jump target");
}

TEST(AsmErrors, WideImmediatesDoNotWrap)
{
    // The range check sees the whole 64-bit value, so bits above the
    // low 32 cannot fall away and leave a small, valid immediate.
    EXPECT_EQ(asmError(".text\nmain: addiu $1, $2, 0x100000005\n"),
              "fatal: <asm>:2: immediate 4294967301 out of range");
    EXPECT_EQ(asmError(".text\nmain: lw $1, 0x100000008($2)\n"),
              "fatal: <asm>:2: immediate 4294967304 out of range");
    EXPECT_EQ(asmError(".text\nmain: ori $1, $2, 0xffffffff\n"),
              "fatal: <asm>:2: immediate 4294967295 out of range");
}

TEST(AsmErrors, LuiTakesAnUnsigned16BitImmediate)
{
    EXPECT_EQ(asmError(".text\nmain: lui $1, 0x12345\n"),
              "fatal: immediate 74565 out of unsigned 16-bit range in "
              "lui");
    EXPECT_EQ(asmError(".text\nmain: lui $1, -1\n"),
              "fatal: immediate -1 out of unsigned 16-bit range in lui");
    assembler::AsmOptions opts;
    opts.multiscalar = false;
    const Program prog =
        assembler::assemble(".text\nmain: lui $1, 0xffff\n", opts);
    EXPECT_EQ(prog.code.at(0).imm, 0xffff);
}

} // namespace
} // namespace msim
