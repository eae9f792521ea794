/**
 * @file
 * Tests for the sim layer: syscall emulation, the sequential
 * reference interpreter, and the workload runner (including golden
 * model enforcement and workload registry sanity).
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "core/multiscalar_processor.hh"
#include "mem/main_memory.hh"
#include "sim/compiled_workload.hh"
#include "sim/reference.hh"
#include "sim/runner.hh"
#include "sim/syscalls.hh"
#include "workloads/workload.hh"

namespace msim {
namespace {

using isa::RegValue;

SyscallHandler
makeHandler(MainMemory &mem)
{
    return SyscallHandler(
        [&mem](Addr a) { return std::uint8_t(mem.read(a, 1)); },
        0x10010000);
}

RegValue
w(Word v)
{
    return RegValue::fromWord(v);
}

TEST(Syscalls, PrintIntAndChar)
{
    MainMemory mem;
    SyscallHandler h = makeHandler(mem);
    h.execute(w(1), w(Word(-42)), w(0));
    h.execute(w(11), w(' '), w(0));
    h.execute(w(1), w(7), w(0));
    h.execute(w(11), w('\n'), w(0));
    EXPECT_EQ(h.output(), "-42 7\n");
    EXPECT_FALSE(h.exited());
}

TEST(Syscalls, PrintString)
{
    MainMemory mem;
    const char *s = "hello";
    mem.writeBytes(0x5000, reinterpret_cast<const std::uint8_t *>(s),
                   6);
    SyscallHandler h = makeHandler(mem);
    h.execute(w(4), w(0x5000), w(0));
    EXPECT_EQ(h.output(), "hello");
}

TEST(Syscalls, ReadIntStream)
{
    MainMemory mem;
    SyscallHandler h = makeHandler(mem);
    h.setInput({5, -3});
    EXPECT_EQ(h.execute(w(5), w(0), w(0)).asSWord(), 5);
    EXPECT_EQ(h.execute(w(5), w(0), w(0)).asSWord(), -3);
    EXPECT_EQ(h.execute(w(5), w(0), w(0)).asSWord(), -1);  // EOF
}

TEST(Syscalls, SbrkAdvances)
{
    MainMemory mem;
    SyscallHandler h = makeHandler(mem);
    EXPECT_EQ(h.execute(w(9), w(64), w(0)).asWord(), 0x10010000u);
    EXPECT_EQ(h.execute(w(9), w(16), w(0)).asWord(), 0x10010040u);
    EXPECT_EQ(h.brk(), 0x10010050u);
}

TEST(Syscalls, ExitSetsFlagAndUnknownCodeIsFatal)
{
    MainMemory mem;
    SyscallHandler h = makeHandler(mem);
    h.execute(w(10), w(0), w(0));
    EXPECT_TRUE(h.exited());
    EXPECT_THROW(h.execute(w(99), w(0), w(0)), FatalError);
}

TEST(Reference, RunsAProgramSequentially)
{
    const char *src = R"(
        .data
msg:    .asciiz "sum="
        .text
main:   li   $8, 0
        li   $9, 1
L:      addu $8, $8, $9
        addu $9, $9, 1
        li   $10, 11
        bne  $9, $10, L
        la   $4, msg
        li   $2, 4
        syscall
        move $4, $8
        li   $2, 1
        syscall
        li   $2, 10
        syscall
    )";
    Program p = assembler::assemble(src, {});
    ReferenceResult r = referenceRun(p);
    EXPECT_TRUE(r.exited);
    EXPECT_EQ(r.output, "sum=55");
    EXPECT_GT(r.instructions, 40u);
}

TEST(Reference, HonorsMemoryInitAndInput)
{
    const char *src = R"(
        .data
cell:   .word 0
        .text
main:   li   $2, 5
        syscall              # read one int
        lw   $8, cell
        addu $4, $2, $8
        li   $2, 1
        syscall
        li   $2, 10
        syscall
    )";
    Program p = assembler::assemble(src, {});
    ReferenceResult r = referenceRun(
        p,
        [](MainMemory &mem, const Program &prog) {
            mem.write(*prog.symbol("cell"), 30, 4);
        },
        {12});
    EXPECT_EQ(r.output, "42");
}

TEST(Reference, RunningOffTextIsFatal)
{
    Program p = assembler::assemble(".text\nmain: nop\n", {});
    EXPECT_THROW(referenceRun(p), FatalError);
}

TEST(Runner, WrongOutputIsFatal)
{
    workloads::Workload w = workloads::get("wc");
    w.expected = "not what wc prints";
    RunSpec spec;
    spec.multiscalar = false;
    EXPECT_THROW(runWorkload(w, spec), FatalError);
}

TEST(Runner, CheckCanBeDisabled)
{
    workloads::Workload w = workloads::get("wc");
    w.expected = "not what wc prints";
    RunSpec spec;
    spec.multiscalar = false;
    spec.checkOutput = false;
    EXPECT_NO_THROW(runWorkload(w, spec));
}

TEST(Runner, CycleLimitIsFatal)
{
    workloads::Workload w = workloads::get("wc");
    RunSpec spec;
    spec.multiscalar = false;
    spec.maxCycles = 100;
    EXPECT_THROW(runWorkload(w, spec), FatalError);
}

TEST(Runner, CycleLimitErrorIsDistinctFromOtherFailures)
{
    // Budget exhaustion must name the budget, not look like a hang
    // or a wrong-output failure.
    workloads::Workload w = workloads::get("wc");
    RunSpec spec;
    spec.multiscalar = false;
    spec.maxCycles = 100;
    try {
        runWorkload(w, spec);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("exhausted its cycle budget"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("maxCycles=100"), std::string::npos) << msg;
    }
}

TEST(Budget, RunnerThrowsBudgetExhaustedError)
{
    // The typed error carries the budget and the cycles consumed, on
    // the multiscalar machine's compiled-run path.
    ProgramCache cache;
    auto compiled = cache.get("wc", true);
    RunSpec spec;
    spec.maxCycles = 100;
    try {
        runCompiled(*compiled, spec);
        FAIL() << "expected BudgetExhaustedError";
    } catch (const BudgetExhaustedError &e) {
        EXPECT_EQ(e.budget, 100u);
        EXPECT_EQ(e.cyclesConsumed, 100u);
        EXPECT_NE(std::string(e.what()).find("cycle budget"),
                  std::string::npos);
    }
}

TEST(Runner, HitMaxCyclesIsReportedByBothMachines)
{
    // An endless program: the run must stop exactly at the budget and
    // flag the truncation, distinct from a normal exit.
    {
        Program prog = assembler::assemble(
            ".text\nmain:   b    main\n", {});
        ScalarProcessor proc(prog, ScalarConfig{});
        RunResult r = proc.run(500);
        EXPECT_FALSE(r.exited);
        EXPECT_TRUE(r.hitMaxCycles);
        EXPECT_EQ(r.cycles, 500u);
        // The exact-accounting invariant holds on truncated runs too.
        EXPECT_EQ(r.accounting.sum(), r.cycles * r.accounting.numUnits);
    }
    {
        assembler::AsmOptions opts;
        opts.multiscalar = true;
        Program prog = assembler::assemble(R"(
        .text
main:   li   $20, 0
        b    SPIN !s
.task main
.targets SPIN
.create $20
.endtask
.task SPIN
.targets SPIN:loop
.create $20
.endtask
SPIN:
        addu $20, $20, 1 !f
        b    SPIN !s
)",
                                           opts);
        MultiscalarProcessor proc(prog, MsConfig{});
        RunResult r = proc.run(2000);
        EXPECT_FALSE(r.exited);
        EXPECT_TRUE(r.hitMaxCycles);
        EXPECT_EQ(r.cycles, 2000u);
        EXPECT_EQ(r.accounting.sum(), r.cycles * r.accounting.numUnits);
    }
    {
        // A normal exit must not be flagged.
        workloads::Workload w2 = workloads::get("example");
        RunSpec spec;
        spec.multiscalar = true;
        RunResult ok = runWorkload(w2, spec);
        EXPECT_TRUE(ok.exited);
        EXPECT_FALSE(ok.hitMaxCycles);
    }
}

TEST(Workloads, RegistryIsComplete)
{
    const auto &reg = workloads::registry();
    EXPECT_EQ(reg.size(), 15u);
    for (const char *name :
         {"compress", "eqntott", "espresso", "gcc", "sc", "xlisp",
          "tomcatv", "cmp", "wc", "example", "pointer_chase",
          "stream_triad", "gups", "stencil", "thrash"})
        EXPECT_TRUE(reg.count(name)) << name;
    EXPECT_THROW(workloads::get("nope"), FatalError);
    EXPECT_THROW(workloads::get("wc", 0), FatalError);
}

TEST(Workloads, EveryWorkloadMatchesTheReferenceInterpreter)
{
    // The golden models are hand-written; the reference interpreter
    // is an independent implementation of the semantics. They must
    // agree on the scalar binary of every workload.
    for (const auto &[name, factory] : workloads::registry()) {
        (void)factory;
        workloads::Workload w = workloads::get(name);
        Program prog = assembleWorkload(w, false);
        ReferenceResult r =
            referenceRun(prog, w.init, w.input, 50'000'000);
        ASSERT_TRUE(r.exited) << name;
        EXPECT_EQ(r.output, w.expected) << name;
    }
}

} // namespace
} // namespace msim
