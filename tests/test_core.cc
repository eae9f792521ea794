/**
 * @file
 * Multiscalar core integration tests: the sequencer's walk (calls and
 * returns through the RAS, control mispredicts, terminal tasks),
 * memory dependence squash-and-recover, ARB capacity policies, ring
 * latency insensitivity of results, the walk ledger across chains of
 * producers, syscall gating at the head, and conservation between
 * the component counters and the RunResult totals.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "asm/assembler.hh"
#include "config/machine_shape.hh"
#include "core/multiscalar_processor.hh"
#include "core/run_loop.hh"
#include "core/scalar_processor.hh"
#include "sim/compiled_workload.hh"
#include "sim/reference.hh"

namespace msim {
namespace {

Program
ms(const std::string &src)
{
    assembler::AsmOptions opts;
    opts.multiscalar = true;
    return assembler::assemble(src, opts);
}

RunResult
run(const std::string &src, MsConfig cfg = {},
    std::deque<std::int32_t> input = {})
{
    Program prog = ms(src);
    MultiscalarProcessor proc(prog, cfg);
    proc.setInput(std::move(input));
    return proc.run(5'000'000);
}

/** Run on the multiscalar machine and compare with the reference. */
void
checkAgainstReference(const std::string &src, MsConfig cfg = {})
{
    Program prog = ms(src);
    ReferenceResult ref = referenceRun(prog);
    ASSERT_TRUE(ref.exited);
    MultiscalarProcessor proc(prog, cfg);
    RunResult r = proc.run(5'000'000);
    EXPECT_TRUE(r.exited);
    EXPECT_EQ(r.output, ref.output);
}

// A loop whose every iteration calls a function task: the sequencer
// walks main -> LOOP -> FN -> CONT -> LOOP -> ... using the RAS.
const char *const kCallReturnSource = R"(
        .text
main:   li   $16, 0
        li   $20, 0
        li   $21, 40
        b    LOOP !s
.task main
.targets LOOP
.create $16, $20, $21
.endtask

.task LOOP
.targets FN:call:CONT
.create $20, $4, $31
.endtask
LOOP:
        addu $20, $20, 1 !f
        subu $4, $20, 1  !f
        jal  FN !f !s         # link = CONT, the fall-through

.task CONT
.targets LOOP:loop, DONE
.endtask
CONT:
        bne  $20, $21, LOOP !s

.task DONE
.endtask
DONE:
        move $4, $16
        li   $2, 1
        syscall
        li   $2, 10
        syscall

.task FN
.targets ret
.create $16
.endtask
FN:     mul  $8, $4, 3
        addu $16, $16, $8 !f
        jr   $31 !s
)";

TEST(Core, CallReturnTasksThroughRas)
{
    MsConfig cfg;
    cfg.numUnits = 4;
    RunResult r = run(kCallReturnSource, cfg);
    ASSERT_TRUE(r.exited);
    // sum of 3*i for i in [0,40) = 3*780
    EXPECT_EQ(r.output, "2340");
    EXPECT_GT(r.tasksRetired, 100u);  // 3 tasks per iteration
    // The RAS predicts the returns: accuracy should be high.
    EXPECT_GT(r.predAccuracy(), 0.9);
}

TEST(Core, CallReturnMatchesReference)
{
    // jr $31 in FN never executes in the reference the same way (it
    // uses the link from... actually the reference executes b FN and
    // jr $31 exactly; outputs must match.
    checkAgainstReference(kCallReturnSource);
}

TEST(Core, DataDependentExitMispredictsButRecovers)
{
    // The loop exits when a loaded value says so; the predictor sees
    // loop-back history, so the exit is a control squash.
    const char *src = R"(
        .data
FLAGS:  .word 0,0,0,0,0,0,0,0,0,1
        .text
main:   la   $16, FLAGS
        li   $19, 0
        li   $20, 0
        b    LOOP !s
.task main
.targets LOOP
.create $16, $19, $20
.endtask

.task LOOP
.targets LOOP:loop, DONE
.create $19, $20
.endtask
LOOP:
        addu $20, $20, 4 !f
        subu $8, $20, 4
        addu $8, $8, $16
        lw   $9, 0($8)
        addu $19, $19, 1 !f
        beq  $9, $0, LOOP !s

.task DONE
.endtask
DONE:
        move $4, $19
        li   $2, 1
        syscall
        li   $2, 10
        syscall
    )";
    MsConfig cfg;
    cfg.numUnits = 8;
    RunResult r = run(src, cfg);
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.output, "10");
    EXPECT_GE(r.controlSquashes, 1u);
    EXPECT_GT(r.squashedInstructions, 0u);
}

TEST(Core, MemoryViolationSquashAndRecover)
{
    // Each task increments a memory counter (read-modify-write on one
    // address): with 8 units the later tasks load early, the earlier
    // store comes later, and the ARB must squash and re-execute to
    // keep the count exact.
    const char *src = R"(
        .data
COUNTER: .word 0
        .text
main:   li   $20, 0
        li   $21, 50
        b    LOOP !s
.task main
.targets LOOP
.create $20, $21
.endtask

.task LOOP
.targets LOOP:loop, DONE
.create $20
.endtask
LOOP:
        addu $20, $20, 1 !f
        lw   $8, COUNTER
        addu $8, $8, 2
        sw   $8, COUNTER
        bne  $20, $21, LOOP !s

.task DONE
.endtask
DONE:
        lw   $4, COUNTER
        li   $2, 1
        syscall
        li   $2, 10
        syscall
    )";
    MsConfig cfg;
    cfg.numUnits = 8;
    RunResult r = run(src, cfg);
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.output, "100");
    EXPECT_GT(r.memorySquashes, 0u);
}

TEST(Core, TinyArbBothPoliciesStayCorrect)
{
    // A store-heavy loop with a 2-entry-per-bank ARB: both the squash
    // and the stall policy must produce the exact result.
    const char *src = R"(
        .data
BUF:    .space 1024
        .text
main:   li   $20, 0
        li   $21, 32
        la   $22, BUF
        b    LOOP !s
.task main
.targets LOOP
.create $20, $21, $22
.endtask

.task LOOP
.targets LOOP:loop, DONE
.create $20
.endtask
LOOP:
        addu $20, $20, 1 !f
        subu $8, $20, 1
        sll  $9, $8, 5
        addu $9, $9, $22      # &buf[32 * (i % 32)] region
        sw   $8, 0($9)
        sw   $8, 4($9)
        sw   $8, 8($9)
        sw   $8, 12($9)
        sw   $8, 16($9)
        bne  $20, $21, LOOP !s

.task DONE
.endtask
DONE:
        li   $19, 0
        move $8, $22
        li   $9, 1024
        addu $9, $8, $9
SUM:    lw   $10, 0($8)
        addu $19, $19, $10
        addu $8, $8, 4
        bne  $8, $9, SUM
        move $4, $19
        li   $2, 1
        syscall
        li   $2, 10
        syscall
    )";
    Program prog = ms(src);
    const std::string expect = referenceRun(prog).output;
    for (auto policy : {ArbFullPolicy::kSquash, ArbFullPolicy::kStall}) {
        MsConfig cfg;
        cfg.numUnits = 8;
        cfg.arbEntriesPerBank = 2;
        cfg.arbFullPolicy = policy;
        RunResult r = run(src, cfg);
        ASSERT_TRUE(r.exited);
        EXPECT_EQ(r.output, expect);
    }
}

TEST(Core, RegisterChainsThroughManyProducers)
{
    // Four registers carried across every task; values must chain
    // correctly through the walk ledger whatever the unit count.
    const char *src = R"(
        .text
main:   li   $16, 1
        li   $17, 2
        li   $18, 3
        li   $19, 4
        li   $20, 0
        li   $21, 64
        b    LOOP !s
.task main
.targets LOOP
.create $16, $17, $18, $19, $20, $21
.endtask

.task LOOP
.targets LOOP:loop, DONE
.create $16, $17, $18, $19, $20
.endtask
LOOP:
        addu $20, $20, 1 !f
        addu $16, $16, $17 !f
        xor  $17, $17, $18 !f
        addu $18, $18, $19 !f
        mul  $19, $19, 3
        addu $19, $19, 1 !f
        bne  $20, $21, LOOP !s

.task DONE
.endtask
DONE:
        xor  $4, $16, $17
        xor  $4, $4, $18
        xor  $4, $4, $19
        li   $2, 1
        syscall
        li   $2, 10
        syscall
    )";
    Program prog = ms(src);
    const std::string expect = referenceRun(prog).output;
    for (unsigned units : {1u, 2u, 3u, 4u, 8u}) {
        MsConfig cfg;
        cfg.numUnits = units;
        RunResult r = run(src, cfg);
        ASSERT_TRUE(r.exited) << units << " units";
        EXPECT_EQ(r.output, expect) << units << " units";
    }
}

TEST(Core, RingLatencyAffectsTimeNotResults)
{
    const char *src = kCallReturnSource;
    Cycle last = 0;
    for (unsigned hop : {1u, 2u, 4u}) {
        MsConfig cfg;
        cfg.numUnits = 4;
        cfg.ringHopLatency = hop;
        RunResult r = run(src, cfg);
        ASSERT_TRUE(r.exited);
        EXPECT_EQ(r.output, "2340");
        EXPECT_GE(r.cycles, last);  // slower ring, never faster
        last = r.cycles;
    }
}

TEST(Core, AlternatePredictorsStayCorrect)
{
    for (const char *pred : {"pas", "last", "static"}) {
        MsConfig cfg;
        cfg.numUnits = 4;
        cfg.predictor = pred;
        RunResult r = run(kCallReturnSource, cfg);
        ASSERT_TRUE(r.exited) << pred;
        EXPECT_EQ(r.output, "2340") << pred;
    }
}

TEST(Core, SpeculativeTasksNeverPrint)
{
    // The DONE task is predicted and assigned speculatively long
    // before the loop finishes; its syscall must wait until it is
    // the head, so exactly one value is printed.
    MsConfig cfg;
    cfg.numUnits = 8;
    RunResult r = run(kCallReturnSource, cfg);
    EXPECT_EQ(r.output, "2340");
}

TEST(Core, MissingDescriptorAtEntryIsFatal)
{
    const char *src = R"(
        .text
main:   li $2, 10
        syscall
    )";
    Program prog = ms(src);
    MsConfig cfg;
    EXPECT_THROW(MultiscalarProcessor(prog, cfg).run(1000),
                 FatalError);
}

TEST(Core, UndeclaredSuccessorPanics)
{
    const char *src = R"(
        .text
main:   li $8, 1
        b  ELSEWHERE !s
.task main
.targets SOMEWHERE
.endtask
.task SOMEWHERE
.endtask
SOMEWHERE:
        nop
ELSEWHERE:
        li $2, 10
        syscall
    )";
    Program prog = ms(src);
    MsConfig cfg;
    MultiscalarProcessor proc(prog, cfg);
    EXPECT_THROW(proc.run(10000), PanicError);
}

/** @return the DeadlockError @p body throws (fails the test if none). */
template <class F>
DeadlockError
deadlockOf(F &&body)
{
    try {
        body();
    } catch (const DeadlockError &e) {
        return e;
    }
    ADD_FAILURE() << "expected a DeadlockError";
    return DeadlockError("", 0, "");
}

/**
 * @return the watchdog's dump line for a running task starting at
 * @p start that has not sent @p unsent and whose oldest slot is
 * described by @p oldest.
 */
std::string
stuckUnitLine(unsigned unit, TaskSeq seq, Addr start,
              const std::string &unsent, const std::string &oldest)
{
    std::ostringstream os;
    os << "\n  unit " << unit << " seq " << seq << " task@0x" << std::hex
       << start << std::dec << " status "
       << int(ProcessingUnit::Status::kRunning) << " unsent {" << unsent
       << "} " << oldest;
    return os.str();
}

// Both watchdog tests jump off the text segment: fetch stops and the
// window drains, so no component has a next event (fast-forward jumps
// straight to the watchdog's cycle) and only the no-progress watchdog
// ends the run.

TEST(Core, ScalarWatchdogDumpsTheStalledUnit)
{
    assembler::AsmOptions opts;
    opts.multiscalar = false;
    Program prog = assembler::assemble(R"(
        .text
main:   lui  $8, 0x7000
        jr   $8
    )", opts);
    ScalarProcessor proc(prog, ScalarConfig{});
    const DeadlockError e = deadlockOf([&] { proc.run(1'000'000); });
    EXPECT_EQ(e.state, stuckUnitLine(0, 0, prog.entry, "", "window empty"));
    EXPECT_EQ(std::string(e.what()),
              "fatal: scalar processor made no progress for 100000 "
              "cycles (deadlock?). State:" + e.state);
    // Progress stops within the first few cycles.
    EXPECT_GT(e.cycle, kWatchdogCycles);
    EXPECT_LT(e.cycle, kWatchdogCycles + 100);
}

TEST(Core, MultiscalarWatchdogDumpsTheStalledUnit)
{
    // A terminal task (no targets) that never exits: the walk stops
    // behind it and $9, which it may create, is never forwarded.
    Program prog = ms(R"(
        .text
main:   lui  $8, 0x7000
        jr   $8
.task main
.create $9
.endtask
    )");
    MultiscalarProcessor proc(prog, MsConfig{});
    const DeadlockError e = deadlockOf([&] { proc.run(1'000'000); });
    EXPECT_EQ(e.state, stuckUnitLine(0, 1, prog.entry, "$9", "window empty"));
    EXPECT_EQ(std::string(e.what()),
              "fatal: multiscalar processor made no progress for "
              "100000 cycles (deadlock?). State:" + e.state);
    EXPECT_GT(e.cycle, kWatchdogCycles);
    EXPECT_LT(e.cycle, kWatchdogCycles + 100);
}

TEST(Core, FastForwardStopsAtTheWatchdog)
{
    // On this shape sc stops making progress: squashes on a full ARB
    // leave the bus booked far ahead, and every unit's oldest slot is
    // a load due ~55k cycles after the watchdog fires. Fast-forward
    // must not jump past that cycle to the loads' completion.
    MsConfig cfg;
    cfg.numUnits = 3;
    cfg.pu.issueWidth = 2;
    cfg.ringHopLatency = 2;
    cfg.bankSizeBytes = 256;
    cfg.arbEntriesPerBank = 5;
    cfg.arbFullPolicy = ArbFullPolicy::kSquash;
    const auto compiled = compileWorkload("sc", /*multiscalar=*/true);
    auto deadlock = [&](bool fast_forward) {
        MsConfig c = cfg;
        c.fastForward = fast_forward;
        MultiscalarProcessor proc(compiled->program, c);
        if (compiled->workload.init)
            compiled->workload.init(proc.memory(), compiled->program);
        proc.setInput(compiled->workload.input);
        return deadlockOf([&] { proc.run(50'000'000); });
    };
    const DeadlockError on = deadlock(true);
    const DeadlockError off = deadlock(false);
    EXPECT_EQ(off.cycle, 403712u);
    EXPECT_EQ(on.cycle, off.cycle);
    EXPECT_EQ(on.state, off.state);
    const Addr task = 0x400020;
    EXPECT_EQ(off.state,
              stuckUnitLine(2, 24200, task, "$19", "oldest lw due @459497") +
              stuckUnitLine(0, 24201, task, "$19", "oldest lw due @459445") +
              stuckUnitLine(1, 24202, task, "$19", "oldest lw due @459471"));
}

TEST(Core, ParkedSyscallSleepsUntilItsUnitIsHead)
{
    // The head task waits on a chain of slow-bus load misses while
    // its speculative successor parks on a syscall it may not run
    // until it becomes the head. Only retirement changes that
    // permission, so the parked unit has no event of its own and
    // the run fast-forwards over the misses, exactly.
    const char *const src = R"(
        .data
BUF:    .space 1024
        .text
main:   la   $8, BUF
        lw   $9, 0($8)
        addu $8, $8, $9
        lw   $9, 256($8)
        addu $8, $8, $9
        lw   $9, 512($8)
        addu $8, $8, $9
        lw   $9, 768($8)
        b    OUT !s
.task main
.targets OUT
.endtask
.task OUT
.endtask
OUT:    li   $4, 7
        li   $2, 1
        syscall
        li   $2, 10
        syscall
)";
    MsConfig cfg;
    cfg.bus.firstBeatLatency = 200;
    MsConfig off = cfg;
    off.fastForward = false;
    const RunResult on_r = run(src, cfg);
    const RunResult off_r = run(src, off);
    ASSERT_TRUE(on_r.exited);
    EXPECT_EQ(on_r.output, "7");
    // Nothing but the misses and the icache fills happens, so all
    // but a few cycles are skipped; a parked unit due every cycle
    // would make the run step through the whole load chain.
    EXPECT_GT(on_r.fastForwardedCycles, on_r.cycles * 9 / 10);
    EXPECT_EQ(off_r.fastForwardedCycles, 0u);
    EXPECT_EQ(on_r.cycles, off_r.cycles);
    EXPECT_EQ(on_r.output, off_r.output);
    for (size_t cat = 0; cat < kNumCycleCats; ++cat) {
        for (unsigned u = 0; u < on_r.accounting.numUnits; ++u) {
            EXPECT_EQ(on_r.accounting.perUnit[u][cat],
                      off_r.accounting.perUnit[u][cat])
                << "unit " << u << " category "
                << cycleCatName(CycleCat(cat));
        }
    }
}

TEST(Core, InvalidConfigFailsAtConstruction)
{
    // validate() runs in the processor constructors, so a bad
    // configuration dies with a clear "ms config: <field>: <why>"
    // diagnostic before any cycle is simulated.
    Program prog = ms(R"(
        .text
main:   li $2, 10
        syscall
        .task main
        .endtask
    )");

    MsConfig zero_units;
    zero_units.numUnits = 0;
    EXPECT_THROW(MultiscalarProcessor(prog, zero_units), FatalError);

    MsConfig odd_block;
    odd_block.blockBytes = 48;
    EXPECT_THROW(MultiscalarProcessor(prog, odd_block), FatalError);

    MsConfig no_arb;
    no_arb.arbEntriesPerBank = 0;
    EXPECT_THROW(MultiscalarProcessor(prog, no_arb), FatalError);

    MsConfig bad_pred;
    bad_pred.predictor = "oracle";
    EXPECT_THROW(MultiscalarProcessor(prog, bad_pred), FatalError);

    MsConfig l2_block_mismatch;
    l2_block_mismatch.l2.emplace();
    l2_block_mismatch.l2->blockBytes = 128;  // L1 blocks are 64
    EXPECT_THROW(MultiscalarProcessor(prog, l2_block_mismatch),
                 FatalError);

    MsConfig l2_no_mshrs;
    l2_no_mshrs.l2.emplace();
    l2_no_mshrs.l2->mshrsPerBank = 0;
    EXPECT_THROW(MultiscalarProcessor(prog, l2_no_mshrs), FatalError);

    assembler::AsmOptions sc_opts;
    sc_opts.multiscalar = false;
    Program sc_prog = assembler::assemble(kCallReturnSource, sc_opts);
    ScalarConfig zero_width;
    zero_width.pu.issueWidth = 0;
    EXPECT_THROW(ScalarProcessor(sc_prog, zero_width), FatalError);
}

TEST(Core, L2WaitCyclesLandInMemWaitAndSumStaysExact)
{
    // A block-stride load loop: every access is an L1 miss, so the
    // unit spends most of its time waiting on the hierarchy. The
    // wait must be charged to mem_wait and the exact-accounting
    // invariant (sum == cycles x units) must survive the L2's extra
    // latency contributions.
    const char *const src = R"(
        .data
BUF:    .space 8448
        .text
main:   la   $20, BUF
        addu $21, $20, 8192
LOOP:   lw   $8, 0($20)
        addu $20, $20, 64
        bne  $20, $21, LOOP
        li   $2, 10
        syscall
        .task main
        .endtask
    )";

    MsConfig with_l2;
    with_l2.l2.emplace();
    with_l2.bus.firstBeatLatency = 100;
    const RunResult r = run(src, with_l2);
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.accounting.sum(), r.cycles * r.accounting.numUnits);
    EXPECT_GT(r.accounting[CycleCat::kMemWait], 0u);

    // Slowing only the L2 hit path must show up as more mem_wait
    // (not leak into another category or break the invariant).
    MsConfig slow_l2 = with_l2;
    slow_l2.l2->hitLatency += 40;
    const RunResult s = run(src, slow_l2);
    ASSERT_TRUE(s.exited);
    EXPECT_EQ(s.accounting.sum(), s.cycles * s.accounting.numUnits);
    EXPECT_GT(s.cycles, r.cycles);
    EXPECT_GT(s.accounting[CycleCat::kMemWait],
              r.accounting[CycleCat::kMemWait]);
}

TEST(Core, ScalarAndMultiscalarMatchReferenceOnCallReturn)
{
    assembler::AsmOptions sc_opts;
    sc_opts.multiscalar = false;
    Program sc_prog =
        assembler::assemble(kCallReturnSource, sc_opts);
    ReferenceResult ref = referenceRun(sc_prog);
    ScalarProcessor scalar(sc_prog, ScalarConfig{});
    RunResult r = scalar.run(5'000'000);
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.output, ref.output);
    EXPECT_EQ(r.instructions, ref.instructions);
}

TEST(Core, ComponentCountersAddUpToRunTotals)
{
    // Every unit-level increment must land: the per-unit counters
    // summed over the machine equal the run's committed-plus-squashed
    // totals (the unfinished tasks at exit are folded the same way).
    const MsConfig cfg = config::resolveShape("paper-default").ms;
    for (const char *name : {"example", "compress"}) {
        SCOPED_TRACE(name);
        const auto compiled = compileWorkload(name, /*multiscalar=*/true);
        MultiscalarProcessor proc(compiled->program, cfg);
        if (compiled->workload.init)
            compiled->workload.init(proc.memory(), compiled->program);
        proc.setInput(compiled->workload.input);
        const RunResult r = proc.run(50'000'000);
        ASSERT_TRUE(r.exited);
        ASSERT_EQ(r.output, compiled->workload.expected);

        std::uint64_t instructions = 0;
        std::uint64_t assigned = 0;
        std::uint64_t sends = 0;
        unsigned units = 0;
        for (const StatGroup &g : proc.stats().groups()) {
            if (g.name().starts_with("pu")) {
                instructions += g.get("instructions");
                assigned += g.get("tasksAssigned");
                ++units;
            } else if (g.name() == "ring") {
                sends = g.get("sends");
            }
        }
        EXPECT_EQ(units, cfg.numUnits);
        EXPECT_EQ(instructions, r.instructions + r.squashedInstructions);
        EXPECT_EQ(assigned, r.tasksRetired + r.tasksSquashed);
        EXPECT_GT(assigned, 0u);
        EXPECT_GT(sends, 0u);
    }
}

} // namespace
} // namespace msim
