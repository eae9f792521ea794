/**
 * @file
 * Processing unit tests against a mock context: issue disciplines
 * (in-order vs out-of-order), FU latencies and structural limits,
 * branch handling, stop bits and task exit, forward/release
 * semantics, ring reservations, syscall gating, and squash/flush.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "isa/registers.hh"
#include "pu/processing_unit.hh"
#include "pu/pu_context.hh"
#include "trace/cycle_accounting.hh"
#include "trace/tracer.hh"

namespace msim {
namespace {

using isa::RegValue;

/** A mock machine environment with instant caches. */
class MockContext : public PuContext
{
  public:
    explicit MockContext(Program prog) : prog_(std::move(prog)) {}

    const isa::Instruction *
    instrAt(Addr pc) override
    {
        return prog_.instrAt(pc);
    }

    Cycle
    icacheAccess(unsigned, Cycle now, Addr) override
    {
        ++icacheAccesses;
        return now + 1;
    }

    Cycle
    dcacheAccess(unsigned, Cycle now, Addr, bool) override
    {
        return now + dcacheLatency;
    }

    bool
    memHasSpace(unsigned, Addr, unsigned, bool) override
    {
        ++memSpaceQueries;
        return memSpace;
    }

    std::uint64_t
    memLoad(unsigned, Addr addr, unsigned size) override
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i) {
            auto it = memory.find(addr + i);
            v |= std::uint64_t(it == memory.end() ? 0 : it->second)
                 << (8 * i);
        }
        return v;
    }

    void
    memStore(unsigned, Addr addr, unsigned size,
             std::uint64_t value) override
    {
        for (unsigned i = 0; i < size; ++i)
            memory[addr + i] = std::uint8_t(value >> (8 * i));
        storeCount++;
    }

    void
    forwardReg(unsigned, RegIndex reg, RegValue value) override
    {
        forwards.push_back({reg, value});
    }

    bool
    syscallAllowed(unsigned) override
    {
        return allowSyscall;
    }

    RegValue
    doSyscall(unsigned, RegValue v0, RegValue, RegValue) override
    {
        syscallCount++;
        return v0;
    }

    void
    taskExited(unsigned, Addr next) override
    {
        exits.push_back(next);
    }

    Program prog_;
    std::map<Addr, std::uint8_t> memory;
    std::vector<std::pair<RegIndex, RegValue>> forwards;
    std::vector<Addr> exits;
    unsigned dcacheLatency = 2;
    bool memSpace = true;
    unsigned memSpaceQueries = 0;
    bool allowSyscall = true;
    unsigned storeCount = 0;
    unsigned syscallCount = 0;
    unsigned icacheAccesses = 0;
};

Program
assembleMs(const std::string &src)
{
    assembler::AsmOptions opts;
    opts.multiscalar = true;
    return assembler::assemble(src, opts);
}

/** Harness owning a unit, its cycle accounting and a mock context. */
struct Rig
{
    explicit Rig(const std::string &src, PuConfig config = {})
        : ctx(assembleMs(src)),
          pu(0, config, ctx, stats.group("pu0"), &acct)
    {
    }

    /** Advance one cycle, keeping the cycle the unit is next due. */
    void
    tick(Cycle now)
    {
        due = pu.tick(now);
        last = now;
    }

    /** The last tick left the unit due later than the next cycle. */
    bool asleep() const { return due > last + 1; }

    /**
     * Commit the task's runs and close the books after @p cycles
     * ticks. @return the accounting of those cycles.
     */
    CycleAccountingResult
    closeBooks(Cycle cycles)
    {
        acct.commitTask(0, cycles);
        return acct.finish(cycles);
    }

    /** Assign the whole program as one task. */
    void
    start(RegMask create = {}, RegMask busy = {},
          std::array<TaskSeq, kNumRegs> producers = {})
    {
        std::array<RegValue, kNumRegs> regs{};
        pu.assignTask(1, ctx.prog_.entry, create, busy, regs.data(),
                      producers.data());
    }

    /**
     * Tick from cycle @p from until @p stop() holds after a tick (or
     * 2000). @return the cycle of that tick.
     */
    template <typename Stop>
    Cycle
    tickUntil(Cycle from, Stop stop)
    {
        Cycle now = from;
        for (; now < 2000; ++now) {
            tick(now);
            if (stop())
                break;
        }
        return now;
    }

    /** Tick until a tick leaves the unit due next cycle. */
    Cycle
    tickUntilActive(Cycle from)
    {
        return tickUntil(from, [&] { return !asleep(); });
    }

    /** Tick until a tick leaves the unit asleep. */
    Cycle
    tickUntilAsleep(Cycle from)
    {
        return tickUntil(from, [&] { return asleep(); });
    }

    Cycle
    tickUntilDone(Cycle from)
    {
        return tickUntil(from, [&] { return pu.isDone(); });
    }

    /** Accounting of the first @p cycles ticks, the task kept open. */
    CycleAccountingResult
    booksSoFar(Cycle cycles)
    {
        acct.commitTask(0, cycles);
        return acct.finish(cycles);
    }

    /** Run until the unit is done (or a cycle limit). */
    Cycle
    runUntilDone(Cycle limit = 2000)
    {
        Cycle now = 0;
        for (; now < limit; ++now) {
            tick(now);
            if (pu.isDone())
                return now;
        }
        return limit;
    }

    StatRegistry stats;
    MockContext ctx;
    CycleAccounting acct{1};
    ProcessingUnit pu;
    Cycle due = 0;
    Cycle last = 0;
};

TEST(Pu, StraightLineExecutesAndExits)
{
    Rig rig(R"(
        .text
main:   li   $8, 5
        addu $9, $8, $8
        nop  !s
    )");
    rig.start();
    Cycle done = rig.runUntilDone();
    ASSERT_LT(done, 2000u);
    EXPECT_EQ(rig.pu.taskInstructions(), 3u);
    ASSERT_EQ(rig.ctx.exits.size(), 1u);
    EXPECT_EQ(rig.ctx.exits[0], rig.ctx.prog_.entry + 3 * 4);
    EXPECT_EQ(rig.pu.regValues()[9].asWord(), 10u);
}

TEST(Pu, InOrderStallsOnRaw)
{
    // mul (4 cycles) feeds addu: the dependent add must wait.
    Rig rig(R"(
        .text
main:   li   $8, 3
        mul  $9, $8, $8
        addu $10, $9, $9
        nop  !s
    )");
    rig.start();
    rig.runUntilDone();
    EXPECT_EQ(rig.pu.regValues()[10].asWord(), 18u);
}

TEST(Pu, OutOfOrderOverlapsIndependentLatency)
{
    // div (12 cycles) followed by an independent chain: OoO finishes
    // sooner than in-order.
    const char *src = R"(
        .text
main:   li   $8, 40
        li   $9, 5
        div  $10, $8, $9
        addu $11, $8, $9
        addu $12, $11, $9
        addu $13, $12, $9
        addu $14, $10, $13    # joins the divide
        nop  !s
    )";
    PuConfig ino;
    Rig r1(src, ino);
    r1.start();
    Cycle t_ino = r1.runUntilDone();

    PuConfig ooo;
    ooo.outOfOrder = true;
    Rig r2(src, ooo);
    r2.start();
    Cycle t_ooo = r2.runUntilDone();

    EXPECT_EQ(r1.pu.regValues()[14].asWord(), 63u);
    EXPECT_EQ(r2.pu.regValues()[14].asWord(), 63u);
    EXPECT_LE(t_ooo, t_ino);
}

TEST(Pu, DualIssueIsFaster)
{
    // Independent adds: 2-way should take roughly half the cycles.
    std::string body = ".text\nmain:\n";
    for (int i = 0; i < 16; ++i)
        body += "  addu $" + std::to_string(8 + (i % 8)) + ", $0, $0\n";
    body += "  nop !s\n";
    PuConfig one;
    Rig r1(body, one);
    r1.start();
    Cycle t1 = r1.runUntilDone();
    PuConfig two;
    two.issueWidth = 2;
    Rig r2(body, two);
    r2.start();
    Cycle t2 = r2.runUntilDone();
    EXPECT_LT(t2, t1);
}

TEST(Pu, TakenBranchRedirectsFetch)
{
    Rig rig(R"(
        .text
main:   li   $8, 1
        bne  $8, $0, SKIP
        li   $9, 111          # must not execute
SKIP:   li   $10, 5
        nop  !s
    )");
    rig.start();
    rig.runUntilDone();
    EXPECT_EQ(rig.pu.regValues()[9].asWord(), 0u);
    EXPECT_EQ(rig.pu.regValues()[10].asWord(), 5u);
    EXPECT_EQ(rig.pu.taskInstructions(), 4u);
}

TEST(Pu, LoopWithBackwardBranch)
{
    Rig rig(R"(
        .text
main:   li   $8, 0
        li   $9, 10
L:      addu $8, $8, 1
        bne  $8, $9, L
        nop  !s
    )");
    rig.start();
    rig.runUntilDone();
    EXPECT_EQ(rig.pu.regValues()[8].asWord(), 10u);
    EXPECT_EQ(rig.pu.taskInstructions(), 23u);
}

TEST(Pu, JalAndJrWork)
{
    Rig rig(R"(
        .text
main:   li   $4, 7
        jal  f
        move $10, $2
        nop  !s
f:      addu $2, $4, $4
        jr   $31
    )");
    rig.start();
    rig.runUntilDone();
    EXPECT_EQ(rig.pu.regValues()[10].asWord(), 14u);
}

TEST(Pu, StopIfTakenAndNotTaken)
{
    // !st: the branch exits the task only when taken.
    Rig rig(R"(
        .text
main:   li   $8, 1
        bne  $8, $0, OUT !st
        nop
OUT:    nop
    )");
    rig.start();
    Cycle done = rig.runUntilDone();
    ASSERT_LT(done, 2000u);
    ASSERT_EQ(rig.ctx.exits.size(), 1u);
    EXPECT_EQ(rig.ctx.exits[0],
              rig.ctx.prog_.symbols.at("OUT"));
    // Only li + bne executed.
    EXPECT_EQ(rig.pu.taskInstructions(), 2u);
}

TEST(Pu, StopNotTakenFallsThrough)
{
    Rig rig(R"(
        .text
main:   li   $8, 0
        bne  $8, $0, ELSEWHERE !sn
AFTER:  nop
ELSEWHERE: nop
    )");
    rig.start();
    rig.runUntilDone(500);
    ASSERT_EQ(rig.ctx.exits.size(), 1u);
    EXPECT_EQ(rig.ctx.exits[0], rig.ctx.prog_.symbols.at("AFTER"));
}

TEST(Pu, ForwardBitSendsOnce)
{
    RegMask create{20};
    Rig rig(R"(
        .text
main:   addu $20, $20, 4 !f
        addu $8, $20, 0
        nop  !s
    )");
    rig.start(create);
    rig.runUntilDone();
    ASSERT_EQ(rig.ctx.forwards.size(), 1u);
    EXPECT_EQ(rig.ctx.forwards[0].first, isa::intReg(20));
    EXPECT_EQ(rig.ctx.forwards[0].second.asWord(), 4u);
}

TEST(Pu, ReleaseForwardsCurrentValue)
{
    RegMask create{8, 9};
    Rig rig(R"(
        .text
main:   li   $8, 77
        release $8, $9
        nop  !s
    )");
    rig.start(create);
    rig.runUntilDone();
    // $8 released with 77; $9 released with its inherited value 0.
    ASSERT_EQ(rig.ctx.forwards.size(), 2u);
    EXPECT_EQ(rig.ctx.forwards[0].second.asWord(), 77u);
}

TEST(Pu, AutoReleaseAtTaskEnd)
{
    // $21 is in the create mask but never written: it must still be
    // forwarded (released) when the task completes.
    RegMask create{21};
    Rig rig(R"(
        .text
main:   li   $8, 1
        nop  !s
    )");
    rig.start(create);
    rig.runUntilDone();
    ASSERT_EQ(rig.ctx.forwards.size(), 1u);
    EXPECT_EQ(rig.ctx.forwards[0].first, isa::intReg(21));
    EXPECT_EQ(rig.stats.group("pu0").get("implicitReleases"), 1u);
}

TEST(Pu, ForwardOutsideCreateMaskPanics)
{
    Rig rig(R"(
        .text
main:   addu $20, $20, 4 !f
        nop !s
    )");
    rig.start(RegMask{});  // $20 NOT in the create mask
    EXPECT_THROW(rig.runUntilDone(), PanicError);
}

TEST(Pu, ReservationBlocksConsumers)
{
    // $20 arrives over the ring at cycle 30; the first instruction
    // needs it.
    RegMask create{20};
    RegMask busy{20};
    std::array<TaskSeq, kNumRegs> producers{};
    producers[20] = 7;
    Rig rig(R"(
        .text
main:   addu $20, $20, 4 !f
        nop  !s
    )");
    std::array<RegValue, kNumRegs> regs{};
    rig.pu.assignTask(8, rig.ctx.prog_.entry, create, busy,
                      regs.data(), producers.data());
    for (Cycle now = 0; now < 30; ++now)
        rig.tick(now);
    EXPECT_EQ(rig.pu.taskInstructions(), 0u);
    rig.pu.deliverForward(isa::intReg(20), RegValue::fromWord(100), 7);
    for (Cycle now = 30; now < 60; ++now)
        rig.tick(now);
    EXPECT_TRUE(rig.pu.isDone());
    EXPECT_GT(rig.closeBooks(60)[CycleCat::kRingWait], 10u);
    ASSERT_EQ(rig.ctx.forwards.size(), 1u);
    EXPECT_EQ(rig.ctx.forwards[0].second.asWord(), 104u);
}

TEST(Pu, DeliveryFromWrongProducerIgnored)
{
    RegMask busy{20};
    std::array<TaskSeq, kNumRegs> producers{};
    producers[20] = 7;
    Rig rig(R"(
        .text
main:   addu $8, $20, 0
        nop !s
    )");
    std::array<RegValue, kNumRegs> regs{};
    rig.pu.assignTask(8, rig.ctx.prog_.entry, RegMask{}, busy,
                      regs.data(), producers.data());
    // A stale message from producer 3 must not satisfy it.
    EXPECT_FALSE(rig.pu.deliverForward(isa::intReg(20),
                                       RegValue::fromWord(999), 3));
    for (Cycle now = 0; now < 20; ++now)
        rig.tick(now);
    EXPECT_EQ(rig.pu.taskInstructions(), 0u);
    EXPECT_TRUE(rig.pu.deliverForward(isa::intReg(20),
                                      RegValue::fromWord(5), 7));
    for (Cycle now = 20; now < 60; ++now)
        rig.tick(now);
    EXPECT_TRUE(rig.pu.isDone());
    EXPECT_EQ(rig.pu.regValues()[8].asWord(), 5u);
}

TEST(Pu, LocalWriteShadowsLateDelivery)
{
    // The task writes $20 before the (older) ring value arrives: the
    // ring value must not clobber the newer local value.
    RegMask create{20};
    RegMask busy{20};
    std::array<TaskSeq, kNumRegs> producers{};
    producers[20] = 7;
    Rig rig(R"(
        .text
main:   li   $20, 42 !f
        nop  !s
    )");
    std::array<RegValue, kNumRegs> regs{};
    rig.pu.assignTask(8, rig.ctx.prog_.entry, create, busy,
                      regs.data(), producers.data());
    for (Cycle now = 0; now < 20; ++now)
        rig.tick(now);
    rig.pu.deliverForward(isa::intReg(20), RegValue::fromWord(1), 7);
    for (Cycle now = 20; now < 40; ++now)
        rig.tick(now);
    EXPECT_TRUE(rig.pu.isDone());
    EXPECT_EQ(rig.pu.regValues()[20].asWord(), 42u);
}

TEST(Pu, LoadsAndStoresThroughContext)
{
    Rig rig(R"(
        .text
main:   li   $8, 0x12
        sw   $8, 0x100($0)
        lw   $9, 0x100($0)
        nop  !s
    )");
    rig.start();
    rig.runUntilDone();
    EXPECT_EQ(rig.ctx.storeCount, 1u);
    EXPECT_EQ(rig.pu.regValues()[9].asWord(), 0x12u);
}

TEST(Pu, MemStallWhenArbFull)
{
    Rig rig(R"(
        .text
main:   li   $8, 1
        sw   $8, 0x100($0)
        nop  !s
    )");
    rig.ctx.memSpace = false;
    rig.start();
    for (Cycle now = 0; now < 50; ++now)
        rig.tick(now);
    EXPECT_EQ(rig.ctx.storeCount, 0u);
    rig.ctx.memSpace = true;
    EXPECT_LT(rig.tickUntilDone(50), 2000u);
    EXPECT_EQ(rig.ctx.storeCount, 1u);
}

TEST(Pu, SyscallWaitsForPermission)
{
    Rig rig(R"(
        .text
main:   li   $2, 1
        li   $4, 9
        syscall
        nop  !s
    )");
    rig.ctx.allowSyscall = false;
    rig.start();
    for (Cycle now = 0; now < 50; ++now)
        rig.tick(now);
    EXPECT_EQ(rig.ctx.syscallCount, 0u);
    rig.ctx.allowSyscall = true;
    EXPECT_LT(rig.tickUntilDone(50), 2000u);
    EXPECT_EQ(rig.ctx.syscallCount, 1u);
}

TEST(Pu, FlushDiscardsEverything)
{
    Rig rig(R"(
        .text
main:   li   $8, 1
L:      addu $8, $8, 1
        b    L
    )");
    rig.start();
    for (Cycle now = 0; now < 40; ++now)
        rig.tick(now);
    EXPECT_GT(rig.pu.flush(), 0u);
    EXPECT_TRUE(rig.pu.isFree());
    // A fresh task can be assigned after the flush.
    std::array<RegValue, kNumRegs> regs{};
    rig.pu.assignTask(9, rig.ctx.prog_.entry, RegMask{}, RegMask{},
                      regs.data());
    EXPECT_EQ(rig.pu.seq(), 9u);
}

TEST(Pu, CycleAccountingAddsUp)
{
    Rig rig(R"(
        .text
main:   li   $8, 3
        mul  $9, $8, $8
        addu $10, $9, $9
        nop  !s
    )");
    rig.start();
    Cycle done = rig.runUntilDone();
    // Every cycle from assignment to completion is classified: the
    // books close on done + 1 cycles and none of them is idle.
    const CycleAccountingResult a = rig.closeBooks(done + 1);
    EXPECT_EQ(a.sum(), done + 1);
    EXPECT_EQ(a[CycleCat::kIdle], 0u);
    EXPECT_GT(a[CycleCat::kBusy], 0u);
}

/**
 * Out-of-order scoreboard rig: a 2-way out-of-order unit whose $20 is
 * reserved until deliver(). The program's first instruction reads
 * $20, so it stays un-issued until then and any younger instruction
 * that depends on it in some way must wait behind it.
 */
struct ScoreboardRig : Rig
{
    explicit ScoreboardRig(const std::string &body)
        : Rig(".text\nmain:\n" + body + "  nop !s\n", config())
    {
        std::array<TaskSeq, kNumRegs> producers{};
        producers[20] = 7;
        start(RegMask{}, RegMask{20}, producers);
    }

    static PuConfig
    config()
    {
        PuConfig c;
        c.outOfOrder = true;
        c.issueWidth = 2;
        return c;
    }

    /** Tick 30 cycles with $20 still outstanding. */
    void
    runHeld()
    {
        for (; now < 30; ++now)
            tick(now);
    }

    /** Deliver $20 = 100, then run to completion. */
    void
    releaseAndFinish()
    {
        pu.deliverForward(isa::intReg(20), RegValue::fromWord(100), 7);
        for (; now < 100 && !pu.isDone(); ++now)
            tick(now);
        ASSERT_TRUE(pu.isDone());
    }

    std::uint64_t reg(int r) const { return pu.regValues()[r].asWord(); }

    Cycle now = 0;
};

TEST(PuScoreboard, IndependentYoungerIssuesFirst)
{
    ScoreboardRig rig("  addu $8, $20, 1\n  li $9, 7\n");
    rig.runHeld();
    EXPECT_EQ(rig.reg(8), 0u);
    EXPECT_EQ(rig.reg(9), 7u);  // issued past the waiting older add
    rig.releaseAndFinish();
    EXPECT_EQ(rig.reg(8), 101u);
}

TEST(PuScoreboard, RawWaitsForOlderWriterOfASource)
{
    ScoreboardRig rig("  addu $8, $20, 1\n  addu $9, $8, 1\n");
    rig.runHeld();
    EXPECT_EQ(rig.reg(9), 0u);  // would read the stale $8
    rig.releaseAndFinish();
    EXPECT_EQ(rig.reg(9), 102u);
}

TEST(PuScoreboard, WawWaitsForOlderWriterOfTheDestination)
{
    ScoreboardRig rig("  addu $8, $20, 1\n  li $8, 5\n");
    rig.runHeld();
    EXPECT_EQ(rig.reg(8), 0u);
    rig.releaseAndFinish();
    EXPECT_EQ(rig.reg(8), 5u);  // the younger write lands last
}

TEST(PuScoreboard, WarWaitsForOlderReaderOfTheDestination)
{
    ScoreboardRig rig("  addu $9, $20, $8\n  li $8, 5\n");
    rig.runHeld();
    EXPECT_EQ(rig.reg(8), 0u);
    rig.releaseAndFinish();
    EXPECT_EQ(rig.reg(9), 100u);  // read $8 before it became 5
    EXPECT_EQ(rig.reg(8), 5u);
}

TEST(PuScoreboard, MemoryOpWaitsForOlderMemoryOp)
{
    ScoreboardRig rig("  sw $20, 0x100($0)\n  lw $9, 0x100($0)\n");
    rig.ctx.memory[0x100] = 0x55;
    rig.runHeld();
    EXPECT_EQ(rig.reg(9), 0u);  // would load the stale 0x55
    rig.releaseAndFinish();
    EXPECT_EQ(rig.reg(9), 100u);
}

/*
 * Wake sources: a stalled unit changes nothing until one of these
 * arrives, so the core need not tick it before then. Each test pins
 * the cycle at which the unit next acts, the due cycle its ticks
 * return (also the fast-forward target), and the category every
 * stalled cycle is charged to.
 */

TEST(PuWake, RingDeliveryToAReservedRegister)
{
    std::array<TaskSeq, kNumRegs> producers{};
    producers[20] = 7;
    Rig rig(R"(
        .text
main:   addu $8, $20, 1
        nop  !s
    )");
    rig.start(RegMask{}, RegMask{20}, producers);
    const Cycle stalled = rig.tickUntilAsleep(0);
    EXPECT_EQ(stalled, 3u);
    // Only the ring can wake it.
    EXPECT_EQ(rig.due, kCycleNever);
    for (Cycle now = stalled + 1; now < 40; ++now) {
        rig.tick(now);
        EXPECT_EQ(rig.due, kCycleNever) << now;
    }
    const CycleAccountingResult waited = rig.booksSoFar(40);
    EXPECT_EQ(waited[CycleCat::kRingWait], 39u);
    EXPECT_EQ(waited[CycleCat::kFetchStall], 1u);
    EXPECT_TRUE(rig.pu.deliverForward(isa::intReg(20),
                                      RegValue::fromWord(100), 7));
    EXPECT_EQ(rig.tickUntilActive(40), 40u);
    EXPECT_LT(rig.tickUntilDone(41), 2000u);
    EXPECT_EQ(rig.pu.regValues()[8].asWord(), 101u);
}

TEST(PuWake, InFlightLoadCompletes)
{
    struct Point
    {
        unsigned latency;
        Cycle stalled;  // first tick that changed nothing
        Cycle acted;    // the load's completion
        std::uint64_t memWait;
    };
    for (const Point &p : {Point{2, 4, 5, 3}, Point{5, 4, 8, 6},
                          Point{17, 4, 20, 18}}) {
        Rig rig(R"(
        .text
main:   lw   $8, 0x100($0)
        addu $9, $8, 1
        nop  !s
    )");
        rig.ctx.dcacheLatency = p.latency;
        rig.ctx.memory[0x100] = 41;
        rig.start();
        for (Cycle now = 0; now <= p.stalled; ++now)
            rig.tick(now);
        // Every tick from the stall on names the completion.
        for (Cycle now = p.stalled + 1; now < p.acted; ++now) {
            EXPECT_EQ(rig.due, p.acted) << p.latency << " " << now;
            rig.tick(now);
        }
        EXPECT_EQ(rig.due, p.acted) << p.latency;
        // Every stalled cycle waits on memory.
        EXPECT_EQ(rig.booksSoFar(p.acted)[CycleCat::kMemWait], p.memWait)
            << p.latency;
        EXPECT_EQ(rig.tickUntilActive(p.acted), p.acted) << p.latency;
        EXPECT_LT(rig.tickUntilDone(p.acted + 1), 2000u);
        EXPECT_EQ(rig.pu.regValues()[9].asWord(), 42u);
    }
}

TEST(PuWake, SyscallPermissionFlips)
{
    Rig rig(R"(
        .text
main:   li   $2, 1
        li   $4, 9
        syscall
        nop  !s
    )");
    rig.ctx.allowSyscall = false;
    rig.start();
    // From cycle 5 the syscall waits at the window head with nothing
    // else in flight. Only becoming the head grants the permission,
    // and the processor wakes the unit then, so the unit sleeps.
    EXPECT_EQ(rig.tickUntilAsleep(0), 5u);
    EXPECT_EQ(rig.due, kCycleNever);
    // The skipped ticks book as the wait the last tick classified.
    const Cycle flip = 55;
    const CycleAccountingResult waited = rig.booksSoFar(flip);
    EXPECT_EQ(waited[CycleCat::kIntraWait], 52u);
    EXPECT_EQ(rig.ctx.syscallCount, 0u);
    // The wake-up tick finds the permission and runs the syscall.
    rig.ctx.allowSyscall = true;
    rig.tick(flip);
    EXPECT_EQ(rig.ctx.syscallCount, 1u);
}

TEST(PuWake, ArbFullRetriesEveryCycle)
{
    Rig rig(R"(
        .text
main:   li   $8, 1
        sw   $8, 0x100($0)
        nop  !s
    )");
    rig.ctx.memSpace = false;
    rig.start();
    const Cycle stalled = 4;
    for (Cycle now = 0; now <= stalled; ++now)
        rig.tick(now);
    const unsigned queries = rig.ctx.memSpaceQueries;
    EXPECT_EQ(queries, 2u);
    // A full ARB may drain at any time: the unit never sleeps.
    for (Cycle now = stalled + 1; now < 50; ++now) {
        EXPECT_EQ(rig.due, now);
        rig.tick(now);
        EXPECT_EQ(rig.ctx.memSpaceQueries, queries + (now - stalled));
    }
    const CycleAccountingResult waited = rig.booksSoFar(50);
    EXPECT_EQ(waited[CycleCat::kMemWait], 47u);
    rig.ctx.memSpace = true;
    rig.tick(50);
    EXPECT_EQ(rig.ctx.storeCount, 1u);
}

/** Tick @p rig only in the cycles it is due; @return the done cycle. */
Cycle
tickWhenDue(Rig &rig)
{
    for (Cycle now = 0; now < 2000; ++now) {
        if (rig.due > now)
            continue;
        rig.tick(now);
        if (rig.pu.isDone())
            return now;
    }
    return 2000;
}

TEST(PuWake, TickingOnlyWhenDueMatchesEveryCycle)
{
    // The core skips a unit's ticks until it is due: the skipped
    // ticks would have changed nothing, so the unit finishes in the
    // same cycle with the same books and registers.
    PuConfig ooo;
    ooo.outOfOrder = true;
    for (unsigned latency : {2u, 5u, 17u, 40u})
    for (const PuConfig &config : {PuConfig{}, ooo}) {
        const char *src = R"(
        .text
main:   lw   $8, 0x100($0)
        addu $9, $8, 1
        mul  $10, $9, $9
        lw   $11, 0x104($0)
        addu $12, $11, $10
        nop  !s
    )";
        Rig every(src, config);
        Rig due(src, config);
        for (Rig *rig : {&every, &due}) {
            rig->ctx.dcacheLatency = latency;
            rig->ctx.memory[0x100] = 41;
            rig->start();
        }
        const Cycle done = every.runUntilDone();
        EXPECT_LT(done, 2000u) << latency;
        EXPECT_EQ(tickWhenDue(due), done) << latency;
        EXPECT_EQ(due.pu.regValues()[12].asWord(),
                  every.pu.regValues()[12].asWord())
            << latency;
        const CycleAccountingResult a = every.closeBooks(done + 1);
        const CycleAccountingResult b = due.closeBooks(done + 1);
        for (size_t cat = 0; cat < kNumCycleCats; ++cat)
            EXPECT_EQ(a.total[cat], b.total[cat])
                << latency << " " << cycleCatName(CycleCat(cat));
    }
}

/*
 * Queue edge cases: fetched-but-not-dispatched entries sit behind the
 * issue window in the same unit, and every way of dropping or holding
 * them back is pinned here to the cycle.
 */

/** A window of @p window entries behind a fetch buffer of @p fetch. */
PuConfig
queueConfig(unsigned window, unsigned fetch)
{
    PuConfig c;
    c.windowSize = window;
    c.fetchBufferSize = fetch;
    return c;
}

/** Keeps the "window" value of every pu0.occupancy sample. */
class OccupancySink : public TraceSink
{
  public:
    void
    write(const TraceEvent &e) override
    {
        if (e.name == "pu0.occupancy" && e.key1 == "window")
            window.push_back(e.val1);
    }

    std::vector<std::uint64_t> window;
};

TEST(PuQueue, FullFetchBufferStopsFetch)
{
    // The head waits on $20 from the ring: the window fills to 16,
    // the 2-entry fetch buffer behind it fills, and fetch stops.
    std::string body = ".text\nmain:\n  addu $8, $20, 1\n";
    for (int i = 0; i < 30; ++i)
        body += "  addu $" + std::to_string(9 + (i % 8)) + ", $0, 1\n";
    body += "  nop !s\n";
    Rig rig(body, queueConfig(16, 2));
    std::array<TaskSeq, kNumRegs> producers{};
    producers[20] = 7;
    rig.start(RegMask{}, RegMask{20}, producers);
    const Cycle stalled = rig.tickUntilAsleep(0);
    EXPECT_EQ(stalled, 18u);
    EXPECT_EQ(rig.ctx.icacheAccesses, 18u);
    EXPECT_EQ(rig.due, kCycleNever);
    for (Cycle now = stalled + 1; now < 40; ++now)
        rig.tick(now);
    EXPECT_EQ(rig.ctx.icacheAccesses, 18u);
    EXPECT_EQ(rig.pu.taskInstructions(), 0u);
    rig.pu.deliverForward(isa::intReg(20), RegValue::fromWord(100), 7);
    EXPECT_EQ(rig.tickUntilDone(40), 72u);
    EXPECT_EQ(rig.pu.taskInstructions(), 32u);
    EXPECT_EQ(rig.pu.regValues()[8].asWord(), 101u);
}

TEST(PuQueue, MispredictDropsFetchedEntries)
{
    // The forward bne is fetched as not taken. With a 2-entry window
    // the wrong-path li's wait in the fetch buffer when it resolves.
    Rig rig(R"(
        .text
main:   li   $8, 1
        bne  $8, $0, SKIP
        li   $9, 111
        li   $11, 222
        li   $12, 333
        li   $13, 444
SKIP:   li   $10, 5
        nop  !s
    )", queueConfig(2, 8));
    rig.start();
    EXPECT_EQ(rig.runUntilDone(), 8u);
    EXPECT_EQ(rig.stats.group("pu0").get("branchMispredicts"), 1u);
    EXPECT_EQ(rig.ctx.icacheAccesses, 6u);
    EXPECT_EQ(rig.pu.taskInstructions(), 4u);
    for (int r : {9, 11, 12, 13})
        EXPECT_EQ(rig.pu.regValues()[r].asWord(), 0u) << r;
    EXPECT_EQ(rig.pu.regValues()[10].asWord(), 5u);
}

TEST(PuQueue, StopAlwaysExitDrainsOlderWork)
{
    // The nop !s completes and exits while the older div is still in
    // flight; nothing past the stop point is ever fetched, and the
    // unit is done only once the div has written back.
    Rig rig(R"(
        .text
main:   li   $8, 40
        li   $9, 5
        div  $10, $8, $9
        nop  !s
        li   $11, 99
        li   $12, 99
    )", queueConfig(2, 8));
    rig.start();
    EXPECT_EQ(rig.runUntilDone(), 16u);
    ASSERT_EQ(rig.ctx.exits.size(), 1u);
    EXPECT_EQ(rig.ctx.exits[0], rig.ctx.prog_.entry + 4 * 4);
    EXPECT_EQ(rig.ctx.icacheAccesses, 4u);
    EXPECT_EQ(rig.pu.taskInstructions(), 4u);
    EXPECT_EQ(rig.pu.regValues()[10].asWord(), 8u);
    EXPECT_EQ(rig.pu.regValues()[11].asWord(), 0u);
}

TEST(PuQueue, StopIfTakenExitDropsFetchedEntries)
{
    // Fetch runs on past the !st branch (not taken is assumed); the
    // taken exit drops those entries from window and fetch buffer.
    Rig rig(R"(
        .text
main:   li   $8, 1
        bne  $8, $0, OUT !st
        li   $9, 1
        li   $10, 2
        li   $11, 3
        li   $12, 4
OUT:    nop  !s
    )", queueConfig(2, 8));
    rig.start();
    EXPECT_EQ(rig.runUntilDone(), 4u);
    ASSERT_EQ(rig.ctx.exits.size(), 1u);
    EXPECT_EQ(rig.ctx.exits[0], rig.ctx.prog_.symbols.at("OUT"));
    EXPECT_EQ(rig.ctx.icacheAccesses, 4u);
    EXPECT_EQ(rig.pu.taskInstructions(), 2u);
    EXPECT_EQ(rig.pu.regValues()[9].asWord(), 0u);
}

TEST(PuQueue, JrRedirectsFetch)
{
    // Fetch stops at the jr until it resolves, then resumes at the
    // return address; the li after the jr is never fetched.
    Rig rig(R"(
        .text
main:   li   $4, 7
        jal  f
        move $10, $2
        nop  !s
f:      addu $2, $4, $4
        jr   $31
        li   $11, 99
    )", queueConfig(2, 8));
    rig.start();
    EXPECT_EQ(rig.runUntilDone(), 10u);
    EXPECT_EQ(rig.ctx.icacheAccesses, 6u);
    EXPECT_EQ(rig.pu.taskInstructions(), 6u);
    EXPECT_EQ(rig.pu.regValues()[10].asWord(), 14u);
    EXPECT_EQ(rig.pu.regValues()[11].asWord(), 0u);
}

TEST(PuQueue, OccupancyCountsTheWindowOnly)
{
    // A 4-entry window behind which 8 more entries are fetched: the
    // occupancy counter reports the 4 dispatched entries, never the
    // fetch buffer behind them.
    std::string body = ".text\nmain:\n  addu $8, $20, 1\n";
    for (int i = 0; i < 20; ++i)
        body += "  addu $9, $0, 1\n";
    body += "  nop !s\n";
    StatRegistry stats;
    MockContext ctx(assembleMs(body));
    TraceConfig tc;
    tc.enabled = true;
    auto sink = std::make_unique<OccupancySink>();
    OccupancySink *seen = sink.get();
    Tracer tracer(tc, std::move(sink));
    ProcessingUnit pu(0, queueConfig(4, 8), ctx, stats.group("pu0"),
                      nullptr, &tracer);
    std::array<RegValue, kNumRegs> regs{};
    std::array<TaskSeq, kNumRegs> producers{};
    producers[20] = 7;
    pu.assignTask(1, ctx.prog_.entry, RegMask{}, RegMask{20},
                  regs.data(), producers.data());
    for (Cycle now = 0; now < 30; ++now)
        pu.tick(now);
    EXPECT_EQ(ctx.icacheAccesses, 12u);
    ASSERT_EQ(seen->window.size(), 30u);
    EXPECT_EQ(seen->window.back(), 4u);
    EXPECT_EQ(*std::max_element(seen->window.begin(),
                                seen->window.end()),
              4u);
}

TEST(Pu, BadConfigsRejected)
{
    StatRegistry stats;
    MockContext ctx(assembleMs(".text\nmain: nop !s\n"));
    PuConfig bad;
    bad.issueWidth = 3;
    EXPECT_THROW(ProcessingUnit(0, bad, ctx, stats.group("p")),
                 FatalError);
    PuConfig zero;
    zero.windowSize = 0;
    EXPECT_THROW(ProcessingUnit(0, zero, ctx, stats.group("p")),
                 FatalError);
}

} // namespace
} // namespace msim
