/**
 * @file
 * Memory system tests: functional memory, the split-transaction bus
 * timing (paper section 5.1: 10 cycles for the first 4 words, 1 per
 * additional 4 words, plus contention), direct-mapped cache behaviour
 * (hits, misses, writebacks), and the banked/interleaved data cache
 * with crossbar arbitration.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/banked_dcache.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/l2_cache.hh"
#include "mem/main_memory.hh"
#include "mem/mem_level.hh"

namespace msim {
namespace {

TEST(MainMemory, ReadWriteRoundTrip)
{
    MainMemory mem;
    mem.write(0x1000, 0xdeadbeef, 4);
    EXPECT_EQ(mem.read(0x1000, 4), 0xdeadbeefu);
    EXPECT_EQ(mem.read(0x1000, 1), 0xefu);  // little endian
    EXPECT_EQ(mem.read(0x1001, 1), 0xbeu);
    EXPECT_EQ(mem.read(0x1002, 2), 0xdeadu);
}

TEST(MainMemory, UntouchedIsZero)
{
    MainMemory mem;
    EXPECT_EQ(mem.read(0x123456, 8), 0u);
}

TEST(MainMemory, CrossPageAccess)
{
    MainMemory mem;
    const Addr addr = 0x1ffe;  // straddles a 4 KiB page boundary
    mem.write(addr, 0x1122334455667788ull, 8);
    EXPECT_EQ(mem.read(addr, 8), 0x1122334455667788ull);
    EXPECT_EQ(mem.read(0x2000, 4), 0x33445566u);
    EXPECT_EQ(mem.read(0x1ffe, 2), 0x7788u);
}

TEST(MainMemory, BulkCopiesCrossPages)
{
    MainMemory mem;
    // 10000 bytes from 0x2ff0 span four 4 KiB pages, the first and
    // last only partly.
    std::vector<std::uint8_t> in(10000);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = std::uint8_t(i * 7 + 1);
    mem.writeBytes(0x2ff0, in.data(), in.size());
    EXPECT_EQ(mem.read(0x2fef, 1), 0u);
    EXPECT_EQ(mem.read(0x2ff0 + Addr(in.size()), 1), 0u);
    EXPECT_EQ(mem.read(0x3000, 1), in[0x10]);
    EXPECT_EQ(mem.read(0x2ffe, 4),
              std::uint64_t(in[14]) | std::uint64_t(in[15]) << 8 |
                  std::uint64_t(in[16]) << 16 |
                  std::uint64_t(in[17]) << 24);
    std::vector<std::uint8_t> out(in.size() + 32, 0xee);
    mem.readBytes(0x2fe0, out.data(), out.size());
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], 0u) << i;
    for (size_t i = 0; i < in.size(); ++i)
        ASSERT_EQ(out[16 + i], in[i]) << i;
    for (size_t i = 16 + in.size(); i < out.size(); ++i)
        EXPECT_EQ(out[i], 0u) << i;

    // A string that starts on one page and ends on the next.
    const char *s = "page-straddling string";
    mem.writeBytes(0x5ff8, reinterpret_cast<const std::uint8_t *>(s),
                   std::strlen(s) + 1);
    EXPECT_EQ(mem.readString(0x5ff8), s);
    EXPECT_EQ(mem.readString(0x6000), s + 8);
}

TEST(MainMemory, AccessWrapsFromTopOfAddressSpace)
{
    MainMemory mem;
    mem.write(0xfffffffe, 0xaabbccdd, 4);
    EXPECT_EQ(mem.read(0xfffffffe, 4), 0xaabbccddu);
    EXPECT_EQ(mem.read(0xffffffff, 1), 0xccu);
    EXPECT_EQ(mem.read(0x0, 2), 0xaabbu);

    const std::uint8_t in[6] = {1, 2, 3, 4, 5, 6};
    mem.writeBytes(0xfffffffd, in, 6);
    EXPECT_EQ(mem.read(0xfffffffd, 1), 1u);
    EXPECT_EQ(mem.read(0x0, 4), 0x00060504u);
    std::uint8_t out[6] = {};
    mem.readBytes(0xfffffffd, out, 6);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(out[i], in[i]) << i;

    const char *s = "wrap";
    mem.writeBytes(0xfffffffe, reinterpret_cast<const std::uint8_t *>(s),
                   5);
    EXPECT_EQ(mem.readString(0xfffffffe), "wrap");
}

TEST(MainMemory, BulkAndString)
{
    MainMemory mem;
    const char *s = "hello";
    mem.writeBytes(0x3000, reinterpret_cast<const std::uint8_t *>(s),
                   6);
    EXPECT_EQ(mem.readString(0x3000), "hello");
    std::uint8_t buf[6] = {};
    mem.readBytes(0x3000, buf, 6);
    EXPECT_EQ(buf[4], 'o');
}

TEST(Bus, Table1Timing)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    // 4 words: 10 cycles.
    EXPECT_EQ(bus.request(0, 4), 10u);
    // 16 words (a 64-byte block): 10 + 3.
    MemoryBus bus2(reg.group("bus2"));
    EXPECT_EQ(bus2.request(0, 16), 13u);
    // 1 word still pays the full first-beat latency.
    MemoryBus bus3(reg.group("bus3"));
    EXPECT_EQ(bus3.request(0, 1), 10u);
}

TEST(Bus, ContentionQueues)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    EXPECT_EQ(bus.request(0, 16), 13u);
    // Second request at cycle 5 waits for the bus.
    EXPECT_EQ(bus.request(5, 16), 26u);
    // A request after the bus is free starts immediately.
    EXPECT_EQ(bus.request(40, 4), 50u);
    EXPECT_GT(reg.group("bus").get("contentionCycles"), 0u);
}

TEST(Cache, HitAndMissTiming)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    Cache c(reg.group("c"), bus, {32 * 1024, 64, 1});
    // Cold miss: block fill (16 words = 13 cycles) + hit time.
    EXPECT_EQ(c.access(0, 0x1000, false), 14u);
    // Hit in the same block.
    EXPECT_EQ(c.access(20, 0x1004, false), 21u);
    EXPECT_EQ(c.access(21, 0x103f, false), 22u);
    // Different block: miss again.
    EXPECT_GT(c.access(30, 0x2000, false), 40u);
    EXPECT_EQ(reg.group("c").get("readHits"), 2u);
    EXPECT_EQ(reg.group("c").get("readMisses"), 2u);
}

TEST(Cache, WritebackOfDirtyVictim)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    Cache c(reg.group("c"), bus, {1024, 64, 1});  // 16 sets
    c.access(0, 0x0000, true);  // fill set 0, dirty
    ASSERT_TRUE(c.probe(0x0000));
    // Conflicting block (same set): victim writeback + fill.
    const Cycle t = c.access(100, 0x0000 + 1024, false);
    // Two bus transfers: writeback then fill.
    EXPECT_GE(t, 100u + 13 + 13);
    EXPECT_EQ(reg.group("c").get("writebacks"), 1u);
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x0400));
}

TEST(Cache, CleanVictimNoWriteback)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    Cache c(reg.group("c"), bus, {1024, 64, 1});
    c.access(0, 0x0000, false);
    c.access(100, 0x0400, false);  // evicts clean line
    EXPECT_EQ(reg.group("c").get("writebacks"), 0u);
}

TEST(Cache, BadGeometryRejected)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    EXPECT_THROW(Cache(reg.group("c"), bus, {1000, 64, 1}), FatalError);
    EXPECT_THROW(Cache(reg.group("c"), bus, {1024, 48, 1}), FatalError);
}

TEST(BankedDcache, BlockInterleaving)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    BankedDataCache d(reg, bus, {8, 8 * 1024, 64, 2});
    EXPECT_EQ(d.bankOf(0x0000), 0u);
    EXPECT_EQ(d.bankOf(0x0040), 1u);
    EXPECT_EQ(d.bankOf(0x0047), 1u);
    EXPECT_EQ(d.bankOf(0x01c0), 7u);
    EXPECT_EQ(d.bankOf(0x0200), 0u);
}

TEST(BankedDcache, BankLocalIndexUsesFullCapacity)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    BankedDataCache d(reg, bus, {8, 8 * 1024, 64, 2});
    // Bank 0 sees blocks 0, 8, 16, ...: 128 consecutive bank-local
    // blocks must not conflict (8 KB bank = 128 blocks).
    Cycle t = 0;
    for (unsigned i = 0; i < 128; ++i)
        t = d.access(t + 20, Addr(i * 8 * 64), false);
    // Re-touch the first block: must still hit.
    const Cycle before = t + 100;
    EXPECT_EQ(d.access(before, 0, false), before + 2);
}

TEST(BankedDcache, ConflictingBankAccessesQueue)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    BankedDataCache d(reg, bus, {8, 8 * 1024, 64, 2});
    d.access(0, 0x0000, false);  // warm the line (miss)
    const Cycle warm = 100;
    // Two same-cycle accesses to bank 0: second is delayed a cycle.
    EXPECT_EQ(d.access(warm, 0x0000, false), warm + 2);
    EXPECT_EQ(d.access(warm, 0x0010, false), warm + 3);
    // An access to another bank at the same cycle is not delayed.
    d.access(10, 0x0040, false);  // warm bank 1
    EXPECT_EQ(d.access(warm, 0x0040, false), warm + 2);
}

TEST(BankedDcache, HitLatencyConfigurable)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    BankedDataCache d(reg, bus, {8, 8 * 1024, 64, 1});
    d.access(0, 0, false);
    EXPECT_EQ(d.access(50, 0, false), 51u);
}

// ---------------------------------------------------------------------
// Shared L2: timing, LRU, write-back, MSHRs, inclusion invariants.
// ---------------------------------------------------------------------

/** One-bank L2 with @p assoc ways over @p size bytes. */
L2Params
l2Geom(std::size_t size, unsigned assoc, unsigned mshrs = 8,
       L2Inclusion incl = L2Inclusion::kNine)
{
    L2Params p;
    p.sizeBytes = size;
    p.assoc = assoc;
    p.blockBytes = 64;
    p.hitLatency = 6;
    p.numBanks = 1;
    p.mshrsPerBank = mshrs;
    p.inclusion = incl;
    return p;
}

TEST(L2Cache, HitAndMissFillTiming)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    L2Cache l2(reg.group("l2"), bus, l2Geom(8 * 1024, 8));
    // Cold miss: block transfer (16 words = 13 cycles) + hit time.
    EXPECT_EQ(l2.fetchBlock(0, 0x1000, 16), 13u + 6u);
    // Hit after the fill retired: bank grant + hit latency only.
    EXPECT_EQ(l2.fetchBlock(20, 0x1000, 16), 26u);
    EXPECT_EQ(reg.group("l2").get("readMisses"), 1u);
    EXPECT_EQ(reg.group("l2").get("readHits"), 1u);
}

TEST(L2Cache, LruVictimSelection)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    // One set, two ways: 128 bytes over one bank.
    L2Cache l2(reg.group("l2"), bus, l2Geom(128, 2));
    l2.fetchBlock(0, 0x0000, 16);
    l2.fetchBlock(100, 0x1000, 16);
    // Re-touch the first block so the second becomes LRU.
    l2.fetchBlock(200, 0x0000, 16);
    l2.fetchBlock(300, 0x2000, 16);  // evicts the LRU way
    EXPECT_TRUE(l2.probe(0x0000));
    EXPECT_FALSE(l2.probe(0x1000));
    EXPECT_TRUE(l2.probe(0x2000));
    EXPECT_EQ(reg.group("l2").get("evictions"), 1u);
    // Clean victim: no writeback traffic.
    EXPECT_EQ(reg.group("l2").get("writebacks"), 0u);
}

TEST(L2Cache, DirtyWritebackOrdersBeforeFill)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    // One set, one way: every distinct block conflicts.
    L2Cache l2(reg.group("l2"), bus, l2Geom(64, 1));
    // An L1 victim arrives: allocates dirty without a memory fetch.
    EXPECT_EQ(l2.writebackBlock(0, 0x0000, 16), 6u);
    EXPECT_TRUE(l2.probeDirty(0x0000));
    EXPECT_EQ(reg.group("l2").get("writeMisses"), 1u);
    // A conflicting fetch must write the dirty victim back first,
    // then fill: bus does 10..23 (writeback) and 23..36 (fill).
    EXPECT_EQ(l2.fetchBlock(10, 0x1000, 16), 36u + 6u);
    EXPECT_EQ(reg.group("l2").get("writebacks"), 1u);
    EXPECT_FALSE(l2.probe(0x0000));
    EXPECT_TRUE(l2.probe(0x1000));
}

TEST(L2Cache, MshrAllocateMergeAndStallWhenFull)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    L2Cache l2(reg.group("l2"), bus, l2Geom(512, 8, /*mshrs=*/2));
    // Two primary misses claim both MSHRs; the bus serializes the
    // fills (0..13 and 13..26).
    EXPECT_EQ(l2.fetchBlock(0, 0x0000, 16), 19u);
    EXPECT_EQ(l2.fetchBlock(1, 0x1000, 16), 32u);
    // A secondary miss to an in-flight block merges with its MSHR:
    // it completes with the fill (13) + hit latency, no bus traffic.
    EXPECT_EQ(l2.fetchBlock(2, 0x0000, 16), 19u);
    EXPECT_EQ(reg.group("l2").get("mshrMerges"), 1u);
    // A third distinct miss finds the MSHR file full and stalls to
    // the earliest retirement (cycle 13), then queues on the bus
    // behind the second fill: 26..39 + hit latency.
    EXPECT_EQ(l2.fetchBlock(3, 0x2000, 16), 45u);
    EXPECT_EQ(reg.group("l2").get("mshrStalls"), 1u);
    EXPECT_EQ(reg.group("l2").get("mshrStallCycles"), 10u);
    EXPECT_EQ(reg.group("l2").get("readMisses"), 3u);
}

TEST(L2Cache, NextEventCoversInFlightFills)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    L2Cache l2(reg.group("l2"), bus, l2Geom(8 * 1024, 8));
    EXPECT_EQ(l2.nextEventCycle(0), kCycleNever);
    l2.fetchBlock(0, 0x1000, 16);  // fill in flight until cycle 13
    EXPECT_EQ(l2.nextEventCycle(5), 13u);
    EXPECT_EQ(l2.nextEventCycle(13), kCycleNever);
}

TEST(L2Cache, BadGeometryRejected)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    auto bad = [&](L2Params p) {
        EXPECT_THROW(L2Cache(reg.group("l2"), bus, p), FatalError);
    };
    bad(l2Geom(0, 8));                   // no capacity
    bad(l2Geom(8 * 1024, 0));            // no ways
    bad(l2Geom(8 * 1024, 8, 0));         // no MSHRs
    bad(l2Geom(1000, 1));                // non-power-of-two sets
    L2Params split = l2Geom(8 * 1024, 8);
    split.numBanks = 3;                  // size % banks != 0
    bad(split);
}

/**
 * Randomized inclusion-invariant property tests: a real (tag-only)
 * L1 runs over a small L2 and a deterministic access string drives
 * fills, evictions, and writebacks through both levels. After every
 * access the policy's structural invariant must hold across the
 * whole address universe, and the L2's occupancy must never exceed
 * its capacity (the flat-memory model below both levels is the
 * implicit oracle: timing requests are monotonic and every access
 * completes).
 */
void
runInclusionProperty(L2Inclusion incl)
{
    StatRegistry reg;
    MemoryBus bus(reg.group("bus"));
    // L2 smaller than the L1 in sets (4 sets x 2 ways vs 16 lines):
    // back-invalidation and exclusive supply paths both fire often.
    L2Cache l2(reg.group("l2"), bus, l2Geom(512, 2, 4, incl));
    Cache l1(reg.group("l1"), l2, {1024, 64, 1});
    l2.setBackInvalidate(
        [&l1](Addr addr) { return l1.invalidateBlock(addr); });

    constexpr unsigned kBlocks = 64;  // 4 KB address universe
    Rng rng(20260807);
    Cycle now = 0;
    Cycle last_ready = 0;
    for (unsigned i = 0; i < 2000; ++i) {
        const Addr addr = Addr(rng.below(kBlocks)) * 64 +
                          Addr(rng.below(16)) * 4;
        const bool write = rng.below(4) == 0;
        now += 1 + Cycle(rng.below(40));
        const Cycle ready = l1.access(now, addr, write);
        ASSERT_GE(ready, now);
        (void)last_ready;
        last_ready = ready;

        ASSERT_LE(l2.validLines(), 8u) << "L2 over capacity";
        for (unsigned b = 0; b < kBlocks; ++b) {
            const Addr block = Addr(b) * 64;
            switch (incl) {
            case L2Inclusion::kInclusive:
                // Every L1-resident block is L2-resident.
                if (l1.probe(block)) {
                    ASSERT_TRUE(l2.probe(block))
                        << "inclusion hole at block " << b
                        << " after access " << i;
                }
                break;
            case L2Inclusion::kExclusive:
                // A block never lives in both levels at once.
                ASSERT_FALSE(l1.probe(block) && l2.probe(block))
                    << "exclusive overlap at block " << b
                    << " after access " << i;
                break;
            case L2Inclusion::kNine:
                break;  // no structural invariant to violate
            }
        }
    }
    // The string must have exercised the interesting machinery.
    EXPECT_GT(reg.group("l2").get("readMisses"), 0u);
    EXPECT_GT(reg.group("l2").get("evictions"), 0u);
    EXPECT_GT(reg.group("l1").get("writebacks"), 0u);
    if (incl == L2Inclusion::kInclusive) {
        EXPECT_GT(reg.group("l2").get("backInvalidations"), 0u);
    }
    if (incl == L2Inclusion::kExclusive) {
        EXPECT_GT(reg.group("l2").get("exclusiveSupplies"), 0u);
    }
}

TEST(L2Inclusion, InclusivePropertyHolds)
{
    runInclusionProperty(L2Inclusion::kInclusive);
}

TEST(L2Inclusion, ExclusivePropertyHolds)
{
    runInclusionProperty(L2Inclusion::kExclusive);
}

TEST(L2Inclusion, NinePropertyHolds)
{
    runInclusionProperty(L2Inclusion::kNine);
}

} // namespace
} // namespace msim
