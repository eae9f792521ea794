/**
 * @file
 * ARB tests (paper section 2.3 / Franklin & Sohi): speculative store
 * buffering, nearest-predecessor load forwarding, memory renaming for
 * parallel calls, dependence violation detection at byte granularity,
 * in-order commit, squash, capacity accounting, and a randomized
 * differential test against a simple sequential memory.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "arb/arb.hh"
#include "common/fnv1a.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/main_memory.hh"

namespace msim {
namespace {

class ArbTest : public ::testing::Test
{
  protected:
    ArbTest() : arb_(stats_.group("arb"), mem_, {8, 64, 256}) {}

    StatRegistry stats_;
    MainMemory mem_;
    Arb arb_;
};

TEST_F(ArbTest, LoadFromCommittedMemory)
{
    mem_.write(0x1000, 0xcafebabe, 4);
    EXPECT_EQ(arb_.load(1, 0x1000, 4, true), 0xcafebabeu);
    EXPECT_EQ(arb_.load(2, 0x1000, 4, false), 0xcafebabeu);
}

TEST_F(ArbTest, SpeculativeStoreInvisibleUntilCommit)
{
    EXPECT_FALSE(arb_.store(2, 0x1000, 4, 0x1111, false).has_value());
    // Memory is untouched while speculative.
    EXPECT_EQ(mem_.read(0x1000, 4), 0u);
    // The storing task sees its own value.
    EXPECT_EQ(arb_.load(2, 0x1000, 4, false), 0x1111u);
    // A later task sees the nearest predecessor's value.
    EXPECT_EQ(arb_.load(3, 0x1000, 4, false), 0x1111u);
    arb_.commit(2);
    EXPECT_EQ(mem_.read(0x1000, 4), 0x1111u);
    // Task 3's load bits stay live until *it* commits.
    EXPECT_EQ(arb_.totalEntries(), 1u);
    arb_.commit(3);
    EXPECT_EQ(arb_.totalEntries(), 0u);
}

TEST_F(ArbTest, EarlierTaskDoesNotSeeLaterStore)
{
    mem_.write(0x2000, 77, 4);
    arb_.store(5, 0x2000, 4, 99, false);
    // Task 4 is logically earlier: must see committed memory.
    EXPECT_EQ(arb_.load(4, 0x2000, 4, false), 77u);
}

TEST_F(ArbTest, NearestPredecessorWins)
{
    arb_.store(2, 0x3000, 4, 22, false);
    arb_.store(4, 0x3000, 4, 44, false);
    EXPECT_EQ(arb_.load(5, 0x3000, 4, false), 44u);
    EXPECT_EQ(arb_.load(3, 0x3000, 4, false), 22u);
}

TEST_F(ArbTest, ViolationLoadBeforeEarlierStore)
{
    // Task 6 loads; task 3 then stores the same bytes: the paper's
    // memory dependence violation, squash from task 6.
    arb_.load(6, 0x4000, 4, false);
    auto violator = arb_.store(3, 0x4000, 4, 5, false);
    ASSERT_TRUE(violator.has_value());
    EXPECT_EQ(*violator, 6u);
}

TEST_F(ArbTest, NoViolationWhenLoadIsAfterStore)
{
    arb_.store(3, 0x4000, 4, 5, false);
    arb_.load(6, 0x4000, 4, false);
    // A second store by task 3 to the same bytes *does* violate task
    // 6's load (the load consumed the first value).
    // But a store by a later task never violates an earlier load.
    EXPECT_FALSE(arb_.store(7, 0x4000, 4, 9, false).has_value());
}

TEST_F(ArbTest, OwnStoreShieldsOwnLoad)
{
    // Task 6 stores then loads its own value: no load bit is set, so
    // an earlier store does not squash it (memory renaming).
    arb_.store(6, 0x5000, 4, 66, false);
    EXPECT_EQ(arb_.load(6, 0x5000, 4, false), 66u);
    EXPECT_FALSE(arb_.store(3, 0x5000, 4, 33, false).has_value());
}

TEST_F(ArbTest, InterveningStoreShadowsViolation)
{
    // Task 5 stores, task 6 loads (gets 5's value), then task 3
    // stores: 6's load was satisfied by 5, not memory, so 3's store
    // violates nothing.
    arb_.store(5, 0x6000, 4, 55, false);
    arb_.load(6, 0x6000, 4, false);
    EXPECT_FALSE(arb_.store(3, 0x6000, 4, 33, false).has_value());
}

TEST_F(ArbTest, ByteGranularityAvoidsFalseSharing)
{
    // Loads of bytes 0-3 and a store to bytes 4-7 of the same granule
    // must not conflict (the linked-list example depends on this).
    arb_.load(6, 0x7000, 4, false);
    EXPECT_FALSE(arb_.store(3, 0x7004, 4, 5, false).has_value());
    // Overlapping bytes do conflict.
    auto violator = arb_.store(3, 0x7002, 4, 5, false);
    ASSERT_TRUE(violator.has_value());
    EXPECT_EQ(*violator, 6u);
}

TEST_F(ArbTest, EarliestViolatorReported)
{
    arb_.load(5, 0x8000, 4, false);
    arb_.load(7, 0x8000, 4, false);
    auto violator = arb_.store(3, 0x8000, 4, 5, false);
    ASSERT_TRUE(violator.has_value());
    EXPECT_EQ(*violator, 5u);
}

TEST_F(ArbTest, ParallelCallStackRenaming)
{
    // Two tasks reuse the same stack addresses (parallel calls,
    // section 2.3): each sees its own frame.
    arb_.store(4, 0x7ffffe00, 4, 0x4444, false);
    arb_.store(5, 0x7ffffe00, 4, 0x5555, false);
    EXPECT_EQ(arb_.load(4, 0x7ffffe00, 4, false), 0x4444u);
    EXPECT_EQ(arb_.load(5, 0x7ffffe00, 4, false), 0x5555u);
    // In-order commit: memory ends with the later task's value.
    arb_.commit(4);
    EXPECT_EQ(mem_.read(0x7ffffe00, 4), 0x4444u);
    arb_.commit(5);
    EXPECT_EQ(mem_.read(0x7ffffe00, 4), 0x5555u);
}

TEST_F(ArbTest, SquashDiscardsSpeculativeState)
{
    arb_.store(5, 0x9000, 4, 55, false);
    arb_.load(6, 0x9000, 4, false);
    arb_.squash(6);
    arb_.squash(5);
    EXPECT_EQ(arb_.totalEntries(), 0u);
    EXPECT_EQ(mem_.read(0x9000, 4), 0u);
    // After the squash, an earlier store no longer sees 6's load.
    EXPECT_FALSE(arb_.store(3, 0x9000, 4, 9, false).has_value());
}

TEST_F(ArbTest, HeadStoreWritesThrough)
{
    // A head store with no buffered bytes writes memory directly.
    EXPECT_FALSE(arb_.store(1, 0xa000, 4, 0xaa, true).has_value());
    EXPECT_EQ(mem_.read(0xa000, 4), 0xaau);
    EXPECT_EQ(arb_.totalEntries(), 0u);
}

TEST_F(ArbTest, HeadStoreStillDetectsViolations)
{
    arb_.load(6, 0xb000, 4, false);
    auto violator = arb_.store(1, 0xb000, 4, 9, true);
    ASSERT_TRUE(violator.has_value());
    EXPECT_EQ(*violator, 6u);
    EXPECT_EQ(mem_.read(0xb000, 4), 9u);
}

TEST_F(ArbTest, HeadWithBufferedBytesKeepsOrdering)
{
    // Task 2 buffers a store while speculative, becomes head, then
    // stores again: commit must not resurrect the old value.
    arb_.store(2, 0xc000, 4, 1, false);
    arb_.store(2, 0xc000, 4, 2, true);  // now head
    arb_.commit(2);
    EXPECT_EQ(mem_.read(0xc000, 4), 2u);
}

TEST_F(ArbTest, SubWordAndDoubleAccesses)
{
    arb_.store(2, 0x1100, 1, 0xaa, false);
    arb_.store(2, 0x1101, 1, 0xbb, false);
    EXPECT_EQ(arb_.load(2, 0x1100, 2, false), 0xbbaau);
    // 8-byte store crossing into the next granule boundary.
    arb_.store(2, 0x1204, 8, 0x1122334455667788ull, false);
    EXPECT_EQ(arb_.load(3, 0x1204, 8, false), 0x1122334455667788ull);
    EXPECT_EQ(arb_.load(3, 0x1208, 4, false), 0x11223344u);
    arb_.commit(2);
    EXPECT_EQ(mem_.read(0x1204, 8), 0x1122334455667788ull);
}

TEST_F(ArbTest, PartialOverlapMergesArbAndMemory)
{
    mem_.write(0x1300, 0xddccbbaa, 4);
    arb_.store(2, 0x1301, 1, 0x99, false);
    EXPECT_EQ(arb_.load(3, 0x1300, 4, false), 0xddcc99aau);
}

TEST_F(ArbTest, WrappingAccessIsBufferedAndCommitted)
{
    // A store at the top of the address space wraps to 0, as
    // MainMemory does: both granules are buffered.
    EXPECT_TRUE(arb_.hasSpaceFor(5, 0xfffffffe, 4, false, false));
    EXPECT_FALSE(
        arb_.store(5, 0xfffffffe, 4, 0xaabbccdd, false).has_value());
    EXPECT_EQ(arb_.totalEntries(), 2u);
    EXPECT_EQ(mem_.read(0xfffffffe, 4), 0u);
    EXPECT_EQ(arb_.load(6, 0xfffffffe, 4, false), 0xaabbccddu);
    EXPECT_EQ(arb_.load(6, 0x0, 2, false), 0xaabbu);
    EXPECT_EQ(arb_.load(7, 0x2, 2, false), 0u);
    // Task 4's wrapping store reaches byte 2, which task 7 loaded
    // from memory; bytes 0-1 are shadowed by task 5's store.
    auto violator = arb_.store(4, 0xffffffff, 4, 0x01020304, false);
    ASSERT_TRUE(violator.has_value());
    EXPECT_EQ(*violator, 7u);
    arb_.squash(7);
    arb_.commit(4);
    EXPECT_EQ(mem_.read(0xffffffff, 4), 0x01020304u);
    arb_.commit(5);
    arb_.commit(6);
    EXPECT_EQ(arb_.totalEntries(), 0u);
    EXPECT_EQ(mem_.read(0xfffffffe, 4), 0xaabbccddu);
    EXPECT_EQ(mem_.read(0x2, 1), 0x01u);
    // A wrapping head store writes both ends of memory directly.
    EXPECT_FALSE(arb_.store(8, 0xfffffffc, 8, 0x8877665544332211ull, true)
                     .has_value());
    EXPECT_EQ(arb_.totalEntries(), 0u);
    EXPECT_EQ(mem_.read(0xfffffffc, 8), 0x8877665544332211ull);
}

TEST_F(ArbTest, CapacityAccounting)
{
    StatRegistry stats;
    MainMemory mem;
    Arb small(stats.group("arb"), mem, {1, 64, 2});
    EXPECT_TRUE(small.hasSpaceFor(2, 0x0, 4, false, false));
    small.store(2, 0x0, 4, 1, false);
    small.store(2, 0x100, 4, 1, false);
    EXPECT_EQ(small.entriesInBank(0), 2u);
    // Full: a new granule cannot be allocated...
    EXPECT_FALSE(small.hasSpaceFor(2, 0x200, 4, false, false));
    // ...but existing granules can take more records,
    EXPECT_TRUE(small.hasSpaceFor(3, 0x0, 4, false, false));
    // ...head loads never allocate,
    EXPECT_TRUE(small.hasSpaceFor(2, 0x200, 4, true, true));
    // ...and unbuffered head stores write through.
    EXPECT_TRUE(small.hasSpaceFor(2, 0x200, 4, false, true));
    // Commit frees the entries.
    small.commit(2);
    EXPECT_TRUE(small.hasSpaceFor(3, 0x200, 4, false, false));
}

TEST_F(ArbTest, AccessNeedingTwoRowsInOneBank)
{
    // A misaligned access spans two granules of one block; when both
    // are new, the bank must have room for both.
    StatRegistry stats;
    MainMemory mem;
    Arb small(stats.group("arb"), mem, {1, 64, 2});
    small.store(2, 0x0, 4, 1, false);
    EXPECT_FALSE(small.hasSpaceFor(3, 0x104, 8, false, false));
    EXPECT_FALSE(small.hasSpaceFor(3, 0x104, 8, true, false));
    // One new granule still fits.
    EXPECT_TRUE(small.hasSpaceFor(3, 0x4, 8, false, false));
    small.store(3, 0x4, 8, 0x1122334455667788ull, false);
    EXPECT_EQ(small.entriesInBank(0), 2u);
    small.commit(2);
    small.commit(3);
    EXPECT_TRUE(small.hasSpaceFor(4, 0x104, 8, false, false));
    small.store(4, 0x104, 8, 0x99, false);
    EXPECT_EQ(small.entriesInBank(0), 2u);
}

TEST_F(ArbTest, CommitOutOfOrderPanics)
{
    arb_.store(2, 0x0, 4, 1, false);
    arb_.store(3, 0x0, 4, 2, false);
    EXPECT_THROW(arb_.commit(3), PanicError);
}

// Randomized differential test: a sequence of loads/stores by tasks
// executing *in logical order* (so no violations) must produce
// exactly the same values and final memory as a flat memory model.
TEST_F(ArbTest, RandomizedDifferentialAgainstFlatMemory)
{
    Rng rng(31337);
    std::map<Addr, std::uint8_t> flat;
    auto flat_read = [&](Addr a, unsigned size) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i) {
            auto it = flat.find(a + i);
            v |= std::uint64_t(it == flat.end() ? 0 : it->second)
                 << (8 * i);
        }
        return v;
    };
    auto flat_write = [&](Addr a, unsigned size, std::uint64_t v) {
        for (unsigned i = 0; i < size; ++i)
            flat[a + i] = std::uint8_t(v >> (8 * i));
    };

    const unsigned sizes[] = {1, 2, 4, 8};
    TaskSeq seq = 1;
    for (unsigned round = 0; round < 50; ++round) {
        // Each task performs a few operations, in task order.
        for (unsigned op = 0; op < 20; ++op) {
            const Addr addr = Addr(0x2000 + rng.below(256));
            const unsigned size = sizes[rng.below(4)];
            if (rng.below(2)) {
                const std::uint64_t v = rng.next();
                arb_.store(seq, addr, size, v, false);
                flat_write(addr, size, v);
            } else {
                EXPECT_EQ(arb_.load(seq, addr, size, false),
                          flat_read(addr, size))
                    << "seq " << seq << " addr " << addr;
            }
        }
        ++seq;
    }
    // Commit everything in order; memory must equal the flat model.
    for (TaskSeq s = 1; s < seq; ++s)
        arb_.commit(s);
    EXPECT_EQ(arb_.totalEntries(), 0u);
    for (const auto &[a, v] : flat)
        EXPECT_EQ(mem_.read(a, 1), v) << "addr " << a;
}

TEST_F(ArbTest, CountersSurviveSquashHeavyRun)
{
    // A squash-heavy sequence: later tasks load ahead of earlier
    // stores over and over, each round ending in a violation and a
    // squash of the violated task.
    const unsigned kRounds = 8;
    for (unsigned round = 0; round < kRounds; ++round) {
        const TaskSeq early = 2 * round + 1;
        const TaskSeq late = 2 * round + 2;
        const Addr addr = Addr(0x5000 + 16 * round);
        arb_.load(late, addr, 4, false);
        arb_.store(late, addr + 8, 4, 0xbeef, false);
        auto violator = arb_.store(early, addr, 4, round, false);
        ASSERT_TRUE(violator.has_value());
        EXPECT_EQ(*violator, late);
        arb_.squash(late);
        arb_.commit(early);
    }

    // The scalar counters and the exported distributions survived
    // every squash: violations by bank, squashed records by kind.
    const StatGroup &g = stats_.group("arb");
    EXPECT_EQ(g.get("violations"), kRounds);
    EXPECT_EQ(g.get("squashedStores"), kRounds);
    std::uint64_t byBank = 0;
    for (const auto &[bucket, n] : g.dists().at("violationsByBank"))
        byBank += n;
    EXPECT_EQ(byBank, kRounds);
    EXPECT_EQ(g.getDist("squashedRecords", "store"), kRounds);
    EXPECT_EQ(g.getDist("squashedRecords", "load"), kRounds);
    EXPECT_EQ(arb_.totalEntries(), 0u);
}

// Out-of-order trace: up to 8 live tasks issue random loads and
// stores out of task order, the head's accesses mixed in, the way the
// processing units do. A violation squashes the violator and every
// later task (youngest first); the head commits in order. Every
// hasSpaceFor answer, load value, violator and entry count is folded
// into an FNV-1a digest, ending with the committed memory.
std::uint64_t
outOfOrderTraceDigest(const Arb::Params &params, unsigned span,
                      std::uint64_t seed)
{
    StatRegistry stats;
    MainMemory mem;
    Arb arb(stats.group("arb"), mem, params);
    Rng rng(seed);

    std::uint64_t digest = kFnv1aBasis;
    auto fold = [&](std::uint64_t v) {
        digest = fnv1a(digest, &v, sizeof v);
    };

    const Addr kBase = 0x4000;
    const unsigned sizes[] = {1, 2, 4, 8};
    std::vector<TaskSeq> live;  // ascending; live.front() is the head
    TaskSeq next_seq = 1;
    for (unsigned step = 0; step < 4000; ++step) {
        const unsigned action = unsigned(rng.below(16));
        if (live.empty() || (live.size() < 8 && action < 3)) {
            live.push_back(next_seq++);
            continue;
        }
        if (action == 3) {
            arb.commit(live.front());
            live.erase(live.begin());
            fold(arb.totalEntries());
            continue;
        }
        const size_t who = action < 7 ? 0 : size_t(rng.below(live.size()));
        const TaskSeq seq = live[who];
        const bool is_head = who == 0;
        const Addr addr = kBase + Addr(rng.below(span));
        const unsigned size = sizes[rng.below(4)];
        const bool is_load = rng.below(2) == 0;
        const bool ok = arb.hasSpaceFor(seq, addr, size, is_load, is_head);
        fold(ok);
        if (!ok)
            continue;  // a speculative unit stalls on a full bank
        if (is_load) {
            fold(arb.load(seq, addr, size, is_head));
        } else {
            const auto violator =
                arb.store(seq, addr, size, rng.next(), is_head);
            fold(violator.value_or(0));
            while (violator && !live.empty() && live.back() >= *violator) {
                arb.squash(live.back());
                live.pop_back();
            }
        }
        fold(arb.totalEntries());
    }
    for (TaskSeq seq : live)
        arb.commit(seq);
    fold(arb.totalEntries());
    for (Addr a = kBase; a < kBase + span + 8; a += 8)
        fold(mem.read(a, 8));
    return digest;
}

TEST_F(ArbTest, OutOfOrderTraceMatchesPinnedDigests)
{
    // Pinned from the hash-map ARB; any change to a load value,
    // violator, capacity answer or committed byte moves a digest.
    // 512 bytes are 64 granules over 8 blocks. 16 KiB are 1024
    // granules per bank of the two-bank ARB, more than its 48 rows
    // per bank hold.
    struct Case
    {
        Arb::Params params;
        unsigned span;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {{8, 64, 256}, 512, 1, 0xe1429bd95bb37829ull},
        {{8, 64, 256}, 512, 2, 0x273d16391c37b08aull},
        {{8, 64, 256}, 512, 3, 0x238526e89baf26a3ull},
        {{8, 64, 256}, 512, 4, 0xa9fdd3b7d0171353ull},
        {{8, 64, 256}, 512, 5, 0xcdd475f314d3cd50ull},
        {{8, 64, 256}, 512, 6, 0xd3fe8f3f38ff08afull},
        {{8, 64, 256}, 512, 7, 0x07f04c0c348e8974ull},
        {{8, 64, 256}, 512, 8, 0x3f65345199140ad3ull},
        {{1, 64, 4}, 512, 1, 0x4b3114aaa3d05e33ull},
        {{1, 64, 4}, 512, 2, 0x3bba9b97137da476ull},
        {{1, 64, 4}, 512, 3, 0xfd54369f8fe99ae6ull},
        {{1, 64, 4}, 512, 4, 0x0cf20550094b1950ull},
        {{1, 64, 4}, 512, 5, 0x8df3eee5bc54c1b4ull},
        {{1, 64, 4}, 512, 6, 0x0814ccae7b71a7d0ull},
        {{1, 64, 4}, 512, 7, 0x5fc7e707372383d1ull},
        {{1, 64, 4}, 512, 8, 0x1f8db578a7f7c3eeull},
        {{2, 64, 48}, 16384, 1, 0xaa3d2d64239954caull},
        {{2, 64, 48}, 16384, 2, 0xa1e9c2581039823eull},
        {{2, 64, 48}, 16384, 3, 0x31382c3d5afddca2ull},
        {{2, 64, 48}, 16384, 4, 0xe08e55738fc41396ull},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(outOfOrderTraceDigest(c.params, c.span, c.seed),
                  c.digest)
            << "banks " << c.params.numBanks << " entries "
            << c.params.entriesPerBank << " span " << c.span << " seed "
            << c.seed;
    }
}

} // namespace
} // namespace msim
