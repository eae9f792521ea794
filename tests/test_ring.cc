/**
 * @file
 * Forwarding ring tests: hop latency, per-cycle port bandwidth
 * (ring width = issue width), propagation control by the receiver,
 * and message expiry after a full circuit.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "ring/forward_ring.hh"

namespace msim {
namespace {

struct Delivery
{
    Cycle cycle;
    unsigned unit;
    RegIndex reg;
    TaskSeq producer;
};

/** Drive the ring for n cycles, recording deliveries. */
std::vector<Delivery>
drive(ForwardRing &ring, unsigned cycles,
      const std::function<bool(unsigned, const RingMessage &)> &sink)
{
    std::vector<Delivery> log;
    for (Cycle c = 0; c < cycles; ++c) {
        ring.tick(c, [&](unsigned unit, const RingMessage &msg) {
            log.push_back({c, unit, msg.reg, msg.producer});
            return sink(unit, msg);
        });
    }
    return log;
}

RingMessage
msg(RegIndex reg, TaskSeq producer)
{
    RingMessage m;
    m.reg = reg;
    m.value = isa::RegValue::fromWord(42);
    m.producer = producer;
    return m;
}

TEST(Ring, OneCyclePerHop)
{
    StatRegistry stats;
    ForwardRing ring(stats.group("ring"), 4, 1, 1);
    ring.send(0, msg(5, 1));
    auto log = drive(ring, 5, [](unsigned, const RingMessage &) {
        return true;  // propagate everywhere
    });
    // Unit 1 at cycle 1, unit 2 at cycle 2, unit 3 at cycle 3, then
    // expiry (numUnits-1 hops).
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].cycle, 1u);
    EXPECT_EQ(log[0].unit, 1u);
    EXPECT_EQ(log[1].cycle, 2u);
    EXPECT_EQ(log[1].unit, 2u);
    EXPECT_EQ(log[2].cycle, 3u);
    EXPECT_EQ(log[2].unit, 3u);
    EXPECT_TRUE(ring.idle());
}

TEST(Ring, ConfigurableHopLatency)
{
    StatRegistry stats;
    ForwardRing ring(stats.group("ring"), 4, 1, 3);
    ring.send(1, msg(5, 1));
    auto log = drive(ring, 12, [](unsigned, const RingMessage &) {
        return true;
    });
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].cycle, 3u);
    EXPECT_EQ(log[0].unit, 2u);
    EXPECT_EQ(log[1].cycle, 6u);
    EXPECT_EQ(log[2].cycle, 9u);
}

TEST(Ring, ReceiverStopsPropagation)
{
    StatRegistry stats;
    ForwardRing ring(stats.group("ring"), 4, 1, 1);
    ring.send(0, msg(5, 1));
    auto log = drive(ring, 8, [](unsigned unit, const RingMessage &) {
        return unit != 2;  // unit 2 consumes the value
    });
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log.back().unit, 2u);
    EXPECT_TRUE(ring.idle());
}

TEST(Ring, PortBandwidthIsRingWidth)
{
    StatRegistry stats;
    ForwardRing ring(stats.group("ring"), 2, 1, 1);
    // Three messages queued on one port, width 1: they leave one per
    // cycle and arrive on consecutive cycles.
    ring.send(0, msg(1, 1));
    ring.send(0, msg(2, 1));
    ring.send(0, msg(3, 1));
    auto log = drive(ring, 6, [](unsigned, const RingMessage &) {
        return false;  // consume at the first hop
    });
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].cycle, 1u);
    EXPECT_EQ(log[1].cycle, 2u);
    EXPECT_EQ(log[2].cycle, 3u);
    EXPECT_GT(stats.group("ring").get("portStallCycles"), 0u);
}

TEST(Ring, WiderRingMovesMoreValues)
{
    StatRegistry stats;
    ForwardRing ring(stats.group("ring"), 2, 2, 1);
    ring.send(0, msg(1, 1));
    ring.send(0, msg(2, 1));
    auto log = drive(ring, 4, [](unsigned, const RingMessage &) {
        return false;
    });
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].cycle, 1u);
    EXPECT_EQ(log[1].cycle, 1u);  // same cycle: width 2
}

TEST(Ring, SingleUnitRingDropsTraffic)
{
    StatRegistry stats;
    ForwardRing ring(stats.group("ring"), 1, 1, 1);
    ring.send(0, msg(1, 1));
    auto log = drive(ring, 3, [](unsigned, const RingMessage &) {
        return true;
    });
    EXPECT_TRUE(log.empty());
    EXPECT_TRUE(ring.idle());
}

TEST(Ring, ClearDropsEverything)
{
    StatRegistry stats;
    ForwardRing ring(stats.group("ring"), 4, 1, 1);
    ring.send(0, msg(1, 1));
    ring.tick(0, [](unsigned, const RingMessage &) { return true; });
    ring.clear();
    EXPECT_TRUE(ring.idle());
}

TEST(Ring, BadConfigRejected)
{
    StatRegistry stats;
    EXPECT_THROW(ForwardRing(stats.group("r"), 0, 1, 1), FatalError);
    EXPECT_THROW(ForwardRing(stats.group("r"), 4, 0, 1), FatalError);
    EXPECT_THROW(ForwardRing(stats.group("r"), 4, 1, 0), FatalError);
}

} // namespace
} // namespace msim
