/**
 * @file
 * Unit tests for the common utilities: RegMask, SatCounter, the
 * statistics registry, the deterministic RNG, the RingFifo
 * circular buffer used on the simulation hot path, and the strict
 * JSON value/parser behind shapes and sweep reports.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/fifo.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/reg_mask.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"

namespace msim {
namespace {

TEST(RegMask, BasicSetClearTest)
{
    RegMask m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.count(), 0);
    m.set(4);
    m.set(63);
    EXPECT_TRUE(m.test(4));
    EXPECT_TRUE(m.test(63));
    EXPECT_FALSE(m.test(5));
    EXPECT_EQ(m.count(), 2);
    m.clear(4);
    EXPECT_FALSE(m.test(4));
    EXPECT_EQ(m.count(), 1);
}

TEST(RegMask, TestOutOfRangeIsFalse)
{
    RegMask m{1, 2, 3};
    EXPECT_FALSE(m.test(-1));
    EXPECT_FALSE(m.test(64));
}

TEST(RegMask, SetOutOfRangePanics)
{
    RegMask m;
    EXPECT_THROW(m.set(64), PanicError);
    EXPECT_THROW(m.set(-1), PanicError);
}

TEST(RegMask, SetOperations)
{
    RegMask a{1, 2, 3};
    RegMask b{3, 4};
    EXPECT_EQ((a | b), (RegMask{1, 2, 3, 4}));
    EXPECT_EQ((a & b), (RegMask{3}));
    EXPECT_EQ((a - b), (RegMask{1, 2}));
    EXPECT_EQ((b - a), (RegMask{4}));
}

TEST(RegMask, ToStringUsesIntAndFpNames)
{
    RegMask m{4, 20, 35};
    EXPECT_EQ(m.toString(), "$4,$20,$f3");
}

TEST(RegMask, InitializerListMatchesSet)
{
    RegMask a{7, 8};
    RegMask b;
    b.set(7);
    b.set(8);
    EXPECT_EQ(a, b);
}

TEST(SatCounter, SaturatesAtBounds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.value(), 0u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.taken());
}

TEST(SatCounter, TakenThreshold)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.taken());  // 1 of 3
    c.increment();
    EXPECT_TRUE(c.taken());   // 2 of 3
}

TEST(SatCounter, BadWidthPanics)
{
    EXPECT_THROW(SatCounter(0), PanicError);
    EXPECT_THROW(SatCounter(9), PanicError);
    EXPECT_THROW(SatCounter(2, 4), PanicError);
}

TEST(Stats, GroupAccumulatesAndFormats)
{
    StatRegistry reg;
    StatGroup &g = reg.group("cache");
    g.counter("hits") += 1;
    g.counter("hits") += 4;
    g.counter("misses") = 7;
    EXPECT_EQ(g.get("hits"), 5u);
    EXPECT_EQ(g.get("misses"), 7u);
    EXPECT_EQ(g.get("absent"), 0u);
    EXPECT_NE(reg.format().find("cache.hits 5"), std::string::npos);
}

TEST(Stats, GroupReferencesStayValidAcrossGrowth)
{
    StatRegistry reg;
    StatGroup &first = reg.group("g0");
    first.counter("x") += 1;
    // Create many more groups; the first reference must stay valid.
    for (int i = 1; i < 100; ++i) {
        std::string name = "g";
        name += std::to_string(i);
        reg.group(name).counter("y") += 1;
    }
    first.counter("x") += 1;
    EXPECT_EQ(reg.group("g0").get("x"), 2u);
}

TEST(Stats, SameNameReturnsSameGroup)
{
    StatRegistry reg;
    reg.group("a").counter("n") += 1;
    reg.group("a").counter("n") += 1;
    EXPECT_EQ(reg.group("a").get("n"), 2u);
    EXPECT_EQ(reg.groups().size(), 1u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Logging, FatalAndPanicCarryMessages)
{
    try {
        fatal("bad thing ", 42);
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad thing 42"),
                  std::string::npos);
    }
    EXPECT_THROW(panicIf(true, "boom"), PanicError);
    EXPECT_NO_THROW(panicIf(false, "boom"));
    EXPECT_NO_THROW(fatalIf(false, "boom"));
}

TEST(RingFifo, FifoOrderAcrossWraparound)
{
    RingFifo<int> f(4);
    // Interleave pushes and pops so head_ wraps the backing buffer
    // several times without ever growing it.
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 10; ++round) {
        f.push_back(next_in++);
        f.push_back(next_in++);
        f.push_back(next_in++);
        EXPECT_EQ(f.front(), next_out);
        f.pop_front();
        ++next_out;
        f.pop_front();
        ++next_out;
        f.pop_front();
        ++next_out;
    }
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.capacity(), 4u);
}

TEST(RingFifo, GrowthPreservesOrderFromAWrappedState)
{
    RingFifo<int> f(4);
    // Rotate so head_ is mid-buffer, then force growth.
    f.push_back(-1);
    f.push_back(-2);
    f.pop_front();
    f.pop_front();
    for (int i = 0; i < 20; ++i)
        f.push_back(i);
    ASSERT_EQ(f.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(f[size_t(i)], i);
    EXPECT_EQ(f.front(), 0);
    EXPECT_EQ(f.back(), 19);
}

TEST(RingFifo, TruncateDropsTheTail)
{
    RingFifo<int> f;
    for (int i = 0; i < 6; ++i)
        f.push_back(i);
    f.truncate(2);
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f[0], 0);
    EXPECT_EQ(f[1], 1);
    // Elements pushed after a truncate land where the tail was.
    f.push_back(100);
    EXPECT_EQ(f.back(), 100);
    f.truncate(0);
    EXPECT_TRUE(f.empty());
}

TEST(RingFifo, ClearKeepsCapacity)
{
    RingFifo<int> f(16);
    for (int i = 0; i < 10; ++i)
        f.push_back(i);
    const size_t cap = f.capacity();
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.capacity(), cap);
    f.push_back(7);
    EXPECT_EQ(f.front(), 7);
}

TEST(RingFifo, ReserveRoundsUpToPowerOfTwo)
{
    RingFifo<int> f;
    f.reserve(5);
    EXPECT_EQ(f.capacity(), 8u);
    f.reserve(3);  // never shrinks
    EXPECT_EQ(f.capacity(), 8u);
    RingFifo<int> g(16);
    EXPECT_EQ(g.capacity(), 16u);
}

TEST(RingFifo, MisusePanics)
{
    RingFifo<int> f(2);
    EXPECT_THROW(f.pop_front(), PanicError);
    f.push_back(1);
    EXPECT_THROW(f[1], PanicError);
    EXPECT_THROW(f.truncate(2), PanicError);
}

TEST(RingFifo, MatchesDequeUnderRandomOperations)
{
    RingFifo<int> f;
    std::deque<int> ref;
    Rng rng(1234);
    int counter = 0;
    for (int step = 0; step < 5000; ++step) {
        const unsigned op = unsigned(rng.below(10));
        if (op < 5) {
            f.push_back(counter);
            ref.push_back(counter);
            ++counter;
        } else if (op < 8) {
            if (!ref.empty()) {
                EXPECT_EQ(f.front(), ref.front());
                f.pop_front();
                ref.pop_front();
            }
        } else if (op == 8) {
            const size_t n = size_t(rng.below(ref.size() + 1));
            f.truncate(n);
            ref.resize(n);
        } else if (!ref.empty()) {
            const size_t i = size_t(rng.below(ref.size()));
            EXPECT_EQ(f[i], ref[i]);
        }
        ASSERT_EQ(f.size(), ref.size());
    }
}

// ---------------------------------------------------------------------
// JSON: parser, strictness.
// ---------------------------------------------------------------------

using json::Value;

TEST(Json, RoundTripsDocuments)
{
    const Value v = Value::parse(
        "{\"a\":1,\"b\":[true,null,\"x\"],\"c\":{\"d\":-2.5}}");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.entries().size(), 3u);
    EXPECT_EQ(v.find("a")->asInt(), 1);
    const std::vector<Value> &b = v.find("b")->items();
    ASSERT_EQ(b.size(), 3u);
    EXPECT_TRUE(b[0].asBool());
    EXPECT_TRUE(b[1].isNull());
    EXPECT_EQ(b[2].asString(), "x");
    const Value *c = v.find("c");
    ASSERT_TRUE(c->isObject());
    EXPECT_EQ(c->find("d")->asDouble(), -2.5);
}

TEST(Json, PreservesIntegers)
{
    // 2^53 + 1 has no exact double; the integer keeps it.
    const Value v = Value::parse("[1000000000000, 0, -7, 9007199254740993]");
    ASSERT_EQ(v.items().size(), 4u);
    EXPECT_EQ(v.items()[0].asInt(), 1000000000000ll);
    EXPECT_EQ(v.items()[1].asInt(), 0);
    EXPECT_EQ(v.items()[2].asInt(), -7);
    EXPECT_EQ(v.items()[3].asInt(), 9007199254740993ll);
}

TEST(Json, AsIntRejectsNumbersOutsideInt64)
{
    // A double this large has no int64 value; converting it would be
    // undefined behaviour, so asInt() throws instead.
    EXPECT_THROW(Value::parse("1e30").asInt(), std::runtime_error);
    EXPECT_THROW(Value::parse("-1e30").asInt(), std::runtime_error);
    EXPECT_THROW(Value::parse("99999999999999999999").asInt(),
                 std::runtime_error);
    EXPECT_EQ(Value::parse("2.5").asInt(), 2);
    EXPECT_EQ(Value::parse("1e3").asInt(), 1000);
}

TEST(Json, DecodesEscapesAndSurrogatePairs)
{
    const Value v = Value::parse("\"a\\n\\t\\u0041\\uD83D\\uDE00\"");
    EXPECT_EQ(v.asString(), "a\n\tA\xF0\x9F\x98\x80");
}

TEST(Json, ObjectLookupIsInsertionOrdered)
{
    Value v = Value::object();
    v.set("z", Value(1));
    v.set("a", Value(2));
    ASSERT_EQ(v.entries().size(), 2u);
    EXPECT_EQ(v.entries()[0].first, "z");
    EXPECT_EQ(v.entries()[1].first, "a");
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("a")->asInt(), 2);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedText)
{
    EXPECT_THROW(Value::parse(""), json::ParseError);
    EXPECT_THROW(Value::parse("{"), json::ParseError);
    EXPECT_THROW(Value::parse("{\"a\":}"), json::ParseError);
    EXPECT_THROW(Value::parse("[1,]"), json::ParseError);
    EXPECT_THROW(Value::parse("nul"), json::ParseError);
    EXPECT_THROW(Value::parse("1 2"), json::ParseError);  // trailing
    EXPECT_THROW(Value::parse("\"\x01\""), json::ParseError);
    EXPECT_THROW(Value::parse("\"\\q\""), json::ParseError);
    EXPECT_THROW(Value::parse("{\"a\" 1}"), json::ParseError);
    EXPECT_THROW(Value::parse("01"), json::ParseError);
}

TEST(Json, EscapeRoundTripsEveryAsciiByte)
{
    // Every emitter writes its strings through json::escape, so what
    // it writes must read back as the input, byte for byte.
    std::string all;
    for (int c = 0x01; c <= 0x7f; ++c) {
        const std::string one(1, char(c));
        EXPECT_EQ(Value::parse('"' + json::escape(one) + '"').asString(),
                  one)
            << "byte " << c;
        all += one;
    }
    EXPECT_EQ(Value::parse('"' + json::escape(all) + '"').asString(), all);
}

TEST(Json, BoundsRecursionDepth)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_THROW(Value::parse(deep, 64), json::ParseError);
    EXPECT_NO_THROW(Value::parse(deep, 128));
}

} // namespace
} // namespace msim
