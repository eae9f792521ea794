/**
 * @file
 * Tests for the observability subsystem (src/trace/): the event
 * tracer and its sinks, the Chrome trace-event JSON output, the
 * exact cycle-accounting model and its hard sum invariant, and the
 * disabled-tracer fast path.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fnv1a.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/multiscalar_processor.hh"
#include "core/scalar_processor.hh"
#include "golden_file.hh"
#include "sim/runner.hh"
#include "trace/cycle_accounting.hh"
#include "trace/trace_sink.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

namespace {

using namespace msim;

// --------------------------------------------------------------------
// A minimal JSON validator/reader, enough for Chrome trace output:
// objects, arrays, strings, integers, and the few escapes the sink
// emits. Parsed values are kept as strings keyed by field name.
// --------------------------------------------------------------------

struct JsonValue
{
    enum class Kind { kObject, kArray, kString, kNumber, kOther };
    Kind kind = Kind::kOther;
    std::string scalar;
    std::vector<std::pair<std::string, JsonValue>> fields;
    std::vector<JsonValue> items;

    const JsonValue *
    field(const std::string &name) const
    {
        for (const auto &[k, v] : fields) {
            if (k == name)
                return &v;
        }
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        ws();
        if (pos_ != s_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "' got '" + peek() +
                 "'");
        ++pos_;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = peek();
            ++pos_;
            if (c == '"')
                return out;
            if (c == '\\') {
                char e = peek();
                ++pos_;
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'u':
                    if (pos_ + 4 > s_.size())
                        fail("bad \\u escape");
                    out += '?';
                    pos_ += 4;
                    break;
                  default:
                    fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
    }

    JsonValue
    value()
    {
        ws();
        JsonValue v;
        char c = peek();
        if (c == '{') {
            v.kind = JsonValue::Kind::kObject;
            ++pos_;
            ws();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            while (true) {
                ws();
                std::string key = string();
                ws();
                expect(':');
                v.fields.emplace_back(std::move(key), value());
                ws();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            v.kind = JsonValue::Kind::kArray;
            ++pos_;
            ws();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            while (true) {
                v.items.push_back(value());
                ws();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.kind = JsonValue::Kind::kString;
            v.scalar = string();
            return v;
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            v.kind = JsonValue::Kind::kNumber;
            while (pos_ < s_.size() &&
                   (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                    s_[pos_] == '-' || s_[pos_] == '+' ||
                    s_[pos_] == '.' || s_[pos_] == 'e' ||
                    s_[pos_] == 'E'))
                v.scalar += s_[pos_++];
            return v;
        }
        fail("unexpected character");
    }

    const std::string &s_;
    size_t pos_ = 0;
};

/** A sink that keeps owned copies of everything it saw. */
class RecordingSink : public TraceSink
{
  public:
    struct Seen
    {
        std::string name;
        TraceCat cat;
        TracePhase ph;
        Cycle ts;
        std::uint32_t tid;
        std::string key1;
        std::uint64_t val1;
    };

    void
    write(const TraceEvent &e) override
    {
        seen.push_back({std::string(e.name), e.cat, e.ph, e.ts, e.tid,
                        std::string(e.key1), e.val1});
    }

    std::vector<Seen> seen;
};

TraceConfig
enabledConfig()
{
    TraceConfig cfg;
    cfg.enabled = true;
    return cfg;
}

// --------------------------------------------------------------------
// Tracer front end
// --------------------------------------------------------------------

TEST(Tracer, EventsArriveInEmissionOrder)
{
    auto sink = std::make_unique<RecordingSink>();
    RecordingSink *raw = sink.get();
    Tracer tracer(enabledConfig(), std::move(sink));

    for (Cycle c = 0; c < 10; ++c) {
        tracer.setNow(c);
        tracer.instant(TraceCat::kTask, "a", tracer.now(), 0, "i", c);
        tracer.instant(TraceCat::kRing, "b", tracer.now(), 1);
    }
    ASSERT_EQ(raw->seen.size(), 20u);
    for (size_t i = 0; i < raw->seen.size(); ++i) {
        EXPECT_EQ(raw->seen[i].ts, Cycle(i / 2));
        EXPECT_EQ(raw->seen[i].name, i % 2 == 0 ? "a" : "b");
    }
    EXPECT_EQ(tracer.recorded(), 20u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, DisabledFastPathRecordsNothing)
{
    TraceConfig cfg;  // enabled = false
    auto sink = std::make_unique<RecordingSink>();
    RecordingSink *raw = sink.get();
    Tracer tracer(cfg, std::move(sink));

    EXPECT_FALSE(tracer.enabled());
    for (unsigned c = 0; c < unsigned(TraceCat::kNumCats); ++c)
        EXPECT_FALSE(tracer.wants(TraceCat(c)));

    // Even unguarded emission must not reach the sink when disabled.
    tracer.instant(TraceCat::kTask, "x", 1, 0);
    tracer.counter(TraceCat::kPu, "y", 2, 0, "v", 3);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_TRUE(raw->seen.empty());
}

TEST(Tracer, CategoryMaskFilters)
{
    TraceConfig cfg = enabledConfig();
    cfg.categories = traceCatBit(TraceCat::kBus);
    auto sink = std::make_unique<RecordingSink>();
    RecordingSink *raw = sink.get();
    Tracer tracer(cfg, std::move(sink));

    EXPECT_TRUE(tracer.wants(TraceCat::kBus));
    EXPECT_FALSE(tracer.wants(TraceCat::kTask));
    tracer.instant(TraceCat::kTask, "no", 0, 0);
    tracer.instant(TraceCat::kBus, "yes", 0, 0);
    ASSERT_EQ(raw->seen.size(), 1u);
    EXPECT_EQ(raw->seen[0].name, "yes");
}

TEST(Tracer, MaxEventsCapCountsDrops)
{
    TraceConfig cfg = enabledConfig();
    cfg.maxEvents = 3;
    auto sink = std::make_unique<RecordingSink>();
    RecordingSink *raw = sink.get();
    Tracer tracer(cfg, std::move(sink));

    for (int i = 0; i < 5; ++i)
        tracer.instant(TraceCat::kTask, "e", Cycle(i), 0);
    EXPECT_EQ(raw->seen.size(), 3u);
    EXPECT_EQ(tracer.recorded(), 3u);
    EXPECT_EQ(tracer.dropped(), 2u);
}

TEST(Tracer, CategoryListParsing)
{
    EXPECT_EQ(traceCatMaskFromList(""), kAllTraceCats);
    EXPECT_EQ(traceCatMaskFromList("bus"), traceCatBit(TraceCat::kBus));
    EXPECT_EQ(traceCatMaskFromList("task,ring"),
              traceCatBit(TraceCat::kTask) |
                  traceCatBit(TraceCat::kRing));
    EXPECT_THROW(traceCatMaskFromList("nonsense"), FatalError);
}

// --------------------------------------------------------------------
// Sinks
// --------------------------------------------------------------------

TEST(ChromeSink, EmitsValidJsonWithChromeFields)
{
    std::ostringstream oss;
    {
        Tracer tracer(enabledConfig(),
                      std::make_unique<ChromeTraceSink>(oss));
        tracer.threadName(7, "pu7");
        tracer.begin(TraceCat::kTask, "task@0x400", 10, 7, "seq", 3);
        tracer.instant(TraceCat::kArb, "needs \"escaping\"\n", 11, 67,
                       "addr", 0x1234);
        tracer.complete(TraceCat::kBus, "xfer", 12, 5, 65, "words", 16);
        tracer.end(TraceCat::kTask, 20, 7);
        tracer.flush();
    }

    JsonValue root = JsonParser(oss.str()).parse();
    ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
    const JsonValue *events = root.field("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
    ASSERT_EQ(events->items.size(), 5u);

    // Metadata record names the lane.
    const JsonValue &meta = events->items[0];
    EXPECT_EQ(meta.field("ph")->scalar, "M");
    EXPECT_EQ(meta.field("name")->scalar, "thread_name");
    EXPECT_EQ(meta.field("args")->field("name")->scalar, "pu7");

    // Every real event carries the Chrome required fields.
    for (size_t i = 1; i < events->items.size(); ++i) {
        const JsonValue &ev = events->items[i];
        ASSERT_NE(ev.field("name"), nullptr) << "event " << i;
        ASSERT_NE(ev.field("ph"), nullptr) << "event " << i;
        ASSERT_NE(ev.field("ts"), nullptr) << "event " << i;
        ASSERT_NE(ev.field("pid"), nullptr) << "event " << i;
        ASSERT_NE(ev.field("tid"), nullptr) << "event " << i;
        EXPECT_EQ(ev.field("ts")->kind, JsonValue::Kind::kNumber);
    }

    const JsonValue &begin = events->items[1];
    EXPECT_EQ(begin.field("ph")->scalar, "B");
    EXPECT_EQ(begin.field("ts")->scalar, "10");
    EXPECT_EQ(begin.field("args")->field("seq")->scalar, "3");

    const JsonValue &complete = events->items[3];
    EXPECT_EQ(complete.field("ph")->scalar, "X");
    EXPECT_EQ(complete.field("dur")->scalar, "5");
}

TEST(CsvSink, OneRowPerEventWithHeader)
{
    std::ostringstream oss;
    Tracer tracer(enabledConfig(),
                  std::make_unique<CsvTraceSink>(oss));
    tracer.instant(TraceCat::kRing, "forward", 4, 66, "from", 2);
    tracer.complete(TraceCat::kBus, "xfer", 9, 3, 65);
    tracer.flush();

    std::istringstream in(oss.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "ph,ts,dur,pid,tid,cat,name,key1,val1,key2,val2");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "i,4,0,0,66,ring,forward,from,2,,0");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "X,9,3,0,65,bus,xfer,,0,,0");
    EXPECT_FALSE(std::getline(in, line));
}

TEST(SinkFactory, RejectsUnknownKind)
{
    TraceConfig cfg = enabledConfig();
    cfg.sink = "xml";
    EXPECT_THROW(makeTraceSink(cfg), FatalError);
}

// --------------------------------------------------------------------
// End to end: a traced machine run produces a loadable Chrome trace.
// --------------------------------------------------------------------

TEST(TraceEndToEnd, MultiscalarRunWritesValidChromeTrace)
{
    const std::string path = "test_trace_out.json";
    RunSpec spec;
    spec.multiscalar = true;
    spec.ms.numUnits = 4;
    spec.trace.enabled = true;
    spec.trace.sink = "chrome";
    spec.trace.path = path;

    RunResult r = runWorkload(workloads::get("wc"), spec);
    EXPECT_TRUE(r.exited);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();

    JsonValue root = JsonParser(buf.str()).parse();
    const JsonValue *events = root.field("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->items.size(), 100u);

    size_t task_begins = 0, metadata = 0;
    for (const JsonValue &ev : events->items) {
        const std::string &ph = ev.field("ph")->scalar;
        EXPECT_TRUE(ph == "i" || ph == "B" || ph == "E" || ph == "X" ||
                    ph == "C" || ph == "M")
            << "unexpected phase " << ph;
        if (ph == "M")
            ++metadata;
        if (ph == "B")
            ++task_begins;
        if (ph != "M") {
            ASSERT_NE(ev.field("ts"), nullptr);
            ASSERT_NE(ev.field("cat"), nullptr);
        }
    }
    // Lanes were named; every assigned task opened a B event, and
    // every assigned task eventually retires or is squashed.
    EXPECT_GE(metadata, 4u);
    EXPECT_EQ(task_begins, r.tasksRetired + r.tasksSquashed);
}

// --------------------------------------------------------------------
// Golden trace and stats digests: the bytes of a Chrome trace (lane
// names included) and the order of stats().format() depend on the
// order in which a machine names its trace lanes and creates its
// stat groups, which no cycle count sees. Regenerate after an
// intended change with:
//
//     cd build && MSIM_REGEN_GOLDEN=1 ./tests/test_trace
//
// which rewrites tests/golden/trace_digests.json in the source tree.
// --------------------------------------------------------------------

/** FNV-1a 64 of @p s, as 16 hex digits. */
std::string
fnv1aHex(const std::string &s)
{
    const std::uint64_t h = fnv1a(kFnv1aBasis, s.data(), s.size());
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** One traced run of wc: {trace digest, stats digest}. */
template <typename Config>
std::pair<std::string, std::string>
tracedDigests(const std::string &name, Config cfg)
{
    constexpr bool multiscalar = std::is_same_v<Config, MsConfig>;
    using Proc = std::conditional_t<multiscalar, MultiscalarProcessor,
                                    ScalarProcessor>;
    const workloads::Workload w = workloads::get("wc");
    const Program prog = assembleWorkload(w, multiscalar);
    const std::string path = "golden_" + name + ".trace.json";
    cfg.trace.enabled = true;
    cfg.trace.sink = "chrome";
    cfg.trace.path = path;
    // A capped trace still carries every lane name and a few thousand
    // events from all components.
    cfg.trace.maxEvents = 3000;
    std::string stats;
    {
        Proc proc(prog, cfg);
        if (w.init)
            w.init(proc.memory(), prog);
        proc.setInput(w.input);
        // wc takes 255,824 cycles on the scalar machine, fewer on ms4.
        const RunResult r = proc.run(1'000'000);
        EXPECT_TRUE(r.exited) << name;
        EXPECT_EQ(r.output, w.expected) << name;
        stats = proc.stats().format();
    }
    const std::string trace = readFile(path);
    std::remove(path.c_str());
    EXPECT_FALSE(trace.empty()) << name;
    return {fnv1aHex(trace), fnv1aHex(stats)};
}

TEST(TraceGolden, TraceAndStatsDigestsMatchSnapshot)
{
    MsConfig ms4;
    ms4.numUnits = 4;
    MsConfig ms4l2 = ms4;
    ms4l2.l2 = L2Params{};
    ms4l2.l2->inclusion = L2Inclusion::kInclusive;

    const std::vector<std::pair<std::string,
                                std::pair<std::string, std::string>>>
        rows = {
            {"scalar", tracedDigests("scalar", ScalarConfig{})},
            {"ms4", tracedDigests("ms4", ms4)},
            {"ms4_l2", tracedDigests("ms4_l2", ms4l2)},
        };

    const GoldenFile golden("trace_digests.json", "test_trace");
    if (GoldenFile::regenerating()) {
        std::ostringstream f;
        f << "{\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            f << "  \"" << rows[i].first << "\": {\"trace\": \""
              << rows[i].second.first << "\", \"stats\": \""
              << rows[i].second.second << "\"}"
              << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        f << "}\n";
        golden.write(f.str());
        GTEST_SKIP() << "regenerated " << golden.path();
    }

    const std::string text = golden.read();
    ASSERT_FALSE(text.empty());
    for (const auto &[name, digests] : rows) {
        const std::string want = "\"" + name + "\": {\"trace\": \"" +
                                 digests.first + "\", \"stats\": \"" +
                                 digests.second + "\"}";
        EXPECT_NE(text.find(want), std::string::npos)
            << name << ": trace " << digests.first << ", stats "
            << digests.second << " not in " << golden.path() << "; "
            << golden.regenHint();
    }
}

// --------------------------------------------------------------------
// Cycle accounting
// --------------------------------------------------------------------

TEST(CycleAccounting, ManualProtocolAndInvariant)
{
    CycleAccounting acct(2);
    acct.record(0, CycleCat::kBusy, 0);
    acct.record(0, CycleCat::kRingWait, 1);
    acct.record(1, CycleCat::kBusy, 1);  // unit 1 was idle in cycle 0
    acct.commitTask(0, 2);
    acct.squashTask(1, 2);

    CycleAccountingResult res = acct.finish(2);
    EXPECT_EQ(res.numUnits, 2u);
    EXPECT_EQ(res.sum(), 4u);
    EXPECT_EQ(res[CycleCat::kBusy], 1u);      // unit 0, committed
    EXPECT_EQ(res[CycleCat::kRingWait], 1u);  // unit 0, committed
    EXPECT_EQ(res[CycleCat::kSquashed], 1u);  // unit 1's busy cycle
    EXPECT_EQ(res[CycleCat::kIdle], 1u);      // unit 1, first cycle
}

TEST(CycleAccounting, RecordBeforeTheOpenRunPanics)
{
    CycleAccounting acct(1);
    acct.record(0, CycleCat::kBusy, 5);
    EXPECT_THROW(acct.record(0, CycleCat::kRingWait, 3), PanicError);
    EXPECT_THROW(acct.record(0, CycleCat::kBusy, 4), PanicError);
}

TEST(CycleAccounting, UntickedTaskSquashedChargesSquashed)
{
    // The task's first tick opens a run at cycle 2; its unit then
    // sleeps (or is fast-forwarded) without another record until the
    // task is squashed at the end of cycle 101.
    CycleAccounting acct(1);
    acct.record(0, CycleCat::kMemWait, 2);
    acct.squashTask(0, 102);
    const CycleAccountingResult res = acct.finish(110);
    EXPECT_EQ(res[CycleCat::kSquashed], 100u);
    EXPECT_EQ(res[CycleCat::kMemWait], 0u);
    EXPECT_EQ(res[CycleCat::kIdle], 10u);  // cycles 0-1 and 102-109
    EXPECT_EQ(res.sum(), 110u);
}

TEST(CycleAccounting, NeverAssignedUnitIsAllIdle)
{
    CycleAccounting acct(3);
    acct.record(0, CycleCat::kBusy, 0);
    acct.commitTask(0, 50);
    const CycleAccountingResult res = acct.finish(50);
    EXPECT_EQ(res[CycleCat::kBusy], 50u);
    for (unsigned u : {1u, 2u}) {
        for (size_t c = 0; c < kNumCycleCats; ++c) {
            EXPECT_EQ(res.perUnit[u][c],
                      CycleCat(c) == CycleCat::kIdle ? 50u : 0u)
                << u << " " << cycleCatName(CycleCat(c));
        }
    }
}

TEST(CycleAccounting, UnresolvedPendingPanicsAtFinish)
{
    CycleAccounting acct(1);
    acct.record(0, CycleCat::kBusy, 0);
    EXPECT_THROW(acct.finish(1), PanicError);  // task fate unresolved
}

TEST(CycleAccounting, BooksClosedPastTheEndBreakTheInvariant)
{
    CycleAccounting acct(1);
    acct.record(0, CycleCat::kBusy, 0);
    acct.commitTask(0, 10);
    EXPECT_THROW(acct.finish(5), PanicError);  // 10 cycles != 5 x 1
}

TEST(CycleAccounting, MultiscalarRunSumsToCyclesTimesUnits)
{
    for (unsigned units : {1u, 2u, 4u, 8u}) {
        RunSpec spec;
        spec.multiscalar = true;
        spec.ms.numUnits = units;
        RunResult r = runWorkload(workloads::get("wc"), spec);
        const CycleAccountingResult &a = r.accounting;
        EXPECT_EQ(a.numUnits, units);
        ASSERT_EQ(a.perUnit.size(), units);
        EXPECT_EQ(a.sum(), std::uint64_t(r.cycles) * units)
            << units << " units";
        EXPECT_GT(a[CycleCat::kBusy], 0u);

        // Per-unit rows also each sum to the cycle count.
        for (unsigned u = 0; u < units; ++u) {
            std::uint64_t row = 0;
            for (std::uint64_t v : a.perUnit[u])
                row += v;
            EXPECT_EQ(row, std::uint64_t(r.cycles))
                << "unit " << u << " of " << units;
        }
    }
}

TEST(CycleAccounting, ScalarRunSumsToCycles)
{
    RunSpec spec;
    spec.multiscalar = false;
    RunResult r = runWorkload(workloads::get("wc"), spec);
    const CycleAccountingResult &a = r.accounting;
    EXPECT_EQ(a.numUnits, 1u);
    EXPECT_EQ(a.sum(), std::uint64_t(r.cycles));
    EXPECT_GT(a[CycleCat::kBusy], 0u);
    EXPECT_EQ(a[CycleCat::kSquashed], 0u);
    EXPECT_EQ(a[CycleCat::kRingWait], 0u);
}

TEST(CycleAccounting, TracedRunMatchesUntracedCycleCounts)
{
    RunSpec plain;
    plain.multiscalar = true;
    plain.ms.numUnits = 4;
    RunResult r1 = runWorkload(workloads::get("example"), plain);

    RunSpec traced = plain;
    traced.trace.enabled = true;
    traced.trace.sink = "null";
    RunResult r2 = runWorkload(workloads::get("example"), traced);

    // Observation must not perturb the simulation.
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.instructions, r2.instructions);
    EXPECT_EQ(r1.accounting.total, r2.accounting.total);
}

// --------------------------------------------------------------------
// StatGroup (counter handles and distributions)
// --------------------------------------------------------------------

TEST(StatGroup, CounterHandleSurvivesInsertions)
{
    StatGroup g("g");
    std::uint64_t &x = g.counter("x");
    x += 2;
    EXPECT_EQ(g.get("x"), 2u);
    // The handle still aliases the stored value after many more names
    // are inserted around it.
    for (int i = 0; i < 50; ++i) {
        std::string name = "n";
        name += std::to_string(i);
        g.counter(name) += std::uint64_t(i);
    }
    ASSERT_EQ(g.scalars().size(), 51u);
    x += 40;
    EXPECT_EQ(g.get("x"), 42u);
    EXPECT_EQ(&g.counter("x"), &x);
    const std::string text = g.format();
    EXPECT_NE(text.find("g.x 42\n"), std::string::npos);
    EXPECT_NE(text.find("g.n49 49\n"), std::string::npos);
}

TEST(StatGroup, DistributionsAccumulateAndFormat)
{
    StatGroup g("cycles");
    g.addToDist("pu0", "busy", 10);
    g.addToDist("pu0", "busy", 5);
    g.addToDist("pu0", "idle", 2);
    EXPECT_EQ(g.getDist("pu0", "busy"), 15u);
    EXPECT_EQ(g.getDist("pu0", "nothere"), 0u);
    const std::string text = g.format();
    EXPECT_NE(text.find("cycles.pu0.busy 15"), std::string::npos);
    EXPECT_NE(text.find("cycles.pu0.idle 2"), std::string::npos);
}

} // namespace
