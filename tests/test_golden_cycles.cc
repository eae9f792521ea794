/**
 * @file
 * Golden cycle-count snapshot tests.
 *
 * Every workload is run on the scalar baseline and on the default
 * 4-unit multiscalar machine under a pinned (default) configuration,
 * and again with 2-way out-of-order units (the ooo2w variant, the
 * scoreboarded window of paper section 5.1). Each point runs
 * twice: once with the quiescence fast-forward enabled and once with
 * it disabled (ScalarConfig/MsConfig::fastForward = false). The two
 * runs must agree on every observable — total cycles, instruction
 * count, task counts, program output, and the full per-category cycle
 * accounting — and the fast-forward numbers, the eight accounting
 * category totals included, must match the checked-in snapshot in
 * tests/golden/cycles.json exactly. Any timing drift, intended or
 * not, fails here first.
 *
 * Regenerating the snapshot after an *intended* timing change:
 *
 *     cd build && MSIM_REGEN_GOLDEN=1 ./tests/test_golden_cycles
 *
 * rewrites tests/golden/cycles.json in the source tree (the path is
 * baked in via the MSIM_GOLDEN_DIR compile definition). Commit the
 * regenerated file together with the change that moved the numbers,
 * and explain the movement in the commit message.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "golden_file.hh"
#include "sim/runner.hh"
#include "workloads/workload.hh"

namespace msim {
namespace {

/** One snapshot row. */
struct GoldenEntry
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t tasksRetired = 0;
    std::uint64_t tasksSquashed = 0;
    /** Accounting totals per CycleCat, summed over units. */
    std::array<std::uint64_t, kNumCycleCats> cats{};
};

const GoldenFile &
golden()
{
    static const GoldenFile file("cycles.json", "test_golden_cycles");
    return file;
}

/** Pull the number following "<field>": at/after @p pos. */
std::uint64_t
parseField(const std::string &text, size_t pos, const std::string &field)
{
    const std::string needle = "\"" + field + "\":";
    const size_t at = text.find(needle, pos);
    EXPECT_NE(at, std::string::npos)
        << "golden file is missing field '" << field << "'";
    if (at == std::string::npos)
        return 0;
    return std::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
}

/** Load the whole snapshot file, keyed by "workload/mode". */
const std::map<std::string, GoldenEntry> &
loadGolden()
{
    static const std::map<std::string, GoldenEntry> snapshot = [] {
        std::map<std::string, GoldenEntry> entries;
        const std::string text = golden().read();
        size_t pos = 0;
        while ((pos = text.find("\"key\":", pos)) != std::string::npos) {
            const size_t q0 = text.find('"', pos + 6);
            const size_t q1 = text.find('"', q0 + 1);
            if (q0 == std::string::npos || q1 == std::string::npos)
                break;
            const std::string key = text.substr(q0 + 1, q1 - q0 - 1);
            GoldenEntry e;
            e.cycles = parseField(text, q1, "cycles");
            e.instructions = parseField(text, q1, "instructions");
            e.tasksRetired = parseField(text, q1, "tasksRetired");
            e.tasksSquashed = parseField(text, q1, "tasksSquashed");
            for (size_t cat = 0; cat < kNumCycleCats; ++cat) {
                e.cats[cat] =
                    parseField(text, q1, cycleCatName(CycleCat(cat)));
            }
            entries[key] = e;
            pos = q1;
        }
        return entries;
    }();
    return snapshot;
}

/** Measured entries collected for MSIM_REGEN_GOLDEN=1 mode. */
std::map<std::string, GoldenEntry> &
regenEntries()
{
    static std::map<std::string, GoldenEntry> entries;
    return entries;
}

/** Writes the regenerated snapshot after all tests ran. */
class RegenWriter : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        if (!GoldenFile::regenerating() || regenEntries().empty())
            return;
        std::ostringstream out;
        out << "{\n  \"schema\": \"msim-golden-cycles-v1\",\n"
            << "  \"entries\": [\n";
        size_t i = 0;
        for (const auto &[key, e] : regenEntries()) {
            out << "    { \"key\": \"" << key << "\", \"cycles\": "
                << e.cycles << ", \"instructions\": " << e.instructions
                << ", \"tasksRetired\": " << e.tasksRetired
                << ", \"tasksSquashed\": " << e.tasksSquashed;
            for (size_t cat = 0; cat < kNumCycleCats; ++cat) {
                out << ", \"" << cycleCatName(CycleCat(cat))
                    << "\": " << e.cats[cat];
            }
            out << " }" << (++i < regenEntries().size() ? "," : "")
                << "\n";
        }
        out << "  ]\n}\n";
        golden().write(out.str());
    }
};

const ::testing::Environment *const kRegenWriter =
    ::testing::AddGlobalTestEnvironment(new RegenWriter);

struct Case
{
    std::string workload;
    bool multiscalar;
    /** True = 10x first-beat bus latency (memory-bound regime). */
    bool slowmem = false;
    /** True = 2-way out-of-order units instead of 1-way in-order. */
    bool ooo2w = false;
};

class GoldenCycles : public ::testing::TestWithParam<Case>
{
};

/**
 * The pinned configuration: library defaults for either machine,
 * optionally with the slow-memory bus (first beat 100 cycles instead
 * of 10 — the latency-tolerance design point of the L2 ablation) or
 * with 2-way out-of-order units.
 */
RunSpec
pinnedSpec(const Case &c, bool fast_forward)
{
    RunSpec spec;
    spec.multiscalar = c.multiscalar;
    spec.ms.fastForward = fast_forward;
    spec.scalar.fastForward = fast_forward;
    if (c.slowmem) {
        spec.ms.bus.firstBeatLatency = 100;
        spec.scalar.bus.firstBeatLatency = 100;
    }
    if (c.ooo2w) {
        for (PuConfig *pu : {&spec.ms.pu, &spec.scalar.pu}) {
            pu->outOfOrder = true;
            pu->issueWidth = 2;
        }
    }
    return spec;
}

TEST_P(GoldenCycles, FastForwardIsCycleExactAndMatchesSnapshot)
{
    const Case &c = GetParam();
    const workloads::Workload w = workloads::get(c.workload);

    const RunResult on = runWorkload(w, pinnedSpec(c, true));
    const RunResult off = runWorkload(w, pinnedSpec(c, false));

    // The fast-forward must be invisible in every observable.
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.instructions, off.instructions);
    EXPECT_EQ(on.squashedInstructions, off.squashedInstructions);
    EXPECT_EQ(on.tasksRetired, off.tasksRetired);
    EXPECT_EQ(on.tasksSquashed, off.tasksSquashed);
    EXPECT_EQ(on.controlSquashes, off.controlSquashes);
    EXPECT_EQ(on.memorySquashes, off.memorySquashes);
    EXPECT_EQ(on.output, off.output);
    EXPECT_EQ(off.fastForwardedCycles, 0u);

    // Full per-category accounting must match, not just the totals.
    ASSERT_EQ(on.accounting.numUnits, off.accounting.numUnits);
    for (size_t cat = 0; cat < kNumCycleCats; ++cat) {
        EXPECT_EQ(on.accounting.total[cat], off.accounting.total[cat])
            << "category " << cycleCatName(CycleCat(cat));
        for (unsigned u = 0; u < on.accounting.numUnits; ++u) {
            EXPECT_EQ(on.accounting.perUnit[u][cat],
                      off.accounting.perUnit[u][cat])
                << "unit " << u << " category "
                << cycleCatName(CycleCat(cat));
        }
    }

    // The exactness invariant holds for both runs.
    EXPECT_EQ(on.accounting.sum(),
              on.cycles * on.accounting.numUnits);
    EXPECT_EQ(off.accounting.sum(),
              off.cycles * off.accounting.numUnits);

    const std::string key = c.workload +
                            (c.multiscalar ? "/ms4" : "/scalar") +
                            (c.slowmem ? "-slowmem" : "") +
                            (c.ooo2w ? "-ooo2w" : "");
    GoldenEntry measured;
    measured.cycles = on.cycles;
    measured.instructions = on.instructions;
    measured.tasksRetired = on.tasksRetired;
    measured.tasksSquashed = on.tasksSquashed;
    measured.cats = on.accounting.total;

    if (GoldenFile::regenerating()) {
        regenEntries()[key] = measured;
        return;
    }

    SCOPED_TRACE(golden().regenHint());
    const auto &entries = loadGolden();
    auto it = entries.find(key);
    ASSERT_NE(it, entries.end())
        << "no golden entry for " << key << " in " << golden().path();
    EXPECT_EQ(measured.cycles, it->second.cycles) << key;
    EXPECT_EQ(measured.instructions, it->second.instructions) << key;
    EXPECT_EQ(measured.tasksRetired, it->second.tasksRetired) << key;
    EXPECT_EQ(measured.tasksSquashed, it->second.tasksSquashed) << key;
    for (size_t cat = 0; cat < kNumCycleCats; ++cat) {
        EXPECT_EQ(measured.cats[cat], it->second.cats[cat])
            << key << " category " << cycleCatName(CycleCat(cat));
    }
}

/** The memory-bound workloads also snapshot the slowmem regime. */
bool
isCacheStress(const std::string &name)
{
    return name == "pointer_chase" || name == "stream_triad" ||
           name == "gups" || name == "stencil" || name == "thrash";
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const auto &[name, factory] : workloads::registry()) {
        (void)factory;
        cases.push_back({name, false});
        cases.push_back({name, true});
        cases.push_back({name, false, false, true});
        cases.push_back({name, true, false, true});
        if (isCacheStress(name)) {
            cases.push_back({name, false, true});
            cases.push_back({name, true, true});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    All, GoldenCycles, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return info.param.workload +
               (info.param.multiscalar ? "_ms4" : "_scalar") +
               (info.param.slowmem ? "_slowmem" : "") +
               (info.param.ooo2w ? "_ooo2w" : "");
    });

} // namespace
} // namespace msim
