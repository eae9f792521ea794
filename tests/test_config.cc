/**
 * @file
 * Tests for the declarative machine-shape layer (src/config): strict
 * parsing with dotted-path diagnostics, which key sets which member,
 * mutated shape files failing cleanly, preset resolution, equivalence
 * of the paper-default shape with the default-constructed configs
 * (including identical simulated cycles).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.hh"
#include "config/machine_shape.hh"
#include "sim/runner.hh"
#include "workloads/workload.hh"

namespace msim {
namespace {

using config::ConfigError;
using config::MachineShape;

/** Expect parseShape(text) to throw with the given dotted path. */
void
expectParseError(const std::string &text, const std::string &path,
                 const std::string &reason_substr = "")
{
    try {
        config::parseShape(text);
        FAIL() << "no ConfigError for: " << text;
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.path, path) << e.what();
        if (!reason_substr.empty()) {
            EXPECT_NE(e.reason.find(reason_substr), std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Shipped presets.
// ---------------------------------------------------------------------

TEST(Shapes, ShippedPresetsAllParseAndRoundTrip)
{
    // Every file in shapes/ parses and validates, carries the name of
    // its basename, and resolves by that name to an equal shape. A
    // bad file fails on its own and the others are still checked.
    const std::vector<std::string> names = config::listShapeNames();
    ASSERT_GE(names.size(), 30u) << "shape dir " << config::shapeDir();
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        const std::string file =
            config::shapeDir() + "/" + name + ".json";
        MachineShape shape;
        try {
            shape = config::loadShapeFile(file);
        } catch (const FatalError &e) {
            ADD_FAILURE() << e.what();
            continue;
        }
        if (shape.multiscalar)
            EXPECT_NO_THROW(shape.ms.validate());
        else
            EXPECT_NO_THROW(shape.scalar.validate());
        EXPECT_EQ(shape.name, name);
        EXPECT_EQ(shape, config::resolveShape(name));
    }
}

TEST(Shapes, PaperDefaultIsTheDefaultConstructedConfig)
{
    // The shipped paper-default shape must equal a default-constructed
    // MsConfig — the paper's section 5.1 machine is the library
    // default, and the shape file cannot drift from it.
    MachineShape dflt;
    dflt.name = "paper-default";
    dflt.multiscalar = true;
    EXPECT_EQ(dflt, config::resolveShape("paper-default"));

    MachineShape scalar;
    scalar.name = "scalar-1w";
    scalar.multiscalar = false;
    EXPECT_EQ(scalar, config::resolveShape("scalar-1w"));
}

TEST(Shapes, PaperDefaultReproducesDefaultGoldenCycles)
{
    // Simulated observables, not just serialized bytes: a run from
    // the shape file must be bit-identical to a run from the default
    // RunSpec (the configuration the golden-cycle snapshots pin).
    for (const char *workload : {"example", "wc"}) {
        SCOPED_TRACE(workload);
        const workloads::Workload w = workloads::get(workload);

        const RunResult viaShape =
            runWorkload(w, config::specForShape("paper-default"));
        const RunResult viaDefault = runWorkload(w, RunSpec{});
        EXPECT_EQ(viaShape.cycles, viaDefault.cycles);
        EXPECT_EQ(viaShape.instructions, viaDefault.instructions);
        EXPECT_EQ(viaShape.tasksRetired, viaDefault.tasksRetired);
        EXPECT_EQ(viaShape.tasksSquashed, viaDefault.tasksSquashed);
        EXPECT_EQ(viaShape.output, viaDefault.output);

        RunSpec scalarDefault;
        scalarDefault.multiscalar = false;
        const RunResult scalarShape =
            runWorkload(w, config::specForShape("scalar-1w"));
        const RunResult scalarDflt = runWorkload(w, scalarDefault);
        EXPECT_EQ(scalarShape.cycles, scalarDflt.cycles);
        EXPECT_EQ(scalarShape.instructions, scalarDflt.instructions);
        EXPECT_EQ(scalarShape.output, scalarDflt.output);
    }
}

TEST(Shapes, ResolveUnknownPresetListsAvailableNames)
{
    try {
        config::resolveShape("no-such-shape");
        FAIL() << "no ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown shape preset"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("paper-default"),
                  std::string::npos);
    }
}

TEST(Shapes, ResolveShapeCachesByName)
{
    const MachineShape &a = config::resolveShape("ms8-1w");
    const MachineShape &b = config::resolveShape("ms8-1w");
    EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------------
// Strict parsing.
// ---------------------------------------------------------------------

TEST(ShapeParse, MinimalDocumentUsesDefaults)
{
    const MachineShape shape =
        config::parseShape("{\"schema\": \"msim-shape-v1\"}");
    EXPECT_TRUE(shape.multiscalar);
    EXPECT_EQ(shape.ms.numUnits, MsConfig().numUnits);
    EXPECT_EQ(shape.ms.arbEntriesPerBank, MsConfig().arbEntriesPerBank);
}

TEST(ShapeParse, EveryKeySetsItsField)
{
    // Every key set to a value that differs from its default and from
    // its neighbours, compared against the config built member by
    // member: a key wired to the wrong member cannot pass.
    const MachineShape ms = config::parseShape(R"({
        "schema": "msim-shape-v1", "name": "every-key",
        "multiscalar": true, "units": 8,
        "pu": {"issue_width": 2, "out_of_order": true,
               "window_size": 32, "fetch_buffer_size": 12,
               "intra_branch_predict": true,
               "branch_predictor_entries": 1024},
        "ring_hop_latency": 5,
        "icache": {"size_bytes": 16384, "block_bytes": 32,
                   "hit_latency": 4},
        "dcache": {"num_banks": 4, "bank_size_bytes": 4096,
                   "block_bytes": 32, "hit_latency": 3},
        "arb": {"entries_per_bank": 64, "full_policy": "stall"},
        "predictor": {"kind": "last", "ras_entries": 16,
                      "descriptor_cache_entries": 512},
        "l2": {"size_bytes": 131072, "assoc": 4, "block_bytes": 32,
               "hit_latency": 9, "num_banks": 2, "mshrs_per_bank": 3,
               "inclusion": "exclusive"},
        "bus": {"first_beat_latency": 20, "extra_beat_latency": 2,
                "beat_words": 8}})");
    MachineShape want;
    want.name = "every-key";
    want.multiscalar = true;
    want.ms.numUnits = 8;
    want.ms.pu.issueWidth = 2;
    want.ms.pu.outOfOrder = true;
    want.ms.pu.windowSize = 32;
    want.ms.pu.fetchBufferSize = 12;
    want.ms.pu.intraBranchPredict = true;
    want.ms.pu.branchPredictorEntries = 1024;
    want.ms.ringHopLatency = 5;
    want.ms.icache.sizeBytes = 16384;
    want.ms.icache.blockBytes = 32;
    want.ms.icache.hitLatency = 4;
    want.ms.numBanks = 4;
    want.ms.bankSizeBytes = 4096;
    want.ms.blockBytes = 32;
    want.ms.dcacheHitLatency = 3;
    want.ms.arbEntriesPerBank = 64;
    want.ms.arbFullPolicy = ArbFullPolicy::kStall;
    want.ms.predictor = "last";
    want.ms.rasEntries = 16;
    want.ms.descCacheEntries = 512;
    want.ms.l2.emplace();
    want.ms.l2->sizeBytes = 131072;
    want.ms.l2->assoc = 4;
    want.ms.l2->blockBytes = 32;
    want.ms.l2->hitLatency = 9;
    want.ms.l2->numBanks = 2;
    want.ms.l2->mshrsPerBank = 3;
    want.ms.l2->inclusion = L2Inclusion::kExclusive;
    want.ms.bus.firstBeatLatency = 20;
    want.ms.bus.extraBeatLatency = 2;
    want.ms.bus.beatWords = 8;
    EXPECT_EQ(ms, want);

    const MachineShape sc = config::parseShape(R"({
        "schema": "msim-shape-v1", "name": "every-key-scalar",
        "multiscalar": false,
        "pu": {"issue_width": 2, "out_of_order": true,
               "window_size": 24, "fetch_buffer_size": 6,
               "intra_branch_predict": true,
               "branch_predictor_entries": 256},
        "icache": {"size_bytes": 16384, "block_bytes": 32,
                   "hit_latency": 2},
        "dcache": {"size_bytes": 32768, "block_bytes": 32,
                   "hit_latency": 3},
        "l2": {"size_bytes": 262144, "assoc": 2, "block_bytes": 32,
               "hit_latency": 7, "num_banks": 8, "mshrs_per_bank": 5,
               "inclusion": "inclusive"},
        "bus": {"first_beat_latency": 30, "extra_beat_latency": 4,
                "beat_words": 2}})");
    MachineShape want_sc;
    want_sc.name = "every-key-scalar";
    want_sc.multiscalar = false;
    want_sc.scalar.pu.issueWidth = 2;
    want_sc.scalar.pu.outOfOrder = true;
    want_sc.scalar.pu.windowSize = 24;
    want_sc.scalar.pu.fetchBufferSize = 6;
    want_sc.scalar.pu.intraBranchPredict = true;
    want_sc.scalar.pu.branchPredictorEntries = 256;
    want_sc.scalar.icache.sizeBytes = 16384;
    want_sc.scalar.icache.blockBytes = 32;
    want_sc.scalar.icache.hitLatency = 2;
    want_sc.scalar.dcache.sizeBytes = 32768;
    want_sc.scalar.dcache.blockBytes = 32;
    want_sc.scalar.dcache.hitLatency = 3;
    want_sc.scalar.l2.emplace();
    want_sc.scalar.l2->sizeBytes = 262144;
    want_sc.scalar.l2->assoc = 2;
    want_sc.scalar.l2->blockBytes = 32;
    want_sc.scalar.l2->hitLatency = 7;
    want_sc.scalar.l2->numBanks = 8;
    want_sc.scalar.l2->mshrsPerBank = 5;
    want_sc.scalar.l2->inclusion = L2Inclusion::kInclusive;
    want_sc.scalar.bus.firstBeatLatency = 30;
    want_sc.scalar.bus.extraBeatLatency = 4;
    want_sc.scalar.bus.beatWords = 2;
    EXPECT_EQ(sc, want_sc);
}

TEST(ShapeParse, WrongSchemaFails)
{
    expectParseError("{\"schema\": \"msim-shape-v2\"}", "schema",
                     "expected");
}

TEST(ShapeParse, UnknownKeyFailsWithPath)
{
    expectParseError("{\"unitz\": 4}", "unitz", "unknown key");
    expectParseError("{\"pu\": {\"width\": 2}}", "pu.width",
                     "unknown key");
    expectParseError("{\"arb\": {\"entries\": 4}}", "arb.entries",
                     "unknown key");
}

TEST(ShapeParse, MisplacedKeysGetHints)
{
    // dcache.size_bytes exists for scalar shapes only; the error must
    // point at the multiscalar spelling.
    expectParseError("{\"dcache\": {\"size_bytes\": 8192}}",
                     "dcache.size_bytes", "bank_size_bytes");
    // units on a scalar shape gets a kind hint.
    expectParseError("{\"multiscalar\": false, \"units\": 4}", "units",
                     "single unit");
    expectParseError(
        "{\"multiscalar\": false, \"predictor\": {\"kind\": \"pas\"}}",
        "predictor", "no task predictor");
}

TEST(ShapeParse, DuplicateKeyFails)
{
    expectParseError("{\"units\": 4, \"units\": 8}", "units",
                     "duplicate");
}

TEST(ShapeParse, OutOfRangeGeometryFails)
{
    expectParseError("{\"units\": 0}", "units", "must be in [1, 64]");
    expectParseError("{\"units\": 65}", "units", "must be in [1, 64]");
    expectParseError("{\"arb\": {\"entries_per_bank\": 0}}",
                     "arb.entries_per_bank", "must be in");
    expectParseError("{\"pu\": {\"issue_width\": 3}}",
                     "pu.issue_width", "must be in [1, 2]");
    expectParseError("{\"units\": -1}", "units", "non-negative");
    // Too large for any integer type: a range error, not a cast.
    expectParseError("{\"units\": 1e30}", "units", "must be in [1, 64]");
    expectParseError("{\"units\": 99999999999999999999}", "units",
                     "must be in [1, 64]");
    expectParseError("{\"units\": 2.5}", "units", "integer");
    expectParseError("{\"units\": \"four\"}", "units", "integer");
}

TEST(ShapeParse, BadEnumValuesFail)
{
    expectParseError("{\"arb\": {\"full_policy\": \"wait\"}}",
                     "arb.full_policy", "squash");
    expectParseError("{\"predictor\": {\"kind\": \"oracle\"}}",
                     "predictor.kind", "pas");
}

TEST(ShapeParse, ValidateRejectsNonPowerOfTwoBlocks)
{
    // Parsed values in range but geometrically invalid: the
    // MsConfig::validate() pass runs on every parsed shape.
    expectParseError("{\"dcache\": {\"block_bytes\": 48}}", "",
                     "power of two");
    expectParseError("{\"icache\": {\"size_bytes\": 3000}}", "",
                     "power-of-two multiple");
}

TEST(ShapeParse, FetchBufferNarrowerThanIssueWidthRejected)
{
    // Fetch delivers a whole issue group into free buffer space, so a
    // narrower buffer would never fetch and the run would deadlock.
    expectParseError("{\"pu\": {\"issue_width\": 2, "
                     "\"fetch_buffer_size\": 1}}",
                     "", "pu.fetchBufferSize");
    expectParseError("{\"multiscalar\": false, \"pu\": {\"issue_width\": "
                     "2, \"fetch_buffer_size\": 1}}",
                     "", "pu.fetchBufferSize");
    MsConfig ms;
    ms.pu.issueWidth = 2;
    ms.pu.fetchBufferSize = 2;
    EXPECT_NO_THROW(ms.validate());
    ms.pu.fetchBufferSize = 1;
    EXPECT_THROW(ms.validate(), FatalError);
}

TEST(ShapeParse, NumBanksZeroIsTheDefaultingMarker)
{
    const MachineShape shape = config::parseShape(
        "{\"units\": 8, \"dcache\": {\"num_banks\": 0}}");
    EXPECT_EQ(shape.ms.numBanks, 0u);
    EXPECT_EQ(shape.ms.effectiveBanks(), 16u);

    const MachineShape fixed = config::parseShape(
        "{\"units\": 8, \"dcache\": {\"num_banks\": 4}}");
    EXPECT_EQ(fixed.ms.effectiveBanks(), 4u);
}

TEST(ShapeParse, L2DefaultsToNullAndRoundTrips)
{
    // No "l2" key and an explicit null both mean: no L2, the
    // historical machine bit for bit.
    EXPECT_FALSE(config::parseShape("{}").ms.l2.has_value());
    EXPECT_FALSE(config::parseShape("{\"l2\": null}").ms.l2);

    const MachineShape shape = config::parseShape(
        "{\"l2\": {\"size_bytes\": 65536, \"assoc\": 4, "
        "\"hit_latency\": 9, \"num_banks\": 2, "
        "\"mshrs_per_bank\": 3, \"inclusion\": \"exclusive\"}}");
    L2Params expected;
    expected.sizeBytes = 65536;
    expected.assoc = 4;
    expected.hitLatency = 9;
    expected.numBanks = 2;
    expected.mshrsPerBank = 3;
    expected.inclusion = L2Inclusion::kExclusive;
    EXPECT_EQ(shape.ms.l2, expected);
    EXPECT_EQ(config::parseShape("{}"),
              config::parseShape("{\"l2\": null}"));

    // The scalar baseline takes the same block.
    const MachineShape sc = config::parseShape(
        "{\"multiscalar\": false, \"l2\": {\"size_bytes\": 131072}}");
    L2Params sc_expected;
    sc_expected.sizeBytes = 131072;
    EXPECT_EQ(sc.scalar.l2, sc_expected);
}

TEST(ShapeParse, L2InvalidValuesRejected)
{
    expectParseError("{\"l2\": {\"assoc\": 0}}", "l2.assoc",
                     "must be in [1, 64]");
    expectParseError("{\"l2\": {\"assoc\": 65}}", "l2.assoc",
                     "must be in [1, 64]");
    expectParseError("{\"l2\": {\"mshrs_per_bank\": 0}}",
                     "l2.mshrs_per_bank", "must be in [1, 1024]");
    expectParseError("{\"l2\": {\"inclusion\": \"both\"}}",
                     "l2.inclusion", "inclusive");
    expectParseError("{\"l2\": 4}", "l2", "");
    // Geometrically invalid values reach MsConfig::validate().
    expectParseError("{\"l2\": {\"block_bytes\": 128}}", "",
                     "must match the L1 block size");
    expectParseError("{\"l2\": {\"size_bytes\": 3001, "
                     "\"num_banks\": 4}}",
                     "", "must divide evenly");
    expectParseError("{\"l2\": {\"size_bytes\": 3000, "
                     "\"num_banks\": 4}}",
                     "", "power-of-two number");
}

TEST(ShapeParse, L2MisplacedKeysGetHints)
{
    // The L2 knobs live in the "l2" block; top-level spellings and
    // the L1's bank-size spelling get pointed home.
    expectParseError("{\"mshrs_per_bank\": 4}", "mshrs_per_bank",
                     "l2");
    expectParseError("{\"inclusion\": \"nine\"}", "inclusion", "l2");
    expectParseError("{\"l2\": {\"bank_size_bytes\": 4096}}",
                     "l2.bank_size_bytes", "size_bytes");
}

TEST(ShapeParse, MalformedJsonBecomesConfigError)
{
    expectParseError("{\"units\": }", "(document)");
    expectParseError("", "(document)");
}

/** Parsing @p text must give a validated shape or a ConfigError. */
void
expectShapeOrConfigError(const std::string &text)
{
    try {
        const MachineShape shape = config::parseShape(text);
        if (shape.multiscalar)
            EXPECT_NO_THROW(shape.ms.validate()) << text;
        else
            EXPECT_NO_THROW(shape.scalar.validate()) << text;
    } catch (const ConfigError &) {
    } catch (const std::exception &e) {
        ADD_FAILURE() << "not a ConfigError: " << e.what() << "\nfor: "
                      << text;
    } catch (...) {
        ADD_FAILURE() << "not a ConfigError, for: " << text;
    }
}

/** [pos, pos + len) of each number token outside strings. */
std::vector<std::pair<std::size_t, std::size_t>>
numberTokens(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> tokens;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            const std::size_t end =
                text.find_first_not_of("-+.eE0123456789", i);
            const std::size_t stop = end == std::string::npos
                                         ? text.size()
                                         : end;
            tokens.emplace_back(i, stop - i);
            i = stop - 1;
        }
    }
    return tokens;
}

TEST(ShapeParse, MutatedShapesParseOrFailWithConfigError)
{
    // Seeded mutations of every shipped shape file: each parse either
    // returns a validated shape or throws ConfigError — never another
    // exception, a crash, or (under the sanitizers) undefined
    // behaviour.
    std::vector<std::filesystem::path> files;
    for (const char *dir : {"shapes", "perfbench/shapes"}) {
        for (const auto &entry : std::filesystem::directory_iterator(
                 std::string(MSIM_SOURCE_DIR) + "/" + dir))
            if (entry.path().extension() == ".json")
                files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 40u);

    const char *const numbers[] = {"-1",         "0",
                                   "2.5",        "1e30",
                                   "4294967296", "18446744073709551616"};
    const std::string alphabet = "{}[]\":,.-+eE019 tfnul\\\n\x01\xff";
    Rng rng(0x5eed);
    unsigned parses = 0;
    for (const auto &file : files) {
        SCOPED_TRACE(file.string());
        std::ifstream in(file);
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();

        // Every number token swapped for each awkward value.
        for (const auto &[pos, len] : numberTokens(text)) {
            for (const char *n : numbers) {
                expectShapeOrConfigError(
                    std::string(text).replace(pos, len, n));
                ++parses;
            }
        }

        // Every key duplicated: strict parsing always rejects it.
        for (std::size_t pos = text.find("\":"); pos != std::string::npos;
             pos = text.find("\":", pos + 1)) {
            const std::size_t open = text.rfind('"', pos - 1);
            const std::string key = text.substr(open, pos + 1 - open);
            const std::string dup =
                std::string(text).insert(open, key + ": 1, ");
            EXPECT_THROW(config::parseShape(dup), ConfigError) << dup;
            ++parses;
        }

        // Random byte edits: delete, insert or replace 1-4 bytes,
        // up to three edits per mutant.
        for (int m = 0; m < 40; ++m) {
            std::string mut = text;
            for (int e = int(rng.range(1, 3)); e > 0; --e) {
                const std::size_t pos = rng.below(mut.size() + 1);
                const std::size_t len = std::size_t(rng.range(1, 4));
                std::string bytes;
                for (std::size_t i = 0; i < len; ++i)
                    bytes += rng.below(4) == 0
                                 ? char(rng.below(256))
                                 : alphabet[rng.below(alphabet.size())];
                switch (rng.below(3)) {
                  case 0: mut.erase(pos, len); break;
                  case 1: mut.insert(pos, bytes); break;
                  default: mut.replace(pos, len, bytes); break;
                }
            }
            expectShapeOrConfigError(mut);
            ++parses;
        }
    }
    EXPECT_GE(parses, 2000u);
}

TEST(ShapeParse, LoadShapeFileAnchorsErrorsOnTheFile)
{
    const std::string path = ::testing::TempDir() + "/bad-shape.json";
    {
        std::ofstream out(path);
        out << "{\"unitz\": 4}";
    }
    try {
        config::loadShapeFile(path);
        FAIL() << "no ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.path, "unitz");
        EXPECT_NE(e.reason.find(path), std::string::npos) << e.what();
    }
    std::remove(path.c_str());

    try {
        config::loadShapeFile("/nonexistent/shape.json");
        FAIL() << "no ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(e.reason.find("cannot open"), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// RunSpec application.
// ---------------------------------------------------------------------

TEST(ShapeSpec, ApplyShapeSetsModeAndMachine)
{
    const RunSpec ms = config::specForShape("ms8-2w-ooo");
    EXPECT_TRUE(ms.multiscalar);
    EXPECT_EQ(ms.ms.numUnits, 8u);
    EXPECT_EQ(ms.ms.pu.issueWidth, 2u);
    EXPECT_TRUE(ms.ms.pu.outOfOrder);

    const RunSpec sc = config::specForShape("scalar-2w");
    EXPECT_FALSE(sc.multiscalar);
    EXPECT_EQ(sc.scalar.pu.issueWidth, 2u);
    // Run-control knobs stay at the library defaults.
    EXPECT_EQ(sc.maxCycles, RunSpec{}.maxCycles);
    EXPECT_TRUE(sc.checkOutput);
}

} // namespace
} // namespace msim
