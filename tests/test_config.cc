/**
 * @file
 * Tests for the declarative machine-shape layer (src/config): strict
 * parsing with dotted-path diagnostics, canonical round-trip
 * identity, preset resolution, equivalence of the paper-default shape
 * with the default-constructed configs (including identical simulated
 * cycles).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

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
    // its basename, resolves by that name, and round-trips. A bad file
    // fails on its own and the others are still checked.
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
        EXPECT_TRUE(
            config::shapeEquals(shape, config::resolveShape(name)));
        // parse → serialize → parse is the identity.
        const MachineShape again =
            config::parseShape(config::shapeToJson(shape).dump());
        EXPECT_TRUE(config::shapeEquals(shape, again));
        EXPECT_EQ(config::shapeToJson(shape).dump(),
                  config::shapeToJson(again).dump());
    }
}

TEST(Shapes, PaperDefaultIsTheDefaultConstructedConfig)
{
    // The shipped paper-default shape and a default-constructed
    // MsConfig must serialize to the same canonical bytes — the
    // paper's section 5.1 machine is the library default, and the
    // shape file cannot drift from it.
    MachineShape dflt;
    dflt.name = "paper-default";
    dflt.multiscalar = true;
    EXPECT_EQ(config::shapeToJson(dflt).dump(),
              config::shapeToJson(config::resolveShape("paper-default"))
                  .dump());

    MachineShape scalar;
    scalar.name = "scalar-1w";
    scalar.multiscalar = false;
    EXPECT_EQ(config::shapeToJson(scalar).dump(),
              config::shapeToJson(config::resolveShape("scalar-1w"))
                  .dump());
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
    expectParseError("{\"pu\": {\"issue_width\": 17}}",
                     "pu.issue_width", "must be in [1, 16]");
    expectParseError("{\"units\": -1}", "units", "non-negative");
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
    ASSERT_TRUE(shape.ms.l2.has_value());
    EXPECT_EQ(shape.ms.l2->sizeBytes, 65536u);
    EXPECT_EQ(shape.ms.l2->assoc, 4u);
    EXPECT_EQ(shape.ms.l2->hitLatency, 9u);
    EXPECT_EQ(shape.ms.l2->numBanks, 2u);
    EXPECT_EQ(shape.ms.l2->mshrsPerBank, 3u);
    EXPECT_EQ(shape.ms.l2->inclusion, L2Inclusion::kExclusive);

    // Canonical serialization round-trips both forms, and the
    // L2-less canonical dump carries an explicit "l2": null.
    const MachineShape again =
        config::parseShape(config::shapeToJson(shape).dump());
    EXPECT_TRUE(config::shapeEquals(shape, again));
    EXPECT_NE(config::shapeToJson(config::parseShape("{}"))
                  .dump()
                  .find("\"l2\":null"),
              std::string::npos);

    // The scalar baseline takes the same block.
    const MachineShape sc = config::parseShape(
        "{\"multiscalar\": false, \"l2\": {\"size_bytes\": 131072}}");
    ASSERT_TRUE(sc.scalar.l2.has_value());
    EXPECT_EQ(sc.scalar.l2->sizeBytes, 131072u);
    EXPECT_TRUE(config::shapeEquals(
        sc, config::parseShape(config::shapeToJson(sc).dump())));
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
