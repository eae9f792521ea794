/**
 * @file
 * Tests for the experiment engine (src/exp) and the re-entrant run
 * path (sim/compiled_workload.hh): determinism under parallelism,
 * single-assembly memoization, per-cell failure capture, result
 * ordering, and the JSON report.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/scheduler.hh"
#include "sim/compiled_workload.hh"
#include "sim/runner.hh"

namespace msim {
namespace {

exp::Experiment
smallExperiment()
{
    exp::Experiment e("test");
    RunSpec scalar;
    scalar.multiscalar = false;
    RunSpec ms4;
    ms4.ms.numUnits = 4;
    RunSpec ms8;
    ms8.ms.numUnits = 8;
    for (const char *name : {"example", "wc", "cmp"}) {
        e.add(std::string(name) + "/scalar", name, scalar);
        e.add(std::string(name) + "/4u", name, ms4);
        e.add(std::string(name) + "/8u", name, ms8);
    }
    return e;
}

/** Everything the paper reports must be bit-identical. */
void
expectSameRunResult(const RunResult &a, const RunResult &b,
                    const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.squashedInstructions, b.squashedInstructions) << what;
    EXPECT_EQ(a.output, b.output) << what;
    EXPECT_EQ(a.tasksRetired, b.tasksRetired) << what;
    EXPECT_EQ(a.tasksSquashed, b.tasksSquashed) << what;
    EXPECT_EQ(a.taskPredictions, b.taskPredictions) << what;
    EXPECT_EQ(a.taskPredHits, b.taskPredHits) << what;
    EXPECT_EQ(a.controlSquashes, b.controlSquashes) << what;
    EXPECT_EQ(a.memorySquashes, b.memorySquashes) << what;
    EXPECT_EQ(a.arbFullSquashes, b.arbFullSquashes) << what;
    ASSERT_EQ(a.accounting.numUnits, b.accounting.numUnits) << what;
    for (size_t c = 0; c < kNumCycleCats; ++c)
        EXPECT_EQ(a.accounting[CycleCat(c)], b.accounting[CycleCat(c)])
            << what << " category " << cycleCatName(CycleCat(c));
}

TEST(SweepScheduler, ResultsInRegistrationOrder)
{
    const exp::Experiment e = smallExperiment();
    exp::SweepScheduler sched(4);
    const exp::SweepResult r = sched.run(e);
    ASSERT_EQ(r.cells.size(), e.size());
    for (size_t i = 0; i < e.size(); ++i)
        EXPECT_EQ(r.cells[i].name, e.cells()[i].name);
}

TEST(SweepScheduler, DeterministicAcrossJobCounts)
{
    const exp::Experiment e = smallExperiment();
    exp::SweepScheduler serial(1);
    const exp::SweepResult r1 = serial.run(e);
    ASSERT_EQ(r1.failures(), 0u);
    for (unsigned jobs : {2u, 4u, 8u}) {
        exp::SweepScheduler parallel(jobs);
        const exp::SweepResult rn = parallel.run(e);
        ASSERT_EQ(rn.cells.size(), r1.cells.size());
        for (size_t i = 0; i < r1.cells.size(); ++i) {
            EXPECT_EQ(rn.cells[i].name, r1.cells[i].name);
            ASSERT_TRUE(rn.cells[i].ok) << rn.cells[i].error;
            expectSameRunResult(rn.cells[i].result,
                                r1.cells[i].result,
                                rn.cells[i].name + " with jobs=" +
                                    std::to_string(jobs));
        }
    }
}

TEST(SweepScheduler, AssemblesEachCompileKeyExactlyOnce)
{
    const exp::Experiment e = smallExperiment();
    // 3 workloads x {scalar, multiscalar}: units don't change the
    // binary, so the 9 cells share 6 compile keys.
    EXPECT_EQ(e.uniqueCompileKeys(), 6u);
    exp::SweepScheduler sched(4);
    const exp::SweepResult r = sched.run(e);
    EXPECT_EQ(r.cacheMisses, 6u);
    EXPECT_EQ(r.cacheHits, 3u);
    EXPECT_EQ(r.cacheHits + r.cacheMisses, e.size());
}

TEST(SweepScheduler, CapturesCellFailuresAndKeepsReportRows)
{
    exp::Experiment e("failing");
    RunSpec ok;
    ok.ms.numUnits = 4;
    e.add("good", "example", ok);
    RunSpec timeout = ok;
    timeout.maxCycles = 10; // cannot finish: forced FatalError
    e.add("bad", "example", timeout);
    e.add("good2", "wc", ok);

    exp::SweepScheduler sched(2);
    const exp::SweepResult r = sched.run(e);
    EXPECT_EQ(r.failures(), 1u);
    EXPECT_TRUE(r.cell("good").ok);
    EXPECT_TRUE(r.cell("good2").ok);
    const exp::CellResult &bad = r.cell("bad");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("exhausted its cycle budget"),
              std::string::npos)
        << bad.error;
    EXPECT_NE(bad.error.find("maxCycles=10"), std::string::npos)
        << bad.error;
    EXPECT_GE(bad.wallSeconds, 0.0);
    // result() refuses failed cells; cell() serves the row.
    EXPECT_THROW(r.result("bad"), FatalError);
    EXPECT_NO_THROW(r.result("good"));

    // The JSON report still emits a well-formed row for the failure.
    std::ostringstream os;
    exp::writeJsonReport(os, r);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"msim-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"bad\""), std::string::npos);
    EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(json.find("exhausted its cycle budget"),
              std::string::npos);
    EXPECT_NE(json.find("\"cells_failed\": 1"), std::string::npos);
    // No raw control characters may survive escaping.
    for (char c : json)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);

    // The whole report parses, and every row reads back its cell: the
    // failure's error string comes back unchanged.
    const json::Value doc = json::Value::parse(json);
    EXPECT_EQ(doc.find("schema")->asString(), "msim-sweep-v1");
    EXPECT_EQ(doc.find("experiment")->asString(), "failing");
    EXPECT_EQ(doc.find("cells_failed")->asInt(), 1);
    const json::Value *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->items().size(), 3u);
    for (const json::Value &row : cells->items()) {
        const exp::CellResult &c = r.cell(row.find("name")->asString());
        EXPECT_EQ(row.find("workload")->asString(), c.workload);
        EXPECT_EQ(row.find("ok")->asBool(), c.ok);
        if (c.ok)
            EXPECT_TRUE(row.find("error")->isNull());
        else
            EXPECT_EQ(row.find("error")->asString(), c.error);
    }
}

TEST(SweepScheduler, DefaultJobsHonorsEnvironment)
{
    ASSERT_EQ(setenv("MSIM_JOBS", "3", 1), 0);
    EXPECT_EQ(exp::SweepScheduler::defaultJobs(), 3u);
    // A malformed or out-of-range value is a user error naming the
    // variable, never silently ignored or wrapped around.
    for (const char *bad : {"garbage", "-1", "0", "2x", "", "99999999999"}) {
        ASSERT_EQ(setenv("MSIM_JOBS", bad, 1), 0);
        try {
            exp::SweepScheduler::defaultJobs();
            ADD_FAILURE() << "MSIM_JOBS='" << bad << "' was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("MSIM_JOBS"),
                      std::string::npos) << e.what();
        }
    }
    ASSERT_EQ(unsetenv("MSIM_JOBS"), 0);
    EXPECT_GE(exp::SweepScheduler::defaultJobs(), 1u);
}

TEST(Experiment, RejectsDuplicateCellNames)
{
    exp::Experiment e("dup");
    RunSpec spec;
    e.add("cell", "wc", spec);
    EXPECT_THROW(e.add("cell", "wc", spec), FatalError);
}

TEST(ProgramCache, MemoizesAndCounts)
{
    ProgramCache cache;
    auto a = cache.get("wc", true);
    auto b = cache.get("wc", true);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    // Different mode/defines/scale are distinct keys.
    auto c = cache.get("wc", false);
    auto d = cache.get("wc", true, {"EARLYV"});
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(a.get(), d.get());
    EXPECT_EQ(cache.misses(), 3u);
    cache.clear();
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(ContentHash, DistinguishesCompilePoints)
{
    const workloads::Workload w = workloads::get("example", 1);
    const std::uint64_t ms = workloadContentHash(w, true, {}, 1);
    EXPECT_EQ(ms, workloadContentHash(w, true, {}, 1));
    EXPECT_NE(ms, workloadContentHash(w, false, {}, 1));
    EXPECT_NE(ms, workloadContentHash(w, true, {"OPTMASK"}, 1));
    EXPECT_NE(ms, workloadContentHash(w, true, {}, 2));
}

TEST(ProgramCacheContent, UnknownWorkloadThrows)
{
    ProgramCache cache;
    EXPECT_THROW(cache.get("no-such-workload", true), FatalError);
}

TEST(CompiledWorkload, ConcurrentSessionsOverOneProgram)
{
    auto compiled = compileWorkload("wc", true);
    RunSpec spec;
    spec.ms.numUnits = 8;
    const RunResult reference = runCompiled(*compiled, spec);

    constexpr unsigned kThreads = 8;
    std::vector<RunResult> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            results[t] = runCompiled(*compiled, spec);
        });
    }
    for (auto &t : threads)
        t.join();
    for (unsigned t = 0; t < kThreads; ++t)
        expectSameRunResult(results[t], reference,
                            "thread " + std::to_string(t));
}

TEST(CompiledWorkload, RunWorkloadMatchesRunCompiled)
{
    workloads::Workload w = workloads::get("example");
    RunSpec spec;
    spec.ms.numUnits = 4;
    const RunResult direct = runWorkload(w, spec);
    auto compiled = compileWorkload(w, true);
    const RunResult via = runCompiled(*compiled, spec);
    expectSameRunResult(direct, via, "runWorkload vs runCompiled");
}

TEST(CompiledWorkload, RejectsModeAndDefineMismatch)
{
    auto compiled = compileWorkload("wc", true);
    RunSpec scalar;
    scalar.multiscalar = false;
    EXPECT_THROW(runCompiled(*compiled, scalar), FatalError);
    RunSpec defines;
    defines.defines = {"EARLYV"};
    EXPECT_THROW(runCompiled(*compiled, defines), FatalError);
}

} // namespace
} // namespace msim
