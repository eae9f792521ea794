/**
 * @file
 * Shared harness for the benchmark binaries, built on the experiment
 * engine (src/exp).
 *
 * bench_paper runs the paper's whole evaluation (section 5) in one
 * sweep; bench_ablation_l2 runs the L2 study beyond it. A binary
 * declares its cells into an Experiment, the SweepScheduler runs
 * them on a worker pool (--jobs N / MSIM_JOBS), and the report
 * callback renders the paper-style tables from the deterministic
 * SweepResult. Results are identical whatever the job count;
 * --json FILE additionally emits the msim-sweep-v1 machine-readable
 * report.
 *
 * Per-cell failures are captured, not fatal: a failing cell keeps a
 * well-formed row (ok:false + error) in the JSON report and is
 * listed in the run summary; paper tables that need the failed
 * number report the error instead of aborting the whole sweep.
 */

#ifndef MSIM_BENCH_BENCH_COMMON_HH
#define MSIM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/scheduler.hh"

namespace msim::bench {

/** The paper's benchmark order (Tables 2-4). */
inline const std::vector<std::string> kPaperOrder = {
    "compress", "eqntott", "espresso", "gcc", "sc",
    "xlisp", "tomcatv", "cmp", "wc", "example",
};

/** Reduced workload set for CI smoke runs (--smoke). */
inline const std::vector<std::string> kSmokeOrder = {
    "example", "wc", "cmp",
};

/** Command line options shared by every bench binary. */
struct BenchOptions
{
    /** Worker threads (0 = MSIM_JOBS or hardware concurrency). */
    unsigned jobs = 0;
    /** When non-empty, write the msim-sweep-v1 JSON report here. */
    std::string jsonPath;
    /** Run the reduced smoke cell set. */
    bool smoke = false;
};

inline void
printUsage(const char *argv0)
{
    std::printf(
        "usage: %s [--jobs N] [--json FILE] [--smoke]\n"
        "  --jobs N    worker threads (default: $MSIM_JOBS or the\n"
        "              host's hardware concurrency); results are\n"
        "              identical for every N\n"
        "  --json FILE write the msim-sweep-v1 JSON report to FILE\n"
        "  --smoke     reduced cell set (CI smoke)\n",
        argv0);
}

/**
 * Parse a --jobs value by SweepScheduler::parseJobs() rules; anything
 * else ("-1", "2x", "0", "", " 3") prints a message and exits 2.
 */
inline unsigned
parseJobs(const char *text)
{
    const unsigned jobs = exp::SweepScheduler::parseJobs(text);
    if (jobs == 0) {
        std::fprintf(stderr, "--jobs: '%s' is not a positive integer\n",
                     text);
        std::exit(2);
    }
    return jobs;
}

/** SweepScheduler::defaultJobs(); a malformed MSIM_JOBS exits 2. */
inline unsigned
defaultJobs()
{
    try {
        return exp::SweepScheduler::defaultJobs();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

/** Parse the shared flags; exits on bad usage. */
inline BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs" || arg == "-j") {
            opt.jobs = parseJobs(value());
        } else if (arg == "--json") {
            opt.jsonPath = value();
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            printUsage(argv[0]);
            std::exit(2);
        }
    }
    if (opt.jobs == 0)
        opt.jobs = defaultJobs();
    return opt;
}

/**
 * Execute @p experiment and print the run summary (cells, jobs, wall
 * time, assemblies, failures). Also asserts the sweep's memoization
 * invariant: the program cache compiled each distinct (workload,
 * mode, defines, scale) point exactly once.
 */
inline exp::SweepResult
runExperiment(const exp::Experiment &experiment,
              const BenchOptions &opt)
{
    exp::SweepScheduler scheduler(opt.jobs);
    exp::SweepResult sweep = scheduler.run(experiment);

    std::printf("%s: %zu cells on %u job%s in %.2fs "
                "(%llu assemblies, %llu cache hits)\n",
                experiment.name().c_str(), sweep.cells.size(),
                sweep.jobs, sweep.jobs == 1 ? "" : "s",
                sweep.wallSeconds,
                (unsigned long long)sweep.cacheMisses,
                (unsigned long long)sweep.cacheHits);

    // Memoization invariant: one assembly per distinct compile key,
    // one cache lookup per cell.
    panicIf(sweep.cacheMisses != experiment.uniqueCompileKeys(),
            "program cache assembled ", sweep.cacheMisses,
            " times but the experiment has ",
            experiment.uniqueCompileKeys(), " distinct compile keys");
    panicIf(sweep.cacheHits + sweep.cacheMisses != sweep.cells.size(),
            "program cache lookups (", sweep.cacheHits, " + ",
            sweep.cacheMisses, ") != cells (", sweep.cells.size(),
            ")");

    for (const exp::CellResult &c : sweep.cells) {
        if (!c.ok)
            std::fprintf(stderr, "FAILED cell %s (%.2fs): %s\n",
                         c.name.c_str(), c.wallSeconds,
                         c.error.c_str());
    }
    if (!opt.jsonPath.empty()) {
        std::ofstream os(opt.jsonPath);
        fatalIf(!os, "cannot open --json file '", opt.jsonPath, "'");
        exp::writeJsonReport(os, sweep);
        std::printf("wrote JSON report: %s\n", opt.jsonPath.c_str());
    }
    return sweep;
}

/**
 * The rest of a bench main once its cells are declared: run the
 * sweep, then render the paper-style report. Returns non-zero when
 * any cell failed or the report could not be rendered.
 */
inline int
runAndReport(const exp::Experiment &experiment, const BenchOptions &opt,
             const std::function<void(const exp::SweepResult &)> &report)
{
    const exp::SweepResult sweep = runExperiment(experiment, opt);
    try {
        report(sweep);
    } catch (const std::exception &e) {
        // A failed cell makes its table unrenderable; the summary
        // and JSON report above already carry the details.
        std::fprintf(stderr, "report incomplete: %s\n", e.what());
        return 1;
    }
    return sweep.failures() == 0 ? 0 : 1;
}

} // namespace msim::bench

#endif // MSIM_BENCH_BENCH_COMMON_HH
