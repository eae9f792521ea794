/**
 * @file
 * msim benchmark driver: runs one benchmark workload for a fixed
 * host-time budget and prints one JSON result line.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--spans PATH]
 *
 * Run it from the repository root: machine shapes are read from
 * shapes/ and perfbench/shapes/.
 *
 * A workload is a list of programs and a list of machine shapes, and
 * its cells are every (program, shape) pair. The programs are msim's
 * own registry sources; their input data is generated here from the
 * seed with the registry's sizes and value distributions, so the
 * simulator sees fresh data while the amount of simulated work stays
 * the same. The expected output and the committed instruction count
 * of every binary come from the sequential reference interpreter.
 *
 * Set-up (input generation, assembly, reference runs, shape loading)
 * runs kSetupReps times, spread over the run, and the median is
 * reported; each repetition is the fastest of kSetupTries tries.
 * After the first set-up, one untimed round over all cells warms up
 * the host and records each cell's simulated statistics; the cells
 * then run in turn until the budget is spent. A round is one pass
 * over all cells, timed as the sum of each cell's fastest run. Every
 * cell run must match the reference output and instruction count and
 * repeat the warm-up round's cycle count exactly.
 *
 * With --trace 0 the result holds the end-to-end metrics. With
 * --trace 1 it holds the per-layer metrics instead, and the driver
 * records a span around every call into a layer (and writes them to
 * --spans as Chrome trace-event JSON when given).
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "config/machine_shape.hh"
#include "sim/compiled_workload.hh"
#include "sim/reference.hh"
#include "sim/runner.hh"
#include "trace/cycle_accounting.hh"
#include "workloads/workload.hh"

namespace {

using namespace msim;
using Clock = std::chrono::steady_clock;
using Init = std::function<void(MainMemory &, const Program &)>;

constexpr size_t kSetupReps = 15;
constexpr int kSetupTries = 3;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Seeded inputs. Each mirrors the size and value distribution of the
// registry workload whose source it feeds (src/workloads/<name>.cc).
// ---------------------------------------------------------------------

Addr
symbolOf(const Program &prog, const char *name)
{
    const auto addr = prog.symbol(name);
    fatalIf(!addr, "benchmark input: program has no symbol ", name);
    return *addr;
}

void
writeBytes(MainMemory &mem, Addr base, const std::vector<std::uint8_t> &v)
{
    mem.writeBytes(base, v.data(), v.size());
}

void
writeWords(MainMemory &mem, Addr base, const std::vector<std::uint32_t> &v)
{
    for (size_t i = 0; i < v.size(); ++i)
        mem.write(base + Addr(4 * i), v[i], 4);
}

/** Words of 1-9 letters separated by spaces and newlines. */
Init
wcInput(Rng &rng)
{
    const unsigned nbytes = 256 * 96;
    std::vector<std::uint8_t> text(nbytes, ' ');
    size_t i = 0;
    while (i < nbytes) {
        const unsigned len = 1 + unsigned(rng.below(9));
        for (unsigned k = 0; k < len && i < nbytes; ++k)
            text[i++] = std::uint8_t('a' + rng.below(26));
        if (i < nbytes)
            text[i++] = rng.below(8) == 0 ? '\n' : ' ';
    }
    return [text, nbytes](MainMemory &mem, const Program &prog) {
        mem.write(symbolOf(prog, "NBYTES"), nbytes, 4);
        writeBytes(mem, symbolOf(prog, "TEXT"), text);
    };
}

/** Text over a six-letter alphabet, so pair matches occur. */
Init
compressInput(Rng &rng)
{
    const unsigned nbytes = 6000;
    std::vector<std::uint8_t> text(nbytes);
    for (auto &c : text)
        c = std::uint8_t('a' + rng.below(6));
    return [text, nbytes](MainMemory &mem, const Program &prog) {
        mem.write(symbolOf(prog, "NBYTES"), nbytes, 4);
        writeBytes(mem, symbolOf(prog, "INPUT"), text);
    };
}

/** A 36x36 grid of doubles k/101, relaxed for six sweeps. */
Init
tomcatvInput(Rng &rng)
{
    constexpr unsigned kN = 36;
    std::vector<std::uint64_t> grid(kN * kN);
    for (auto &bits : grid) {
        const double v = double(rng.below(101)) / 101.0;
        std::memcpy(&bits, &v, sizeof(v));
    }
    return [grid](MainMemory &mem, const Program &prog) {
        mem.write(symbolOf(prog, "NSWEEPS"), 6, 4);
        const Addr base = symbolOf(prog, "GRIDA");
        for (size_t i = 0; i < grid.size(); ++i)
            mem.write(base + Addr(8 * i), grid[i], 8);
    };
}

/** 4096 updates at random words of an 8192-word table. */
Init
gupsInput(Rng &rng)
{
    std::vector<std::uint32_t> table(8192), idx(4096);
    for (auto &t : table)
        t = std::uint32_t(rng.next());
    for (auto &i : idx)
        i = std::uint32_t(rng.below(table.size())) * 4;
    return [table, idx](MainMemory &mem, const Program &prog) {
        mem.write(symbolOf(prog, "NUPD"), idx.size(), 4);
        writeWords(mem, symbolOf(prog, "TABLE"), table);
        writeWords(mem, symbolOf(prog, "IDX"), idx);
    };
}

/** 192 chains of 64 steps over a single random cycle of 12288 nodes. */
Init
chaseInput(Rng &rng)
{
    const unsigned nodes = 12288;
    std::vector<std::uint32_t> next(nodes), seeds(192);
    for (unsigned i = 0; i < nodes; ++i)
        next[i] = i;
    for (unsigned i = nodes - 1; i > 0; --i) // Sattolo: one cycle
        std::swap(next[i], next[rng.below(i)]);
    for (auto &s : seeds)
        s = std::uint32_t(rng.below(nodes));
    return [next, seeds](MainMemory &mem, const Program &prog) {
        const Addr table = symbolOf(prog, "TABLE");
        for (size_t i = 0; i < next.size(); ++i) {
            mem.write(table + Addr(8 * i), table + Addr(8 * next[i]), 4);
            mem.write(table + Addr(8 * i) + 4,
                      std::uint32_t(i) * 2654435761u, 4);
        }
        const Addr sd = symbolOf(prog, "SEEDS");
        for (size_t i = 0; i < seeds.size(); ++i)
            mem.write(sd + Addr(4 * i), table + Addr(8 * seeds[i]), 4);
        mem.write(symbolOf(prog, "NSEEDS"), seeds.size(), 4);
    };
}

/** Two 6144-word random source streams. */
Init
triadInput(Rng &rng)
{
    std::vector<std::uint32_t> b(6144), c(6144);
    for (size_t i = 0; i < b.size(); ++i) {
        b[i] = std::uint32_t(rng.next());
        c[i] = std::uint32_t(rng.next());
    }
    return [b, c](MainMemory &mem, const Program &prog) {
        mem.write(symbolOf(prog, "NWORDS"), b.size(), 4);
        writeWords(mem, symbolOf(prog, "BUFB"), b);
        writeWords(mem, symbolOf(prog, "BUFC"), c);
    };
}

struct ProgramDef
{
    const char *name;
    Init (*input)(Rng &);
};

const ProgramDef kPrograms[] = {
    {"wc", wcInput},
    {"compress", compressInput},
    {"tomcatv", tomcatvInput},
    {"gups", gupsInput},
    {"pointer_chase", chaseInput},
    {"stream_triad", triadInput},
};

// ---------------------------------------------------------------------
// Workloads: which programs run on which machine shapes.
// ---------------------------------------------------------------------

struct WorkloadDef
{
    const char *name;
    std::vector<std::string> programs;
    /** Shape files, relative to the repository root. */
    std::vector<std::string> shapes;
};

std::vector<std::string>
paperShapes()
{
    std::vector<std::string> out;
    for (const char *ooo : {"", "-ooo"})
        for (const char *m : {"scalar", "ms4", "ms8"})
            for (const char *w : {"1w", "2w"})
                out.push_back(std::string("shapes/") + m + "-" + w + ooo +
                              ".json");
    return out;
}

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        // Compute-bound programs on the paper's default machine: almost
        // every cycle has work on some unit, so the per-cycle cost of
        // the processing units, ring and sequencer dominates host time.
        {"ms-busy",
         {"wc", "compress", "tomcatv"},
         {"shapes/paper-default.json"}},
        // Cache-stress programs behind a slow bus (100-cycle first
        // beat), with and without a shared L2: most cycles wait on
        // memory, which the quiescence fast-forward skips.
        {"mem-stall",
         {"gups", "pointer_chase", "stream_triad"},
         {"perfbench/shapes/ms4-slowmem.json",
          "perfbench/shapes/ms4-slowmem-l2.json"}},
        // The Tables 3/4 grid: scalar, 4- and 8-unit machines, 1- and
        // 2-way, in-order and out-of-order, over all six programs.
        {"paper-grid",
         {"wc", "compress", "tomcatv", "gups", "pointer_chase",
          "stream_triad"},
         paperShapes()},
    };
    return defs;
}

// ---------------------------------------------------------------------
// Spans: one per call into a layer, kept in memory.
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = none
    std::uint64_t request = 0; //!< program (set-up) or cell (runs)
    double beginUs = 0;
    double endUs = 0;
};

class Spans
{
  public:
    explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

    /** Open a span; returns its id (0 when off). */
    std::uint64_t
    open(std::string name, std::uint64_t parent, std::uint64_t request)
    {
        if (!on_)
            return 0;
        Span s;
        s.name = std::move(name);
        s.id = spans_.size() + 1;
        s.parent = parent;
        s.request = request;
        s.beginUs = nowUs();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    void
    close(std::uint64_t id)
    {
        if (id != 0)
            spans_[id - 1].endUs = nowUs();
    }

    /** Total duration (ms) of spans named @p name under @p parent. */
    double
    childMs(std::uint64_t parent, const std::string &name) const
    {
        double us = 0;
        for (const Span &s : spans_)
            if (s.parent == parent && s.name == name)
                us += s.endUs - s.beginUs;
        return us / 1000.0;
    }

    void
    writeChrome(const std::string &path) const
    {
        std::ofstream os(path);
        fatalIf(!os, "cannot write spans to ", path);
        os << "{\"traceEvents\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                          "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                          ",\"request\":%" PRIu64 "}}",
                          i ? "," : "", s.name.c_str(), s.beginUs,
                          s.endUs - s.beginUs, s.id, s.parent,
                          s.request);
            os << buf;
        }
        os << "]}\n";
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------

struct Cell
{
    std::string name; //!< program/shape
    std::shared_ptr<const CompiledWorkload> compiled;
    RunSpec spec;
    std::uint64_t refInstructions = 0;
};

std::uint64_t
programSeed(std::uint64_t seed, const std::string &program)
{
    std::uint64_t h = 0xcbf29ce484222325ull ^ seed;
    for (char c : program)
        h = (h ^ std::uint8_t(c)) * 0x100000001b3ull;
    return h;
}

const ProgramDef &
programDef(const std::string &name)
{
    for (const ProgramDef &p : kPrograms)
        if (name == p.name)
            return p;
    fatal("benchmark: unknown program ", name);
}

std::string
shapeName(const std::string &path)
{
    const size_t slash = path.rfind('/');
    const std::string file =
        slash == std::string::npos ? path : path.substr(slash + 1);
    return file.substr(0, file.rfind(".json"));
}

/**
 * Build every cell of @p wl: generate the seeded inputs, assemble
 * each program for the machine kinds the shapes need, run the
 * reference interpreter on each binary, and load the shapes.
 */
std::vector<Cell>
setUp(const WorkloadDef &wl, std::uint64_t seed, Spans &spans,
      std::uint64_t root)
{
    std::vector<RunSpec> specs;
    {
        const std::uint64_t span = spans.open("shape", root, 0);
        for (const std::string &path : wl.shapes)
            specs.push_back(
                config::toRunSpec(config::loadShapeFile(path)));
        spans.close(span);
    }

    std::vector<Cell> cells;
    for (size_t p = 0; p < wl.programs.size(); ++p) {
        const std::string &name = wl.programs[p];
        const std::uint64_t request = p + 1;

        std::uint64_t span = spans.open("gen", root, request);
        workloads::Workload w = workloads::get(name);
        Rng rng(programSeed(seed, name));
        w.init = programDef(name).input(rng);
        w.expected.clear();
        spans.close(span);

        std::optional<std::string> expected;
        for (bool ms : {false, true}) {
            const bool used =
                std::any_of(specs.begin(), specs.end(),
                            [ms](const RunSpec &s) {
                                return s.multiscalar == ms;
                            });
            if (!used)
                continue;

            span = spans.open("assemble", root, request);
            auto compiled = compileWorkload(w, ms);
            spans.close(span);

            span = spans.open("reference", root, request);
            const ReferenceResult ref =
                referenceRun(compiled->program, w.init);
            spans.close(span);
            fatalIf(!ref.exited, "benchmark: reference run of ", name,
                    " did not exit");
            fatalIf(expected && *expected != ref.output, "benchmark: ",
                    name, " scalar and multiscalar binaries disagree");
            expected = ref.output;

            auto withExpected =
                std::make_shared<CompiledWorkload>(*compiled);
            withExpected->workload.expected = ref.output;
            for (size_t s = 0; s < specs.size(); ++s) {
                if (specs[s].multiscalar != ms)
                    continue;
                Cell cell;
                cell.name = name + "/" + shapeName(wl.shapes[s]);
                cell.compiled = withExpected;
                cell.spec = specs[s];
                cell.refInstructions = ref.instructions;
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

// ---------------------------------------------------------------------
// Running cells.
// ---------------------------------------------------------------------

/** Simulated statistics, summed over cells. */
struct SimTotals
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t squashedInstructions = 0;
    std::uint64_t fastForwardedCycles = 0;
    std::uint64_t tasksRetired = 0;
    std::uint64_t tasksSquashed = 0;
    std::uint64_t predictions = 0;
    std::uint64_t predHits = 0;
    std::uint64_t controlSquashes = 0;
    std::uint64_t memorySquashes = 0;
    std::array<std::uint64_t, kNumCycleCats> unitCycles{};

    void
    add(const RunResult &r)
    {
        cycles += r.cycles;
        instructions += r.instructions;
        squashedInstructions += r.squashedInstructions;
        fastForwardedCycles += r.fastForwardedCycles;
        tasksRetired += r.tasksRetired;
        tasksSquashed += r.tasksSquashed;
        predictions += r.taskPredictions;
        predHits += r.taskPredHits;
        controlSquashes += r.controlSquashes;
        memorySquashes += r.memorySquashes;
        for (size_t c = 0; c < kNumCycleCats; ++c)
            unitCycles[c] += r.accounting.total[c];
    }
};

/**
 * Run one cell and check it. Returns the result, or nothing (with a
 * message on stderr) when the run failed or broke a check. @p cycles
 * is the cell's warm-up cycle count (0 during warm-up).
 */
std::optional<RunResult>
runCell(const Cell &cell, Cycle cycles)
{
    try {
        RunResult r = runCompiled(*cell.compiled, cell.spec);
        const char *broken = nullptr;
        if (r.instructions != cell.refInstructions)
            broken = "committed instructions differ from the reference";
        else if (r.accounting.sum() !=
                 std::uint64_t(r.cycles) * r.accounting.numUnits)
            broken = "cycle accounting does not cover cycles x units";
        else if (cycles != 0 && r.cycles != cycles)
            broken = "cycle count differs from the warm-up run";
        if (!broken)
            return r;
        std::fprintf(stderr, "%s: %s\n", cell.name.c_str(), broken);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", cell.name.c_str(), e.what());
    }
    return std::nullopt;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0 : 100.0 * double(part) / double(whole);
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Prints the result line; a value left undefined by failures is 0. */
void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                    metrics[i].unit);
    std::printf("}}\n");
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string spansPath;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
            haveSeed = true;
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
        } else if (key == "--trace") {
            fatalIf(val != "0" && val != "1", "--trace takes 0 or 1");
            a.trace = val == "1";
            haveTrace = true;
        } else if (key == "--spans") {
            a.spansPath = val;
        } else {
            fatal("unknown argument ", key);
        }
    }
    fatalIf(argc % 2 != 1 || a.workload.empty() || !haveSeed ||
                !haveTrace || !(a.seconds > 0),
            "usage: perfbench_driver --workload NAME --seed N "
            "--seconds S --trace 0|1 [--spans PATH]");
    return a;
}

int
run(const Args &args)
{
    const WorkloadDef *wl = nullptr;
    for (const WorkloadDef &d : workloadDefs())
        if (args.workload == d.name)
            wl = &d;
    fatalIf(!wl, "unknown workload ", args.workload);

    Spans spans(args.trace);

    // Set-up runs once before the cells and then again at even
    // intervals through the timed runs, so that a burst of
    // interference from other work on the host cannot skew its median.
    // Like a cell, each repetition is timed by the fastest of a few
    // back-to-back tries.
    std::vector<double> setupMs;
    std::vector<std::uint64_t> setupSpans;
    const auto setUpOnce = [&] {
        std::vector<Cell> cells;
        double best = std::numeric_limits<double>::infinity();
        for (int t = 0; t < kSetupTries; ++t) {
            const std::uint64_t span = spans.open("setup", 0, 0);
            const auto t0 = Clock::now();
            cells = setUp(*wl, args.seed, spans, span);
            best = std::min(best, msBetween(t0, Clock::now()));
            spans.close(span);
            setupSpans.push_back(span);
        }
        setupMs.push_back(best);
        return cells;
    };
    const std::vector<Cell> cells = setUpOnce();

    // Warm-up round: records each cell's simulated statistics.
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::optional<RunResult>> warm;
    SimTotals sim; //!< one round, from the warm-up
    for (const Cell &cell : cells) {
        warm.push_back(runCell(cell, 0));
        ++attempted;
        if (warm.back())
            sim.add(*warm.back());
        else
            ++failed;
    }

    // Timed runs: the cells in turn until the budget is spent and each
    // has run at least once. Interference from other work on the host
    // only ever slows a run down, so a cell is timed by its fastest run.
    std::vector<double> bestMs(cells.size(),
                               std::numeric_limits<double>::infinity());
    const double budgetMs = args.seconds * 1e3;
    const auto start = Clock::now();
    for (size_t i = 0;; ++i) {
        const double elapsed = msBetween(start, Clock::now());
        if (i >= cells.size() && elapsed >= budgetMs &&
            setupMs.size() >= kSetupReps)
            break;
        if (setupMs.size() < kSetupReps &&
            elapsed * kSetupReps >= budgetMs * double(setupMs.size()))
            setUpOnce();
        const size_t c = i % cells.size();
        const std::uint64_t span = spans.open("simulate", 0, c + 1);
        const auto t0 = Clock::now();
        const auto r = runCell(cells[c], warm[c] ? warm[c]->cycles : 0);
        const double ms = msBetween(t0, Clock::now());
        spans.close(span);
        ++attempted;
        if (r)
            bestMs[c] = std::min(bestMs[c], ms);
        else
            ++failed;
    }
    double roundMs = 0;
    for (double ms : bestMs)
        roundMs += ms;

    std::vector<Metric> m;
    if (!args.trace) {
        m.push_back({"round_ms", roundMs, "ms"});
        m.push_back({"sim_mcycles_per_s",
                     double(sim.cycles) / (roundMs * 1e3), "Mcycles/s"});
        m.push_back({"setup_s", median(setupMs) / 1000.0, "s"});
    } else {
        // Host time per layer: median over set-up repetitions.
        for (const char *layer : {"gen", "assemble", "reference",
                                  "shape"}) {
            std::vector<double> v;
            for (std::uint64_t s : setupSpans)
                v.push_back(spans.childMs(s, layer));
            m.push_back({std::string("setup_") + layer + "_ms",
                         median(v), "ms"});
        }
        m.push_back({"sim_ns_per_cycle", roundMs * 1e6 / double(sim.cycles),
                     "ns"});
        m.push_back({"sim_ns_per_inst",
                     roundMs * 1e6 / double(sim.instructions), "ns"});
        m.push_back({"sim_cycles", double(sim.cycles), "count"});
        m.push_back({"sim_instructions", double(sim.instructions),
                     "count"});
        m.push_back({"fast_forward_pct",
                     pct(sim.fastForwardedCycles, sim.cycles), "%"});
        m.push_back({"task_useful_pct",
                     pct(sim.tasksRetired,
                         sim.tasksRetired + sim.tasksSquashed),
                     "%"});
        m.push_back({"squashed_instructions",
                     double(sim.squashedInstructions), "count"});
        m.push_back({"control_squashes", double(sim.controlSquashes),
                     "count"});
        m.push_back({"memory_squashes", double(sim.memorySquashes),
                     "count"});
        m.push_back({"task_pred_hit_pct", pct(sim.predHits, sim.predictions),
                     "%"});
        std::uint64_t unitCycles = 0;
        for (std::uint64_t v : sim.unitCycles)
            unitCycles += v;
        for (size_t c = 0; c < kNumCycleCats; ++c)
            m.push_back({std::string("unit_") +
                             cycleCatName(CycleCat(c)) + "_pct",
                         pct(sim.unitCycles[c], unitCycles), "%"});
        if (!args.spansPath.empty())
            spans.writeChrome(args.spansPath);
    }
    printResult(failed == 0, attempted, failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
}
