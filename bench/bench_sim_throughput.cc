/**
 * @file
 * Simulator throughput: how many simulated instructions and cycles
 * per host second each machine model achieves. This is the one bench
 * where google-benchmark's statistical repetition is meaningful, so
 * cells run with normal iteration counts.
 *
 * Two guards follow the benchmark cells:
 *
 *  - the tracing fast path: runs with tracing disabled are timed
 *    against runs tracing into a null sink, and the binary fails
 *    (exit 1) when the disabled configuration is more than 5%
 *    slower — i.e. when instrumentation stops being free for
 *    non-tracing users;
 *
 *  - sweep scaling: a fixed experiment cell set is executed through
 *    the SweepScheduler serially and with a worker pool, and the
 *    wall-clock ratio is recorded (sweepScaling benchmark counters,
 *    visible in --benchmark_format=json) so the perf trajectory
 *    captures the parallel-sweep speedup alongside raw simulator
 *    throughput;
 *
 *  - fast-forward before/after: every paper workload is run in both
 *    machine modes with the quiescence fast-forward disabled and
 *    enabled. The binary fails (exit 1) when the two runs disagree on
 *    the cycle count — the fast-forward must be cycle-exact — and the
 *    measured simulated-cycles-per-second for both configurations,
 *    plus the speedup, is written to BENCH_sim_throughput.json in the
 *    current directory for the perf trajectory.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"
#include "config/machine_shape.hh"
#include "exp/experiment.hh"
#include "exp/scheduler.hh"
#include "sim/runner.hh"
#include "workloads/workload.hh"

namespace {

using namespace msim;

void
simScalar(benchmark::State &state)
{
    workloads::Workload w = workloads::get("wc");
    const RunSpec spec = config::specForShape("scalar-1w");
    std::uint64_t instrs = 0, cycles = 0;
    for (auto _ : state) {
        RunResult r = runWorkload(w, spec);
        instrs += r.instructions;
        cycles += r.cycles;
    }
    state.counters["sim_instrs_per_s"] = benchmark::Counter(
        double(instrs), benchmark::Counter::kIsRate);
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}

void
simMultiscalar(benchmark::State &state)
{
    workloads::Workload w = workloads::get("wc");
    const RunSpec spec = config::specForShape(
        "units-" + std::to_string(state.range(0)));
    std::uint64_t instrs = 0, cycles = 0;
    for (auto _ : state) {
        RunResult r = runWorkload(w, spec);
        instrs += r.instructions;
        cycles += r.cycles;
    }
    state.counters["sim_instrs_per_s"] = benchmark::Counter(
        double(instrs), benchmark::Counter::kIsRate);
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}

void
simMultiscalarTracedNull(benchmark::State &state)
{
    workloads::Workload w = workloads::get("wc");
    RunSpec spec = config::specForShape(
        "units-" + std::to_string(state.range(0)));
    spec.trace.enabled = true;
    spec.trace.sink = "null";
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        RunResult r = runWorkload(w, spec);
        cycles += r.cycles;
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}

/** The fixed cell set used for the sweep-scaling measurement. */
exp::Experiment
scalingExperiment()
{
    exp::Experiment e("throughput-scaling");
    for (const char *name : {"wc", "cmp", "example"}) {
        e.addShape(std::string("scale/") + name + "/scalar", name,
                   "scalar-1w");
        for (unsigned units : {2u, 4u, 8u})
            e.addShape(std::string("scale/") + name + "/" +
                           std::to_string(units) + "u",
                       name, "units-" + std::to_string(units));
    }
    return e;
}

/**
 * One serial + one parallel execution of the fixed cell set per
 * iteration; the counters record both wall times and their ratio, so
 * the JSON perf record tracks the multi-core sweep speedup.
 */
void
sweepScaling(benchmark::State &state)
{
    const unsigned jobs = unsigned(state.range(0));
    const exp::Experiment e = scalingExperiment();
    double serial_s = 0, parallel_s = 0;
    for (auto _ : state) {
        exp::SweepScheduler serial(1);
        serial_s += serial.run(e).wallSeconds;
        exp::SweepScheduler parallel(jobs);
        parallel_s += parallel.run(e).wallSeconds;
    }
    state.counters["sweep_cells"] = double(e.size());
    state.counters["sweep_jobs"] = double(jobs);
    state.counters["sweep_serial_s"] = serial_s;
    state.counters["sweep_parallel_s"] = parallel_s;
    state.counters["sweep_speedup"] =
        parallel_s > 0 ? serial_s / parallel_s : 0;
}

BENCHMARK(simScalar)->Unit(benchmark::kMillisecond);
BENCHMARK(simMultiscalar)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(simMultiscalarTracedNull)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(sweepScaling)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/** Wall time of one full run of wc under @p spec. */
double
runSeconds(const workloads::Workload &w, const RunSpec &spec)
{
    const auto t0 = std::chrono::steady_clock::now();
    runWorkload(w, spec);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * The fast-path guard: with tracing disabled the simulator must run
 * at least as fast (within 5% noise) as with tracing enabled into a
 * null sink. A regression here means the disabled path started doing
 * per-event work. The two configurations are measured interleaved so
 * slow host-speed drift affects both medians equally.
 */
int
checkDisabledFastPath()
{
    RunSpec off = config::specForShape("ms8-1w");

    RunSpec null_sink = off;
    null_sink.trace.enabled = true;
    null_sink.trace.sink = "null";

    workloads::Workload w = workloads::get("wc");
    constexpr int kReps = 7;
    // Warm up icache/allocator state with one run of each.
    runSeconds(w, off);
    runSeconds(w, null_sink);
    std::vector<double> off_times, null_times;
    for (int i = 0; i < kReps; ++i) {
        off_times.push_back(runSeconds(w, off));
        null_times.push_back(runSeconds(w, null_sink));
    }
    const double t_off = median(off_times);
    const double t_null = median(null_times);

    std::printf("\nTracing fast-path guard (wc, 8 units, median of "
                "%d runs):\n", kReps);
    std::printf("  tracing disabled:     %8.3f ms\n", t_off * 1e3);
    std::printf("  tracing to null sink: %8.3f ms\n", t_null * 1e3);
    std::printf("  ratio disabled/null:  %8.3f (must be <= 1.05)\n",
                t_off / t_null);
    if (t_off > t_null * 1.05) {
        std::fprintf(stderr,
                     "FAIL: tracing-disabled runs are more than 5%% "
                     "slower than null-sink tracing\n");
        return 1;
    }
    std::printf("  OK\n");
    return 0;
}

/**
 * The fast-forward before/after report: wall time of one full run of
 * every workload in both machine modes with MsConfig/ScalarConfig::
 * fastForward off and on. The cycle counts must be identical (the
 * fast-forward is cycle-exact by construction and by the golden-cycle
 * snapshot tests; this guard catches a drift that slipped past both).
 * Writes BENCH_sim_throughput.json with the machine-readable numbers.
 *
 * @return 0 on success, 1 on a cycle mismatch.
 */
int
reportFastForward()
{
    struct Row
    {
        std::string name;
        std::uint64_t cycles = 0;
        std::uint64_t ffCycles = 0;
        double secOff = 0, secOn = 0;
    };
    constexpr int kReps = 3;
    std::vector<Row> rows;
    int rc = 0;

    for (const auto &[name, factory] : workloads::registry()) {
        (void)factory;
        const workloads::Workload w = workloads::get(name);
        // Two machine points per mode: the paper's default memory
        // system, and the long-latency memory of the sensitivity
        // analysis (100-cycle first beat, small caches) where stall
        // spans dominate and the fast-forward should pay off.
        for (int cfg = 0; cfg < 4; ++cfg) {
            const bool multiscalar = cfg & 1;
            const bool slow_mem = cfg & 2;
            // Shapes describe the machine; fast-forward and the
            // slow-memory sensitivity point are runtime toggles on
            // top of the declared base.
            RunSpec off = config::specForShape(
                multiscalar ? "paper-default" : "scalar-1w");
            off.ms.fastForward = false;
            off.scalar.fastForward = false;
            if (slow_mem) {
                off.ms.bus.firstBeatLatency = 100;
                off.scalar.bus.firstBeatLatency = 100;
                off.ms.icache.sizeBytes = 2 * 1024;
                off.scalar.icache.sizeBytes = 2 * 1024;
                off.ms.bankSizeBytes = 1024;
                off.scalar.dcache.sizeBytes = 2 * 1024;
            }
            RunSpec on = off;
            on.ms.fastForward = true;
            on.scalar.fastForward = true;

            Row row;
            row.name = name + (multiscalar ? "/ms4" : "/scalar") +
                       (slow_mem ? "-slowmem" : "");
            const RunResult r_off = runWorkload(w, off);
            const RunResult r_on = runWorkload(w, on);
            row.cycles = r_off.cycles;
            row.ffCycles = r_on.fastForwardedCycles;
            if (r_on.cycles != r_off.cycles) {
                std::fprintf(stderr,
                             "FAIL: %s simulates %llu cycles with "
                             "fast-forward but %llu without\n",
                             row.name.c_str(),
                             (unsigned long long)r_on.cycles,
                             (unsigned long long)r_off.cycles);
                rc = 1;
            }
            std::vector<double> ts_off, ts_on;
            for (int i = 0; i < kReps; ++i) {
                ts_off.push_back(runSeconds(w, off));
                ts_on.push_back(runSeconds(w, on));
            }
            row.secOff = median(ts_off);
            row.secOn = median(ts_on);
            rows.push_back(row);
        }
    }

    std::printf("\nFast-forward before/after (median of %d runs):\n",
                kReps);
    std::printf("  %-18s %12s %14s %14s %8s\n", "workload", "cycles",
                "Mc/s ff=off", "Mc/s ff=on", "speedup");
    double best = 0;
    std::string best_name;
    for (const Row &r : rows) {
        const double cps_off = double(r.cycles) / r.secOff;
        const double cps_on = double(r.cycles) / r.secOn;
        const double speedup = r.secOff / r.secOn;
        if (speedup > best) {
            best = speedup;
            best_name = r.name;
        }
        std::printf("  %-18s %12llu %14.2f %14.2f %7.2fx\n",
                    r.name.c_str(), (unsigned long long)r.cycles,
                    cps_off / 1e6, cps_on / 1e6, speedup);
    }
    std::printf("  best speedup: %.2fx (%s)\n", best,
                best_name.c_str());

    std::FILE *json = std::fopen("BENCH_sim_throughput.json", "w");
    if (!json) {
        std::fprintf(stderr,
                     "FAIL: cannot write BENCH_sim_throughput.json\n");
        return 1;
    }
    std::fprintf(json, "{\n  \"schema\": \"msim-bench-throughput-v1\","
                       "\n  \"reps\": %d,\n  \"workloads\": [\n",
                 kReps);
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            json,
            "    { \"name\": \"%s\", \"cycles\": %llu, "
            "\"fast_forwarded_cycles\": %llu, "
            "\"wall_s_ff_off\": %.6f, \"wall_s_ff_on\": %.6f, "
            "\"sim_cycles_per_s_ff_off\": %.1f, "
            "\"sim_cycles_per_s_ff_on\": %.1f, "
            "\"speedup\": %.4f }%s\n",
            r.name.c_str(), (unsigned long long)r.cycles,
            (unsigned long long)r.ffCycles, r.secOff, r.secOn,
            double(r.cycles) / r.secOff, double(r.cycles) / r.secOn,
            r.secOff / r.secOn, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"best_speedup\": %.4f,\n"
                 "  \"best_speedup_workload\": \"%s\"\n}\n",
                 best, best_name.c_str());
    std::fclose(json);
    std::printf("  wrote BENCH_sim_throughput.json\n");
    return rc;
}

/** Informational serial-vs-parallel summary after the benchmarks. */
void
printSweepScalingSummary()
{
    const exp::Experiment e = scalingExperiment();
    exp::SweepScheduler serial(1);
    const double t1 = serial.run(e).wallSeconds;
    const unsigned jobs = bench::defaultJobs();
    exp::SweepScheduler parallel(jobs);
    const double tn = parallel.run(e).wallSeconds;
    std::printf("\nSweep scaling (%zu cells):\n", e.size());
    std::printf("  serial (1 job):    %8.3f s\n", t1);
    std::printf("  parallel (%u jobs): %8.3f s\n", jobs, tn);
    std::printf("  speedup:           %8.2fx\n",
                tn > 0 ? t1 / tn : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printSweepScalingSummary();
    const int ff_rc = reportFastForward();
    const int fastpath_rc = checkDisabledFastPath();
    return ff_rc != 0 ? ff_rc : fastpath_rc;
}
