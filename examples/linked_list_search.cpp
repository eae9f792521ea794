/**
 * @file
 * The paper's running example (Figure 3) end to end: a symbol search
 * over a linked list, where one task is one complete search. Runs the
 * scalar baseline and 2/4/8-unit multiscalar machines and reports the
 * section 3 cycle-distribution analysis — including the memory order
 * squashes that occur when two concurrent searches process the same
 * symbol (section 2.3's scenario).
 */

#include <cstdio>

#include "sim/runner.hh"
#include "workloads/workload.hh"

int
main()
{
    using namespace msim;

    workloads::Workload w = workloads::get("example");
    std::printf("workload: %s\n  %s\n\n", w.name.c_str(),
                w.description.c_str());

    RunSpec scalar_spec;
    scalar_spec.multiscalar = false;
    RunResult sr = runWorkload(w, scalar_spec);
    std::printf("%-8s %10s %8s %9s %7s %8s %8s\n", "machine",
                "cycles", "speedup", "pred", "ctlSq", "memSq",
                "useful%");
    std::printf("%-8s %10llu %8s %9s %7s %8s %8s\n", "scalar",
                (unsigned long long)sr.cycles, "1.00", "-", "-", "-",
                "-");

    for (unsigned units : {2u, 4u, 8u}) {
        RunSpec spec;
        spec.multiscalar = true;
        spec.ms.numUnits = units;
        RunResult r = runWorkload(w, spec);
        const double total = double(r.cycles) * units;
        std::printf("%-8u %10llu %8.2f %8.1f%% %7llu %8llu %7.1f%%\n",
                    units, (unsigned long long)r.cycles,
                    double(sr.cycles) / double(r.cycles),
                    100.0 * r.predAccuracy(),
                    (unsigned long long)r.controlSquashes,
                    (unsigned long long)r.memorySquashes,
                    100.0 * double(r.accounting[CycleCat::kBusy]) / total);
    }

    // Detailed section 3 breakdown at 8 units.
    RunSpec spec;
    spec.multiscalar = true;
    spec.ms.numUnits = 8;
    RunResult r = runWorkload(w, spec);
    const double total = double(r.cycles) * 8;
    auto pct = [&](std::uint64_t v) {
        return 100.0 * double(v) / total;
    };
    const CycleAccountingResult &a = r.accounting;
    std::printf("\ncycle distribution at 8 units (section 3):\n");
    std::printf("  useful computation    %5.1f%%\n",
                pct(a[CycleCat::kBusy]));
    std::printf("  non-useful (squashed) %5.1f%%\n",
                pct(a[CycleCat::kSquashed]));
    std::printf("  waiting for preds     %5.1f%%\n",
                pct(a[CycleCat::kRingWait]));
    std::printf("  intra-task waits      %5.1f%%\n",
                pct(a[CycleCat::kMemWait] + a[CycleCat::kIntraWait]));
    std::printf("  fetch stalls          %5.1f%%\n",
                pct(a[CycleCat::kFetchStall]));
    std::printf("  waiting to retire     %5.1f%%\n",
                pct(a[CycleCat::kRetireWait]));
    std::printf("  idle (no task)        %5.1f%%\n",
                pct(a[CycleCat::kIdle]));
    return 0;
}
