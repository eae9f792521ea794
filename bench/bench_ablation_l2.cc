/**
 * @file
 * Ablation: the shared L2 hierarchy. Sweeps the L2 design space —
 * capacity (64 KB / 256 KB / 1 MB), associativity (direct-mapped vs
 * 8-way), non-blocking depth (1 vs 8 MSHRs per bank), and inclusion
 * policy (NINE / inclusive / exclusive) — over the cache-stress
 * workload family, under both the fast (10-cycle first beat) and
 * slow (100-cycle) memory bus. The "off" column is the default
 * L2-less 4-unit machine, so every number is the latency-tolerance
 * benefit the L2 buys at that design point.
 */

#include "bench/suites.hh"

int
main(int argc, char **argv)
{
    using namespace msim::bench;
    const BenchOptions opt = parseArgs(argc, argv);
    Experiment experiment("l2");
    declareL2(experiment, opt.smoke);
    return runAndReport(experiment, opt, [&](const auto &r) {
        reportL2(r, opt.smoke);
    });
}
