/**
 * @file
 * The whole evaluation in one command: Tables 2-4, the section 3
 * cycle breakdown, and every ablation, declared into a single
 * experiment and executed by the parallel sweep scheduler. With
 * --json FILE the combined msim-sweep-v1 report covers every cell of
 * the paper's evaluation; --jobs N picks the worker count (results
 * are bit-identical for every N).
 *
 * --smoke shrinks the grid to three fast workloads (example, wc,
 * cmp) and skips the paper-table rendering — CI uses it to exercise
 * the full parallel sweep path on every push in seconds.
 */

#include "bench/suites.hh"

namespace {

using namespace msim;
using namespace msim::bench;

/** The suite's fixed sets restricted to the smoke workloads. */
std::vector<std::string>
intersect(const std::vector<std::string> &set,
          const std::vector<std::string> &allowed)
{
    std::vector<std::string> out;
    for (const std::string &name : set)
        if (std::find(allowed.begin(), allowed.end(), name) !=
            allowed.end())
            out.push_back(name);
    return out;
}

void
declarePaper(exp::Experiment &e, bool smoke)
{
    const std::vector<std::string> &names =
        smoke ? kSmokeOrder : kPaperOrder;
    declareTable2(e, names);
    declareTable34(e, "table3", false, names);
    declareTable34(e, "table4", true, names);
    declareBreakdown(e, names);
    declarePredictor(e, names);
    declareUnits(e, names);
    declareRing(e, smoke ? intersect(kRingBenches, names)
                         : kRingBenches);
    declareArb(e, smoke ? intersect(kArbBenches, names)
                        : kArbBenches);
    declareIntraBp(e, names);
    // The software ablation names fixed (workload, define) cells
    // outside the smoke set; full runs only.
    if (!smoke)
        declareSoftware(e);
}

void
reportPaper(const exp::SweepResult &r, bool smoke)
{
    if (smoke) {
        std::printf("smoke sweep only — paper tables need the full "
                    "workload grid\n");
        return;
    }
    reportTable2(r);
    reportTable34(r, "table3",
                  "Table 3: In-Order Issue Processing Units");
    reportTable34(r, "table4",
                  "Table 4: Out-Of-Order Issue Processing Units");
    reportBreakdown(r);
    reportPredictor(r);
    reportUnits(r);
    reportRing(r);
    reportArb(r);
    reportIntraBp(r);
    reportSoftware(r);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseArgs(argc, argv);
    exp::Experiment experiment(opt.smoke ? "paper-smoke" : "paper");
    declarePaper(experiment, opt.smoke);
    return runAndReport(experiment, opt, [&](const auto &r) {
        reportPaper(r, opt.smoke);
    });
}
