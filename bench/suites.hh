/**
 * @file
 * Cell declarations and paper-style reports for every evaluation
 * suite: Tables 2-4, the section 3 cycle breakdown, and the six
 * ablations, plus the shared-L2 study beyond the paper. Each suite is
 * a (declare, report) pair over the experiment engine; bench_paper
 * runs every paper suite in a single sweep and bench_ablation_l2 runs
 * the L2 suite. Declarations take a workload list so smoke runs can
 * shrink the grid without changing the cell naming scheme.
 *
 * Every machine configuration comes from a shipped declarative shape
 * (the shapes/ directory, resolved through src/config) rather than
 * an inline MsConfig literal, so the grids the benches run are the
 * grids a user can reproduce with Experiment::addShape or
 * config::specForShape on the same preset names. The shape files
 * encode the same configurations the literals used to; the
 * golden-cycle tests and the bench JSON reports are bit-identical
 * across the switch.
 */

#ifndef MSIM_BENCH_SUITES_HH
#define MSIM_BENCH_SUITES_HH

#include <algorithm>

#include "bench/bench_common.hh"
#include "config/machine_shape.hh"
#include "trace/cycle_accounting.hh"

namespace msim::bench {

using exp::Experiment;
using exp::ReportTable;
using exp::SweepResult;

// ---------------------------------------------------------------------
// Table 2: dynamic instruction counts, scalar vs multiscalar.
// ---------------------------------------------------------------------

/**
 * Table 2: the dynamic instruction counts of the scalar and the
 * multiscalar binary of each benchmark. The extra multiscalar
 * instructions "serve to ensure correct execution (such as the use
 * of release instructions) or to enhance performance (such as the
 * creation of local copies of loop induction variables)". Both
 * binaries come from the same source: lines prefixed @ms exist only
 * in the multiscalar assembly.
 */
inline void
declareTable2(Experiment &e,
              const std::vector<std::string> &names = kPaperOrder)
{
    for (const std::string &name : names) {
        e.addShape("table2/" + name + "/scalar", name, "scalar-1w");
        e.addShape("table2/" + name + "/multiscalar", name, "ms4-1w");
    }
}

inline void
reportTable2(const SweepResult &r,
             const std::vector<std::string> &names = kPaperOrder)
{
    ReportTable t("Table 2: Benchmark Instruction Counts");
    t.header({"Program", "Scalar", "Multiscalar", "Increase"});
    for (const std::string &name : names) {
        const auto &sc = r.result("table2/" + name + "/scalar");
        const auto &ms = r.result("table2/" + name + "/multiscalar");
        const double pct = double(ms.instructions) -
                           double(sc.instructions);
        t.row({name, ReportTable::count(sc.instructions),
               ReportTable::count(ms.instructions),
               ReportTable::pct(pct / double(sc.instructions))});
    }
    t.print();
}

// ---------------------------------------------------------------------
// Tables 3 and 4: IPC, 4-/8-unit speedups, prediction accuracy, for
// 1-/2-way units (Table 3 in-order, Table 4 out-of-order).
// ---------------------------------------------------------------------

inline void
declareTable34(Experiment &e, const std::string &table,
               bool out_of_order,
               const std::vector<std::string> &names = kPaperOrder)
{
    const std::string ooo = out_of_order ? "-ooo" : "";
    for (const std::string &name : names) {
        for (unsigned width : {1u, 2u}) {
            const std::string w = std::to_string(width);
            e.addShape(table + "/" + name + "/scalar_" + w + "way",
                       name, "scalar-" + w + "w" + ooo);
            for (unsigned units : {4u, 8u}) {
                e.addShape(table + "/" + name + "/" +
                               std::to_string(units) + "unit_" + w +
                               "way",
                           name,
                           "ms" + std::to_string(units) + "-" + w +
                               "w" + ooo);
            }
        }
    }
}

inline void
reportTable34(const SweepResult &r, const std::string &table,
              const std::string &title,
              const std::vector<std::string> &names = kPaperOrder)
{
    ReportTable t(title);
    t.header({"Program", "1w-IPC", "4U-Spd", "Pred", "8U-Spd", "Pred",
              "2w-IPC", "4U-Spd", "Pred", "8U-Spd", "Pred"});
    for (const std::string &name : names) {
        std::vector<std::string> row = {name};
        for (unsigned width : {1u, 2u}) {
            const auto &sc =
                r.result(table + "/" + name + "/scalar_" +
                         std::to_string(width) + "way");
            row.push_back(ReportTable::num(sc.ipc()));
            for (unsigned units : {4u, 8u}) {
                const auto &ms = r.result(
                    table + "/" + name + "/" + std::to_string(units) +
                    "unit_" + std::to_string(width) + "way");
                row.push_back(ReportTable::num(double(sc.cycles) /
                                               double(ms.cycles)));
                row.push_back(ReportTable::pct(ms.predAccuracy()));
            }
        }
        t.row(std::move(row));
    }
    t.print();
}

// ---------------------------------------------------------------------
// Section 3: distribution of unit cycles (8-unit, 1-way, in-order).
// ---------------------------------------------------------------------

/**
 * Section 3's analysis of the available unit cycles: useful
 * computation, squashed computation, no-computation cycles (waiting
 * for predecessor values over the ring, on memory, on intra-task
 * latency, on fetch or for retirement) and idle cycles. The numbers
 * come from the exact cycle accounting (trace/cycle_accounting.hh),
 * which classifies every unit-cycle exactly once, so each row sums to
 * 100% by construction; reportBreakdown re-checks the sum per
 * workload.
 */
inline void
declareBreakdown(Experiment &e,
                 const std::vector<std::string> &names = kPaperOrder)
{
    for (const std::string &name : names)
        e.addShape("breakdown/" + name, name, "ms8-1w");
}

inline void
reportBreakdown(const SweepResult &r,
                const std::vector<std::string> &names = kPaperOrder)
{
    ReportTable t("Section 3: distribution of unit cycles "
                  "(8-unit, 1-way, in-order; % of all unit-cycles)");
    t.header({"Program", "useful", "squash", "ringWait", "memWait",
              "intra", "fetch", "waitRet", "idle"});
    for (const std::string &name : names) {
        const auto &res = r.result("breakdown/" + name);
        const CycleAccountingResult &a = res.accounting;
        const std::uint64_t expect =
            std::uint64_t(res.cycles) * a.numUnits;
        panicIf(a.sum() != expect, name,
                ": accounting broken: categories sum to ", a.sum(),
                ", expected cycles x units = ", expect);
        auto pct = [&](CycleCat c) {
            return ReportTable::pct(double(a[c]) / double(expect));
        };
        t.row({name, pct(CycleCat::kBusy), pct(CycleCat::kSquashed),
               pct(CycleCat::kRingWait), pct(CycleCat::kMemWait),
               pct(CycleCat::kIntraWait), pct(CycleCat::kFetchStall),
               pct(CycleCat::kRetireWait), pct(CycleCat::kIdle)});
    }
    t.print();
    std::printf("\nEvery row sums to 100%%: the accounting classifies "
                "each unit-cycle exactly once.\n");

    // Per-unit view for one representative workload: load balance
    // across the circular unit queue.
    const std::string rep =
        std::find(names.begin(), names.end(), "compress") !=
                names.end()
            ? "compress"
            : names.front();
    const auto &res = r.result("breakdown/" + rep);
    ReportTable u(rep + ", per unit (% of that unit's cycles):");
    u.header({"Unit", "useful", "squash", "ringWait", "memWait",
              "intra", "fetch", "waitRet", "idle"});
    for (unsigned i = 0; i < res.accounting.numUnits; ++i) {
        const auto &pu = res.accounting.perUnit[i];
        auto pct = [&](CycleCat c) {
            return ReportTable::pct(double(pu[size_t(c)]) /
                                    double(res.cycles));
        };
        u.row({"pu" + std::to_string(i), pct(CycleCat::kBusy),
               pct(CycleCat::kSquashed), pct(CycleCat::kRingWait),
               pct(CycleCat::kMemWait), pct(CycleCat::kIntraWait),
               pct(CycleCat::kFetchStall), pct(CycleCat::kRetireWait),
               pct(CycleCat::kIdle)});
    }
    u.print();
}

// ---------------------------------------------------------------------
// Ablation: task predictor kinds (PAs vs last-target vs static).
// ---------------------------------------------------------------------

inline const std::vector<std::string> kPredictorKinds = {"pas", "last",
                                                         "static"};

/**
 * The paper's sequencer uses a PAs two-level predictor with a return
 * address stack (section 5.1); compare it with a last-target
 * predictor and a static predict-target-0 policy on the 8-unit
 * machine.
 */
inline void
declarePredictor(Experiment &e,
                 const std::vector<std::string> &names = kPaperOrder)
{
    for (const std::string &name : names) {
        e.addShape("pred/" + name + "/scalar", name, "scalar-1w");
        for (const std::string &p : kPredictorKinds)
            e.addShape("pred/" + name + "/" + p, name, "pred-" + p);
    }
}

inline void
reportPredictor(const SweepResult &r,
                const std::vector<std::string> &names = kPaperOrder)
{
    ReportTable t(
        "Ablation: task predictor (8-unit, 1-way, in-order)");
    std::vector<std::string> head = {"Program"};
    for (const auto &p : kPredictorKinds) {
        head.push_back(p + "-spd");
        head.push_back(p + "-acc");
    }
    t.header(head);
    for (const std::string &name : names) {
        const auto &sc = r.result("pred/" + name + "/scalar");
        std::vector<std::string> row = {name};
        for (const auto &p : kPredictorKinds) {
            const auto &ms = r.result("pred/" + name + "/" + p);
            row.push_back(ReportTable::num(double(sc.cycles) /
                                           double(ms.cycles)));
            row.push_back(ReportTable::pct(ms.predAccuracy()));
        }
        t.row(std::move(row));
    }
    t.print();
}

// ---------------------------------------------------------------------
// Ablation: unit count scaling (1..16 units).
// ---------------------------------------------------------------------

inline const std::vector<unsigned> kUnitCounts = {1, 2, 4, 8, 16};

/**
 * The paper evaluates 4- and 8-unit machines; sweeping 1 to 16 units
 * shows where each workload's parallelism saturates, and where squash
 * behaviour makes more units useless.
 */
inline void
declareUnits(Experiment &e,
             const std::vector<std::string> &names = kPaperOrder)
{
    for (const std::string &name : names) {
        e.addShape("units/" + name + "/scalar", name, "scalar-1w");
        for (unsigned u : kUnitCounts)
            e.addShape("units/" + name + "/" + std::to_string(u),
                       name, "units-" + std::to_string(u));
    }
}

inline void
reportUnits(const SweepResult &r,
            const std::vector<std::string> &names = kPaperOrder)
{
    ReportTable t(
        "Ablation: speedup vs number of units (1-way, in-order)");
    std::vector<std::string> head = {"Program"};
    for (unsigned u : kUnitCounts)
        head.push_back(std::to_string(u) + "U");
    t.header(head);
    for (const std::string &name : names) {
        const auto &sc = r.result("units/" + name + "/scalar");
        std::vector<std::string> row = {name};
        for (unsigned u : kUnitCounts) {
            const auto &ms =
                r.result("units/" + name + "/" + std::to_string(u));
            row.push_back(ReportTable::num(double(sc.cycles) /
                                           double(ms.cycles)));
        }
        t.row(std::move(row));
    }
    t.print();
}

// ---------------------------------------------------------------------
// Ablation: ring hop latency (register-communication-heavy set).
// ---------------------------------------------------------------------

inline const std::vector<std::string> kRingBenches = {
    "wc", "eqntott", "compress", "example"};
inline const std::vector<unsigned> kRingHops = {1, 2, 3, 4};

/**
 * The paper's ring takes one cycle per hop between adjacent units
 * (section 5.1); sweeping 1-4 cycles per hop on
 * register-communication-heavy workloads shows how much inter-task
 * register traffic tolerates slower forwarding.
 */
inline void
declareRing(Experiment &e,
            const std::vector<std::string> &names = kRingBenches)
{
    for (const std::string &name : names) {
        e.addShape("ring/" + name + "/scalar", name, "scalar-1w");
        for (unsigned h : kRingHops)
            e.addShape("ring/" + name + "/hop" + std::to_string(h),
                       name, "ring-hop" + std::to_string(h));
    }
}

inline void
reportRing(const SweepResult &r,
           const std::vector<std::string> &names = kRingBenches)
{
    ReportTable t("Ablation: ring hop latency (8-unit, 1-way, "
                  "in-order; speedup over scalar)");
    std::vector<std::string> head = {"Program"};
    for (unsigned h : kRingHops)
        head.push_back(std::to_string(h) + "c");
    t.header(head);
    for (const std::string &name : names) {
        const auto &sc = r.result("ring/" + name + "/scalar");
        std::vector<std::string> row = {name};
        for (unsigned h : kRingHops) {
            const auto &ms = r.result("ring/" + name + "/hop" +
                                      std::to_string(h));
            row.push_back(ReportTable::num(double(sc.cycles) /
                                           double(ms.cycles)));
        }
        t.row(std::move(row));
    }
    t.print();
}

// ---------------------------------------------------------------------
// Ablation: ARB capacity and full-ARB policy (memory-hungry set).
// ---------------------------------------------------------------------

inline const std::vector<std::string> kArbBenches = {"example", "sc",
                                                     "gcc", "compress"};
inline const std::vector<unsigned> kArbEntries = {4, 16, 64, 256};

/**
 * Section 2.3 gives two responses to a full ARB: squash tasks to
 * reclaim entries (the simple solution) or stall every unit but the
 * head (the less drastic alternative). Sweep the entries per bank
 * under both policies on the memory-hungry workloads.
 */
inline void
declareArb(Experiment &e,
           const std::vector<std::string> &names = kArbBenches)
{
    for (const std::string &name : names) {
        e.addShape("arb/" + name + "/scalar", name, "scalar-1w");
        for (unsigned entries : kArbEntries) {
            for (bool stall : {false, true}) {
                const std::string policy = stall ? "stall" : "squash";
                e.addShape("arb/" + name + "/" + policy + "_" +
                               std::to_string(entries),
                           name,
                           "arb-" + policy + "-" +
                               std::to_string(entries));
            }
        }
    }
}

inline void
reportArb(const SweepResult &r,
          const std::vector<std::string> &names = kArbBenches)
{
    ReportTable t("Ablation: ARB entries per bank and full policy "
                  "(8-unit; speedup over scalar)");
    std::vector<std::string> head = {"Program", "policy"};
    for (unsigned e : kArbEntries)
        head.push_back(std::to_string(e) + "e");
    t.header(head);
    for (const std::string &name : names) {
        const auto &sc = r.result("arb/" + name + "/scalar");
        for (bool stall : {false, true}) {
            std::vector<std::string> row = {
                name, stall ? "stall" : "squash"};
            for (unsigned entries : kArbEntries) {
                const auto &ms = r.result(
                    "arb/" + name + "/" +
                    (stall ? "stall" : "squash") + "_" +
                    std::to_string(entries));
                row.push_back(ReportTable::num(double(sc.cycles) /
                                               double(ms.cycles)));
            }
            t.row(std::move(row));
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
// Ablation: intra-unit branch prediction (static vs bimodal).
// ---------------------------------------------------------------------

/**
 * Branches inside a task need not be predicted by the sequencer
 * "unless they are predicted separately within the processing unit"
 * (section 4.1). The baseline units use a static stop-bit-aware
 * policy; this adds a per-unit bimodal predictor that steers fetch,
 * on the scalar machine and on the 8-unit multiscalar machine.
 */
inline void
declareIntraBp(Experiment &e,
               const std::vector<std::string> &names = kPaperOrder)
{
    for (const std::string &name : names) {
        for (bool bp : {false, true}) {
            const std::string tag = bp ? "bimodal" : "static";
            e.addShape("bp/" + name + "/scalar_" + tag, name,
                       bp ? "scalar-bimodal" : "scalar-1w");
            e.addShape("bp/" + name + "/ms_" + tag, name,
                       bp ? "ms8-bimodal" : "ms8-1w");
        }
    }
}

inline void
reportIntraBp(const SweepResult &r,
              const std::vector<std::string> &names = kPaperOrder)
{
    ReportTable t("Ablation: intra-unit branch prediction "
                  "(scalar IPC and 8-unit speedup)");
    t.header({"Program", "scIPC-static", "scIPC-bimod",
              "8U-spd-static", "8U-spd-bimod"});
    for (const std::string &name : names) {
        const auto &s0 = r.result("bp/" + name + "/scalar_static");
        const auto &s1 = r.result("bp/" + name + "/scalar_bimodal");
        const auto &m0 = r.result("bp/" + name + "/ms_static");
        const auto &m1 = r.result("bp/" + name + "/ms_bimodal");
        t.row({name, ReportTable::num(s0.ipc()),
               ReportTable::num(s1.ipc()),
               ReportTable::num(double(s0.cycles) / double(m0.cycles)),
               ReportTable::num(double(s1.cycles) /
                                double(m1.cycles))});
    }
    t.print();
}

// ---------------------------------------------------------------------
// Ablation: the paper's software-side techniques (fixed cells).
// ---------------------------------------------------------------------

/**
 * The paper's software-side techniques, each toggled through the
 * one-source/two-variants mechanism:
 *
 *  - dead register analysis (section 2.2): the example workload with
 *    the conservative Figure 4 mask {$4,$8,$17,$20,$23} plus
 *    explicit releases (the default) vs the minimal create mask
 *    {$20} after dead-register analysis (define OPTMASK);
 *
 *  - work-list restructuring for load balance (section 3.2.3 and the
 *    sc discussion in 5.3): sc's restructured work-list loop vs the
 *    original loop over all (mostly empty) cells (define SCGRID);
 *
 *  - synchronization of data communication (section 3.1.1): gcc with
 *    its hot global carried in a forwarded register (define SYNC)
 *    instead of loaded early from memory, so memory order squashes
 *    all but disappear, traded for an inter-task register dependence;
 *
 *  - early validation of prediction (section 3.1.2): wc restructured
 *    to test the loop exit at the top of the task (define EARLYV), so
 *    the mispredicted extra iteration squashes within cycles instead
 *    of after a full chunk scan.
 */
inline void
declareSoftware(Experiment &e)
{
    // The software ablation varies assembler defines, not hardware:
    // every cell runs one of two shapes with different workload
    // variants compiled in.
    const RunSpec scalar = config::specForShape("scalar-1w");
    const RunSpec ms8 = config::specForShape("ms8-1w");

    // Dead register analysis on the example workload (section 2.2).
    e.add("sw/example/scalar", "example", scalar);
    e.add("sw/example/consmask", "example", ms8);
    RunSpec opt = ms8;
    opt.defines = {"OPTMASK"};
    e.add("sw/example/deadreg", "example", opt);

    // Work-list restructuring on sc (section 3.2.3).
    e.add("sw/sc/scalar", "sc", scalar);
    e.add("sw/sc/worklist", "sc", ms8);
    RunSpec grid = ms8;
    grid.defines = {"SCGRID"};
    e.add("sw/sc/grid", "sc", grid);

    // Synchronization of data communication on gcc (section 3.1.1).
    e.add("sw/gcc/scalar", "gcc", scalar);
    e.add("sw/gcc/squashing", "gcc", ms8);
    RunSpec sync = ms8;
    sync.defines = {"SYNC"};
    e.add("sw/gcc/synchronized", "gcc", sync);

    // Early prediction validation on wc (section 3.1.2).
    e.add("sw/wc/scalar", "wc", scalar);
    e.add("sw/wc/bottomtest", "wc", ms8);
    RunSpec earlyv = ms8;
    earlyv.defines = {"EARLYV"};
    e.add("sw/wc/earlyvalidate", "wc", earlyv);
}

inline void
reportSoftware(const SweepResult &r)
{
    auto speedup = [&](const std::string &base,
                       const std::string &cell) {
        return ReportTable::num(double(r.result(base).cycles) /
                                double(r.result(cell).cycles));
    };

    ReportTable t("Ablation: software techniques (8-unit)");
    t.header({"Technique", "variant", "speedup", "note"});
    t.row({"dead-reg analysis (2.2)", "create {$20} (optimized)",
           speedup("sw/example/scalar", "sw/example/deadreg"),
           ReportTable::count(
               r.result("sw/example/deadreg").instructions) +
               " instrs"});
    t.row({"dead-reg analysis (2.2)", "conservative mask+releases",
           speedup("sw/example/scalar", "sw/example/consmask"),
           ReportTable::count(
               r.result("sw/example/consmask").instructions) +
               " instrs"});
    t.row({"work-list restruct (3.2.3)", "work list (restructured)",
           speedup("sw/sc/scalar", "sw/sc/worklist"), ""});
    t.row({"work-list restruct (3.2.3)", "all cells (original)",
           speedup("sw/sc/scalar", "sw/sc/grid"), ""});
    t.row({"data-comm sync (3.1.1)", "squashing (baseline)",
           speedup("sw/gcc/scalar", "sw/gcc/squashing"),
           ReportTable::count(
               r.result("sw/gcc/squashing").memorySquashes) +
               " mem squashes"});
    t.row({"data-comm sync (3.1.1)", "register-synchronized",
           speedup("sw/gcc/scalar", "sw/gcc/synchronized"),
           ReportTable::count(
               r.result("sw/gcc/synchronized").memorySquashes) +
               " mem squashes"});
    t.row({"early validation (3.1.2)", "bottom-tested loop",
           speedup("sw/wc/scalar", "sw/wc/bottomtest"),
           ReportTable::count(
               r.result("sw/wc/bottomtest").squashedInstructions) +
               " squashed instrs"});
    t.row({"early validation (3.1.2)", "top-tested (early valid.)",
           speedup("sw/wc/scalar", "sw/wc/earlyvalidate"),
           ReportTable::count(
               r.result("sw/wc/earlyvalidate").squashedInstructions) +
               " squashed instrs"});
    t.print();
}

// ---------------------------------------------------------------------
// Ablation: the shared L2 hierarchy (size x associativity x MSHRs x
// inclusion, under the fast and slow memory bus).
// ---------------------------------------------------------------------

/** The cache-stress family: the workloads the L2 exists for. */
inline const std::vector<std::string> kL2Benches = {
    "pointer_chase", "stream_triad", "gups", "stencil", "thrash",
};

/** Reduced stress set for --smoke. */
inline const std::vector<std::string> kL2SmokeBenches = {
    "pointer_chase", "thrash",
};

/**
 * The L2 design points, as shipped shape presets. "off" is the
 * default 4-unit machine without an L2; the rest vary one axis at a
 * time around the 256 KB / 8-way / 4-bank / 8-MSHR NINE centre.
 */
inline const std::vector<std::pair<std::string, std::string>>
    kL2Points = {
        {"off", "ms4-1w"},
        {"64k", "l2-64k"},
        {"256k", "l2-256k"},
        {"1m", "l2-1m"},
        {"256k-a1", "l2-256k-a1"},
        {"256k-mshr1", "l2-256k-mshr1"},
        {"256k-incl", "l2-256k-inclusive"},
        {"256k-excl", "l2-256k-exclusive"},
};

/** Smoke subset of the design points. */
inline const std::vector<std::pair<std::string, std::string>>
    kL2SmokePoints = {
        {"off", "ms4-1w"},
        {"256k", "l2-256k"},
        {"256k-mshr1", "l2-256k-mshr1"},
};

inline void
declareL2(Experiment &e, bool smoke = false)
{
    const auto &names = smoke ? kL2SmokeBenches : kL2Benches;
    const auto &points = smoke ? kL2SmokePoints : kL2Points;
    for (const std::string &name : names) {
        for (bool slow : {false, true}) {
            const std::string mem = slow ? "slowmem" : "fastmem";
            for (const auto &[tag, shape] : points) {
                // Machine from the shipped preset; the slow-memory
                // regime raises the bus's first-beat latency to 100
                // cycles (same knob as the throughput benches).
                RunSpec spec = config::specForShape(shape);
                if (slow)
                    spec.ms.bus.firstBeatLatency = 100;
                e.add("l2/" + name + "/" + mem + "/" + tag, name,
                      spec);
            }
        }
    }
}

inline void
reportL2(const SweepResult &r, bool smoke = false)
{
    const auto &names = smoke ? kL2SmokeBenches : kL2Benches;
    const auto &points = smoke ? kL2SmokePoints : kL2Points;
    for (bool slow : {false, true}) {
        const std::string mem = slow ? "slowmem" : "fastmem";
        ReportTable t("Ablation: shared L2 (" + mem +
                      "; speedup over the L2-less 4-unit machine)");
        std::vector<std::string> head = {"Program"};
        for (const auto &[tag, shape] : points) {
            (void)shape;
            head.push_back(tag == "off" ? "off (cyc)" : tag);
        }
        t.header(head);
        for (const std::string &name : names) {
            const auto &off =
                r.result("l2/" + name + "/" + mem + "/off");
            std::vector<std::string> row = {name};
            for (const auto &[tag, shape] : points) {
                (void)shape;
                if (tag == "off") {
                    row.push_back(ReportTable::count(off.cycles));
                    continue;
                }
                const auto &ms =
                    r.result("l2/" + name + "/" + mem + "/" + tag);
                row.push_back(ReportTable::num(double(off.cycles) /
                                               double(ms.cycles)));
            }
            t.row(std::move(row));
        }
        t.print();
    }
}

} // namespace msim::bench

#endif // MSIM_BENCH_SUITES_HH
