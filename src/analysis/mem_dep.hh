/**
 * @file
 * Static memory-dependence analysis for multiscalar programs.
 *
 * The ARB (src/arb) resolves speculative memory dependences at run
 * time: a later task loading bytes an earlier task then stores is a
 * violation, squashing the later task. This module is the static
 * counterpart: it predicts, before a single cycle is simulated, which
 * (earlier, later) task pairs *can* conflict through memory — and
 * therefore where squashes can come from.
 *
 * The address domain is the power-of-two coset lattice over Z_2^32:
 * a register's value is Bottom (unreached), Const c (exactly c),
 * Stride(b, 2^k) — the set { b + m * 2^k mod 2^32 : any integer m } —
 * or Top. A coset is closed under the ISA's address arithmetic
 * (addiu/addu/subu shift cosets, sll scales them), joins reduce to
 * counting trailing zeros of differences, and the lattice is finite
 * (k only ever shrinks), so loop induction variables converge without
 * a widening: joining c and c + 4 immediately yields Stride(c, 4),
 * which also absorbs every further += 4. A decrementing induction
 * (-= 4 is += 0xfffffffc) lands in the same coset. The price is that
 * a non-power-of-two stride coarsens to its largest power-of-two
 * divisor — sound, just blunter.
 *
 * Values propagate in two tiers, mirroring the machine:
 *
 *  - intra-task: a worklist dataflow over the task's CFG (cfg.hh),
 *    with per-opcode transfer functions (anything not affine in a
 *    tracked value widens to Top);
 *  - inter-task: a fixpoint over the task graph. A successor task
 *    inherits create-mask registers from the join of its
 *    predecessors' exit and forward-point values, and every other
 *    register from the predecessor's *entry* (non-mask writes never
 *    leave a task — the sequencer's walk ledger restores the prior
 *    value), seeded at the program entry with the architectural
 *    reset state ($sp = kStackTop, everything else 0).
 *
 * Every load/store instruction then yields a MemRegion (its address
 * coset times its access width); per task these collect into a
 * MemSummary (may-load / may-store sets, with an unknown flag once
 * any address widens to Top). Syscall memory reads are deliberately
 * excluded: syscalls execute at the head unit only, and head loads
 * can never be violated, so they are irrelevant to conflict
 * prediction (and to the oracle below).
 *
 * Three lint passes ride on the summaries:
 *
 *  - mem-conflict (info): an earlier live task's may-store set
 *    intersects a later task's may-load set — the exact hazard the
 *    ARB exists to catch. Info severity: shipped workloads genuinely
 *    squash, the pass names the predicted sources, ranked by loop
 *    depth (task-graph cycle + store-site CFG cycle).
 *  - stack-discipline (error): some path through a task provably
 *    leaves $sp displaced relative to task entry, which breaks the
 *    balanced-stack exemption the annotation verifier documents.
 *    Only reported when the displacement is a known constant.
 *  - dead-store (warning): a store to an exact address that every
 *    path overwrites (with a covering store) before any may-aliasing
 *    load, syscall, or task exit can observe it. Stores whose
 *    address a reachable successor task may load are exempt: they
 *    are transiently visible through the ARB, so removing them
 *    would change dynamic violation timing even though the final
 *    value is always overwritten.
 *
 * The dynamic memDepOracle (MsConfig::memDepOracle) asserts at every
 * ARB violation that the (store-task, load-task, address) triple lies
 * inside the static prediction: the pair must be a predicted conflict
 * pair, the stored bytes must be contained in the store task's
 * may-store set, and the load task's may-load set must intersect
 * them. Tasks whose CFG walk was incomplete are trivially contained.
 */

#ifndef MSIM_ANALYSIS_MEM_DEP_HH
#define MSIM_ANALYSIS_MEM_DEP_HH

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "analysis/report.hh"
#include "analysis/verifier.hh"
#include "common/types.hh"
#include "program/program.hh"

namespace msim::analysis {

/** An abstract address value: a power-of-two coset of Z_2^32. */
struct AbsVal
{
    enum class Kind : std::uint8_t { kBottom, kConst, kStride, kTop };

    Kind kind = Kind::kBottom;
    /** A representative element of the coset (exact for kConst). */
    Word base = 0;
    /** log2 of the coset grain, in [1, 31] (kStride only). */
    unsigned grainLog = 0;

    static AbsVal bottom() { return {}; }
    static AbsVal top() { return {Kind::kTop, 0, 0}; }
    static AbsVal constant(Word c) { return {Kind::kConst, c, 0}; }

    /** Build a stride value, normalizing the degenerate grains. */
    static AbsVal stride(Word base, unsigned grain_log);

    bool operator==(const AbsVal &) const = default;
};

/** Least upper bound of two abstract values. */
AbsVal join(const AbsVal &a, const AbsVal &b);
/** Abstract addition (exact on cosets). */
AbsVal add(const AbsVal &a, const AbsVal &b);
/** Abstract negation (cosets are symmetric under negation). */
AbsVal negate(const AbsVal &a);
/** Abstract left shift by a constant amount. */
AbsVal shiftLeft(const AbsVal &a, unsigned amount);

/**
 * A may-touch region: the bytes [a, a + width) for every address a
 * in a coset of Z_2^32. grainLog 32 denotes the exact single address
 * `base`; grainLog 0 denotes every address.
 */
struct MemRegion
{
    Word base = 0;
    unsigned grainLog = 32;
    /** Access width in bytes (1, 2, 4, or 8). */
    unsigned width = 0;
    /** Instruction address of the access site (diagnostics). */
    Addr pc = 0;

    bool exact() const { return grainLog >= 32; }

    /** @return true when the two regions share at least one byte. */
    bool overlaps(const MemRegion &other) const;

    /** @return true when every byte of [addr, addr+size) is here. */
    bool covers(Addr addr, unsigned size) const;
};

/** The may-load / may-store summary of one task. */
struct MemSummary
{
    Addr start = 0;
    std::vector<MemRegion> loads;
    std::vector<MemRegion> stores;
    /** Some load address widened to Top: may load anything. */
    bool loadUnknown = false;
    /** Some store address widened to Top: may store anything. */
    bool storeUnknown = false;
    /** Mirrors TaskFacts::incomplete: sets are lower bounds only. */
    bool incomplete = false;

    /** @return true when a load may touch [addr, addr+size). */
    bool mayLoad(Addr addr, unsigned size) const;
    /** @return true when every byte of [addr, addr+size) may be
     *  stored (union over store regions). */
    bool storesCover(Addr addr, unsigned size) const;
};

/**
 * The program-wide analysis: per-task address dataflow, summaries,
 * conflict pairs, the three lint passes, and the dynamic-oracle
 * containment query.
 */
class MemDepAnalysis
{
  public:
    /**
     * Build summaries and conflict pairs from the verifier's CFGs
     * and facts. Both must outlive the analysis.
     */
    MemDepAnalysis(const Program &prog,
                   const AnnotationVerifier &verifier);
    MemDepAnalysis(Program &&, const AnnotationVerifier &) = delete;

    /** @return the summary of the task at @p task, or nullptr. */
    const MemSummary *summary(Addr task) const;

    /** @return all summaries, keyed by task start address. */
    const std::map<Addr, MemSummary> &summaries() const
    {
        return summaries_;
    }

    /**
     * @return the predicted conflict pairs: ordered (earlier, later)
     * task pairs, later reachable from earlier over the task graph,
     * whose may-store and may-load sets overlap.
     */
    const std::set<std::pair<Addr, Addr>> &conflictPairs() const
    {
        return conflictPairs_;
    }

    /** @return true when (earlier, later) is a predicted conflict. */
    bool
    conflict(Addr earlier, Addr later) const
    {
        return conflictPairs_.count({earlier, later}) != 0;
    }

    /**
     * The memDepOracle query: is a dynamic ARB violation where the
     * task at @p store_task stored [addr, addr+size) and the task at
     * @p load_task had loaded some of those bytes contained in the
     * static prediction? Incomplete summaries are trivially
     * contained; unknown tasks are not (the oracle should trip).
     */
    bool violationPredicted(Addr store_task, Addr load_task, Addr addr,
                            unsigned size) const;

    /**
     * Run the three memory passes and return their report (the mem
     * stats block filled in; numTasks mirrors the verifier's count).
     */
    AnalysisReport lint() const;

  private:
    using Env = std::array<AbsVal, kNumRegs>;

    /** Per-block environments of one intra-task dataflow solve. */
    struct TaskEnvs
    {
        /** Environment at each block entry. */
        std::vector<Env> blockIn;
        /** Join over exit blocks of the end-of-block environment. */
        Env exitJoin;
        /** Join of each register's value at its forward points. */
        Env fwdVals;
        bool anyExit = false;
    };

    TaskEnvs solveTask(Addr start, const Env &entry) const;
    void transfer(Env &env, const isa::Instruction &inst) const;
    AbsVal valueOf(const Env &env, RegIndex reg) const;
    void buildSummaries();
    void buildConflicts();

    void lintMemConflict(AnalysisReport &rep) const;
    void lintStackDiscipline(AnalysisReport &rep) const;
    void lintDeadStore(AnalysisReport &rep) const;

    const Program &prog_;
    const AnnotationVerifier &verifier_;
    /** Tasks whose walk is unreliable: truncated, opaque, or with
     *  call edges cut at the walker's depth cap. */
    std::set<Addr> cut_;
    /** Tasks reachable from the program entry. */
    std::set<Addr> reachable_;
    /** Tasks reachable from each task via at least one edge. */
    std::map<Addr, std::set<Addr>> reachFrom_;
    /** Converged task-entry environments. */
    std::map<Addr, Env> entryEnv_;
    std::map<Addr, MemSummary> summaries_;
    std::set<std::pair<Addr, Addr>> conflictPairs_;
    /** Ordered reachable pairs considered (density denominator). */
    unsigned orderedPairs_ = 0;
};

} // namespace msim::analysis

#endif // MSIM_ANALYSIS_MEM_DEP_HH
