/**
 * @file
 * Static verification of multiscalar task annotations.
 *
 * Annotation bugs in a multiscalar program are miserable to debug at
 * run time: a register written outside the create mask silently stays
 * task-local, a forward placed before the last update sends successors
 * a stale value, and a missing forward merely makes the program slow.
 * The verifier finds these statically, by running bit-vector dataflow
 * (dataflow.hh) over each task's CFG (cfg.hh) and then propagating
 * per-task summaries over the task graph.
 *
 * The soundness criterion is semantic divergence between scalar and
 * multiscalar execution of the same program. In the multiscalar model
 * only create-mask registers leave a task (the retiring unit merges
 * exactly the mask registers into architectural state; everything
 * else is task-local scratch), while a scalar machine keeps every
 * write. The analyses encode that asymmetry.
 *
 * Six passes:
 *
 *  1. mask-soundness (error): a register written on some path but
 *     absent from the create mask, where some successor task reads
 *     the value before redefining it — scalar execution sees the
 *     write, multiscalar does not.
 *  2. mask-precision (warning): a create-mask entry never written
 *     and never released — successors that need the value wait for
 *     the task to retire (the auto-release at task end is the only
 *     thing that unblocks them).
 *  3. premature-forward (error): a path that writes a register after
 *     it was forwarded (!f) or released — successors already
 *     consumed the stale value. Catches !f inside loops.
 *  4. missing-last-update (warning): a create-mask register that
 *     reaches a stop with no forward or release on that path — the
 *     paper's section 4 last-update stall.
 *  5. use-before-def (error): a task reads a register that is
 *     neither well-defined at task entry (on every inter-task path
 *     from program start, where nothing starts defined) nor defined
 *     locally first.
 *  6. task-structure (error): the descriptors disagree with the code
 *     the sequencer will walk — the entry point or a declared target
 *     or call continuation has no descriptor, a reachable static exit
 *     is not a declared target, a dynamic (jr) exit has no `ret`
 *     target, a task with targets reaches no stop, or a !f or release
 *     names a register outside the create mask. A program with no
 *     descriptors (the scalar assembly) has no structure to check.
 *
 * The verifier owns the task graph: the successor map (kCall targets
 * walk to the callee; every task with a kReturn target conservatively
 * reaches every call continuation in the program) and the reverse
 * symbol table are built once at construction and shared with the
 * memory-dependence analysis (mem_dep.hh) and the Graphviz rendering
 * (toDot), the paper's Figure 2 view of a program.
 *
 * Assumptions, applied as documented exemptions: $sp/$fp follow stack
 * discipline (balanced save/restore across tasks), so they are
 * treated as always well-defined and their task-local adjustment is
 * not a mask-soundness error; stores of callee-saved registers
 * through $sp/$fp are not use-before-def reads (the restore pairs
 * with the save); release operands are deliberate reads of inherited
 * state. Tasks whose walk was truncated or left the analyzable
 * region (incomplete facts) are treated optimistically: the linter
 * trusts rather than poisons facts flowing through them, so it may
 * miss a bug there but never invents one.
 */

#ifndef MSIM_ANALYSIS_VERIFIER_HH
#define MSIM_ANALYSIS_VERIFIER_HH

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/report.hh"
#include "common/reg_mask.hh"
#include "program/program.hh"

namespace msim::analysis {

/**
 * Per-task dataflow summary. This is also the interface to the
 * dynamic write-set oracle: at run time the actual set of registers
 * a task wrote must be contained in mayWrite, and the explicitly
 * forwarded set in mayForward (see MsConfig::writeSetOracle).
 */
struct TaskFacts
{
    Addr start = 0;
    const TaskDescriptor *desc = nullptr;

    /** Registers some path may write (union over reachable instrs). */
    RegMask mayWrite;
    /** Registers every path to every task exit writes. */
    RegMask mustWrite;
    /** Registers some path explicitly forwards (!f or release). */
    RegMask mayForward;
    /** Registers some path releases. */
    RegMask releases;
    /** Registers read before any local definition on some path. */
    RegMask useBeforeDef;

    /**
     * True when the CFG walk was truncated or left the analyzable
     * region (indirect call / unmatched return): may-sets are lower
     * bounds only and must not back a dynamic oracle.
     */
    bool incomplete = false;

    /** First write site per register (0 = none). */
    std::array<Addr, kNumRegs> firstWritePc{};
    /** First use-before-def site per register (0 = none). */
    std::array<Addr, kNumRegs> firstUbdPc{};
};

/** Runs the six annotation passes over one program. */
class AnnotationVerifier
{
  public:
    /** Build CFGs and per-task facts. The program must outlive the
     *  verifier (rvalue overload deleted to prevent a temporary). */
    explicit AnnotationVerifier(const Program &prog);
    explicit AnnotationVerifier(Program &&) = delete;

    /** @return facts for the task starting at @p task, or nullptr. */
    const TaskFacts *facts(Addr task) const;

    /** @return all per-task facts, keyed by task start address. */
    const std::map<Addr, TaskFacts> &allFacts() const { return facts_; }

    /** @return the CFG of the task at @p task, or nullptr. */
    const TaskCfg *cfg(Addr task) const;

    /** @return the task-graph successors of @p task, sorted. */
    const std::vector<Addr> &successors(Addr task) const;

    /** @return the first symbol (by name) at @p addr, else its hex. */
    std::string labelFor(Addr addr) const;

    /**
     * A finding anchored at @p pc of @p task; pc 0 makes it
     * task-level, with the line taken from the task's descriptor.
     */
    Diagnostic makeDiag(PassId pass, Severity sev, Addr task, Addr pc,
                        RegIndex reg, std::string message) const;

    /** Run all six passes. */
    AnalysisReport verify() const;

  private:
    void computeFacts(Addr start);
    void checkStructure(AnalysisReport &rep) const;

    const Program &prog_;
    std::map<Addr, TaskFacts> facts_;
    std::map<Addr, std::unique_ptr<TaskCfg>> cfgs_;
    /** Task-graph successors, one sorted list per task. */
    std::map<Addr, std::vector<Addr>> succs_;
    /** Reverse symbol table for diagnostics. */
    std::map<Addr, std::string> names_;
};

/**
 * Render the task graph in Graphviz dot form: one node per task
 * (create mask, static instruction count) and one edge per declared
 * target, colored by kind.
 */
std::string toDot(const AnnotationVerifier &verifier);

} // namespace msim::analysis

#endif // MSIM_ANALYSIS_VERIFIER_HH
