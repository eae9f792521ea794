/**
 * @file
 * The multiscalar processor (paper Figure 1): a sequencer walking the
 * program's control flow graph task by task, assigning tasks to a
 * circular queue of processing units, with register values forwarded
 * over a unidirectional ring and memory speculation resolved by the
 * ARB.
 *
 * Sequencing per cycle:
 *   1. the ring moves register values one hop;
 *   2. every unit advances one cycle (head first);
 *   3. deferred events are processed: memory dependence violations
 *      (squash the violating task and all after it), task exits
 *      (validate the successor prediction; mispredicts squash all
 *      later tasks and redirect the walk), and ARB capacity policy;
 *   4. the head task retires if done (ARB stores commit);
 *   5. one new task is assigned at the tail if a unit is free and
 *      the task descriptor is available (descriptor cache).
 *
 * Register state at assignment follows the multi-version register
 * file of Breach et al. [1], modeled as the sequencer's "walk
 * ledger": for every register, the walk state is either a known
 * value (the last value forwarded on the ring by any task up to this
 * point of the walk) or a reservation naming the active producer
 * task that will forward it. A new task starts from the ledger:
 * known values are available immediately (the hardware's register
 * banks latched them as they passed on the ring); reserved registers
 * wait for the producer's physical ring message, paying real ring
 * latency and bandwidth. On a squash the ledger is rebuilt from the
 * architectural state plus the surviving tasks' create/forwarded
 * masks, just as the hardware's bank valid bits are restored.
 */

#ifndef MSIM_CORE_MULTISCALAR_PROCESSOR_HH
#define MSIM_CORE_MULTISCALAR_PROCESSOR_HH

#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "analysis/mem_dep.hh"
#include "analysis/verifier.hh"
#include "arb/arb.hh"
#include "common/stats.hh"
#include "core/machine.hh"
#include "core/ms_config.hh"
#include "core/run_result.hh"
#include "mem/banked_dcache.hh"
#include "mem/cache.hh"
#include "predict/descriptor_cache.hh"
#include "predict/return_stack.hh"
#include "predict/task_predictor.hh"
#include "program/program.hh"
#include "pu/processing_unit.hh"
#include "ring/forward_ring.hh"

namespace msim {

/** The multiscalar machine. */
class MultiscalarProcessor : public Machine
{
  public:
    MultiscalarProcessor(const Program &program, const MsConfig &config);

    /** Run to the exit syscall (or @p max_cycles). No default: a
     *  looping program spends it all, so size it to the program. */
    RunResult run(Cycle max_cycles);

    // --- PuContext ---------------------------------------------------
    Cycle icacheAccess(unsigned unit, Cycle now, Addr pc) override;
    Cycle dcacheAccess(unsigned unit, Cycle now, Addr addr,
                       bool write) override;
    bool memHasSpace(unsigned unit, Addr addr, unsigned size,
                     bool is_load) override;
    std::uint64_t memLoad(unsigned unit, Addr addr,
                          unsigned size) override;
    void memStore(unsigned unit, Addr addr, unsigned size,
                  std::uint64_t value) override;
    void forwardReg(unsigned unit, RegIndex reg,
                    isa::RegValue value) override;
    bool syscallAllowed(unsigned unit) override;
    void taskExited(unsigned unit, Addr next_task) override;

  private:
    template <class Core>
    friend RunResult runLoop(Core &core, Cycle max_cycles);

    static constexpr const char *kName = "multiscalar processor";

    /** Sequencer bookkeeping for an assigned task. */
    struct ActiveTask
    {
        TaskSeq seq = 0;
        Addr start = 0;
        const TaskDescriptor *desc = nullptr;
        /** Resolved address the sequencer predicted we exit to. */
        Addr predictedNext = 0;
        /** Did the prediction count toward accuracy statistics? */
        bool counted = false;
        /** RAS state before this task's successor was predicted. */
        ReturnStack::Checkpoint rasCp;
    };

    /** A task-exit event deferred to the end of the cycle. */
    struct ExitEvent
    {
        unsigned unit;
        TaskSeq seq;
        Addr actual;
    };

    // --- run-loop hooks (see core/run_loop.hh) -------------------------
    /** Phases 1-5 of one cycle; 3-5 are skipped once the program exits. */
    bool stepCycle(Cycle now);
    /** Committed, retired, squashed and in-flight work so far. */
    std::uint64_t progressCount() const { return progress_; }
    /**
     * The earliest cycle after @p now at which any component (a
     * processing unit, the ring, the sequencer, retirement) can act.
     * Side-effect free; called after stepCycle(now) (the run loop
     * adds the shared L2's bound). now + 1 means "no skip possible";
     * kCycleNever means nothing is scheduled (a stopped walk with no
     * active task — deadlock).
     */
    Cycle nextEventCycle(Cycle now) const;
    /** The head still counts as retired; later tasks as squashed. */
    void foldTasks(Cycle end);
    /** One dumpUnit line per active task, head first. */
    void dumpState(std::ostream &os) const;

    // --- cycle phases -------------------------------------------------
    void ringPhase(Cycle now);
    void unitsPhase(Cycle now);
    void deferredPhase(Cycle now);
    void retirePhase(Cycle now);
    void assignPhase(Cycle now);

    // --- helpers ------------------------------------------------------
    unsigned unitAt(unsigned position) const;
    unsigned positionOf(unsigned unit) const;
    bool unitIsHead(unsigned unit) const;
    TaskSeq seqOf(unsigned unit) const;
    ProcessingUnit &pu(unsigned unit) { return *units_[unit]; }
    const ProcessingUnit &pu(unsigned unit) const { return *units_[unit]; }

    /**
     * Squash every active task with seq >= @p from, counting the
     * squash in @p counter and naming it @p event in the trace, in
     * cycle @p now.
     */
    void squashFrom(TaskSeq from, const char *event,
                    std::uint64_t &counter, Cycle now);

    /** Resolve a predicted target to an address (RAS effects). */
    Addr resolveTarget(const TaskTarget &target);

    /** Find the target index a task actually exited through. */
    unsigned actualTargetIndex(const ActiveTask &task, Addr actual) const;

    void validateExit(const ExitEvent &event, Cycle now);

    // --- members ------------------------------------------------------
    MsConfig config_;
    /** The core's counters, bound once in its "core" stat group. */
    struct CoreCounters
    {
        StatGroup &group;
        std::uint64_t &assignments = group.counter("assignments");
        std::uint64_t &arbFullStalls = group.counter("arbFullStalls");
        std::uint64_t &squashControl = group.counter("squash_control");
        std::uint64_t &squashMemory = group.counter("squash_memory");
        std::uint64_t &squashArbFull = group.counter("squash_arbfull");
    };

    CoreCounters coreStats_;
    std::vector<std::unique_ptr<Cache>> icaches_;
    std::unique_ptr<BankedDataCache> dcache_;
    std::unique_ptr<Arb> arb_;
    std::unique_ptr<ForwardRing> ring_;
    std::unique_ptr<TaskPredictor> predictor_;
    std::unique_ptr<ReturnStack> ras_;
    std::unique_ptr<DescriptorCache> descCache_;
    /** Static per-task facts backing the write-set oracle. */
    std::unique_ptr<analysis::AnnotationVerifier> oracle_;
    /** Static conflict prediction backing the mem-dep oracle. */
    std::unique_ptr<analysis::MemDepAnalysis> memDep_;
    std::vector<std::unique_ptr<ProcessingUnit>> units_;
    /** Per unit, the cycle it is next due (ProcessingUnit::tick). */
    std::vector<Cycle> due_;
    std::vector<ActiveTask> taskInfo_;
    /** Retired and squashed work plus each unit's taskInstructions(). */
    std::uint64_t progress_ = 0;

    /** Circular queue state. */
    unsigned head_ = 0;
    unsigned numActive_ = 0;
    TaskSeq nextSeq_ = 1;

    /** The sequencer's next step in the CFG walk (none = stopped). */
    std::optional<Addr> nextTaskAddr_;
    Addr descFetchAddr_ = kBadAddr;
    Cycle descReadyAt_ = 0;

    /** Architectural registers as of the last retired task. */
    std::array<isa::RegValue, kNumRegs> archRegs_{};

    /** The sequencer's per-register walk state (see class comment). */
    struct WalkReg
    {
        isa::RegValue value;
        bool pending = false;
        TaskSeq producer = 0;
    };
    std::array<WalkReg, kNumRegs> walkRegs_{};

    /** Rebuild the walk ledger after a squash. */
    void rebuildWalkRegs();

    /** Deferred events. */
    std::vector<ExitEvent> exitEvents_;
    std::optional<TaskSeq> pendingViolation_;
    bool arbFullEvent_ = false;
};

} // namespace msim

#endif // MSIM_CORE_MULTISCALAR_PROCESSOR_HH
