/**
 * @file
 * One multiscalar processing unit (paper Figure 1): a five-stage
 * pipeline that independently fetches and executes the instructions
 * of its assigned task until it encounters an instruction whose stop
 * condition is satisfied.
 *
 * The unit owns a private copy of the register file. Reservations
 * (from the accum mask, the union of active predecessors' pending
 * create masks) mark registers whose values will arrive over the
 * unidirectional ring; instructions that need them wait. Values the
 * task produces are sent to successors when an instruction tagged
 * with the forward bit writes them, when a release instruction
 * releases them, or — for any register in the create mask not yet
 * sent — automatically when the task completes.
 *
 * Issue models:
 *  - in-order: instructions issue from the window head in program
 *    order, stalling on the first non-ready instruction;
 *  - out-of-order: a scoreboarded window issues any ready
 *    instruction oldest-first, with WAW/WAR stalls, in-order issue
 *    among memory operations, and no issue past an unresolved
 *    branch or syscall (so no register state ever needs rollback).
 * Both complete out of order (paper section 5.1).
 *
 * Intra-task branches resolve one cycle after issue. Fetch follows a
 * static policy (stop-bit aware: backward taken / forward not-taken,
 * !st not-taken, !sn taken) or an optional bimodal predictor; either
 * way mispredicted fetch directions only cost flushed fetches, never
 * executed instructions.
 */

#ifndef MSIM_PU_PROCESSING_UNIT_HH
#define MSIM_PU_PROCESSING_UNIT_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "common/fifo.hh"
#include "common/reg_mask.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/exec.hh"
#include "isa/instruction.hh"
#include "pu/pu_config.hh"
#include "pu/pu_context.hh"
#include "trace/cycle_accounting.hh"
#include "trace/tracer.hh"

namespace msim {

/** A single processing unit. */
class ProcessingUnit
{
  public:
    enum class Status : std::uint8_t {
        kFree,     //!< no assigned task
        kRunning,  //!< fetching/executing its task
        kExited,   //!< stop resolved; draining in-flight work
        kDone,     //!< everything complete; awaiting retirement
    };

    /**
     * @param acct Optional cycle-accounting sink; every full tick of
     *        an assigned task records its category for this unit's id.
     * @param tracer Optional event tracer (occupancy counters).
     */
    ProcessingUnit(unsigned id, const PuConfig &config, PuContext &ctx,
                   StatGroup &stats, CycleAccounting *acct = nullptr,
                   Tracer *tracer = nullptr);

    /**
     * Assign a task (or, for the scalar baseline, the whole program).
     *
     * @param seq Task sequence number.
     * @param start_pc First instruction.
     * @param create_mask Registers this task may produce.
     * @param busy_mask Registers whose values are still to arrive
     *        from predecessors (reservations).
     * @param init_regs Initial register values (64 entries), or
     *        nullptr to keep the unit's current values.
     * @param expected_producers For each reserved register, the task
     *        sequence number of the nearest active predecessor that
     *        will supply it (ring deliveries from any other producer
     *        are ignored — in hardware those messages are consumed
     *        earlier on the ring). May be nullptr when busy_mask is
     *        empty.
     */
    void assignTask(TaskSeq seq, Addr start_pc,
                    const RegMask &create_mask, const RegMask &busy_mask,
                    const isa::RegValue *init_regs,
                    const TaskSeq *expected_producers = nullptr);

    /**
     * Advance one cycle, recording its category in the accounting,
     * which keeps it until a later tick records another.
     *
     * @return the cycle the unit is next due: now + 1 if this tick
     * changed state or a ready slot retries (FU capacity or a full
     * ARB); else the first cycle a completion, a dispatch or a
     * fetch can act; kCycleNever when only an external input can
     * (or the unit is free). Ticks before that cycle would change
     * nothing and classify the same stall, which the open accounting
     * run already covers, so the caller may skip them. The external
     * inputs, after which the unit is due at once, are an accepted
     * deliverForward(), assignTask() and becoming the head (which
     * grants a parked syscall its permission); flush() and retire()
     * free it. See DESIGN.md "Quiescence & fast-forward".
     */
    Cycle tick(Cycle now);

    /**
     * Squash: discard all task state.
     * @return the task's executed instructions (squashed work).
     */
    std::uint64_t flush();

    /**
     * Retire the (done) task at the head.
     * @return the task's executed instructions (useful work).
     */
    std::uint64_t retire();

    /**
     * A register value arriving over the ring from @p producer.
     * @return true if it satisfied a reservation (the unit is due).
     */
    bool deliverForward(RegIndex reg, isa::RegValue value,
                        TaskSeq producer);

    /**
     * Arm the dynamic write-set oracle for the current task: at
     * retire, the registers the task actually wrote must be
     * contained in @p may_write and the registers it explicitly
     * forwarded (!f or release) in @p may_forward, both computed by
     * the static annotation verifier (src/analysis/). A violation
     * means the static analysis or the pipeline operand model is
     * unsound, so it panics. Call after assignTask(); assigning the
     * next task disarms the oracle. Squashed tasks are not checked:
     * a wrong-path task can take a jr through a garbage register
     * value and execute instructions the static walk never maps to
     * this task.
     */
    void setWriteOracle(const RegMask &may_write,
                        const RegMask &may_forward);

    Status status() const { return status_; }
    bool isFree() const { return status_ == Status::kFree; }
    bool isDone() const { return status_ == Status::kDone; }
    TaskSeq seq() const { return seq_; }
    unsigned id() const { return id_; }

    /** Registers already sent to successors this task. */
    const RegMask &forwardedMask() const { return forwardedMask_; }

    /** The value that was forwarded for @p reg (it must have been). */
    isa::RegValue
    forwardedValue(RegIndex reg) const
    {
        panicIf(!forwardedMask_.test(reg),
                "forwardedValue of an unforwarded register");
        return forwardedValues_[size_t(reg)];
    }

    /** This task's create mask. */
    const RegMask &createMask() const { return createMask_; }

    /** Current register values (64), e.g. to seed a successor. */
    std::array<isa::RegValue, kNumRegs> regValues() const;

    bool hasExited() const
    {
        return status_ == Status::kExited || status_ == Status::kDone;
    }

    /** Instructions the task in flight has executed so far. */
    std::uint64_t taskInstructions() const { return taskInstructions_; }

    /**
     * Write the oldest window slot for the watchdog dump: "oldest lw
     * due @<cycle>" when issued, "oldest lw unissued" when not, or
     * "window empty".
     */
    void describeOldest(std::ostream &os) const;

  private:
    /** Per-register scoreboard state. */
    struct RegState
    {
        isa::RegValue value;
        bool awaitingPred = false;  //!< reservation on the ring
        bool writerIssued = false;  //!< a local writer has issued
        bool writtenWB = false;     //!< a local writer has written back
        std::uint8_t pendingWriters = 0;
    };

    /**
     * One queue entry, from fetch to completion. Fetch assigns inst
     * through done in place; issue sets the rest.
     */
    struct Slot
    {
        const isa::Instruction *inst;
        Addr pc;
        bool predTaken;  //!< fetch direction assumed
        bool issued;
        bool done;
        Cycle doneAt;
        isa::RegValue result;
        isa::BranchResult branch;
    };

    /** An issued, not yet done slot on the completion calendar. */
    struct Due
    {
        Cycle at;              //!< the slot's doneAt
        std::uint64_t serial;  //!< popped_ + the slot's queue index
    };

    /**
     * Operands of the older slots an oldest-first window walk has
     * passed that are still un-issued after their own issue attempt.
     * The scoreboard hazards of the next slot are mask tests on it.
     */
    struct OlderUnissued
    {
        RegMask dests;
        RegMask srcs;
        bool mem = false;

        void
        add(const isa::Instruction &inst)
        {
            if (inst.dest != kNoReg)
                dests.set(inst.dest);
            srcs |= inst.srcs;
            mem = mem || inst.memOp;
        }
    };

    // --- tick phases -------------------------------------------------
    void completePhase(Cycle now);
    unsigned issuePhase(Cycle now, bool &saw_ready, size_t &unissued);
    void dispatchPhase();
    void fetchPhase(Cycle now);
    void autoReleasePhase();  //!< exited and drained: release, finish
    Cycle dueAfter(Cycle now, bool saw_ready) const;
    void traceOccupancy(Cycle now, unsigned issued);

    // --- helpers -----------------------------------------------------
    CycleCat classifyCycle(unsigned issued_count, size_t unissued) const;
    bool memOpInFlight() const;
    isa::RegValue regRead(RegIndex reg) const;
    bool slotReady(const Slot &slot, size_t index,
                   const OlderUnissued &older) const;
    bool tryIssue(Slot &slot, size_t index, Cycle now);
    void noteIssueDest(RegIndex reg);
    void writeback(const Slot &slot);
    void forwardValue(RegIndex reg, isa::RegValue value);
    void resolveBranch(Slot &slot, size_t index);
    void flushYounger(size_t index);
    void exitTask(Addr successor);
    bool predictTaken(const isa::Instruction &inst, Addr pc) const;
    void trainBranch(Addr pc, bool taken);
    /** The earliest doneAt on the calendar, or kCycleNever. */
    Cycle
    nextDoneAt() const
    {
        return calendar_.empty() ? kCycleNever : calendar_.front().at;
    }
    /** Entries fetched but not yet dispatched. */
    size_t fetched() const { return q_.size() - dispatched_; }

    /** This unit's counters, bound once in its stat group. */
    struct Counters
    {
        StatGroup &group;
        std::uint64_t &tasksAssigned = group.counter("tasksAssigned");
        std::uint64_t &tasksSquashed = group.counter("tasksSquashed");
        std::uint64_t &tasksRetired = group.counter("tasksRetired");
        std::uint64_t &instructions = group.counter("instructions");
        std::uint64_t &forwards = group.counter("forwards");
        std::uint64_t &releases = group.counter("releases");
        std::uint64_t &implicitReleases = group.counter("implicitReleases");
        std::uint64_t &branchMispredicts = group.counter("branchMispredicts");
        std::uint64_t &fetchOffText = group.counter("fetchOffText");
    };

    // --- identity / wiring -------------------------------------------
    unsigned id_;
    PuConfig config_;
    PuContext &ctx_;
    Counters stats_;
    CycleAccounting *acct_ = nullptr;
    Tracer *tracer_ = nullptr;
    /** Stable storage for this unit's trace counter name. */
    std::string occupancyName_;

    // --- task state ---------------------------------------------------
    Status status_ = Status::kFree;
    TaskSeq seq_ = 0;
    RegMask createMask_;
    RegMask forwardedMask_;
    std::uint64_t taskInstructions_ = 0;

    // --- write-set oracle ---------------------------------------------
    bool oracleArmed_ = false;
    RegMask oracleMayWrite_;
    RegMask oracleMayForward_;
    /** Registers the current task has written back. */
    RegMask writtenMask_;
    /** Registers explicitly forwarded (!f writeback or release). */
    RegMask explicitFwdMask_;

    std::array<RegState, kNumRegs> regs_;
    /**
     * Registers a read must wait for: a local writer is in flight, or
     * a reservation has neither been delivered nor overwritten
     * locally. Kept in step with regs_ so that the operand check of a
     * slot is one mask test.
     */
    RegMask unready_;
    std::array<TaskSeq, kNumRegs> expectedProducer_{};
    std::array<isa::RegValue, kNumRegs> forwardedValues_{};

    // --- pipeline state ------------------------------------------------
    /**
     * The unit's one instruction queue, pre-sized so the per-cycle
     * path never allocates: [0, dispatched_) is the issue window,
     * oldest first, and the rest the fetch buffer. Fetch writes each
     * entry in place at the tail, dispatch only advances the cursor
     * (an entry fetched in cycle t dispatches at t + 1 at the
     * earliest, since a tick dispatches before it fetches), completion
     * pops the window head, and a redirect or exit truncates the tail.
     */
    RingFifo<Slot> q_;
    size_t dispatched_ = 0;  //!< the dispatch cursor
    /** Slots popped off the queue head, ever: the serial base. */
    std::uint64_t popped_ = 0;
    /**
     * The completion calendar: the issued, not-done slots in a
     * min-heap on (doneAt, serial). tryIssue() adds a slot,
     * completePhase() takes off the ones due, assignTask()/flush()
     * empty it, and flushYounger() never drops in-flight work.
     */
    std::vector<Due> calendar_;
    Addr fetchPc_ = 0;
    bool fetchEnabled_ = false;
    bool awaitRedirect_ = false;   //!< jr/jalr target pending
    Cycle pendingFetchReady_ = 0;  //!< icache miss outstanding
    /**
     * Has the current tick changed unit state? If not, the tick is
     * due again only at its next event (dueAfter). Purely a
     * performance gate: being due too early never changes timing.
     */
    bool activity_ = false;
    /** Per-cycle acceptance counters of the pipelined FUs. */
    std::array<unsigned, size_t(isa::FuKind::kNumFuKinds)> fuAccepts_{};

    /** Optional intra-unit bimodal predictor. */
    std::vector<SatCounter> branchTable_;
};

} // namespace msim

#endif // MSIM_PU_PROCESSING_UNIT_HH
