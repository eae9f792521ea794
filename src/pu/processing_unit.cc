#include "pu/processing_unit.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "isa/registers.hh"

namespace msim {

namespace {

using isa::FuKind;
using isa::InstClass;
using isa::Instruction;
using isa::Opcode;
using isa::RegValue;
using isa::StopKind;

/** Min-heap order of the completion calendar: doneAt, then age. */
constexpr auto later = [](const auto &a, const auto &b) {
    return a.at != b.at ? a.at > b.at : a.serial > b.serial;
};

} // namespace

ProcessingUnit::ProcessingUnit(unsigned id, const PuConfig &config,
                               PuContext &ctx, StatGroup &stats,
                               CycleAccounting *acct, Tracer *tracer)
    : id_(id), config_(config), ctx_(ctx), stats_{stats}, acct_(acct),
      tracer_(tracer),
      occupancyName_("pu" + std::to_string(id) + ".occupancy")
{
    fatalIf(config.issueWidth == 0 || config.issueWidth > 2,
            "issue width must be 1 or 2");
    fatalIf(config.windowSize == 0, "window size must be positive");
    if (config.intraBranchPredict)
        branchTable_.assign(config.branchPredictorEntries,
                            SatCounter(2, 1));
    q_.reserve(config.windowSize + config.fetchBufferSize);
    calendar_.reserve(config.windowSize);
}

void
ProcessingUnit::assignTask(TaskSeq seq, Addr start_pc,
                           const RegMask &create_mask,
                           const RegMask &busy_mask,
                           const RegValue *init_regs,
                           const TaskSeq *expected_producers)
{
    panicIf(status_ != Status::kFree, "assignTask to a busy unit");
    panicIf(!busy_mask.empty() && !expected_producers,
            "reserved registers need expected producers");
    seq_ = seq;
    createMask_ = create_mask;
    forwardedMask_ = RegMask();
    taskInstructions_ = 0;
    for (int r = 0; r < kNumRegs; ++r) {
        RegState &st = regs_[size_t(r)];
        if (init_regs)
            st.value = init_regs[r];
        st.awaitingPred = r != 0 && busy_mask.test(r);
        st.writerIssued = false;
        st.writtenWB = false;
        st.pendingWriters = 0;
        expectedProducer_[size_t(r)] =
            st.awaitingPred ? expected_producers[r] : 0;
    }
    regs_[0].value = RegValue::fromWord(0);
    unready_ = busy_mask - RegMask{0};
    q_.clear();
    dispatched_ = 0;
    calendar_.clear();
    fetchPc_ = start_pc;
    fetchEnabled_ = true;
    awaitRedirect_ = false;
    pendingFetchReady_ = 0;
    status_ = Status::kRunning;
    oracleArmed_ = false;
    writtenMask_ = RegMask();
    explicitFwdMask_ = RegMask();
    ++stats_.tasksAssigned;
}

void
ProcessingUnit::setWriteOracle(const RegMask &may_write,
                               const RegMask &may_forward)
{
    panicIf(status_ == Status::kFree,
            "setWriteOracle needs an assigned task");
    oracleArmed_ = true;
    oracleMayWrite_ = may_write;
    oracleMayForward_ = may_forward;
}

std::uint64_t
ProcessingUnit::flush()
{
    q_.clear();
    dispatched_ = 0;
    calendar_.clear();
    pendingFetchReady_ = 0;
    awaitRedirect_ = false;
    fetchEnabled_ = false;
    status_ = Status::kFree;
    ++stats_.tasksSquashed;
    return taskInstructions_;
}

std::uint64_t
ProcessingUnit::retire()
{
    panicIf(status_ != Status::kDone, "retire of a non-done unit");
    if (oracleArmed_) {
        // The task ran to completion on the correct path: everything
        // it did must have been foreseen by the static analysis.
        const RegMask wrote = writtenMask_ - oracleMayWrite_;
        panicIf(!wrote.empty(),
                "write-set oracle: unit ", id_, " wrote {",
                wrote.toString(),
                "} outside the static may-write set {",
                oracleMayWrite_.toString(), "}");
        const RegMask fwd = explicitFwdMask_ - oracleMayForward_;
        panicIf(!fwd.empty(),
                "write-set oracle: unit ", id_,
                " explicitly forwarded {", fwd.toString(),
                "} outside the static forward-point set {",
                oracleMayForward_.toString(), "}");
    }
    status_ = Status::kFree;
    ++stats_.tasksRetired;
    return taskInstructions_;
}

std::array<RegValue, kNumRegs>
ProcessingUnit::regValues() const
{
    std::array<RegValue, kNumRegs> out;
    for (int r = 0; r < kNumRegs; ++r)
        out[size_t(r)] = regs_[size_t(r)].value;
    return out;
}

bool
ProcessingUnit::deliverForward(RegIndex reg, RegValue value,
                               TaskSeq producer)
{
    if (status_ == Status::kFree || reg <= 0 || reg >= kNumRegs)
        return false;
    RegState &st = regs_[size_t(reg)];
    if (!st.awaitingPred)
        return false;
    if (producer != expectedProducer_[size_t(reg)])
        return false;  // from a farther or stale producer; ignore
    // A local write shadows the incoming (logically older) value.
    if (!st.writerIssued && !st.writtenWB)
        st.value = value;
    st.awaitingPred = false;
    if (st.pendingWriters == 0)
        unready_.clear(reg);
    return true;
}

RegValue
ProcessingUnit::regRead(RegIndex reg) const
{
    if (reg <= 0 || reg >= kNumRegs)
        return RegValue::fromWord(0);
    return regs_[size_t(reg)].value;
}

void
ProcessingUnit::noteIssueDest(RegIndex reg)
{
    if (reg <= 0 || reg >= kNumRegs)
        return;
    RegState &st = regs_[size_t(reg)];
    ++st.pendingWriters;
    st.writerIssued = true;
    unready_.set(reg);
}

void
ProcessingUnit::forwardValue(RegIndex reg, RegValue value)
{
    if (reg <= 0 || reg >= kNumRegs)
        return;
    if (forwardedMask_.test(reg))
        return;  // a value is sent at most once per task
    panicIf(!createMask_.test(reg),
            "unit ", id_, " forwards ", isa::regName(reg),
            " which is not in the task's create mask");
    activity_ = true;
    forwardedMask_.set(reg);
    forwardedValues_[size_t(reg)] = value;
    ctx_.forwardReg(id_, reg, value);
    ++stats_.forwards;
}

bool
ProcessingUnit::predictTaken(const Instruction &inst, Addr pc) const
{
    if (inst.isAlwaysTaken())
        return true;
    if (inst.isNeverTaken())
        return false;
    switch (inst.tags.stop) {
      case StopKind::kIfTaken:
        return false;  // common case: stay in the task
      case StopKind::kIfNotTaken:
        return true;   // common case: stay in the task
      default:
        break;
    }
    if (config_.intraBranchPredict && !branchTable_.empty()) {
        const auto &ctr =
            branchTable_[size_t(pc / kInstrBytes) % branchTable_.size()];
        return ctr.taken();
    }
    // Static: backward taken, forward not taken.
    return inst.target <= pc;
}

void
ProcessingUnit::trainBranch(Addr pc, bool taken)
{
    if (!config_.intraBranchPredict || branchTable_.empty())
        return;
    auto &ctr =
        branchTable_[size_t(pc / kInstrBytes) % branchTable_.size()];
    if (taken)
        ctr.increment();
    else
        ctr.decrement();
}

void
ProcessingUnit::flushYounger(size_t index)
{
    for (size_t i = index + 1; i < dispatched_; ++i) {
        panicIf(q_[i].issued && !q_[i].done,
                "flushing an in-flight younger instruction");
    }
    q_.truncate(index + 1);
    dispatched_ = index + 1;
    pendingFetchReady_ = 0;
}

void
ProcessingUnit::exitTask(Addr successor)
{
    // The caller has flushed everything younger than the stop point.
    panicIf(status_ != Status::kRunning, "task exit while not running");
    status_ = Status::kExited;
    fetchEnabled_ = false;
    awaitRedirect_ = false;
    ctx_.taskExited(id_, successor);
}

void
ProcessingUnit::resolveBranch(Slot &slot, size_t index)
{
    const Instruction &inst = *slot.inst;
    const bool taken = slot.branch.taken;
    const Addr fallthrough = slot.pc + kInstrBytes;
    const Addr next = taken ? slot.branch.target : fallthrough;

    if (inst.isCondBranch())
        trainBranch(slot.pc, taken);

    const StopKind stop = inst.tags.stop;
    const bool exits = stop == StopKind::kAlways ||
                       (stop == StopKind::kIfTaken && taken) ||
                       (stop == StopKind::kIfNotTaken && !taken);
    if (exits) {
        flushYounger(index);
        exitTask(next);
        return;
    }

    if (inst.op == Opcode::kJr || inst.op == Opcode::kJalr) {
        // Fetch was stalled on this unknown target.
        awaitRedirect_ = false;
        flushYounger(index);
        fetchPc_ = next;
        fetchEnabled_ = true;
        return;
    }
    if (taken != slot.predTaken) {
        ++stats_.branchMispredicts;
        flushYounger(index);
        awaitRedirect_ = false;  // any younger jr was just flushed
        fetchPc_ = next;
        fetchEnabled_ = true;
    }
}

void
ProcessingUnit::writeback(const Slot &slot)
{
    const Instruction &inst = *slot.inst;
    const RegIndex dest = inst.dest;
    if (dest > 0 && dest < kNumRegs) {
        RegState &st = regs_[size_t(dest)];
        st.value = slot.result;
        panicIf(st.pendingWriters == 0, "writeback without pending writer");
        --st.pendingWriters;
        st.writtenWB = true;
        if (st.pendingWriters == 0)
            unready_.clear(dest);
        writtenMask_.set(dest);
    }
    if (inst.tags.forward) {
        panicIf(dest == kNoReg,
                "forward bit on an instruction with no destination");
        if (dest > 0) {
            explicitFwdMask_.set(dest);
            forwardValue(dest, slot.result);
        }
    }
    taskInstructions_ += 1;
    ++stats_.instructions;
}

void
ProcessingUnit::completePhase(Cycle now)
{
    // Nothing completes before the calendar's head.
    if (now < nextDoneAt())
        return;
    activity_ = true;
    // A unit never sleeps past its calendar's head, so every slot due
    // now has doneAt == now and they come off oldest first.
    bool head_done = false;
    while (now >= nextDoneAt()) {
        const size_t i = size_t(calendar_.front().serial - popped_);
        std::pop_heap(calendar_.begin(), calendar_.end(), later);
        calendar_.pop_back();
        head_done = head_done || i == 0;
        Slot &slot = q_[i];
        slot.done = true;
        writeback(slot);
        const Instruction &inst = *slot.inst;
        if (isa::isControl(inst.opClass)) {
            resolveBranch(slot, i);
            if (status_ != Status::kRunning)
                break;
        } else if (inst.tags.stop == StopKind::kAlways) {
            flushYounger(i);
            exitTask(slot.pc + kInstrBytes);
            break;
        }
    }
    // Pop the done slots off the window head. Only this phase marks
    // slots done and it always leaves a not-done head, so there is
    // something to pop only when the head itself completed.
    if (!head_done)
        return;
    do {
        q_.pop_front();
        --dispatched_;
        ++popped_;
    } while (dispatched_ > 0 && q_.front().done);
}

bool
ProcessingUnit::slotReady(const Slot &slot, size_t index,
                          const OlderUnissued &older) const
{
    const Instruction &inst = *slot.inst;
    if (!(inst.srcs & unready_).empty())
        return false;  // an operand is still to come

    if (inst.dest > 0 && regs_[size_t(inst.dest)].pendingWriters > 0)
        return false;  // WAW against an in-flight writer

    // Memory operations issue in program order among themselves.
    if (inst.memOp && older.mem)
        return false;

    // Syscalls execute only as the oldest instruction, at the head.
    if (inst.opClass == InstClass::kSyscall) {
        if (index != 0)
            return false;
        if (!ctx_.syscallAllowed(id_))
            return false;
    }

    // Scoreboard hazards against older, un-issued instructions: RAW
    // (they write a source), WAW (they write our destination) and
    // WAR (they read it).
    if (config_.outOfOrder &&
        (!(inst.srcs & older.dests).empty() ||
         older.dests.test(inst.dest) || older.srcs.test(inst.dest)))
        return false;
    return true;
}

bool
ProcessingUnit::tryIssue(Slot &slot, size_t index, Cycle now)
{
    const Instruction &inst = *slot.inst;
    const FuKind fu = inst.fu;

    // Pipelined FUs: per-cycle acceptance capacity.
    const unsigned capacity =
        fu == FuKind::kSimpleInt ? config_.numSimpleIntFus() : 1;
    if (fuAccepts_[size_t(fu)] >= capacity)
        return false;

    const RegValue rs_val = regRead(inst.rs);
    const RegValue rt_val = regRead(inst.rt);

    switch (inst.opClass) {
      case InstClass::kLoad: {
        const Addr addr = isa::memAddr(inst, rs_val);
        const unsigned size = isa::memSize(inst.op);
        if (!ctx_.memHasSpace(id_, addr, size, true))
            return false;
        const std::uint64_t raw = ctx_.memLoad(id_, addr, size);
        slot.result = isa::loadResult(inst.op, raw);
        slot.doneAt = ctx_.dcacheAccess(id_, now + 1, addr, false);
        break;
      }
      case InstClass::kStore: {
        const Addr addr = isa::memAddr(inst, rs_val);
        const unsigned size = isa::memSize(inst.op);
        if (!ctx_.memHasSpace(id_, addr, size, false))
            return false;
        ctx_.memStore(id_, addr, size,
                      isa::storeBytes(inst.op, rt_val));
        ctx_.dcacheAccess(id_, now + 1, addr, true);
        slot.doneAt = now + 1;
        break;
      }
      case InstClass::kBranch:
        slot.branch = isa::evalBranch(inst, rs_val, rt_val);
        if (inst.op == Opcode::kJal || inst.op == Opcode::kJalr)
            slot.result = isa::evalAlu(inst, rs_val, rt_val, slot.pc);
        slot.doneAt = now + 1;
        break;
      case InstClass::kSyscall:
        slot.result = ctx_.doSyscall(
            id_, regRead(isa::intReg(isa::kRegV0)),
            regRead(isa::intReg(isa::kRegA0)),
            regRead(isa::intReg(isa::kRegA1)));
        slot.doneAt = now + 1;
        break;
      case InstClass::kRelease:
        if (inst.rs > 0) {
            explicitFwdMask_.set(inst.rs);
            forwardValue(inst.rs, regRead(inst.rs));
        }
        if (inst.rel2 > 0) {
            explicitFwdMask_.set(inst.rel2);
            forwardValue(inst.rel2, regRead(inst.rel2));
        }
        slot.doneAt = now + 1;
        ++stats_.releases;
        break;
      case InstClass::kNop:
        slot.doneAt = now + 1;
        break;
      default:
        slot.result = isa::evalAlu(inst, rs_val, rt_val, slot.pc);
        slot.doneAt = now + inst.latency;
        break;
    }

    slot.issued = true;
    calendar_.push_back({slot.doneAt, popped_ + index});
    std::push_heap(calendar_.begin(), calendar_.end(), later);
    fuAccepts_[size_t(fu)] += 1;
    noteIssueDest(inst.dest);
    return true;
}

/**
 * Issue up to issueWidth ready slots, oldest first. On return every
 * slot before @p unissued is issued, and if the walk met an un-issued
 * slot, @p unissued is its index.
 */
unsigned
ProcessingUnit::issuePhase(Cycle now, bool &saw_ready, size_t &unissued)
{
    unsigned issued = 0;
    OlderUnissued older;
    unissued = dispatched_;
    for (size_t i = 0; i < dispatched_ && issued < config_.issueWidth; ++i) {
        Slot &slot = q_[i];
        if (slot.done)
            continue;
        const Instruction &inst = *slot.inst;
        if (slot.issued) {
            // No issue past an unresolved branch or syscall.
            if (inst.barrier) {
                unissued = std::min(unissued, i + 1);
                break;
            }
            continue;
        }
        unissued = std::min(unissued, i);
        if (slotReady(slot, i, older)) {
            if (tryIssue(slot, i, now)) {
                ++issued;
                if (inst.barrier)
                    break;
                continue;
            }
            // Held back by FU capacity or a full ARB: retry next cycle.
            saw_ready = true;
        }
        // In-order issue stalls at the first non-ready instruction;
        // out-of-order may look further (but never past a barrier).
        if (!config_.outOfOrder || inst.barrier)
            break;
        older.add(inst);
    }
    return issued;
}

void
ProcessingUnit::dispatchPhase()
{
    if (status_ != Status::kRunning)
        return;
    const size_t limit = std::min({q_.size(), dispatched_ + config_.issueWidth,
                                   size_t(config_.windowSize)});
    if (dispatched_ < limit) {
        dispatched_ = limit;
        activity_ = true;
    }
}

void
ProcessingUnit::fetchPhase(Cycle now)
{
    if (status_ != Status::kRunning || !fetchEnabled_ || awaitRedirect_)
        return;
    if (fetched() + config_.issueWidth > config_.fetchBufferSize)
        return;

    if (pendingFetchReady_ != 0) {
        if (now < pendingFetchReady_)
            return;  // icache miss still outstanding (quiescent)
        pendingFetchReady_ = 0;
        activity_ = true;
    } else {
        const Cycle ready = ctx_.icacheAccess(id_, now, fetchPc_);
        activity_ = true;
        if (ready > now + 1) {
            pendingFetchReady_ = ready;
            return;
        }
    }

    // Deliver up to issueWidth sequential instructions.
    for (unsigned k = 0; k < config_.issueWidth; ++k) {
        const Instruction *inst = ctx_.instrAt(fetchPc_);
        if (!inst) {
            // Ran off the program text (wrong path); stop fetching.
            fetchEnabled_ = false;
            ++stats_.fetchOffText;
            return;
        }
        // Assign each field in place: a Slot temporary copied in would
        // be reloaded whole soon after its byte stores, which defeats
        // store-to-load forwarding.
        Slot &slot = q_.extend();
        slot.inst = inst;
        slot.pc = fetchPc_;
        slot.issued = false;
        slot.done = false;
        slot.predTaken = false;

        bool break_group = false;
        if (!isa::isControl(inst->opClass)) {
            fetchPc_ += kInstrBytes;
        } else if (inst->isJump()) {
            slot.predTaken = true;
            if (inst->op == Opcode::kJ || inst->op == Opcode::kJal) {
                fetchPc_ = inst->target;
            } else {
                awaitRedirect_ = true;  // jr/jalr: wait for resolve
            }
            break_group = true;
        } else {  // a conditional branch
            slot.predTaken = predictTaken(*inst, fetchPc_);
            if (slot.predTaken) {
                fetchPc_ = inst->target;
                break_group = true;
            } else {
                fetchPc_ += kInstrBytes;
            }
        }
        if (inst->tags.stop == StopKind::kAlways) {
            // Nothing of this task lies beyond a stop-always point.
            fetchEnabled_ = false;
            break_group = true;
        }
        if (break_group)
            break;
    }
}

void
ProcessingUnit::autoReleasePhase()
{
    if (status_ != Status::kExited)
        return;
    if (dispatched_ != 0)
        return;  // older instructions may still write create-mask regs
    RegMask remaining = createMask_ - forwardedMask_;
    for (int r = 1; r < kNumRegs; ++r) {
        if (!remaining.test(r))
            continue;
        if (!unready_.test(r)) {
            forwardValue(RegIndex(r), regRead(RegIndex(r)));
            ++stats_.implicitReleases;
        }
    }
    // Done once every create-mask register has been sent.
    if ((createMask_ - forwardedMask_).empty())
        status_ = Status::kDone;
}

bool
ProcessingUnit::memOpInFlight() const
{
    for (const Due &due : calendar_) {
        if (q_[size_t(due.serial - popped_)].inst->memOp)
            return true;
    }
    return false;
}

/**
 * Classify what this (non-free, zero-issue unless busy) cycle was
 * spent on. A stall whose oldest obstacle is a memory operation (in
 * flight in the dcache, or retrying against a full ARB) is memory
 * wait, distinguished from generic intra-task latency.
 */
CycleCat
ProcessingUnit::classifyCycle(unsigned issued_count, size_t unissued) const
{
    if (issued_count > 0)
        return CycleCat::kBusy;
    if (status_ == Status::kDone)
        return CycleCat::kRetireWait;
    if (status_ == Status::kExited && dispatched_ == 0)
        return CycleCat::kRetireWait;

    // Attribute the stall to the oldest un-issued instruction; the
    // slots before issuePhase's @p unissued are all issued.
    const Instruction *oldest = nullptr;
    for (size_t i = unissued; i < dispatched_; ++i) {
        if (!q_[i].issued) {
            oldest = q_[i].inst;
            break;
        }
    }
    if (!oldest) {
        if (memOpInFlight())
            return CycleCat::kMemWait;
        if (!calendar_.empty())
            return CycleCat::kIntraWait;
        return status_ == Status::kRunning ? CycleCat::kFetchStall
                                           : CycleCat::kRetireWait;
    }
    // Sources other than r0, which never waits on the ring.
    for (std::uint64_t m = oldest->srcs.bits() & ~std::uint64_t(1); m != 0;
         m &= m - 1) {
        const RegState &st = regs_[size_t(std::countr_zero(m))];
        if (st.awaitingPred && !st.writtenWB && st.pendingWriters == 0)
            return CycleCat::kRingWait;
    }
    if (oldest->memOp || memOpInFlight())
        return CycleCat::kMemWait;
    return CycleCat::kIntraWait;
}

Cycle
ProcessingUnit::dueAfter(Cycle now, bool saw_ready) const
{
    const Cycle soon = now + 1;
    // Changed state, or a ready slot retries FU capacity or a full
    // ARB: the unit may act again next cycle.
    if (activity_ || saw_ready)
        return soon;
    // Nothing changed, so every slot issuePhase could reach waits on
    // an operand, an older slot or a permission: only a completion,
    // a dispatch or a fetch can act before an external input. A
    // syscall's permission is one: it comes when the unit becomes
    // the head, and the processor wakes the new head then.
    Cycle next = nextDoneAt();
    if (status_ == Status::kRunning) {
        if (fetched() > 0 && dispatched_ < config_.windowSize)
            return soon;  // dispatch
        if (fetchEnabled_ && !awaitRedirect_ &&
            fetched() + config_.issueWidth <= config_.fetchBufferSize)
            next = std::min(next, pendingFetchReady_ != 0
                                      ? pendingFetchReady_
                                      : soon);
    }
    return next;
}

void
ProcessingUnit::describeOldest(std::ostream &os) const
{
    if (dispatched_ == 0) {
        os << "window empty";
        return;
    }
    const Slot &slot = q_.front();
    os << "oldest " << isa::opInfo(slot.inst->op).mnemonic;
    if (slot.issued)
        os << " due @" << slot.doneAt;
    else
        os << " unissued";
}

void
ProcessingUnit::traceOccupancy(Cycle now, unsigned issued)
{
    if (tracer_ && tracer_->wants(TraceCat::kPu)) {
        tracer_->counter(TraceCat::kPu, occupancyName_, now, id_,
                         "window", dispatched_, "issued", issued);
    }
}

Cycle
ProcessingUnit::tick(Cycle now)
{
    if (status_ == Status::kFree)
        return kCycleNever;
    activity_ = false;
    fuAccepts_.fill(0);
    completePhase(now);
    unsigned issued = 0;
    bool saw_ready = false;
    size_t unissued = 0;
    if (status_ == Status::kRunning || status_ == Status::kExited)
        issued = issuePhase(now, saw_ready, unissued);
    if (issued > 0)
        activity_ = true;
    dispatchPhase();
    fetchPhase(now);
    autoReleasePhase();
    if (acct_)
        acct_->record(id_, classifyCycle(issued, unissued), now);
    traceOccupancy(now, issued);
    return dueAfter(now, saw_ready);
}

} // namespace msim
