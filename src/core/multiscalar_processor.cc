#include "core/multiscalar_processor.hh"

#include <algorithm>

#include <cstdio>

#include "common/logging.hh"
#include "core/run_loop.hh"
#include "isa/registers.hh"

namespace msim {

MultiscalarProcessor::MultiscalarProcessor(const Program &program,
                                           const MsConfig &config)
    : Machine(program, config.numUnits,
              [this](Addr a) {
                  // Head-visible memory: committed state plus the
                  // head task's own buffered stores.
                  if (numActive_ > 0) {
                      return std::uint8_t(arb_->load(
                          seqOf(unitAt(0)), a, 1, /*is_head=*/true));
                  }
                  return std::uint8_t(mem_.read(a, 1));
              }),
      config_(config), coreStats_{stats_.group("core")}
{
    buildMemorySide(config);
    Tracer *tracer = tracer_.get();
    if (tracer) {
        tracer->threadName(kTidSequencer, "sequencer");
        tracer->threadName(kTidBus, "bus");
        tracer->threadName(kTidRing, "ring");
        tracer->threadName(kTidArb, "arb");
        for (unsigned u = 0; u < config.numUnits; ++u) {
            tracer->threadName(u, "pu" + std::to_string(u));
            tracer->threadName(kTidIcacheBase + u,
                               "icache" + std::to_string(u));
        }
        for (unsigned b = 0; b < config.effectiveBanks(); ++b) {
            tracer->threadName(kTidDcacheBase + b,
                               "dcache" + std::to_string(b));
        }
        if (l2_)
            tracer->threadName(kTidL2Base, "l2");
    }
    for (unsigned u = 0; u < config.numUnits; ++u) {
        icaches_.push_back(std::make_unique<Cache>(
            stats_.group("icache" + std::to_string(u)), l1Next(),
            config.icache, tracer, kTidIcacheBase + u));
    }
    dcache_ = std::make_unique<BankedDataCache>(
        stats_, l1Next(),
        BankedDataCache::Params{config.effectiveBanks(),
                                config.bankSizeBytes, config.blockBytes,
                                config.dcacheHitLatency},
        tracer);
    if (l2_) {
        // Inclusive-policy back-invalidation: an evicted L2 block
        // must leave every L1 above (icache fetches use the global
        // pc as their local address; the banked dcache translates).
        l2_->setBackInvalidate([this](Addr addr) {
            bool dirty = dcache_->invalidateBlock(addr);
            for (auto &icache : icaches_)
                dirty = icache->invalidateBlock(addr) || dirty;
            return dirty;
        });
    }
    arb_ = std::make_unique<Arb>(
        stats_.group("arb"), mem_,
        Arb::Params{config.effectiveBanks(), config.blockBytes,
                    config.arbEntriesPerBank},
        tracer);
    ring_ = std::make_unique<ForwardRing>(stats_.group("ring"),
                                          config.numUnits,
                                          config.pu.issueWidth,
                                          config.ringHopLatency,
                                          tracer);
    predictor_ = makeTaskPredictor(config.predictor);
    ras_ = std::make_unique<ReturnStack>(config.rasEntries);
    descCache_ = std::make_unique<DescriptorCache>(
        stats_.group("desccache"), *bus_, config.descCacheEntries);
    for (unsigned u = 0; u < config.numUnits; ++u) {
        units_.push_back(std::make_unique<ProcessingUnit>(
            u, config.pu, *this, stats_.group("pu" + std::to_string(u)),
            &acct_, tracer));
    }
    due_.assign(config.numUnits, kCycleNever);
    taskInfo_.resize(config.numUnits);
    if (config.writeSetOracle || config.memDepOracle)
        oracle_ = std::make_unique<analysis::AnnotationVerifier>(program);
    if (config.memDepOracle) {
        memDep_ =
            std::make_unique<analysis::MemDepAnalysis>(program, *oracle_);
    }
}

unsigned
MultiscalarProcessor::unitAt(unsigned position) const
{
    return (head_ + position) % config_.numUnits;
}

unsigned
MultiscalarProcessor::positionOf(unsigned unit) const
{
    return (unit + config_.numUnits - head_) % config_.numUnits;
}

bool
MultiscalarProcessor::unitIsHead(unsigned unit) const
{
    return numActive_ > 0 && unit == head_;
}

TaskSeq
MultiscalarProcessor::seqOf(unsigned unit) const
{
    return taskInfo_[unit].seq;
}

// --------------------------------------------------------------------
// PuContext implementation
// --------------------------------------------------------------------

Cycle
MultiscalarProcessor::icacheAccess(unsigned unit, Cycle now, Addr pc)
{
    return icaches_[unit]->access(now, pc, false);
}

Cycle
MultiscalarProcessor::dcacheAccess(unsigned unit, Cycle now, Addr addr,
                                   bool write)
{
    (void)unit;
    return dcache_->access(now, addr, write);
}

bool
MultiscalarProcessor::memHasSpace(unsigned unit, Addr addr, unsigned size,
                                  bool is_load)
{
    const bool ok = arb_->hasSpaceFor(seqOf(unit), addr, size, is_load,
                                      unitIsHead(unit));
    if (!ok) {
        ++coreStats_.arbFullStalls;
        if (tracer_ && tracer_->wants(TraceCat::kArb)) {
            tracer_->instant(TraceCat::kArb, "arb_full", tracer_->now(),
                             kTidArb, "unit", unit, "addr", addr);
        }
        if (config_.arbFullPolicy == ArbFullPolicy::kSquash)
            arbFullEvent_ = true;
    }
    return ok;
}

std::uint64_t
MultiscalarProcessor::memLoad(unsigned unit, Addr addr, unsigned size)
{
    return arb_->load(seqOf(unit), addr, size, unitIsHead(unit));
}

void
MultiscalarProcessor::memStore(unsigned unit, Addr addr, unsigned size,
                               std::uint64_t value)
{
    auto violator = arb_->store(seqOf(unit), addr, size, value,
                                unitIsHead(unit));
    if (violator) {
        if (memDep_) {
            // The earliest violated task must be active: find its
            // unit to learn which static task it is running.
            const Addr storeTask = taskInfo_[unit].start;
            Addr loadTask = 0;
            for (unsigned p = 0; p < numActive_; ++p) {
                if (seqOf(unitAt(p)) == *violator) {
                    loadTask = taskInfo_[unitAt(p)].start;
                    break;
                }
            }
            panicIf(loadTask == 0,
                    "mem-dep oracle: violated seq ", *violator,
                    " is not an active task");
            if (!memDep_->violationPredicted(storeTask, loadTask, addr,
                                             size)) {
                char what[128];
                std::snprintf(what, sizeof(what),
                              "store task 0x%x -> load task 0x%x at "
                              "addr 0x%x size %u",
                              storeTask, loadTask, addr, size);
                panic("mem-dep oracle: ARB violation (", what,
                      ") outside the static may-conflict prediction");
            }
        }
        if (!pendingViolation_ || *violator < *pendingViolation_)
            pendingViolation_ = *violator;
    }
}

void
MultiscalarProcessor::forwardReg(unsigned unit, RegIndex reg,
                                 isa::RegValue value)
{
    RingMessage msg;
    msg.reg = reg;
    msg.value = value;
    msg.producer = seqOf(unit);
    ring_->send(unit, msg);
    // Update the sequencer's walk ledger: the value the walk was
    // waiting on from this producer is now known.
    WalkReg &wr = walkRegs_[size_t(reg)];
    if (wr.pending && wr.producer == msg.producer) {
        wr.value = value;
        wr.pending = false;
    }
}

bool
MultiscalarProcessor::syscallAllowed(unsigned unit)
{
    return unitIsHead(unit);
}

void
MultiscalarProcessor::taskExited(unsigned unit, Addr next_task)
{
    exitEvents_.push_back({unit, seqOf(unit), next_task});
}

// --------------------------------------------------------------------
// Sequencer
// --------------------------------------------------------------------

Addr
MultiscalarProcessor::resolveTarget(const TaskTarget &target)
{
    switch (target.spec) {
      case TargetSpec::kReturn:
        return ras_->pop();
      case TargetSpec::kCall:
        ras_->push(target.returnTo);
        return target.addr;
      default:
        return target.addr;
    }
}

unsigned
MultiscalarProcessor::actualTargetIndex(const ActiveTask &task,
                                        Addr actual) const
{
    int return_index = -1;
    for (unsigned i = 0; i < task.desc->targets.size(); ++i) {
        const TaskTarget &t = task.desc->targets[i];
        if (t.spec == TargetSpec::kReturn) {
            return_index = int(i);
            continue;
        }
        if (t.addr == actual)
            return i;
    }
    if (return_index >= 0)
        return unsigned(return_index);
    panic("task at 0x", std::hex, task.start,
          " exited to undeclared successor 0x", actual, std::dec,
          " (missing .targets entry?)");
}

void
MultiscalarProcessor::squashFrom(TaskSeq from, const char *event,
                                 std::uint64_t &counter, Cycle now)
{
    while (numActive_ > 0) {
        const unsigned tail_unit = unitAt(numActive_ - 1);
        if (taskInfo_[tail_unit].seq < from)
            break;
        const std::uint64_t executed = pu(tail_unit).flush();
        result_.squashedInstructions += executed;
        progress_ += executed;
        due_[tail_unit] = kCycleNever;
        result_.tasksSquashed += 1;
        acct_.squashTask(tail_unit, now + 1);
        if (tracer_ && tracer_->wants(TraceCat::kTask)) {
            tracer_->instant(TraceCat::kTask, event, now, tail_unit,
                             "seq", taskInfo_[tail_unit].seq);
            tracer_->end(TraceCat::kTask, now, tail_unit);
        }
        arb_->squash(taskInfo_[tail_unit].seq);
        taskInfo_[tail_unit] = ActiveTask{};
        --numActive_;
    }
    ++counter;
    rebuildWalkRegs();
    // The sequencer loses a step: any descriptor prefetch in progress
    // is abandoned.
    descFetchAddr_ = kBadAddr;
}

void
MultiscalarProcessor::rebuildWalkRegs()
{
    for (int r = 0; r < kNumRegs; ++r)
        walkRegs_[size_t(r)] = {archRegs_[size_t(r)], false, 0};
    for (unsigned p = 0; p < numActive_; ++p) {
        const unsigned unit = unitAt(p);
        const RegMask &create = pu(unit).createMask();
        const RegMask &fwd = pu(unit).forwardedMask();
        for (int r = 1; r < kNumRegs; ++r) {
            if (!create.test(r))
                continue;
            if (fwd.test(r)) {
                walkRegs_[size_t(r)] = {
                    pu(unit).forwardedValue(RegIndex(r)), false, 0};
            } else {
                walkRegs_[size_t(r)] = {isa::RegValue{}, true,
                                        taskInfo_[unit].seq};
            }
        }
    }
}

void
MultiscalarProcessor::validateExit(const ExitEvent &event, Cycle now)
{
    const unsigned unit = event.unit;
    // The task may have been squashed since the event fired.
    if (positionOf(unit) >= numActive_)
        return;
    ActiveTask &task = taskInfo_[unit];
    if (task.seq != event.seq || !pu(unit).hasExited())
        return;

    const unsigned actual_idx = actualTargetIndex(task, event.actual);
    predictor_->update(task.start, *task.desc, actual_idx);
    if (task.counted) {
        result_.taskPredictions += 1;
        if (event.actual == task.predictedNext)
            result_.taskPredHits += 1;
    }
    if (event.actual == task.predictedNext)
        return;

    // Control misprediction: squash every later task and restart the
    // walk from the actual successor.
    result_.controlSquashes += 1;
    squashFrom(task.seq + 1, "squash_control", coreStats_.squashControl,
               now);
    ras_->restore(task.rasCp);
    const TaskTarget &t = task.desc->targets[actual_idx];
    if (t.spec == TargetSpec::kCall)
        ras_->push(t.returnTo);
    else if (t.spec == TargetSpec::kReturn)
        ras_->pop();  // consume the (stale) predicted entry
    nextTaskAddr_ = event.actual;
}

void
MultiscalarProcessor::deferredPhase(Cycle now)
{
    // 1. Memory dependence violations (earliest wins).
    if (pendingViolation_) {
        const TaskSeq v = *pendingViolation_;
        pendingViolation_.reset();
        // Find the violated task; it restarts at its own address.
        for (unsigned p = 0; p < numActive_; ++p) {
            const unsigned unit = unitAt(p);
            if (taskInfo_[unit].seq >= v) {
                const Addr restart = taskInfo_[unit].start;
                const auto ras_cp = taskInfo_[unit].rasCp;
                result_.memorySquashes += 1;
                squashFrom(taskInfo_[unit].seq, "squash_memory",
                           coreStats_.squashMemory, now);
                ras_->restore(ras_cp);
                nextTaskAddr_ = restart;
                break;
            }
        }
    }

    // 2. Task exits in task order.
    std::sort(exitEvents_.begin(), exitEvents_.end(),
              [](const ExitEvent &a, const ExitEvent &b) {
                  return a.seq < b.seq;
              });
    for (const ExitEvent &event : exitEvents_)
        validateExit(event, now);
    exitEvents_.clear();

    // 3. ARB capacity policy.
    if (arbFullEvent_) {
        arbFullEvent_ = false;
        if (config_.arbFullPolicy == ArbFullPolicy::kSquash &&
            numActive_ > 1) {
            const unsigned tail_unit = unitAt(numActive_ - 1);
            const Addr restart = taskInfo_[tail_unit].start;
            const auto ras_cp = taskInfo_[tail_unit].rasCp;
            result_.arbFullSquashes += 1;
            squashFrom(taskInfo_[tail_unit].seq, "squash_arbfull",
                       coreStats_.squashArbFull, now);
            ras_->restore(ras_cp);
            nextTaskAddr_ = restart;
        }
    }
}

void
MultiscalarProcessor::retirePhase(Cycle now)
{
    if (numActive_ == 0)
        return;
    const unsigned head_unit = unitAt(0);
    if (!pu(head_unit).isDone())
        return;
    acct_.commitTask(head_unit, now + 1);
    if (tracer_ && tracer_->wants(TraceCat::kTask)) {
        tracer_->instant(TraceCat::kTask, "retire", now, head_unit,
                         "seq", taskInfo_[head_unit].seq);
        tracer_->end(TraceCat::kTask, now, head_unit);
    }
    arb_->commit(taskInfo_[head_unit].seq);
    // Architectural register state advances by the values this task
    // forwarded (a done task has forwarded its whole create mask).
    for (int r = 1; r < kNumRegs; ++r) {
        if (pu(head_unit).createMask().test(r))
            archRegs_[size_t(r)] =
                pu(head_unit).forwardedValue(RegIndex(r));
    }
    const std::uint64_t executed = pu(head_unit).retire();
    result_.instructions += executed;
    result_.tasksRetired += 1;
    progress_ += executed + 1;
    due_[head_unit] = kCycleNever;
    taskInfo_[head_unit] = ActiveTask{};
    head_ = (head_ + 1) % config_.numUnits;
    --numActive_;
    // The new head may run a syscall it was refused so far.
    if (numActive_ > 0)
        due_[unitAt(0)] = std::min(due_[unitAt(0)], now + 1);
}

void
MultiscalarProcessor::assignPhase(Cycle now)
{
    if (!nextTaskAddr_ || numActive_ >= config_.numUnits)
        return;
    const Addr addr = *nextTaskAddr_;

    // Task descriptor availability (descriptor cache timing).
    if (descFetchAddr_ != addr) {
        descFetchAddr_ = addr;
        descReadyAt_ = descCache_->access(now, addr);
    }
    if (now < descReadyAt_)
        return;

    const TaskDescriptor *desc = program_.taskAt(addr);
    fatalIf(!desc, "no task descriptor at 0x",
            std::hex, addr, std::dec,
            " — the multiscalar walk needs one at every task entry");

    const unsigned unit = unitAt(numActive_);
    panicIf(!pu(unit).isFree(), "tail unit is not free");

    // Initial register state from the sequencer's walk ledger:
    // registers whose producing task has already forwarded them are
    // available immediately; the rest become reservations on their
    // specific producer, satisfied by physical ring messages.
    RegMask busy;
    std::array<TaskSeq, kNumRegs> producers{};
    std::array<isa::RegValue, kNumRegs> init{};
    for (int r = 0; r < kNumRegs; ++r) {
        const WalkReg &wr = walkRegs_[size_t(r)];
        init[size_t(r)] = wr.value;
        if (r != 0 && wr.pending) {
            busy.set(r);
            producers[size_t(r)] = wr.producer;
        }
    }

    // Predict this task's successor and continue the walk there.
    ActiveTask info;
    info.seq = nextSeq_++;
    info.start = addr;
    info.desc = desc;
    info.rasCp = ras_->checkpoint();
    if (desc->targets.empty()) {
        // Terminal task: the walk stops here.
        info.predictedNext = 0;
        info.counted = false;
        nextTaskAddr_.reset();
    } else {
        unsigned idx = 0;
        if (desc->targets.size() > 1)
            idx = predictor_->predict(addr, *desc);
        panicIf(idx >= desc->targets.size(), "predictor returned a bad "
                "target index");
        info.predictedNext = resolveTarget(desc->targets[idx]);
        info.counted = desc->targets.size() > 1;
        if (info.predictedNext == 0) {
            // An empty return stack leaves the walk with no target;
            // stop until the task exits and corrects us.
            nextTaskAddr_.reset();
        } else {
            nextTaskAddr_ = info.predictedNext;
        }
    }

    // The unit's count of its last task's instructions starts over.
    progress_ -= pu(unit).taskInstructions();
    pu(unit).assignTask(info.seq, addr, desc->createMask, busy,
                        init.data(), producers.data());
    due_[unit] = now + 1;
    if (oracle_ && config_.writeSetOracle) {
        const analysis::TaskFacts *facts = oracle_->facts(addr);
        if (facts && !facts->incomplete)
            pu(unit).setWriteOracle(facts->mayWrite, facts->mayForward);
    }
    taskInfo_[unit] = info;
    ++numActive_;
    descFetchAddr_ = kBadAddr;
    ++coreStats_.assignments;
    if (tracer_ && tracer_->wants(TraceCat::kTask)) {
        char name[32];
        std::snprintf(name, sizeof(name), "task@0x%x", unsigned(addr));
        tracer_->begin(TraceCat::kTask, name, now, unit, "seq",
                       info.seq, "pred", info.predictedNext);
    }
    if (tracer_ && tracer_->wants(TraceCat::kSeq)) {
        tracer_->instant(TraceCat::kSeq, "assign", now, kTidSequencer,
                         "unit", unit, "seq", info.seq);
    }

    // The walk moves past this task: everything it may create is now
    // pending on it.
    for (int r = 1; r < kNumRegs; ++r) {
        if (desc->createMask.test(r))
            walkRegs_[size_t(r)] = {isa::RegValue{}, true, info.seq};
    }
}

void
MultiscalarProcessor::ringPhase(Cycle now)
{
    ring_->tick(now, [this, now](unsigned unit, const RingMessage &msg) {
        if (pu(unit).deliverForward(msg.reg, msg.value, msg.producer))
            due_[unit] = now;
        // Values travel the whole ring (numUnits-1 hops). Stopping
        // early at a unit whose create mask holds the register looks
        // attractive, but once the task window wraps the ring, a
        // reassigned unit may carry a *newer* task than a consumer
        // further along the ring, and the early kill starves that
        // consumer. Delivery is already producer-guarded, so extra
        // hops are harmless.
        return true;
    });
}

void
MultiscalarProcessor::unitsPhase(Cycle now)
{
    // Head first: ring sends, ARB accesses and bus reservations
    // depend on the order.
    const unsigned n = config_.numUnits;
    for (unsigned p = 0, u = head_; p < n; ++p, u = u + 1 == n ? 0 : u + 1) {
        if (due_[u] > now && !tickEveryUnit_)
            continue;
        ProcessingUnit &unit = pu(u);
        const std::uint64_t before = unit.taskInstructions();
        due_[u] = unit.tick(now);
        progress_ += unit.taskInstructions() - before;
    }
}

bool
MultiscalarProcessor::stepCycle(Cycle now)
{
    ringPhase(now);
    unitsPhase(now);
    if (syscalls_.exited())
        return true;
    deferredPhase(now);
    retirePhase(now);
    assignPhase(now);
    return false;
}

Cycle
MultiscalarProcessor::nextEventCycle(Cycle now) const
{
    const Cycle soon = now + 1;
    Cycle next = *std::min_element(due_.begin(), due_.end());
    if (next <= soon)
        return soon;
    // A message on the ring moves or arrives next cycle, and a done
    // head task retires.
    if (!ring_->idle() || (numActive_ > 0 && pu(unitAt(0)).isDone()))
        return soon;
    // The sequencer: a descriptor fetch in flight has a known ready
    // cycle; otherwise an unblocked walk acts (starts a descriptor
    // access or assigns) next cycle.
    if (nextTaskAddr_ && numActive_ < config_.numUnits) {
        if (descFetchAddr_ == *nextTaskAddr_ && now < descReadyAt_)
            next = std::min(next, descReadyAt_);
        else
            return soon;
    }
    return next;
}

void
MultiscalarProcessor::foldTasks(Cycle end)
{
    // The head is architecturally committed work; later tasks are
    // speculative and do not count.
    for (unsigned p = 0; p < numActive_; ++p) {
        const unsigned unit = unitAt(p);
        const std::uint64_t executed = pu(unit).taskInstructions();
        if (p == 0) {
            result_.instructions += executed;
            result_.tasksRetired += 1;
            acct_.commitTask(unit, end);
        } else {
            result_.squashedInstructions += executed;
            result_.tasksSquashed += 1;
            acct_.squashTask(unit, end);
        }
    }
}

void
MultiscalarProcessor::dumpState(std::ostream &os) const
{
    for (unsigned p = 0; p < numActive_; ++p) {
        const unsigned unit = unitAt(p);
        dumpUnit(os, pu(unit), taskInfo_[unit].start);
    }
}

RunResult
MultiscalarProcessor::run(Cycle max_cycles)
{
    startRun("MultiscalarProcessor");

    fatalIf(!program_.taskAt(program_.entry),
            "multiscalar program needs a task descriptor at the entry "
            "point");
    archRegs_ = {};
    archRegs_[size_t(isa::kRegSp)] = isa::RegValue::fromWord(kStackTop);
    rebuildWalkRegs();
    nextTaskAddr_ = program_.entry;
    return runLoop(*this, max_cycles);
}

} // namespace msim
