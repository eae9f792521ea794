/**
 * @file
 * The run loop both machines share. The scalar baseline is "a single
 * processing unit identical to a multiscalar unit" (paper section
 * 5.1) and is clocked the same way: one skeleton owns the tracer
 * clock, the no-progress watchdog, the quiescence fast-forward,
 * closing the cycle accounting and the RunResult fill. It reaches the
 * core through members and hooks resolved at compile time (no
 * per-cycle virtual call). A Core derives from Machine
 * (core/machine.hh), whose tracer_, acct_, result_, syscalls_,
 * stats_, l2_ (may be null) and fastForward_ the loop reads; it
 * befriends runLoop and provides kName (the watchdog's name for it)
 * and:
 *
 *   bool stepCycle(now)       tick one cycle; true = the program exited
 *   progressCount()           changes whenever any work gets done
 *   Cycle nextEventCycle(now) next cycle the core can act (now + 1:
 *                             no skip; kCycleNever: nothing scheduled)
 *   foldTasks(end)            settle the tasks in flight at cycle end
 *   dumpState(os)             the watchdog dump, one dumpUnit per task
 *
 * The units record their accounting runs from their ticks, and the
 * core commits or squashes each task's runs at now + 1 of the cycle
 * that retires or squashes it. A fast-forwarded span needs no
 * bookkeeping: no unit is due in it, so it only lengthens the units'
 * open runs.
 */

#ifndef MSIM_CORE_RUN_LOOP_HH
#define MSIM_CORE_RUN_LOOP_HH

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/run_result.hh"
#include "pu/processing_unit.hh"

namespace msim {

/** Cycles without progress after which a run is declared stuck. */
inline constexpr Cycle kWatchdogCycles = 100000;

/** The watchdog's line for @p pu, running the task at @p start. */
inline void
dumpUnit(std::ostream &os, const ProcessingUnit &pu, Addr start)
{
    os << "\n  unit " << pu.id() << " seq " << pu.seq() << " task@0x"
       << std::hex << start << std::dec << " status "
       << int(pu.status()) << " unsent {"
       << (pu.createMask() - pu.forwardedMask()).toString() << "} ";
    pu.describeOldest(os);
}

/** Run @p core to its exit syscall or @p max_cycles. */
template <class Core>
RunResult
runLoop(Core &core, Cycle max_cycles)
{
    Tracer *const tracer = core.tracer_.get();
    RunResult &result = core.result_;
    StatGroup &core_stats = core.stats_.group("core");
    std::uint64_t &ff_jumps = core_stats.counter("ffJumps");
    std::uint64_t &ff_skipped = core_stats.counter("ffSkippedCycles");

    Cycle now = 0;
    Cycle cycles_done = 0;
    std::uint64_t last_progress = 0;
    Cycle last_progress_cycle = 0;
    for (; now < max_cycles; ++now) {
        if (tracer)
            tracer->setNow(now);
        const bool exited = core.stepCycle(now);
        ++cycles_done;
        if (exited)
            break;

        const std::uint64_t progress = core.progressCount();
        if (progress != last_progress) {
            last_progress = progress;
            last_progress_cycle = now;
        }
        if (now - last_progress_cycle > kWatchdogCycles) {
            std::ostringstream dump;
            core.dumpState(dump);
            std::ostringstream os;
            os << "fatal: " << Core::kName << " made no progress for "
               << kWatchdogCycles << " cycles (deadlock?). State:"
               << dump.str();
            throw DeadlockError(os.str(), now, dump.str());
        }

        // Cycle-exact fast-forward: when no component can act before
        // some future cycle, the skipped cycles are provably pure
        // stalls that only lengthen the units' open accounting runs
        // — just jump. The jump stops at the cycle the watchdog
        // fires in, so it fires there as it would stepping.
        if (core.fastForward_) {
            Cycle next = core.nextEventCycle(now);
            // An in-flight L2 MSHR fill bounds the jump (the L2 is a
            // call-time model, so this only shortens skips).
            if (core.l2_ && next > now + 1)
                next = std::min(next, core.l2_->nextEventCycle(now));
            const Cycle target = std::min(
                {next, max_cycles, last_progress_cycle + kWatchdogCycles + 1});
            if (target > now + 1) {
                const std::uint64_t n = target - now - 1;
                result.fastForwardedCycles += n;
                ++ff_jumps;
                ff_skipped += n;
                cycles_done += n;
                now += n;
            }
        }
    }

    core.foldTasks(cycles_done);
    result.cycles = cycles_done;
    result.exited = core.syscalls_.exited();
    result.hitMaxCycles = !result.exited;
    result.output = core.syscalls_.output();
    result.accounting = core.acct_.finish(cycles_done);
    exportStats(result.accounting, core.stats_.group("cycles"));
    if (tracer) {
        tracer->flush();
        core_stats.counter("traceEvents") += tracer->recorded();
        core_stats.counter("traceDropped") += tracer->dropped();
    }
    return result;
}

} // namespace msim

#endif // MSIM_CORE_RUN_LOOP_HH
