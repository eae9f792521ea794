/**
 * @file
 * The outcome of one simulated program run, with everything the
 * paper's evaluation reports: cycle count, committed dynamic
 * instruction count (Table 2), IPC and speedup inputs (Tables 3/4),
 * task prediction accuracy, squash counts by cause, and the
 * distribution of processing unit cycles (section 3).
 */

#ifndef MSIM_CORE_RUN_RESULT_HH
#define MSIM_CORE_RUN_RESULT_HH

#include <cstdint>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/types.hh"
#include "trace/cycle_accounting.hh"

namespace msim {

/**
 * Thrown by the no-progress watchdog of core/run_loop.hh: the run did
 * no work for kWatchdogCycles cycles. Input can cause it (a program
 * that jumps off its text segment stalls every unit), so it is a
 * FatalError subclass. It carries the cycle the watchdog fired at
 * and the state dump, one dumpUnit line per task, that ends the
 * message.
 */
class DeadlockError : public FatalError
{
  public:
    DeadlockError(const std::string &msg, Cycle fired_at,
                  std::string dump)
        : FatalError(msg), cycle(fired_at), state(std::move(dump))
    {
    }

    /** The cycle at which the watchdog fired. */
    Cycle cycle = 0;
    /** The unit-state dump (one line per stuck task). */
    std::string state;
};

/** Aggregate results of a simulation run. */
struct RunResult
{
    /** Total cycles simulated. */
    Cycle cycles = 0;
    /** Dynamic instructions committed (retired tasks + head). */
    std::uint64_t instructions = 0;
    /** Instructions executed in tasks that were later squashed. */
    std::uint64_t squashedInstructions = 0;
    /** True when the program ran to its exit syscall. */
    bool exited = false;
    /**
     * True when the run stopped because it exhausted its cycle
     * budget (RunSpec::maxCycles) instead of exiting — a distinct
     * error condition, not a normal exit.
     */
    bool hitMaxCycles = false;
    /** Everything the program printed. */
    std::string output;

    /**
     * Cycles covered by the quiescence fast-forward instead of being
     * ticked individually (included in @ref cycles; identical timing
     * either way). Zero when fast-forward is disabled.
     */
    std::uint64_t fastForwardedCycles = 0;

    /** Tasks retired / squashed. */
    std::uint64_t tasksRetired = 0;
    std::uint64_t tasksSquashed = 0;

    /** Task-successor predictions made (multi-target tasks only). */
    std::uint64_t taskPredictions = 0;
    std::uint64_t taskPredHits = 0;

    /** Squash events by cause. */
    std::uint64_t controlSquashes = 0;
    std::uint64_t memorySquashes = 0;
    std::uint64_t arbFullSquashes = 0;

    /**
     * Cycle distribution over units (section 3), exact per unit
     * (src/trace/): every unit-cycle classified into exactly one
     * category, with accounting.sum() == cycles × accounting.numUnits.
     */
    CycleAccountingResult accounting;

    /** @return committed instructions per cycle. */
    double
    ipc() const
    {
        return cycles == 0 ? 0.0 : double(instructions) / double(cycles);
    }

    /** @return task prediction accuracy in [0, 1]. */
    double
    predAccuracy() const
    {
        return taskPredictions == 0
                   ? 1.0
                   : double(taskPredHits) / double(taskPredictions);
    }
};

} // namespace msim

#endif // MSIM_CORE_RUN_RESULT_HH
