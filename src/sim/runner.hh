/**
 * @file
 * The run path, layered for re-entrancy:
 *
 *   compileWorkload / ProgramCache  (compiled_workload.hh)
 *           │  immutable CompiledWorkload, shareable across threads
 *           ▼
 *   runCompiled(compiled, spec)     — one stateless session: builds a
 *           │                         fresh processor + memory, runs,
 *           │                         verifies against the golden model
 *           ▼
 *   runWorkload(workload, spec)     — convenience one-shot (compile +
 *                                     run, no caching)
 *
 * All benchmarks and most integration tests go through this
 * interface; the parallel sweep engine (src/exp) calls runCompiled
 * from its worker threads.
 */

#ifndef MSIM_SIM_RUNNER_HH
#define MSIM_SIM_RUNNER_HH

#include <optional>
#include <set>
#include <string>

#include "common/logging.hh"
#include "core/ms_config.hh"
#include "core/run_result.hh"
#include "core/scalar_processor.hh"
#include "sim/compiled_workload.hh"
#include "trace/trace_config.hh"
#include "workloads/workload.hh"

namespace msim {

/**
 * Thrown by runCompiled when a run stops because it exhausted its
 * cycle budget (RunSpec::maxCycles) instead of exiting. A FatalError
 * subclass, so existing catch sites keep working, but it additionally
 * carries the budget and the cycles actually consumed so callers can
 * tell exactly how much to raise the budget on retry.
 */
class BudgetExhaustedError : public FatalError
{
  public:
    BudgetExhaustedError(const std::string &msg, Cycle consumed,
                         Cycle limit)
        : FatalError(msg), cyclesConsumed(consumed), budget(limit)
    {
    }

    /** Cycles simulated before the run was cut off (== the budget). */
    Cycle cyclesConsumed = 0;
    /** The budget that was exhausted (RunSpec::maxCycles). */
    Cycle budget = 0;
};

/** How to run a workload. */
struct RunSpec
{
    /** True = multiscalar machine, false = scalar baseline. */
    bool multiscalar = true;
    MsConfig ms;
    ScalarConfig scalar;
    /** Extra assembler defines (workload variants). */
    std::set<std::string> defines;
    Cycle maxCycles = 1'000'000'000;
    /** Verify output against the workload's golden model. */
    bool checkOutput = true;
    /**
     * Event tracing. When enabled, overrides the trace config of
     * whichever machine the spec selects.
     */
    TraceConfig trace;
};

/**
 * Run one simulation session over a compiled workload.
 *
 * Stateless and re-entrant: every piece of mutable state (processor,
 * memory image, syscall handler) is built locally, and @p compiled is
 * only read. Any number of threads may run the same CompiledWorkload
 * concurrently; identical (compiled, spec) sessions produce
 * bit-identical RunResults.
 *
 * The spec's mode and defines must match what @p compiled was
 * assembled with (FatalError otherwise — the mismatch would silently
 * run the wrong binary).
 *
 * Throws FatalError when the program does not terminate within
 * maxCycles or (with checkOutput) produces output different from the
 * golden model.
 */
RunResult runCompiled(const CompiledWorkload &compiled,
                      const RunSpec &spec);

/**
 * Assemble and run a workload under the given spec (one-shot
 * convenience wrapper: compileWorkload + runCompiled, no caching).
 */
RunResult runWorkload(const workloads::Workload &workload,
                      const RunSpec &spec);

/** Assemble a workload for the given mode (exposed for tests). */
Program assembleWorkload(const workloads::Workload &workload,
                         bool multiscalar,
                         const std::set<std::string> &defines = {});

} // namespace msim

#endif // MSIM_SIM_RUNNER_HH
