/**
 * @file
 * The multi-core sweep scheduler.
 *
 * SweepScheduler executes an Experiment's cells on a fixed pool of
 * worker threads. Every cell is an independent, deterministic
 * simulation session (sim/runner.hh runCompiled over an immutable
 * CompiledWorkload), so the only shared mutable state is the
 * ProgramCache — each (workload, mode, defines, scale) point is
 * assembled exactly once per sweep no matter how many cells or
 * threads request it.
 *
 * Guarantees:
 *  - results appear in cell registration order, independent of the
 *    completion order (so --jobs N output is bit-identical to
 *    --jobs 1);
 *  - a throwing cell is captured as a failed CellResult (error
 *    message + wall time) instead of aborting the sweep;
 *  - per-cell and whole-sweep wall times are recorded.
 */

#ifndef MSIM_EXP_SCHEDULER_HH
#define MSIM_EXP_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "sim/compiled_workload.hh"

namespace msim::exp {

/** Outcome of one cell: a RunResult or a captured error. */
struct CellResult
{
    /** Cell name (copied from the experiment). */
    std::string name;
    /** Workload the cell ran. */
    std::string workload;
    /** False when the cell threw; @ref error holds the message. */
    bool ok = false;
    /** Error message of a failed cell (empty when ok). */
    std::string error;
    /** Simulation results (default-initialized when !ok). */
    RunResult result;
    /** Host wall time spent on this cell, seconds. */
    double wallSeconds = 0.0;
};

/** Results of one sweep, in cell registration order. */
struct SweepResult
{
    /** Experiment name. */
    std::string experiment;
    /** Worker threads used. */
    unsigned jobs = 1;
    /** Whole-sweep host wall time, seconds. */
    double wallSeconds = 0.0;
    /** Program cache counters for this sweep. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** One entry per cell, in registration order. */
    std::vector<CellResult> cells;

    /** @return the cell named @p name, or nullptr. */
    const CellResult *find(const std::string &name) const;
    /** @return the cell named @p name (FatalError when absent). */
    const CellResult &cell(const std::string &name) const;
    /**
     * @return the RunResult of cell @p name (FatalError when the
     * cell is absent or failed — paper tables need every number).
     */
    const RunResult &result(const std::string &name) const;
    /** Number of failed cells. */
    std::size_t failures() const;
};

/** Fixed-pool parallel executor for experiments. */
class SweepScheduler
{
  public:
    /** @param jobs worker threads; 0 = defaultJobs(). */
    explicit SweepScheduler(unsigned jobs = 0);

    /** Execute every cell; never throws for per-cell failures. */
    SweepResult run(const Experiment &experiment);

    /** Worker threads this scheduler will use. */
    unsigned jobs() const { return jobs_; }

    /**
     * Parse a job count: the whole string must be a positive decimal
     * integer that fits an unsigned ("-1", "2x", "0", "", " 3" do
     * not).
     * @return the count, or 0 when @p text is malformed.
     */
    static unsigned parseJobs(const char *text);

    /**
     * Job count when none is given: the MSIM_JOBS environment
     * variable when set, otherwise the host's hardware concurrency
     * (at least 1).
     * @throws FatalError naming MSIM_JOBS when it is set but
     *         parseJobs() rejects it.
     */
    static unsigned defaultJobs();

  private:
    unsigned jobs_;
    ProgramCache cache_;
};

} // namespace msim::exp

#endif // MSIM_EXP_SCHEDULER_HH
