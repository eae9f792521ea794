/**
 * @file
 * Per-unit cycle accounting: every simulated cycle of every
 * processing unit is classified into exactly one category, matching
 * the paper's section 3 discussion of where the available unit
 * cycles go — useful computation, non-useful (squashed) computation,
 * no-computation cycles split by cause (waiting for a predecessor
 * value on the ring, waiting on memory, intra-task latency, fetch
 * stalls, waiting for retirement), and idle cycles with no assigned
 * task.
 *
 * The books are kept in runs: each unit holds one open run, a
 * category and the cycle it started, so a unit costs nothing while
 * its category stays the same (asleep, or inside a fast-forwarded
 * span). Protocol (driven by the owning processor):
 *
 *   record(unit, cat, now)       // from each full (awake) tick
 *   squashTask(unit, end)        // the unit's task was squashed
 *   commitTask(unit, end)        // the unit's task retired
 *   finish(cycles)               // close the books
 *
 * record() closes the open run only when the category changes. A
 * task's closed runs stay *pending* until its fate is known: at the
 * task's end cycle, commitTask folds them into the final counts under
 * their categories (useful work) and squashTask folds their sum into
 * kSquashed (the work was thrown away). The unit then holds an idle
 * run — idle is the gap between tasks — which goes straight to the
 * final counts when it closes. Because the runs of a unit tile the
 * cycles from 0 to the end without overlap, the grand total obeys
 * the hard invariant
 *
 *   sum over categories == cycles simulated × number of units
 *
 * which finish() verifies.
 */

#ifndef MSIM_TRACE_CYCLE_ACCOUNTING_HH
#define MSIM_TRACE_CYCLE_ACCOUNTING_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace msim {

/** What one unit did during one cycle. */
enum class CycleCat : std::uint8_t
{
    kBusy,        //!< issued at least one instruction
    kRingWait,    //!< stalled on a predecessor register (ring wait)
    kMemWait,     //!< stalled on a memory access (dcache, ARB full)
    kIntraWait,   //!< stalled on non-memory intra-task latency
    kFetchStall,  //!< instruction window empty (icache, redirect)
    kRetireWait,  //!< task finished, waiting for head retirement
    kSquashed,    //!< cycle spent on work that was later squashed
    kIdle,        //!< no task assigned
    kNumCats
};

inline constexpr size_t kNumCycleCats = size_t(CycleCat::kNumCats);

/** @return the short snake_case name of a category. */
const char *cycleCatName(CycleCat cat);

/** The finished accounting of one run. */
struct CycleAccountingResult
{
    unsigned numUnits = 0;
    /** Totals per category, summed over units. */
    std::array<std::uint64_t, kNumCycleCats> total{};
    /** Per-unit totals per category. */
    std::vector<std::array<std::uint64_t, kNumCycleCats>> perUnit;

    std::uint64_t
    operator[](CycleCat cat) const
    {
        return total[size_t(cat)];
    }

    /** @return the grand total (== cycles × numUnits). */
    std::uint64_t
    sum() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t v : total)
            s += v;
        return s;
    }
};

/** Classifies every unit-cycle of a run (see file comment). */
class CycleAccounting
{
  public:
    explicit CycleAccounting(unsigned num_units);

    /**
     * Unit @p unit spends cycle @p now, and every later cycle until
     * its next record or task end, doing @p cat. Panics if @p now is
     * before the start of the unit's open run.
     */
    void
    record(unsigned unit, CycleCat cat, Cycle now)
    {
        panicIf(unit >= numUnits_, "cycle accounting: bad unit");
        Run &run = open_[unit];
        panicIf(now < run.start, "cycle accounting: unit ", unit,
                " recorded cycle ", now, " inside a run from cycle ",
                run.start);
        if (cat != run.cat)
            startRun(unit, cat, now);
    }

    /** Unit @p unit's task retired at @p end: its runs were useful. */
    void commitTask(unsigned unit, Cycle end);

    /** Unit @p unit's task was squashed at @p end: its runs were waste. */
    void squashTask(unsigned unit, Cycle end);

    /**
     * Close the books at @p cycles_simulated: @return the final
     * result. Panics if a task run is still open or pending (every
     * task's fate must be resolved) or if the invariant sum == cycles
     * × units is broken.
     */
    CycleAccountingResult finish(Cycle cycles_simulated) const;

    unsigned numUnits() const { return numUnits_; }

  private:
    using Counts = std::array<std::uint64_t, kNumCycleCats>;

    /** A unit's open run; kIdle when it holds no task's cycles. */
    struct Run
    {
        CycleCat cat = CycleCat::kIdle;
        Cycle start = 0;
    };

    /**
     * Close unit @p unit's open run at cycle @p at (exclusive) and
     * open a @p cat run there.
     */
    void startRun(unsigned unit, CycleCat cat, Cycle at);

    unsigned numUnits_;
    std::vector<Counts> final_;
    /** Closed runs of each unit's task in flight. */
    std::vector<Counts> pending_;
    std::vector<Run> open_;
};

/** Export @p res per unit as StatGroup distributions in @p group. */
void exportStats(const CycleAccountingResult &res, StatGroup &group);

} // namespace msim

#endif // MSIM_TRACE_CYCLE_ACCOUNTING_HH
