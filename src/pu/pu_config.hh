/**
 * @file
 * Per-unit pipeline configuration (paper section 5.1): a traditional
 * five-stage pipeline (IF/ID/EX/MEM/WB) configurable with
 * in-order/out-of-order and 1-way/2-way issue, completing out of
 * order, with pipelined functional units (1 or 2 simple integer, 1
 * complex integer, 1 FP, 1 branch, 1 memory).
 */

#ifndef MSIM_PU_PU_CONFIG_HH
#define MSIM_PU_PU_CONFIG_HH

namespace msim {

/** Configuration of one processing unit. */
struct PuConfig
{
    /** Instructions issued per cycle (1 or 2). */
    unsigned issueWidth = 1;
    /** Out-of-order issue from a small window (scoreboarded). */
    bool outOfOrder = false;
    /** Issue window capacity. */
    unsigned windowSize = 16;
    /** Fetch buffer capacity (decoded, pre-dispatch). */
    unsigned fetchBufferSize = 8;
    /**
     * Optional per-unit bimodal predictor for intra-task branches.
     * It steers fetch only; issue always waits for branch resolution,
     * so it removes taken-branch fetch bubbles without needing
     * register state recovery. Off in the paper-faithful baseline.
     */
    bool intraBranchPredict = false;
    /** Entries in the intra-unit bimodal predictor. */
    unsigned branchPredictorEntries = 512;

    bool operator==(const PuConfig &) const = default;

    /** Number of simple integer FUs (paper: matches issue width). */
    unsigned
    numSimpleIntFus() const
    {
        return issueWidth >= 2 ? 2 : 1;
    }
};

} // namespace msim

#endif // MSIM_PU_PU_CONFIG_HH
