/**
 * @file
 * Worklist bit-vector dataflow over a TaskCfg.
 *
 * Facts are RegMask bit vectors (one bit per unified register); the
 * transfer function of a block is IN | GEN (the annotation analyses
 * have no kills — a written register stays written, a forwarded
 * register stays forwarded). Two meets cover the verifier's dataflow problems:
 *
 *  - kMay (union): a fact holds if it holds on SOME path. Used for
 *    "may be forwarded by now" in the premature-forward pass.
 *  - kMust (intersection): a fact holds only if it holds on EVERY
 *    path. Used for must-define (use-before-def, last-update) facts.
 *
 * The solver returns the IN set of each block; OUT is IN | GEN.
 * Convergence is immediate from monotonicity: facts only ever grow
 * (kMay) or shrink from the full set (kMust) on a finite lattice.
 */

#ifndef MSIM_ANALYSIS_DATAFLOW_HH
#define MSIM_ANALYSIS_DATAFLOW_HH

#include <deque>
#include <vector>

#include "analysis/cfg.hh"
#include "common/reg_mask.hh"

namespace msim::analysis {

/** Meet operator of a forward dataflow problem. */
enum class Meet { kMay, kMust };

/**
 * Solve a forward gen-only dataflow problem over @p cfg.
 *
 * @param cfg   the task CFG
 * @param gen   per-block generated facts (parallel to cfg.blocks())
 * @param meet  kMay joins with union, kMust with intersection
 * @return per-block IN sets; the task entry's IN is empty (nothing
 *         is established at task entry; inherited state is modeled
 *         by the caller, not the lattice)
 */
inline std::vector<RegMask>
solveForward(const TaskCfg &cfg, const std::vector<RegMask> &gen,
             Meet meet)
{
    const auto &blocks = cfg.blocks();
    const auto &preds = cfg.preds();
    const size_t n = blocks.size();

    RegMask full;
    for (RegIndex r = 0; r < kNumRegs; ++r)
        full.set(r);

    // kMust starts optimistic (everything holds) and intersects
    // downward; kMay starts empty and unions upward. The entry block
    // additionally meets with the empty boundary fact, which for
    // kMust pins its IN to empty even when a loop re-enters it.
    std::vector<RegMask> in(n, meet == Meet::kMust ? full : RegMask{});
    if (n > 0)
        in[0] = RegMask{};

    std::deque<unsigned> work;
    std::vector<bool> queued(n, false);
    for (unsigned b = 0; b < n; ++b) {
        work.push_back(b);
        queued[b] = true;
    }

    while (!work.empty()) {
        const unsigned b = work.front();
        work.pop_front();
        queued[b] = false;

        RegMask newIn = meet == Meet::kMust ? full : RegMask{};
        for (unsigned p : preds[b]) {
            const RegMask out = in[p] | gen[p];
            if (meet == Meet::kMust)
                newIn = newIn & out;
            else
                newIn = newIn | out;
        }
        if (b == 0)
            newIn = RegMask{}; // boundary: nothing holds at entry
        if (newIn == in[b])
            continue;
        in[b] = newIn;
        for (unsigned s : blocks[b].succs) {
            if (!queued[s]) {
                work.push_back(s);
                queued[s] = true;
            }
        }
    }
    return in;
}

} // namespace msim::analysis

#endif // MSIM_ANALYSIS_DATAFLOW_HH
