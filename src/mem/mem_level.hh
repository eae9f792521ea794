/**
 * @file
 * The interface between an L1 cache and whatever sits below it.
 *
 * The memory system is a stack of call-time timing models: an L1
 * miss asks the next level for a block and gets back the cycle the
 * data arrives. The next level is the optional shared L2
 * (src/mem/l2_cache.hh) or, without one, the MemoryBus itself
 * (src/mem/bus.hh), which turns each block transfer into one bus
 * request.
 */

#ifndef MSIM_MEM_MEM_LEVEL_HH
#define MSIM_MEM_MEM_LEVEL_HH

#include "common/types.hh"

namespace msim {

/** Downstream side of an L1 cache: the L2 or the raw memory bus. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Fetch the block containing @p addr (an L1 miss).
     *
     * @param now Cycle the request leaves the L1.
     * @param addr Global (memory) byte address of the access.
     * @param words Transfer size in 32-bit words (the L1 block).
     * @return the cycle the block arrives at the L1.
     */
    virtual Cycle fetchBlock(Cycle now, Addr addr, unsigned words) = 0;

    /**
     * Write back a dirty L1 victim block.
     *
     * @param now Cycle the writeback leaves the L1.
     * @param addr Global byte address of the victim block.
     * @param words Transfer size in 32-bit words.
     * @return the cycle the transfer completes (the L1 serializes a
     *         dirty writeback before the demand fetch, as before).
     */
    virtual Cycle writebackBlock(Cycle now, Addr addr,
                                 unsigned words) = 0;

    /**
     * Notify that a *clean* L1 victim was dropped. Timing-free for
     * the L1; an exclusive L2 allocates the block (victim caching),
     * every other configuration ignores it.
     */
    virtual void cleanEviction(Cycle now, Addr addr, unsigned words)
    {
        (void)now;
        (void)addr;
        (void)words;
    }

    /**
     * The earliest cycle strictly after @p now at which this level
     * has a scheduled completion (an in-flight MSHR fill), or
     * kCycleNever. Side-effect free; feeds fast-forward quiescence.
     */
    virtual Cycle
    nextEventCycle(Cycle now) const
    {
        (void)now;
        return kCycleNever;
    }
};

} // namespace msim

#endif // MSIM_MEM_MEM_LEVEL_HH
