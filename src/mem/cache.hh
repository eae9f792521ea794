/**
 * @file
 * A direct-mapped, write-back, write-allocate cache timing model.
 *
 * Used both as the 32 KB per-unit instruction cache and as the 8 KB
 * data cache banks (paper section 5.1). The cache holds no data; it
 * tracks tags and returns ready cycles. Misses fetch a full block
 * from the next memory level — the shared MemoryBus (10+3 cycles for
 * 64-byte blocks, plus any bus contention) or the optional shared L2
 * — and dirty victims write back first. Accesses are non-blocking: a
 * miss does not prevent later accesses from being timed (the
 * pipelines enforce their own ordering).
 *
 * The cache indexes by a *local* address (the banked data cache
 * compacts its interleaved slice; see BankedDataCache::bankLocalAddr)
 * but every line remembers the *global* block it holds so downstream
 * traffic — victim writebacks, L2 fills, back-invalidations — uses
 * real memory addresses.
 */

#ifndef MSIM_MEM_CACHE_HH
#define MSIM_MEM_CACHE_HH

#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mem_level.hh"
#include "trace/tracer.hh"

namespace msim {

/** Direct-mapped cache timing model. */
class Cache
{
  public:
    struct Params
    {
        size_t sizeBytes = 32 * 1024;
        size_t blockBytes = 64;
        unsigned hitLatency = 1;

        bool operator==(const Params &) const = default;
    };

    Cache(StatGroup &stats, MemLevel &next, const Params &params,
          Tracer *tracer = nullptr, std::uint32_t trace_tid = 0)
        : stats_{stats}, next_(&next), params_(params), tracer_(tracer),
          traceTid_(trace_tid)
    {
        checkGeometry();
    }

    /**
     * Access the cache.
     *
     * @param now Cycle the access starts.
     * @param addr Byte address in this cache's (local) address space.
     * @param write True for stores (marks the line dirty).
     * @param mem_addr Global memory byte address of the same access
     *        (defaults to @p addr when the spaces coincide).
     * @return the cycle the data is ready (hit: now + hitLatency).
     */
    Cycle
    access(Cycle now, Addr addr, bool write, Addr mem_addr)
    {
        const Addr block = addr / Addr(params_.blockBytes);
        const size_t index = size_t(block) & (numBlocks_ - 1);
        Line &line = lines_[index];

        if (line.valid && line.tag == block) {
            ++(write ? stats_.writeHits : stats_.readHits);
            if (write)
                line.dirty = true;
            return now + params_.hitLatency;
        }

        ++(write ? stats_.writeMisses : stats_.readMisses);
        if (tracer_ && tracer_->wants(TraceCat::kCache)) {
            tracer_->instant(TraceCat::kCache,
                             write ? "write_miss" : "read_miss", now,
                             traceTid_, "addr", addr);
        }
        const unsigned block_words = unsigned(params_.blockBytes / 4);
        const Addr victim_addr =
            line.memBlock * Addr(params_.blockBytes);
        Cycle start = now;
        if (line.valid && line.dirty) {
            ++stats_.writebacks;
            start = next_->writebackBlock(now, victim_addr,
                                          block_words);
        } else if (line.valid) {
            next_->cleanEviction(now, victim_addr, block_words);
        }
        Cycle ready = next_->fetchBlock(start, mem_addr, block_words) +
                      params_.hitLatency;
        line.valid = true;
        line.dirty = write;
        line.tag = block;
        line.memBlock = mem_addr / Addr(params_.blockBytes);
        return ready;
    }

    Cycle
    access(Cycle now, Addr addr, bool write)
    {
        return access(now, addr, write, addr);
    }

    /** @return true when @p addr currently hits. */
    bool
    probe(Addr addr) const
    {
        const Addr block = addr / Addr(params_.blockBytes);
        const Line &line = lines_[size_t(block) & (numBlocks_ - 1)];
        return line.valid && line.tag == block;
    }

    /**
     * Drop the line holding local address @p addr, if present
     * (L2 back-invalidation; timing model only, costs no cycles).
     *
     * @return true when the dropped line was dirty.
     */
    bool
    invalidateBlock(Addr addr)
    {
        const Addr block = addr / Addr(params_.blockBytes);
        Line &line = lines_[size_t(block) & (numBlocks_ - 1)];
        if (!line.valid || line.tag != block)
            return false;
        const bool dirty = line.dirty;
        line = Line{};
        return dirty;
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;       //!< local block number
        Addr memBlock = 0;  //!< global block number held
    };

    void
    checkGeometry()
    {
        fatalIf(params_.sizeBytes == 0 || params_.blockBytes == 0 ||
                    params_.sizeBytes % params_.blockBytes != 0,
                "bad cache geometry");
        numBlocks_ = params_.sizeBytes / params_.blockBytes;
        fatalIf((numBlocks_ & (numBlocks_ - 1)) != 0 ||
                    (params_.blockBytes & (params_.blockBytes - 1)) != 0,
                "cache geometry must be a power of two");
        lines_.resize(numBlocks_);
    }

    /** Counters bound once in this cache's stat group. */
    struct Counters
    {
        StatGroup &group;
        std::uint64_t &readHits = group.counter("readHits");
        std::uint64_t &writeHits = group.counter("writeHits");
        std::uint64_t &readMisses = group.counter("readMisses");
        std::uint64_t &writeMisses = group.counter("writeMisses");
        std::uint64_t &writebacks = group.counter("writebacks");
    };

    Counters stats_;
    MemLevel *next_;
    Params params_;
    Tracer *tracer_ = nullptr;
    std::uint32_t traceTid_ = 0;
    size_t numBlocks_ = 0;
    std::vector<Line> lines_;
};

} // namespace msim

#endif // MSIM_MEM_CACHE_HH
