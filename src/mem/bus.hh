/**
 * @file
 * The single split-transaction memory bus shared by all caches.
 *
 * Paper section 5.1: "All memory requests are handled by a single
 * 4-word split transaction memory bus. Each memory access requires a
 * 10 cycle access latency for the first 4 words and 1 cycle for each
 * additional 4 words." Requests are serviced in arrival order; a
 * request arriving while the bus is busy queues behind it ("plus any
 * bus contention" in the cache miss penalty).
 *
 * The bus is itself a MemLevel: an L1 without an L2 below it sends
 * its block fetches and victim writebacks here directly.
 */

#ifndef MSIM_MEM_BUS_HH
#define MSIM_MEM_BUS_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mem_level.hh"
#include "trace/tracer.hh"

namespace msim {

/** Timing model of the shared memory bus. */
class MemoryBus final : public MemLevel
{
  public:
    struct Params
    {
        unsigned firstBeatLatency = 10;  //!< cycles for the first 4 words
        unsigned extraBeatLatency = 1;   //!< per additional 4 words
        unsigned beatWords = 4;          //!< words per beat

        bool operator==(const Params &) const = default;
    };

    explicit MemoryBus(StatGroup &stats) : MemoryBus(stats, Params{}) {}

    MemoryBus(StatGroup &stats, const Params &params,
              Tracer *tracer = nullptr)
        : stats_{stats}, params_(params), tracer_(tracer)
    {
    }

    /**
     * Request a transfer of @p words 32-bit words starting no earlier
     * than cycle @p now.
     *
     * @return the cycle at which the data is available.
     */
    Cycle
    request(Cycle now, unsigned words)
    {
        unsigned beats = (words + params_.beatWords - 1) /
                         params_.beatWords;
        if (beats == 0)
            beats = 1;
        Cycle start = now > busFreeAt_ ? now : busFreeAt_;
        Cycle service = params_.firstBeatLatency +
                        (beats - 1) * params_.extraBeatLatency;
        Cycle done = start + service;
        ++stats_.requests;
        stats_.words += words;
        stats_.busyCycles += service;
        if (start > now)
            stats_.contentionCycles += start - now;
        busFreeAt_ = done;
        if (tracer_ && tracer_->wants(TraceCat::kBus)) {
            tracer_->complete(TraceCat::kBus, "xfer", start, service,
                              kTidBus, "words", words);
        }
        return done;
    }

    // --- MemLevel: a block transfer is one request -------------------
    Cycle
    fetchBlock(Cycle now, Addr, unsigned words) override
    {
        return request(now, words);
    }

    Cycle
    writebackBlock(Cycle now, Addr, unsigned words) override
    {
        return request(now, words);
    }

  private:
    /** Counters bound once in the bus's stat group. */
    struct Counters
    {
        StatGroup &group;
        std::uint64_t &requests = group.counter("requests");
        std::uint64_t &words = group.counter("words");
        std::uint64_t &busyCycles = group.counter("busyCycles");
        std::uint64_t &contentionCycles = group.counter("contentionCycles");
    };

    Counters stats_;
    Params params_;
    Tracer *tracer_;
    Cycle busFreeAt_ = 0;
};

} // namespace msim

#endif // MSIM_MEM_BUS_HH
