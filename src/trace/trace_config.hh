/**
 * @file
 * Configuration of the event-trace subsystem. A TraceConfig travels
 * inside MsConfig / ScalarConfig (and RunSpec) so any run — bench,
 * test, or example — can switch tracing on without touching the
 * machine model. With enabled == false no Tracer is constructed at
 * all and every instrumentation site reduces to one pointer test.
 */

#ifndef MSIM_TRACE_TRACE_CONFIG_HH
#define MSIM_TRACE_TRACE_CONFIG_HH

#include <cstdint>
#include <string>

namespace msim {

/** Event categories; each instrumentation site belongs to one. */
enum class TraceCat : std::uint8_t
{
    kTask,   //!< task assign / retire / squash lifetimes
    kSeq,    //!< sequencer decisions (predictions, squash causes)
    kPu,     //!< processing unit stage occupancy
    kArb,    //!< ARB conflicts: violations, capacity stalls
    kRing,   //!< register forwards on the ring
    kCache,  //!< icache / dcache-bank misses and bank conflicts
    kBus,    //!< shared memory bus transactions
    kNumCats
};

/** @return the short lowercase name of a category. */
const char *traceCatName(TraceCat cat);

/** @return the category named @p name, or kNumCats when unknown. */
TraceCat traceCatFromName(const std::string &name);

/** @return the bit for @p cat in a category mask. */
constexpr std::uint32_t
traceCatBit(TraceCat cat)
{
    return std::uint32_t(1) << unsigned(cat);
}

/** Mask with every category selected. */
constexpr std::uint32_t kAllTraceCats =
    (std::uint32_t(1) << unsigned(TraceCat::kNumCats)) - 1;

/**
 * Parse a comma-separated category list ("task,ring,bus") into a
 * mask. Throws FatalError on an unknown name. An empty string means
 * all categories.
 */
std::uint32_t traceCatMaskFromList(const std::string &list);

/** Tracing configuration, carried by the machine configs. */
struct TraceConfig
{
    /** Master switch; false = no tracer is built at all. */
    bool enabled = false;

    /** Sink kind: "chrome" (trace-event JSON), "csv", "null". */
    std::string sink = "chrome";

    /** Output file path (chrome / csv sinks). */
    std::string path = "msim.trace.json";

    /** Bitmask of TraceCat values to record. */
    std::uint32_t categories = kAllTraceCats;

    /** Hard cap on recorded events; later events are dropped. */
    std::uint64_t maxEvents = 10'000'000;

    bool operator==(const TraceConfig &) const = default;
};

} // namespace msim

#endif // MSIM_TRACE_TRACE_CONFIG_HH
