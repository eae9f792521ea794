#include "core/ms_config.hh"

#include <initializer_list>

#include "common/logging.hh"
#include "core/scalar_processor.hh"

namespace msim {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

[[noreturn]] void
bad(const char *scope, const char *field, const std::string &why)
{
    fatal(scope, " config: ", field, ": ", why);
}

/** Shared geometry rules of the Cache timing model. */
void
checkCacheGeometry(const char *scope, const char *field,
                   std::size_t size_bytes, std::size_t block_bytes)
{
    if (size_bytes == 0)
        bad(scope, field, "size must be non-zero");
    if (!isPow2(block_bytes))
        bad(scope, field,
            "block size " + std::to_string(block_bytes) +
                " is not a power of two");
    if (size_bytes % block_bytes != 0 ||
        !isPow2(size_bytes / block_bytes))
        bad(scope, field,
            "size " + std::to_string(size_bytes) +
                " must be a power-of-two multiple of the " +
                std::to_string(block_bytes) + "-byte block");
}

void
checkPu(const char *scope, const PuConfig &pu)
{
    // Paper section 5.1: 1- or 2-way issue (ProcessingUnit's limit).
    if (pu.issueWidth == 0 || pu.issueWidth > 2)
        bad(scope, "pu.issueWidth", "must be in [1, 2]");
    if (pu.windowSize == 0)
        bad(scope, "pu.windowSize", "must be non-zero");
    // Fetch delivers issueWidth instructions at once, and only into
    // that much free buffer space.
    if (pu.fetchBufferSize < pu.issueWidth)
        bad(scope, "pu.fetchBufferSize",
            "must be at least the issue width (" +
                std::to_string(pu.issueWidth) + ")");
    if (pu.branchPredictorEntries == 0 ||
        !isPow2(pu.branchPredictorEntries))
        bad(scope, "pu.branchPredictorEntries",
            "must be a non-zero power of two");
}

/**
 * The optional shared L2. @p l1_block_bytes lists the block sizes of
 * the L1s above it: the timing model maps L1 blocks 1:1 onto L2
 * blocks (back-invalidation, MSHR merging), so they must agree.
 */
void
checkL2(const char *scope, const L2Params &l2,
        std::initializer_list<std::size_t> l1_block_bytes)
{
    if (l2.numBanks == 0 || l2.numBanks > 64)
        bad(scope, "l2.numBanks", "must be in [1, 64]");
    if (l2.assoc == 0 || l2.assoc > 64)
        bad(scope, "l2.assoc", "must be in [1, 64]");
    if (l2.mshrsPerBank == 0 || l2.mshrsPerBank > 1024)
        bad(scope, "l2.mshrsPerBank", "must be in [1, 1024]");
    if (!isPow2(l2.blockBytes))
        bad(scope, "l2.blockBytes",
            "block size " + std::to_string(l2.blockBytes) +
                " is not a power of two");
    for (std::size_t l1_block : l1_block_bytes) {
        if (l2.blockBytes != l1_block)
            bad(scope, "l2.blockBytes",
                "L2 block size " + std::to_string(l2.blockBytes) +
                    " must match the L1 block size " +
                    std::to_string(l1_block));
    }
    if (l2.sizeBytes == 0 || l2.sizeBytes % l2.numBanks != 0)
        bad(scope, "l2.sizeBytes",
            "size " + std::to_string(l2.sizeBytes) +
                " must divide evenly over " +
                std::to_string(l2.numBanks) + " banks");
    const std::size_t bank_bytes = l2.sizeBytes / l2.numBanks;
    const std::size_t set_bytes = l2.blockBytes * l2.assoc;
    if (bank_bytes % set_bytes != 0 ||
        !isPow2(bank_bytes / set_bytes))
        bad(scope, "l2.sizeBytes",
            "each " + std::to_string(bank_bytes) +
                "-byte bank must hold a power-of-two number of " +
                std::to_string(set_bytes) + "-byte sets");
}

void
checkBus(const char *scope, const MemoryBus::Params &bus)
{
    if (bus.firstBeatLatency == 0)
        bad(scope, "bus.firstBeatLatency", "must be non-zero");
    if (bus.beatWords == 0)
        bad(scope, "bus.beatWords", "must be non-zero");
}

} // namespace

void
MsConfig::validate() const
{
    if (numUnits == 0)
        bad("ms", "numUnits", "need at least one processing unit");
    if (numUnits > 64)
        bad("ms", "numUnits",
            std::to_string(numUnits) + " exceeds the 64-unit limit");
    checkPu("ms", pu);
    checkCacheGeometry("ms", "icache", icache.sizeBytes,
                       icache.blockBytes);
    if (effectiveBanks() > 1024)
        bad("ms", "numBanks",
            "effective bank count " +
                std::to_string(effectiveBanks()) +
                " exceeds the 1024-bank limit");
    checkCacheGeometry("ms", "dcache", bankSizeBytes, blockBytes);
    if (arbEntriesPerBank == 0)
        bad("ms", "arbEntriesPerBank",
            "ARB needs at least one entry per bank");
    if (predictor != "pas" && predictor != "last" &&
        predictor != "static")
        bad("ms", "predictor",
            "unknown kind '" + predictor +
                "' (expected pas, last or static)");
    if (rasEntries == 0)
        bad("ms", "rasEntries",
            "return address stack needs at least one entry");
    if (descCacheEntries == 0)
        bad("ms", "descCacheEntries",
            "descriptor cache needs at least one entry");
    if (l2)
        checkL2("ms", *l2, {icache.blockBytes, blockBytes});
    checkBus("ms", bus);
}

void
ScalarConfig::validate() const
{
    checkPu("scalar", pu);
    checkCacheGeometry("scalar", "icache", icache.sizeBytes,
                       icache.blockBytes);
    checkCacheGeometry("scalar", "dcache", dcache.sizeBytes,
                       dcache.blockBytes);
    if (l2)
        checkL2("scalar", *l2,
                {icache.blockBytes, dcache.blockBytes});
    checkBus("scalar", bus);
}

} // namespace msim
