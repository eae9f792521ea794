/**
 * @file
 * Configuration of a multiscalar processor (paper section 5.1
 * defaults): N processing units in a circular queue, a unidirectional
 * ring (1 cycle/hop, width = issue width), 32 KB per-unit icaches,
 * 2N interleaved 8 KB data cache banks behind a crossbar (2-cycle
 * hit), a 256-entry-per-bank ARB, a PAs task predictor with a
 * 64-entry return address stack, and a 1024-entry task descriptor
 * cache, all sharing one split-transaction memory bus.
 */

#ifndef MSIM_CORE_MS_CONFIG_HH
#define MSIM_CORE_MS_CONFIG_HH

#include <optional>
#include <string>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/l2_cache.hh"
#include "pu/pu_config.hh"
#include "trace/trace_config.hh"

namespace msim {

/** What to do when an ARB bank fills up (paper section 2.3). */
enum class ArbFullPolicy
{
    kSquash,  //!< squash the latest task to reclaim entries
    kStall,   //!< stall everyone but the head until entries free up
};

/** Full multiscalar machine configuration. */
struct MsConfig
{
    unsigned numUnits = 4;
    PuConfig pu;

    /** Ring hop latency in cycles (width always = issue width). */
    unsigned ringHopLatency = 1;

    Cache::Params icache{32 * 1024, 64, 1};

    /** Data bank geometry; numBanks 0 means 2 * numUnits. */
    unsigned numBanks = 0;
    size_t bankSizeBytes = 8 * 1024;
    size_t blockBytes = 64;
    unsigned dcacheHitLatency = 2;

    unsigned arbEntriesPerBank = 256;
    ArbFullPolicy arbFullPolicy = ArbFullPolicy::kSquash;

    /** Task predictor kind: "pas", "last", "static". */
    std::string predictor = "pas";
    unsigned rasEntries = 64;
    unsigned descCacheEntries = 1024;

    /**
     * Optional shared L2 between the L1s (per-unit icaches + data
     * banks) and the memory bus; std::nullopt (the default, shape
     * key "l2": null) reproduces the historical two-level-free
     * machine bit for bit. See src/mem/l2_cache.hh.
     */
    std::optional<L2Params> l2;

    MemoryBus::Params bus;

    /** Event tracing (off by default; see src/trace/). */
    TraceConfig trace;

    /**
     * Cycle-exact fast-forward: when every component is quiescent,
     * the run loop jumps straight to the next scheduled event
     * instead of ticking the stalled cycles one by one. Observable
     * timing (cycle counts, accounting, results) is bit-identical
     * either way — the golden-cycle snapshot tests verify it.
     */
    bool fastForward = true;

    /**
     * Dynamic write-set oracle: run the static annotation verifier
     * (src/analysis/) over the program at construction and assert,
     * as every task retires, that the registers it actually wrote
     * and explicitly forwarded are contained in the static may-write
     * and forward-point sets. Purely a checking mode (used by the
     * property/fuzz tests); no effect on timing. Tasks whose CFG the
     * static walk could not fully explore are skipped.
     */
    bool writeSetOracle = false;

    /**
     * Dynamic memory-dependence oracle: run the static
     * memory-dependence analysis (src/analysis/mem_dep.hh) over the
     * program at construction and assert, at every ARB violation,
     * that the (store-task, load-task, address) triple is contained
     * in the static may-conflict prediction. Purely a checking mode
     * (used by the property/fuzz tests); no effect on timing. Tasks
     * whose CFG the static walk could not fully explore are
     * trivially contained.
     */
    bool memDepOracle = false;

    /** @return the effective number of data banks. */
    unsigned
    effectiveBanks() const
    {
        return numBanks != 0 ? numBanks : 2 * numUnits;
    }

    /**
     * Check every field for internal consistency and throw
     * FatalError with a "ms config: <field>: <why>" message on the
     * first violation: zero units, non-power-of-two block sizes or
     * cache geometry, a zero-entry ARB, an unknown predictor kind…
     * MultiscalarProcessor calls this at construction so a bad
     * configuration fails with a clear diagnostic instead of a
     * downstream assert, and the declarative shape layer
     * (src/config) runs the same check on every parsed shape.
     */
    void validate() const;

    bool operator==(const MsConfig &) const = default;
};

} // namespace msim

#endif // MSIM_CORE_MS_CONFIG_HH
