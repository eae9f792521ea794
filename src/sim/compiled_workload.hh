/**
 * @file
 * Compiled workloads and the program cache.
 *
 * A CompiledWorkload is the immutable, shareable half of a simulation
 * session: the workload definition plus its assembled Program for one
 * (mode, defines, scale) point. Once constructed it is never written
 * again, so any number of concurrent sessions (threads) may run the
 * same CompiledWorkload simultaneously — each session builds its own
 * processor, memory image and syscall state from it.
 *
 * ProgramCache memoizes compilation behind a mutex, keyed by a
 * content hash: FNV-1a 64 over the workload's assembly source, the
 * machine mode, the assembler defines and the input scale (prefixed
 * with the workload name, because a Workload bundles host-side
 * input/init/expected state beyond the source text). Repeat requests
 * for the same content never recompile, and a workload whose
 * generated source changes can never be served a stale program. Each
 * key is assembled exactly once even when many worker threads request
 * it at the same instant (late arrivals block on a shared future
 * instead of re-assembling), and hit/miss counters let sweeps assert
 * that no cell paid for a duplicate assembly.
 */

#ifndef MSIM_SIM_COMPILED_WORKLOAD_HH
#define MSIM_SIM_COMPILED_WORKLOAD_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "program/program.hh"
#include "workloads/workload.hh"

namespace msim {

/**
 * An assembled workload, immutable after construction.
 *
 * Thread-safety contract: every member is const after the factory
 * returns. `workload.init` lambdas capture their inputs by value and
 * write only into the MainMemory they are handed, and `runCompiled`
 * copies `workload.input` into the per-session processor, so sharing
 * one instance across threads is safe.
 */
struct CompiledWorkload
{
    /** The workload definition (source, input, golden model). */
    workloads::Workload workload;
    /** The assembled program for this mode/defines point. */
    Program program;
    /** Mode the program was assembled for. */
    bool multiscalar = true;
    /** Assembler defines the program was assembled with. */
    std::set<std::string> defines;
    /** Input scale the workload was built with. */
    unsigned scale = 1;
};

/**
 * FNV-1a 64 content hash over the compilation point: the workload's
 * assembly source text, the machine mode, the (sorted) assembler
 * defines and the input scale.
 */
std::uint64_t workloadContentHash(const workloads::Workload &workload,
                                  bool multiscalar,
                                  const std::set<std::string> &defines,
                                  unsigned scale);

/**
 * Assemble a registry workload into a CompiledWorkload.
 * Throws FatalError on unknown workloads or assembly errors.
 */
std::shared_ptr<const CompiledWorkload>
compileWorkload(const std::string &name, bool multiscalar,
                const std::set<std::string> &defines = {},
                unsigned scale = 1);

/** Assemble an already-built workload (custom workloads, tests). */
std::shared_ptr<const CompiledWorkload>
compileWorkload(const workloads::Workload &workload, bool multiscalar,
                const std::set<std::string> &defines = {},
                unsigned scale = 1);

/**
 * Memoized compilation, content-addressed by
 * workloadContentHash(source, mode, defines, scale).
 *
 * get() is safe to call from any number of threads; a key is
 * assembled exactly once (misses() counts assemblies). Compilation
 * runs outside the map lock, so distinct keys assemble in parallel;
 * concurrent requests for the same key wait on the winner's future.
 */
class ProgramCache
{
  public:
    std::shared_ptr<const CompiledWorkload>
    get(const std::string &name, bool multiscalar,
        const std::set<std::string> &defines = {}, unsigned scale = 1);

    /** Lookups served from the cache. */
    std::uint64_t hits() const;
    /** Lookups that triggered an assembly (== distinct keys seen). */
    std::uint64_t misses() const;
    /** Drop every entry and reset the counters. */
    void clear();

    /**
     * The content-addressed memoization key for a compilation point:
     * "<name>@<hex content hash>". Builds the workload to hash its
     * generated source (exposed for tests and the experiment
     * engine's memoization invariant).
     */
    static std::string key(const std::string &name, bool multiscalar,
                           const std::set<std::string> &defines,
                           unsigned scale);

  private:
    using Ptr = std::shared_ptr<const CompiledWorkload>;

    mutable std::mutex mutex_;
    std::map<std::string, std::shared_future<Ptr>> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace msim

#endif // MSIM_SIM_COMPILED_WORKLOAD_HH
