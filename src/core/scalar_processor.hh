/**
 * @file
 * The scalar baseline processor of the paper's evaluation: a single
 * processing unit identical to a multiscalar unit (same pipeline,
 * same FU latencies), with its own 32 KB icache and a 64 KB data
 * cache with a 1-cycle hit time (vs 2 cycles through the multiscalar
 * crossbar), both in front of the shared memory bus. It executes the
 * scalar binary (no multiscalar annotations).
 */

#ifndef MSIM_CORE_SCALAR_PROCESSOR_HH
#define MSIM_CORE_SCALAR_PROCESSOR_HH

#include <memory>
#include <optional>
#include <ostream>

#include "core/machine.hh"
#include "core/run_result.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/l2_cache.hh"
#include "program/program.hh"
#include "pu/processing_unit.hh"
#include "trace/trace_config.hh"

namespace msim {

/** Scalar baseline configuration (paper section 5.1). */
struct ScalarConfig
{
    PuConfig pu;
    Cache::Params icache{32 * 1024, 64, 1};
    Cache::Params dcache{64 * 1024, 64, 1};

    /** Optional shared L2 (see MsConfig::l2); null = direct to bus. */
    std::optional<L2Params> l2;

    MemoryBus::Params bus;

    /** Event tracing (off by default; see src/trace/). */
    TraceConfig trace;

    /** Cycle-exact fast-forward (see MsConfig::fastForward). */
    bool fastForward = true;

    /**
     * Consistency check in the spirit of MsConfig::validate():
     * throws FatalError with a "scalar config: <field>: <why>"
     * message on bad pipeline widths or cache geometry. Called at
     * ScalarProcessor construction and on every parsed scalar shape.
     */
    void validate() const;

    bool operator==(const ScalarConfig &) const = default;
};

/** The scalar baseline machine. */
class ScalarProcessor : public Machine
{
  public:
    ScalarProcessor(const Program &program, const ScalarConfig &config);

    /** Run to the exit syscall (or @p max_cycles). No default: a
     *  looping program spends it all, so size it to the program. */
    RunResult run(Cycle max_cycles);

    // --- PuContext ---------------------------------------------------
    Cycle icacheAccess(unsigned unit, Cycle now, Addr pc) override;
    Cycle dcacheAccess(unsigned unit, Cycle now, Addr addr,
                       bool write) override;
    bool memHasSpace(unsigned unit, Addr addr, unsigned size,
                     bool is_load) override;
    std::uint64_t memLoad(unsigned unit, Addr addr,
                          unsigned size) override;
    void memStore(unsigned unit, Addr addr, unsigned size,
                  std::uint64_t value) override;
    void forwardReg(unsigned unit, RegIndex reg,
                    isa::RegValue value) override;
    bool syscallAllowed(unsigned unit) override;
    void taskExited(unsigned unit, Addr next_task) override;

  private:
    template <class Core>
    friend RunResult runLoop(Core &core, Cycle max_cycles);

    static constexpr const char *kName = "scalar processor";

    // --- run-loop hooks (see core/run_loop.hh) -------------------------
    // The single unit is the only event source (the caches and bus are
    // call-time models), so its due cycle is the machine's.
    bool
    stepCycle(Cycle now)
    {
        if (due_ <= now || tickEveryUnit_)
            due_ = unit_->tick(now);
        return syscalls_.exited();
    }
    std::uint64_t progressCount() const { return unit_->taskInstructions(); }
    Cycle nextEventCycle(Cycle) const { return due_; }
    void
    foldTasks(Cycle end)
    {
        acct_.commitTask(0, end);
        result_.instructions = unit_->taskInstructions();
        result_.tasksRetired = 1;
    }
    void dumpState(std::ostream &os) const;

    std::unique_ptr<Cache> icache_;
    std::unique_ptr<Cache> dcache_;
    std::unique_ptr<ProcessingUnit> unit_;
    /** The cycle the unit is next due (see ProcessingUnit::tick). */
    Cycle due_ = 0;
};

} // namespace msim

#endif // MSIM_CORE_SCALAR_PROCESSOR_HH
