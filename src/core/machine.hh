/**
 * @file
 * The chassis both machines are built on. The scalar baseline is "a
 * single processing unit identical to a multiscalar unit" on the same
 * memory bus (paper section 5.1), so both cores own the same machine
 * plumbing: the program and its functional memory image, the
 * statistics, the optional tracer, the cycle accounting, the shared
 * bus and the optional shared L2, the syscall handler and the run
 * result. Machine builds and holds these; each core adds its units,
 * its L1 caches, the PuContext services that differ, and the hooks
 * the shared run loop (core/run_loop.hh) clocks it through.
 */

#ifndef MSIM_CORE_MACHINE_HH
#define MSIM_CORE_MACHINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/run_result.hh"
#include "mem/bus.hh"
#include "mem/l2_cache.hh"
#include "mem/main_memory.hh"
#include "mem/mem_level.hh"
#include "program/program.hh"
#include "pu/pu_context.hh"
#include "sim/syscalls.hh"
#include "trace/cycle_accounting.hh"
#include "trace/tracer.hh"

namespace msim {

/** What the scalar and the multiscalar machine build alike. */
class Machine : public PuContext
{
  public:
    /** Provide the integer input stream for syscall 5. */
    void
    setInput(std::deque<std::int32_t> input)
    {
        syscalls_.setInput(std::move(input));
    }

    /** @return direct access to the functional memory (test setup). */
    MainMemory &memory() { return mem_; }

    /** @return the collected statistics. */
    const StatRegistry &stats() const { return stats_; }

    // --- PuContext services both cores provide alike -----------------
    const isa::Instruction *
    instrAt(Addr pc) override
    {
        return program_.instrAt(pc);
    }

    isa::RegValue
    doSyscall(unsigned, isa::RegValue v0, isa::RegValue a0,
              isa::RegValue a1) override
    {
        return syscalls_.execute(v0, a0, a1);
    }

  protected:
    /**
     * @param num_units Units the cycle accounting books.
     * @param read_byte How a syscall reads program memory (the
     *        multiscalar core reads through the ARB).
     */
    Machine(const Program &program, unsigned num_units,
            SyscallHandler::ByteReader read_byte)
        : program_(program), acct_(num_units),
          syscalls_(std::move(read_byte), program.heapStart)
    {
    }

    /**
     * The first step of each core's constructor: check @p config
     * before any component is built, load the program, and build the
     * tracer (its lanes are left for the core to name), the bus and
     * the optional L2. Tracing wants a sample of every cycle, so
     * fast-forward is reserved for untraced runs.
     */
    template <class Config>
    void
    buildMemorySide(const Config &config)
    {
        config.validate();
        mem_.loadProgram(program_);
        if (config.trace.enabled)
            tracer_ = std::make_unique<Tracer>(config.trace);
        bus_ = std::make_unique<MemoryBus>(stats_.group("bus"),
                                           config.bus, tracer_.get());
        if (config.l2) {
            l2_ = std::make_unique<L2Cache>(stats_.group("l2"), *bus_,
                                            *config.l2, tracer_.get());
        }
        fastForward_ = config.fastForward && !tracer_;
        tickEveryUnit_ = tracer_ && tracer_->wants(TraceCat::kPu);
    }

    /** @return the L1s' next level: the shared L2, else the bus. */
    MemLevel &
    l1Next()
    {
        if (l2_)
            return *l2_;
        return *bus_;
    }

    /** Mark the run started; @p core's run() may be called once. */
    void
    startRun(const char *core)
    {
        panicIf(started_, core, "::run may only be called once");
        started_ = true;
    }

    const Program &program_;
    StatRegistry stats_;
    /** Only constructed when config.trace.enabled. */
    std::unique_ptr<Tracer> tracer_;
    CycleAccounting acct_;
    MainMemory mem_;
    std::unique_ptr<MemoryBus> bus_;
    /** The shared L2 (null: the L1s miss straight to the bus). */
    std::unique_ptr<L2Cache> l2_;
    SyscallHandler syscalls_;
    /** Accumulating results. */
    RunResult result_;
    bool started_ = false;
    /** Cycle-exact fast-forward (see MsConfig::fastForward). */
    bool fastForward_ = false;
    /** Units are ticked every cycle, due or not, for their trace samples. */
    bool tickEveryUnit_ = false;
};

} // namespace msim

#endif // MSIM_CORE_MACHINE_HH
