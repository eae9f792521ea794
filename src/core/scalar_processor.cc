#include "core/scalar_processor.hh"

#include "common/logging.hh"
#include "core/run_loop.hh"
#include "isa/registers.hh"

namespace msim {

ScalarProcessor::ScalarProcessor(const Program &program,
                                 const ScalarConfig &config)
    : Machine(program, 1,
              [this](Addr a) { return std::uint8_t(mem_.read(a, 1)); })
{
    buildMemorySide(config);
    Tracer *tracer = tracer_.get();
    if (tracer) {
        tracer->threadName(0, "pu0");
        tracer->threadName(kTidBus, "bus");
        tracer->threadName(kTidIcacheBase, "icache");
        tracer->threadName(kTidDcacheBase, "dcache");
        if (l2_)
            tracer->threadName(kTidL2Base, "l2");
    }
    icache_ = std::make_unique<Cache>(stats_.group("icache"), l1Next(),
                                      config.icache, tracer,
                                      kTidIcacheBase);
    dcache_ = std::make_unique<Cache>(stats_.group("dcache"), l1Next(),
                                      config.dcache, tracer,
                                      kTidDcacheBase);
    if (l2_) {
        // Both scalar L1s address memory directly, so the global
        // block address is their local one.
        l2_->setBackInvalidate([this](Addr addr) {
            const bool d0 = dcache_->invalidateBlock(addr);
            const bool d1 = icache_->invalidateBlock(addr);
            return d0 || d1;
        });
    }
    unit_ = std::make_unique<ProcessingUnit>(0, config.pu, *this,
                                             stats_.group("pu0"),
                                             &acct_, tracer);
}

RunResult
ScalarProcessor::run(Cycle max_cycles)
{
    startRun("ScalarProcessor");

    std::array<isa::RegValue, kNumRegs> init{};
    init[size_t(isa::kRegSp)] = isa::RegValue::fromWord(kStackTop);
    unit_->assignTask(0, program_.entry, RegMask(), RegMask(),
                      init.data());
    return runLoop(*this, max_cycles);
}

void
ScalarProcessor::dumpState(std::ostream &os) const
{
    dumpUnit(os, *unit_, program_.entry);
}

Cycle
ScalarProcessor::icacheAccess(unsigned, Cycle now, Addr pc)
{
    return icache_->access(now, pc, false);
}

Cycle
ScalarProcessor::dcacheAccess(unsigned, Cycle now, Addr addr, bool write)
{
    return dcache_->access(now, addr, write);
}

bool
ScalarProcessor::memHasSpace(unsigned, Addr, unsigned, bool)
{
    return true;
}

std::uint64_t
ScalarProcessor::memLoad(unsigned, Addr addr, unsigned size)
{
    return mem_.read(addr, size);
}

void
ScalarProcessor::memStore(unsigned, Addr addr, unsigned size,
                          std::uint64_t value)
{
    mem_.write(addr, value, size);
}

void
ScalarProcessor::forwardReg(unsigned, RegIndex, isa::RegValue)
{
    panic("scalar execution must not forward registers "
          "(multiscalar tags in a scalar binary?)");
}

bool
ScalarProcessor::syscallAllowed(unsigned)
{
    return true;
}

void
ScalarProcessor::taskExited(unsigned, Addr)
{
    panic("scalar execution must not exit tasks "
          "(multiscalar tags in a scalar binary?)");
}

} // namespace msim
