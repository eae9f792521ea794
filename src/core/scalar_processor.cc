#include "core/scalar_processor.hh"

#include "common/logging.hh"
#include "core/run_loop.hh"
#include "isa/registers.hh"

namespace msim {

ScalarProcessor::ScalarProcessor(const Program &program,
                                 const ScalarConfig &config)
    : program_(program), config_(config), acct_(1)
{
    config.validate();
    mem_.loadProgram(program);
    if (config.trace.enabled) {
        tracer_ = std::make_unique<Tracer>(config.trace);
        tracer_->threadName(0, "pu0");
        tracer_->threadName(kTidBus, "bus");
        tracer_->threadName(kTidIcacheBase, "icache");
        tracer_->threadName(kTidDcacheBase, "dcache");
    }
    Tracer *tracer = tracer_.get();
    bus_ = std::make_unique<MemoryBus>(stats_.group("bus"), config.bus,
                                       tracer);
    MemLevel *l1next;
    if (config.l2) {
        l2_ = std::make_unique<L2Cache>(stats_.group("l2"), *bus_,
                                        *config.l2, tracer);
        l1next = l2_.get();
        if (tracer_)
            tracer_->threadName(kTidL2Base, "l2");
    } else {
        busLevel_ = std::make_unique<BusMemLevel>(*bus_);
        l1next = busLevel_.get();
    }
    icache_ = std::make_unique<Cache>(stats_.group("icache"), *l1next,
                                      config.icache, tracer,
                                      kTidIcacheBase);
    dcache_ = std::make_unique<Cache>(stats_.group("dcache"), *l1next,
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
    syscalls_ = std::make_unique<SyscallHandler>(
        [this](Addr a) { return std::uint8_t(mem_.read(a, 1)); },
        program.heapStart);
    unit_ = std::make_unique<ProcessingUnit>(0, config.pu, *this,
                                             stats_.group("pu0"),
                                             &acct_, tracer);
    fastForward_ = config.fastForward && !tracer_;
}

void
ScalarProcessor::setInput(std::deque<std::int32_t> input)
{
    syscalls_->setInput(std::move(input));
}

RunResult
ScalarProcessor::run(Cycle max_cycles)
{
    panicIf(started_, "ScalarProcessor::run may only be called once");
    started_ = true;

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

const isa::Instruction *
ScalarProcessor::instrAt(Addr pc)
{
    return program_.instrAt(pc);
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

isa::RegValue
ScalarProcessor::doSyscall(unsigned, isa::RegValue v0, isa::RegValue a0,
                           isa::RegValue a1)
{
    return syscalls_->execute(v0, a0, a1);
}

void
ScalarProcessor::taskExited(unsigned, Addr)
{
    panic("scalar execution must not exit tasks "
          "(multiscalar tags in a scalar binary?)");
}

} // namespace msim
