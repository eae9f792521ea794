#include "sim/reference.hh"

#include <array>

#include "common/logging.hh"
#include "isa/exec.hh"
#include "isa/registers.hh"
#include "sim/syscalls.hh"

namespace msim {

ReferenceResult
referenceRun(
    const Program &prog,
    const std::function<void(MainMemory &, const Program &)> &init,
    std::deque<std::int32_t> input, std::uint64_t max_steps)
{
    using isa::InstClass;
    using isa::RegValue;

    MainMemory mem;
    mem.loadProgram(prog);
    if (init)
        init(mem, prog);

    SyscallHandler syscalls(
        [&mem](Addr a) { return std::uint8_t(mem.read(a, 1)); },
        prog.heapStart);
    syscalls.setInput(std::move(input));

    std::array<RegValue, kNumRegs> regs{};
    regs[size_t(isa::kRegSp)] = RegValue::fromWord(kStackTop);

    auto read = [&](RegIndex r) {
        return r <= 0 ? RegValue{} : regs[size_t(r)];
    };
    auto write = [&](RegIndex r, RegValue v) {
        if (r > 0 && r < kNumRegs)
            regs[size_t(r)] = v;
    };

    ReferenceResult result;
    Addr pc = prog.entry;
    for (std::uint64_t step = 0; step < max_steps; ++step) {
        const isa::Instruction *inst = prog.instrAt(pc);
        fatalIf(!inst, "reference interpreter ran off the program "
                       "text at 0x", std::hex, pc, std::dec);
        result.instructions += 1;
        Addr next = pc + kInstrBytes;
        switch (inst->opClass) {
          case InstClass::kLoad: {
            const Addr addr = isa::memAddr(*inst, read(inst->rs));
            const unsigned size = isa::memSize(inst->op);
            write(inst->rd,
                  isa::loadResult(inst->op, mem.read(addr, size)));
            break;
          }
          case InstClass::kStore: {
            const Addr addr = isa::memAddr(*inst, read(inst->rs));
            const unsigned size = isa::memSize(inst->op);
            mem.write(addr, isa::storeBytes(inst->op, read(inst->rt)),
                      size);
            break;
          }
          case InstClass::kBranch: {
            auto out =
                isa::evalBranch(*inst, read(inst->rs), read(inst->rt));
            if (inst->rd != kNoReg)  // jal/jalr link
                write(inst->rd, isa::evalAlu(*inst, read(inst->rs),
                                             read(inst->rt), pc));
            if (out.taken)
                next = out.target;
            break;
          }
          case InstClass::kSyscall: {
            const RegValue v0 = syscalls.execute(
                read(isa::intReg(isa::kRegV0)),
                read(isa::intReg(isa::kRegA0)),
                read(isa::intReg(isa::kRegA1)));
            write(isa::intReg(isa::kRegV0), v0);
            if (syscalls.exited()) {
                // The exiting syscall never reaches writeback in the
                // pipelines, so it is not a committed instruction.
                result.instructions -= 1;
                result.exited = true;
                result.output = syscalls.output();
                return result;
            }
            break;
          }
          case InstClass::kRelease:
          case InstClass::kNop:
            break;
          default:
            write(inst->rd, isa::evalAlu(*inst, read(inst->rs),
                                         read(inst->rt), pc));
            break;
        }
        pc = next;
    }
    result.output = syscalls.output();
    return result;
}

} // namespace msim
