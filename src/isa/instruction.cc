#include "isa/instruction.hh"

#include "isa/registers.hh"

namespace msim::isa {

void
Instruction::predecode()
{
    opClass = opInfo(op).cls;
    fu = fuKind(opClass);
    latency = std::uint8_t(execLatency(opClass));
    memOp = isMem(opClass);
    barrier = isControl(opClass) || opClass == InstClass::kSyscall;
    if (opClass == InstClass::kSyscall) {
        srcs = RegMask{intReg(kRegV0), intReg(kRegA0), intReg(kRegA1)};
        dest = intReg(kRegV0);
        return;
    }
    srcs = RegMask();
    for (RegIndex r : {rs, opClass == InstClass::kRelease ? rel2 : rt}) {
        if (r != kNoReg)
            srcs.set(r);
    }
    dest = opClass == InstClass::kStore ? kNoReg : rd;
}

} // namespace msim::isa
