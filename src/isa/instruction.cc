#include "isa/instruction.hh"

#include <sstream>

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

std::string
Instruction::toString() const
{
    const OpInfo &info = opInfo(op);
    std::ostringstream os;
    os << info.mnemonic;
    auto hex = [](Addr a) {
        std::ostringstream h;
        h << "0x" << std::hex << a;
        return h.str();
    };
    switch (info.format) {
      case Format::kR3:
        os << " " << regName(rd) << ", " << regName(rs) << ", "
           << regName(rt);
        break;
      case Format::kR2:
        os << " " << regName(rd) << ", " << regName(rs);
        break;
      case Format::kRI:
        os << " " << regName(rd) << ", " << regName(rs) << ", " << imm;
        break;
      case Format::kSh:
        os << " " << regName(rd) << ", " << regName(rs) << ", " << imm;
        break;
      case Format::kLui:
        os << " " << regName(rd) << ", " << imm;
        break;
      case Format::kLS:
        os << " " << regName(rd == kNoReg ? rt : rd) << ", " << imm
           << "(" << regName(rs) << ")";
        break;
      case Format::kBr2:
        os << " " << regName(rs) << ", " << regName(rt) << ", "
           << hex(target);
        break;
      case Format::kBr1:
        os << " " << regName(rs) << ", " << hex(target);
        break;
      case Format::kJ:
        os << " " << hex(target);
        break;
      case Format::kJr:
        os << " " << regName(rs);
        break;
      case Format::kJalr:
        os << " " << regName(rd) << ", " << regName(rs);
        break;
      case Format::kRel:
        os << " " << regName(rs);
        if (rel2 != kNoReg)
            os << ", " << regName(rel2);
        break;
      case Format::kNone:
        break;
    }
    if (tags.forward)
        os << " !f";
    switch (tags.stop) {
      case StopKind::kAlways:
        os << " !s";
        break;
      case StopKind::kIfTaken:
        os << " !st";
        break;
      case StopKind::kIfNotTaken:
        os << " !sn";
        break;
      case StopKind::kNone:
        break;
    }
    return os.str();
}

} // namespace msim::isa
