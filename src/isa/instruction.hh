/**
 * @file
 * The decoded instruction representation used by the pipelines.
 *
 * The simulator executes from decoded instructions only; there is no
 * binary form (isa/encoding.hh keeps the field widths a 32-bit format
 * would impose). Tag bits (forward and stop bits, paper section 2.2)
 * conceptually live in a table beside the program text and are
 * concatenated with the instruction on icache fill; here they ride in
 * the decoded form.
 */

#ifndef MSIM_ISA_INSTRUCTION_HH
#define MSIM_ISA_INSTRUCTION_HH

#include <cstdint>

#include "common/reg_mask.hh"
#include "common/types.hh"
#include "isa/opcodes.hh"

namespace msim::isa {

/** Stop-bit conditions that demarcate the end of a task. */
enum class StopKind : std::uint8_t {
    kNone,        //!< not a task boundary
    kAlways,      //!< task completes after this instruction
    kIfTaken,     //!< task completes if this branch is taken
    kIfNotTaken,  //!< task completes if this branch falls through
};

/** Tag bits carried beside each instruction of a multiscalar program. */
struct TagBits
{
    bool forward = false;           //!< forward result on the ring
    StopKind stop = StopKind::kNone;

    bool operator==(const TagBits &) const = default;
};

/** A fully decoded instruction, static facts included. */
struct Instruction
{
    Opcode op = Opcode::kNop;
    /** Destination register (unified index) or kNoReg. */
    RegIndex rd = kNoReg;
    /** First source register or kNoReg. */
    RegIndex rs = kNoReg;
    /** Second source register or kNoReg. */
    RegIndex rt = kNoReg;
    /** Immediate operand (sign-extended) or shift amount. */
    std::int32_t imm = 0;
    /** Absolute jump/branch target address, when applicable. */
    Addr target = 0;
    /** Second register released by a release instruction, or kNoReg. */
    RegIndex rel2 = kNoReg;
    /** Multiscalar tag bits. */
    TagBits tags;

    // --- static facts, set once by predecode() ------------------------
    /**
     * The operand model the units and the static verifier share (so
     * the write-set oracle agrees with the may-write sets): dest is
     * $v0 for syscalls, none for stores, rd otherwise; srcs are
     * $v0/$a0/$a1 for syscalls, the released registers for releases,
     * rs/rt otherwise.
     */
    RegIndex dest = kNoReg;
    RegMask srcs;
    InstClass opClass = InstClass::kNop;  //!< opInfo(op).cls
    FuKind fu = FuKind::kSimpleInt;       //!< fuKind(opClass)
    std::uint8_t latency = 1;             //!< execLatency(opClass)
    bool memOp = false;                   //!< a load or store
    /** A branch, jump or syscall: nothing younger issues before it. */
    bool barrier = false;

    /** Derive the static facts; the assembler calls it once per
     *  instruction as it fills Program::code. */
    void predecode();

    /** @return true for conditional branches (not jumps). */
    bool
    isCondBranch() const
    {
        auto f = opInfo(op).format;
        return f == Format::kBr1 || f == Format::kBr2;
    }

    /** @return true for beq r,r (the "b" pseudo): always taken. */
    bool
    isAlwaysTaken() const
    {
        return op == Opcode::kBeq && rs == rt;
    }

    /** @return true for bne r,r: never taken. */
    bool
    isNeverTaken() const
    {
        return op == Opcode::kBne && rs == rt;
    }

    /** @return true for direct or indirect jumps. */
    bool
    isJump() const
    {
        return op == Opcode::kJ || op == Opcode::kJal ||
               op == Opcode::kJr || op == Opcode::kJalr;
    }
};

} // namespace msim::isa

#endif // MSIM_ISA_INSTRUCTION_HH
