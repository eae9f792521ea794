/**
 * @file
 * Architectural register names for the msim ISA.
 *
 * The ISA is MIPS-flavored: 32 integer registers $0-$31 (with the
 * usual symbolic aliases) and 32 floating point registers $f0-$f31.
 * Internally both files share one unified index space, 0-31 for
 * integer and 32-63 for floating point, so that create/accum masks
 * (RegMask) cover both in a single 64-bit word.
 */

#ifndef MSIM_ISA_REGISTERS_HH
#define MSIM_ISA_REGISTERS_HH

#include <optional>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace msim::isa {

/** Conventional integer register numbers. */
enum IntReg : int {
    kRegZero = 0,  //!< hardwired zero
    kRegAt = 1,    //!< assembler temporary
    kRegV0 = 2,    //!< result / syscall code
    kRegV1 = 3,
    kRegA0 = 4,    //!< first argument
    kRegA1 = 5,
    kRegA2 = 6,
    kRegA3 = 7,
    kRegGp = 28,
    kRegSp = 29,   //!< stack pointer
    kRegFp = 30,
    kRegRa = 31,   //!< return address
};

/** @return unified index for integer register @p n (0-31). */
constexpr RegIndex
intReg(int n)
{
    return RegIndex(n);
}

/** @return unified index for floating point register @p n (0-31). */
constexpr RegIndex
fpReg(int n)
{
    return RegIndex(kNumIntRegs + n);
}

/**
 * Parse a register name ("$5", "$zero", "$sp", "$f12") into a unified
 * register index.
 *
 * @return the index, or std::nullopt when the name is not a register.
 */
std::optional<RegIndex> parseRegName(std::string_view name);

/** Render a unified register index as an assembly name. */
std::string regName(RegIndex reg);

} // namespace msim::isa

#endif // MSIM_ISA_REGISTERS_HH
