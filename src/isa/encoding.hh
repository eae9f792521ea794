/**
 * @file
 * Field ranges of the msim ISA's 32-bit MIPS-style instruction format.
 *
 * Layout (32 bits):
 *   R-format: [31:26]=0, [25:21] rs, [20:16] rt, [15:11] rd,
 *             [10:6] shamt/aux, [5:0] funct
 *   I-format: [31:26] primary, [25:21] rs, [20:16] rt/rd, [15:0] imm16
 *   J-format: [31:26] primary, [25:0] absolute word address
 *
 * Programs are never packed into binary words: the pipelines run from
 * the predecoded Program::code. The assembler still holds every
 * operand to the width of its field, so workloads stay programs a
 * 32-bit ISA could encode. Arithmetic immediates, load/store offsets
 * and branch offsets are signed 16 bits; logical immediates
 * (andi/ori/xori) are unsigned 16 bits; branch offsets count words
 * from the next instruction; jump targets are 26-bit word indices.
 */

#ifndef MSIM_ISA_ENCODING_HH
#define MSIM_ISA_ENCODING_HH

#include "common/types.hh"
#include "isa/instruction.hh"

namespace msim::isa {

/**
 * Check that every operand of @p inst fits its field.
 *
 * @param inst The instruction to check.
 * @param pc The address the instruction will occupy (for branches).
 *
 * Throws FatalError when an operand does not fit (e.g. an immediate
 * outside the signed 16-bit range, or a misaligned branch target).
 */
void checkFields(const Instruction &inst, Addr pc);

/** Immediate range limits for the signed I-format immediate. */
inline constexpr std::int32_t kMinImm16 = -(1 << 15);
inline constexpr std::int32_t kMaxImm16 = (1 << 15) - 1;

/** Unsigned immediate limit for logical immediates and lui. */
inline constexpr std::int64_t kMaxUImm16 = 0xffff;

} // namespace msim::isa

#endif // MSIM_ISA_ENCODING_HH
