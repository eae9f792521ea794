/**
 * @file
 * A loaded msim program: predecoded instructions, data segments,
 * task descriptors, and a symbol table.
 *
 * Instructions occupy 4 bytes of the address space each, so fetch
 * timing flows through the icache by address, but there is no binary
 * text image: the pipelines execute the predecoded side table.
 */

#ifndef MSIM_PROGRAM_PROGRAM_HH
#define MSIM_PROGRAM_PROGRAM_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "program/task_descriptor.hh"

namespace msim {

/** Default memory layout. */
inline constexpr Addr kTextBase = 0x00400000;
inline constexpr Addr kDataBase = 0x10000000;
inline constexpr Addr kStackTop = 0x7ffffff0;

/** A raw initialized data segment. */
struct DataSegment
{
    Addr base = 0;
    std::vector<std::uint8_t> bytes;
};

/** An assembled program ready to run. */
class Program
{
  public:
    /** Entry point address. */
    Addr entry = kTextBase;

    /** Base address of the text segment. */
    Addr textBase = kTextBase;

    /** Decoded instructions, static facts included (only the
     *  assembler fills it); index i is address textBase + 4*i. */
    std::vector<isa::Instruction> code;

    /** Initialized data segments. */
    std::vector<DataSegment> data;

    /** Task descriptors keyed by task start address. */
    std::unordered_map<Addr, TaskDescriptor> tasks;

    /** Source file name the program was assembled from (diagnostics). */
    std::string sourceName;

    /**
     * Source line of each instruction (parallel to @ref code); empty
     * for programs built without the assembler. Line 0 = unknown.
     */
    std::vector<int> lineNos;

    /** Symbol table (labels from the assembly source). */
    std::map<std::string, Addr> symbols;

    /** First free address after the data segments (initial brk). */
    Addr heapStart = kDataBase;

    /** @return the decoded instruction at @p addr, or nullptr. */
    const isa::Instruction *
    instrAt(Addr addr) const
    {
        if (addr < textBase || (addr - textBase) % kInstrBytes != 0)
            return nullptr;
        size_t idx = (addr - textBase) / kInstrBytes;
        if (idx >= code.size())
            return nullptr;
        return &code[idx];
    }

    /** @return the task descriptor starting at @p addr, or nullptr. */
    const TaskDescriptor *
    taskAt(Addr addr) const
    {
        auto it = tasks.find(addr);
        return it == tasks.end() ? nullptr : &it->second;
    }

    /** @return the address of a symbol, or std::nullopt. */
    std::optional<Addr>
    symbol(const std::string &name) const
    {
        auto it = symbols.find(name);
        if (it == symbols.end())
            return std::nullopt;
        return it->second;
    }

    /** @return the source line of the instruction at @p addr, or 0. */
    int
    lineOf(Addr addr) const
    {
        if (addr < textBase || (addr - textBase) % kInstrBytes != 0)
            return 0;
        size_t idx = (addr - textBase) / kInstrBytes;
        return idx < lineNos.size() ? lineNos[idx] : 0;
    }

    /** @return address one past the last text instruction. */
    Addr
    textEnd() const
    {
        return textBase + Addr(code.size()) * kInstrBytes;
    }
};

} // namespace msim

#endif // MSIM_PROGRAM_PROGRAM_HH
