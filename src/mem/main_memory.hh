/**
 * @file
 * Functional backing store: a sparse, paged, little-endian memory.
 *
 * Timing is modeled separately (MemoryBus, Cache); MainMemory only
 * holds values. Reads of never-written locations return zero, which
 * gives deterministic runs.
 */

#ifndef MSIM_MEM_MAIN_MEMORY_HH
#define MSIM_MEM_MAIN_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/types.hh"

namespace msim {

class Program;

/**
 * Sparse functional memory.
 *
 * An access that lies within one 4 KiB page looks the page up once,
 * behind a one-entry cache of the last page used; pages are never
 * freed, so the cached pointer stays valid. Reads of never-written
 * pages allocate nothing. An access that straddles a page boundary,
 * including the wrap from 0xffffffff to 0, goes byte by byte.
 *
 * Single-thread: const reads update the page cache, so one
 * MainMemory must not be read from two threads at once (each run
 * owns its own). It is neither copyable nor movable.
 */
class MainMemory
{
  public:
    MainMemory() = default;
    MainMemory(const MainMemory &) = delete;
    MainMemory &operator=(const MainMemory &) = delete;

    /** Read @p size bytes (1-8) starting at @p addr, little endian. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write the low @p size bytes (1-8) of @p value at @p addr. */
    void write(Addr addr, std::uint64_t value, unsigned size);

    /** Bulk copy into memory, a page at a time. */
    void writeBytes(Addr addr, const std::uint8_t *data, size_t n);

    /** Bulk copy out of memory, a page at a time. */
    void readBytes(Addr addr, std::uint8_t *data, size_t n) const;

    /** Read a NUL-terminated string (bounded at 64 KiB). */
    std::string readString(Addr addr) const;

    /** Load a program's initialized data segments. */
    void loadProgram(const Program &prog);

  private:
    static constexpr unsigned kPageShift = 12;
    static constexpr Addr kPageBytes = Addr(1) << kPageShift;
    static constexpr Addr kOffsetMask = kPageBytes - 1;

    using Page = std::array<std::uint8_t, kPageBytes>;

    /** @return the page holding @p addr, or nullptr if never written. */
    const Page *findPage(Addr addr) const;

    /** @return the page holding @p addr, zero-filled on first use. */
    Page &page(Addr addr);

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;

    /** The last page found or created, and its page number. */
    mutable Page *lastPage_ = nullptr;
    mutable Addr lastKey_ = 0;
};

} // namespace msim

#endif // MSIM_MEM_MAIN_MEMORY_HH
