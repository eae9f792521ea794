#include "mem/main_memory.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "program/program.hh"

namespace msim {

const MainMemory::Page *
MainMemory::findPage(Addr addr) const
{
    const Addr key = addr >> kPageShift;
    if (lastPage_ && lastKey_ == key)
        return lastPage_;
    auto it = pages_.find(key);
    if (it == pages_.end())
        return nullptr;
    lastKey_ = key;
    lastPage_ = it->second.get();
    return lastPage_;
}

MainMemory::Page &
MainMemory::page(Addr addr)
{
    const Addr key = addr >> kPageShift;
    if (lastPage_ && lastKey_ == key)
        return *lastPage_;
    auto &slot = pages_[key];
    if (!slot)
        slot = std::make_unique<Page>();  // value-initialised: zeros
    lastKey_ = key;
    lastPage_ = slot.get();
    return *slot;
}

std::uint64_t
MainMemory::read(Addr addr, unsigned size) const
{
    panicIf(size == 0 || size > 8, "MainMemory::read bad size ", size);
    const Addr off = addr & kOffsetMask;
    std::uint64_t value = 0;
    if (off + size <= kPageBytes) {
        const Page *p = findPage(addr);
        if (p) {
            for (unsigned i = 0; i < size; ++i)
                value |= std::uint64_t((*p)[off + i]) << (8 * i);
        }
        return value;
    }
    for (unsigned i = 0; i < size; ++i) {
        const Page *p = findPage(addr + i);
        if (p)
            value |= std::uint64_t((*p)[(addr + i) & kOffsetMask])
                     << (8 * i);
    }
    return value;
}

void
MainMemory::write(Addr addr, std::uint64_t value, unsigned size)
{
    panicIf(size == 0 || size > 8, "MainMemory::write bad size ", size);
    const Addr off = addr & kOffsetMask;
    if (off + size <= kPageBytes) {
        Page &p = page(addr);
        for (unsigned i = 0; i < size; ++i)
            p[off + i] = std::uint8_t(value >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        page(addr + i)[(addr + i) & kOffsetMask] =
            std::uint8_t(value >> (8 * i));
}

void
MainMemory::writeBytes(Addr addr, const std::uint8_t *data, size_t n)
{
    while (n > 0) {
        const Addr off = addr & kOffsetMask;
        const size_t chunk = std::min<size_t>(n, kPageBytes - off);
        std::memcpy(page(addr).data() + off, data, chunk);
        addr += Addr(chunk);
        data += chunk;
        n -= chunk;
    }
}

void
MainMemory::readBytes(Addr addr, std::uint8_t *data, size_t n) const
{
    while (n > 0) {
        const Addr off = addr & kOffsetMask;
        const size_t chunk = std::min<size_t>(n, kPageBytes - off);
        if (const Page *p = findPage(addr))
            std::memcpy(data, p->data() + off, chunk);
        else
            std::memset(data, 0, chunk);
        addr += Addr(chunk);
        data += chunk;
        n -= chunk;
    }
}

std::string
MainMemory::readString(Addr addr) const
{
    std::string s;
    size_t left = 65536;
    while (left > 0) {
        const Addr off = addr & kOffsetMask;
        const size_t chunk = std::min<size_t>(left, kPageBytes - off);
        const Page *p = findPage(addr);
        if (!p)
            break;  // never-written bytes read as NUL
        const char *begin = reinterpret_cast<const char *>(p->data()) + off;
        const void *nul = std::memchr(begin, 0, chunk);
        if (nul) {
            s.append(begin, static_cast<const char *>(nul));
            break;
        }
        s.append(begin, chunk);
        addr += Addr(chunk);
        left -= chunk;
    }
    return s;
}

void
MainMemory::loadProgram(const Program &prog)
{
    for (const DataSegment &seg : prog.data) {
        if (!seg.bytes.empty())
            writeBytes(seg.base, seg.bytes.data(), seg.bytes.size());
    }
}

} // namespace msim
