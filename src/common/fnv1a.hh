/**
 * @file
 * FNV-1a 64, for the workload content hash and the digests the tests
 * pin (trace and stats text, ARB traces, fuzz accounting). Start from
 * kFnv1aBasis and fold bytes in order.
 */

#ifndef MSIM_COMMON_FNV1A_HH
#define MSIM_COMMON_FNV1A_HH

#include <cstddef>
#include <cstdint>

namespace msim {

/** The FNV-1a 64 offset basis: the hash of no bytes. */
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/** Fold @p n bytes at @p data into @p h. */
inline std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace msim

#endif // MSIM_COMMON_FNV1A_HH
