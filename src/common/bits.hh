/**
 * @file
 * Bit-counting helpers for simulator hot paths. std::popcount lowers
 * to a libgcc call (__popcountdi2) at the baseline x86-64 target, so
 * the issue-lane count and the stall-majority vote use this inline
 * SWAR form instead of requiring a -mpopcnt build.
 */

#ifndef WSL_COMMON_BITS_HH
#define WSL_COMMON_BITS_HH

#include <cstdint>

namespace wsl {

/** Number of set bits in `x`: branch-free, no library call. */
constexpr unsigned
popcount64(std::uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

} // namespace wsl

#endif // WSL_COMMON_BITS_HH
