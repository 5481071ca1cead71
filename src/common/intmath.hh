/**
 * @file
 * Small integer math helpers (powers of two, logarithms, division).
 */

#ifndef D2M_COMMON_INTMATH_HH
#define D2M_COMMON_INTMATH_HH

#include <bit>
#include <cassert>
#include <cstdint>

namespace d2m
{

/** @return true if @p n is a (non-zero) power of two. */
constexpr bool
isPowerOf2(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/** @return floor(log2(n)); @p n must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t n)
{
    assert(n != 0);
    return static_cast<unsigned>(std::bit_width(n)) - 1;
}

/** @return ceil(log2(n)); @p n must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t n)
{
    assert(n != 0);
    return isPowerOf2(n) ? floorLog2(n) : floorLog2(n) + 1;
}

/** @return ceil(a / b) for integers; @p b must be non-zero. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    assert(b != 0);
    return (a + b - 1) / b;
}

/** @return @p a rounded down to a multiple of the power-of-two @p align. */
constexpr std::uint64_t
roundDown(std::uint64_t a, std::uint64_t align)
{
    assert(isPowerOf2(align));
    return a & ~(align - 1);
}

/** @return @p a rounded up to a multiple of the power-of-two @p align. */
constexpr std::uint64_t
roundUp(std::uint64_t a, std::uint64_t align)
{
    assert(isPowerOf2(align));
    return (a + align - 1) & ~(align - 1);
}

} // namespace d2m

#endif // D2M_COMMON_INTMATH_HH
