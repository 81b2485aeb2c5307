// Small integer helpers used throughout the implementation: floor(log2),
// power-of-two tests and the bit-reversal permutation rho used by the FFT
// example (thesis §6.2, rho_proc).
#pragma once

#include <cstdint>

namespace tdp::util {

/// floor(log2(n)) for n >= 1 (thesis find_log2); returns 0 for n <= 1.
int floor_log2(std::int64_t n);

/// True when n is a positive power of two.
bool is_pow2(std::int64_t n);

/// Bitwise reversal of the rightmost `bits` bits of `value`, right-justified
/// (thesis rho_proc).  Bits above position `bits` are discarded.
std::uint64_t bit_reverse(int bits, std::uint64_t value);

/// Integer n-th root: largest r with r^n <= value; exact() variant below
/// reports whether the root is exact.  Used for the default "square"
/// processor-grid rule of §3.2.1.2.
std::int64_t iroot(std::int64_t value, int n);

/// True when value has an exact integer n-th root, returned through *root.
bool exact_iroot(std::int64_t value, int n, std::int64_t* root);

/// Integer power r^n with saturation guard for the small values used here.
std::int64_t ipow(std::int64_t r, int n);

/// The splitmix64 finaliser: a bijective avalanche mix that turns a
/// structured counter into well-spread decision bits.
std::uint64_t mix64(std::uint64_t x);

}  // namespace tdp::util
