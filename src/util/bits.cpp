#include "util/bits.hpp"

namespace tdp::util {

int floor_log2(std::int64_t n) {
  int log = 0;
  while (n >= 2) {
    n /= 2;
    ++log;
  }
  return log;
}

bool is_pow2(std::int64_t n) { return n > 0 && (n & (n - 1)) == 0; }

std::uint64_t bit_reverse(int bits, std::uint64_t value) {
  std::uint64_t out = 0;
  for (int i = 0; i < bits; ++i) {
    out = (out << 1) | ((value >> i) & 1u);
  }
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::int64_t ipow(std::int64_t r, int n) {
  std::int64_t out = 1;
  for (int i = 0; i < n; ++i) out *= r;
  return out;
}

std::int64_t iroot(std::int64_t value, int n) {
  if (value <= 0 || n <= 0) return 0;
  std::int64_t r = 1;
  while (ipow(r + 1, n) <= value) ++r;
  return r;
}

bool exact_iroot(std::int64_t value, int n, std::int64_t* root) {
  std::int64_t r = iroot(value, n);
  if (root != nullptr) *root = r;
  return ipow(r, n) == value;
}

}  // namespace tdp::util
