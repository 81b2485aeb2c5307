#include "fft/reference.hpp"

#include <numbers>

#include "util/bits.hpp"

namespace tdp::fft {

std::vector<std::complex<double>> naive_dft(
    const std::vector<std::complex<double>>& x, int sign) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  const double base = 2.0 * std::numbers::pi / static_cast<double>(n);
  // w[t] = e^{sign*2*pi*i*t/n}: the exponent j*k only matters mod n.
  std::vector<std::complex<double>> w(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double angle = base * static_cast<double>(t) * sign;
    w[t] = {std::cos(angle), std::sin(angle)};
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t k = 0; k < n; ++k) acc += x[k] * w[j * k % n];
    out[j] = acc;
  }
  return out;
}

std::vector<std::complex<double>> bit_reverse_permute(
    const std::vector<std::complex<double>>& x) {
  const int bits = util::floor_log2(static_cast<std::int64_t>(x.size()));
  std::vector<std::complex<double>> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[util::bit_reverse(bits, i)] = x[i];
  }
  return out;
}

std::vector<double> poly_mul_naive(const std::vector<double>& a,
                                   const std::vector<double>& b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

std::vector<double> to_interleaved(
    const std::vector<std::complex<double>>& x) {
  std::vector<double> out(2 * x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[2 * i] = x[i].real();
    out[2 * i + 1] = x[i].imag();
  }
  return out;
}

std::vector<std::complex<double>> from_interleaved(
    const std::vector<double>& packed) {
  std::vector<std::complex<double>> out(packed.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {packed[2 * i], packed[2 * i + 1]};
  }
  return out;
}

}  // namespace tdp::fft
