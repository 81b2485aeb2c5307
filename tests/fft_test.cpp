// Tests for the distributed FFT (§6.2.3 specifications) against the naive
// DFT reference, across processor counts and transform sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>

#include "core/runtime.hpp"
#include "fft/fft.hpp"
#include "fft/reference.hpp"
#include "pcn/process.hpp"
#include "util/bits.hpp"
#include "util/node_array.hpp"

namespace tdp::fft {
namespace {

using Cx = std::complex<double>;

void run_group(vp::Machine& machine, int p,
               const std::function<void(spmd::SpmdContext&)>& body) {
  const std::uint64_t comm = machine.next_comm();
  const std::vector<int> procs = util::iota_nodes(p);
  pcn::ProcessGroup group;
  for (int i = 0; i < p; ++i) {
    group.spawn_on(machine, i, [&, i] {
      spmd::SpmdContext ctx(machine, comm, procs, i);
      body(ctx);
    });
  }
  group.join();
}

std::vector<Cx> random_signal(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Cx> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {dist(rng), dist(rng)};
  return x;
}

void expect_near(const std::vector<Cx>& a, const std::vector<Cx>& b,
                 double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "at " << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "at " << i;
  }
}

TEST(Roots, ComputeRootsMatchesUnitCircle) {
  const int n = 8;
  std::vector<double> eps(static_cast<std::size_t>(2 * n));
  compute_roots(n, eps.data());
  for (int j = 0; j < n; ++j) {
    const double angle = 2.0 * M_PI * j / n;
    EXPECT_NEAR(eps[static_cast<std::size_t>(2 * j)], std::cos(angle), 1e-12);
    EXPECT_NEAR(eps[static_cast<std::size_t>(2 * j + 1)], std::sin(angle),
                1e-12);
  }
}

TEST(Reference, NaiveDftInverseOfItself) {
  const int n = 16;
  std::vector<Cx> x = random_signal(n, 7);
  std::vector<Cx> fwd = naive_dft(x, -1);  // unscaled forward
  std::vector<Cx> back = naive_dft(fwd, +1);
  for (auto& v : back) v /= static_cast<double>(n);
  expect_near(back, x, 1e-9);
}

TEST(Reference, PolyMulNaive) {
  EXPECT_EQ(poly_mul_naive({1.0, 1.0}, {1.0, -1.0}),
            (std::vector<double>{1.0, 0.0, -1.0}));
  EXPECT_EQ(poly_mul_naive({2.0}, {3.0}), (std::vector<double>{6.0}));
}

/// Runs a distributed transform on p copies: scatters `input` (already in
/// the storage order the transform expects), runs fft_reverse or
/// fft_natural on every copy, gathers the storage back.
std::vector<Cx> run_transform(int p, int n, const std::vector<Cx>& input,
                              int flag, bool reverse_order) {
  vp::Machine machine(p);
  const int b = n / p;
  std::vector<double> packed = to_interleaved(input);
  std::vector<double> out(static_cast<std::size_t>(2 * n));
  std::vector<double> eps(static_cast<std::size_t>(2 * n));
  compute_roots(n, eps.data());
  run_group(machine, p, [&](spmd::SpmdContext& ctx) {
    std::vector<double> bb(
        packed.begin() + static_cast<std::size_t>(ctx.index()) * 2 * b,
        packed.begin() + static_cast<std::size_t>(ctx.index() + 1) * 2 * b);
    if (reverse_order) {
      fft_reverse(ctx, n, flag, eps.data(), bb.data());
    } else {
      fft_natural(ctx, n, flag, eps.data(), bb.data());
    }
    std::copy(bb.begin(), bb.end(),
              out.begin() + static_cast<std::size_t>(ctx.index()) * 2 * b);
  });
  return from_interleaved(out);
}

struct FftCase {
  int p;  ///< processors
  int n;  ///< transform size
};

class DistributedFft : public ::testing::TestWithParam<FftCase> {};

TEST_P(DistributedFft, ReverseInputInverseMatchesNaiveDft) {
  const auto [p, n] = GetParam();
  std::vector<Cx> x = random_signal(n, 11);
  // fft_reverse expects storage s to hold x[rho(s)].
  std::vector<Cx> scattered = bit_reverse_permute(x);
  std::vector<Cx> got = run_transform(p, n, scattered, kInverse, true);
  std::vector<Cx> want = naive_dft(x, +1);
  expect_near(got, want, 1e-8 * n);
}

TEST_P(DistributedFft, ReverseInputForwardIncludesDivisionByN) {
  const auto [p, n] = GetParam();
  std::vector<Cx> x = random_signal(n, 13);
  std::vector<Cx> scattered = bit_reverse_permute(x);
  std::vector<Cx> got = run_transform(p, n, scattered, kForward, true);
  std::vector<Cx> want = naive_dft(x, -1);
  for (auto& v : want) v /= static_cast<double>(n);
  expect_near(got, want, 1e-8 * n);
}

TEST_P(DistributedFft, NaturalInputProducesBitReversedOutput) {
  const auto [p, n] = GetParam();
  std::vector<Cx> x = random_signal(n, 17);
  std::vector<Cx> got = run_transform(p, n, x, kInverse, false);
  // Output storage s holds result[rho(s)]: un-permute before comparing.
  std::vector<Cx> natural = bit_reverse_permute(got);
  std::vector<Cx> want = naive_dft(x, +1);
  expect_near(natural, want, 1e-8 * n);
}

TEST_P(DistributedFft, PipelineRoundTripIsIdentity) {
  // §6.2: inverse (bit-reversed in, natural out) followed by forward
  // (natural in, bit-reversed out) recovers the input exactly where the
  // polynomial pipeline relies on it.
  const auto [p, n] = GetParam();
  std::vector<Cx> x = random_signal(n, 19);
  std::vector<Cx> scattered = bit_reverse_permute(x);
  std::vector<Cx> mid = run_transform(p, n, scattered, kInverse, true);
  std::vector<Cx> back = run_transform(p, n, mid, kForward, false);
  // back is in bit-reversed storage: back[s] = x_hat[rho(s)] where x_hat
  // should equal x in bit-reversed positions of the original scattering.
  expect_near(back, scattered, 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndGroups, DistributedFft,
    ::testing::Values(FftCase{1, 8}, FftCase{2, 8}, FftCase{4, 8},
                      FftCase{8, 8}, FftCase{2, 32}, FftCase{4, 64},
                      FftCase{8, 128}, FftCase{4, 256}));

/// The one-copy, stage-by-stage radix-2 kernel: every stage sweeps all n
/// points and reads its twiddles from the n-point table.  The distributed
/// transforms must reproduce it bit for bit.
void reference_fft(int n, int flag, bool reverse_order, const double* eps,
                   double* a) {
  const bool conj = flag == kForward;
  for (int s = 0; (2 << s) <= n; ++s) {
    const int m = reverse_order ? 2 << s : n >> s;  // DIT up, DIF down
    const int half = m / 2;
    for (int k = 0; k < n; k += m) {
      for (int j = 0; j < half; ++j) {
        const int t = j * (n / m);
        const double wr = eps[2 * t];
        const double wi = conj ? -eps[2 * t + 1] : eps[2 * t + 1];
        double* u = a + 2 * (k + j);
        double* v = a + 2 * (k + j + half);
        if (reverse_order) {
          const double tr = wr * v[0] - wi * v[1];
          const double ti = wr * v[1] + wi * v[0];
          v[0] = u[0] - tr;
          v[1] = u[1] - ti;
          u[0] = u[0] + tr;
          u[1] = u[1] + ti;
        } else {
          const double dr = u[0] - v[0];
          const double di = u[1] - v[1];
          u[0] = u[0] + v[0];
          u[1] = u[1] + v[1];
          v[0] = dr * wr - di * wi;
          v[1] = dr * wi + di * wr;
        }
      }
    }
  }
  if (conj) {
    const double inv = 1.0 / static_cast<double>(n);
    for (int i = 0; i < 2 * n; ++i) a[i] *= inv;
  }
}

bool same_bits(const std::vector<Cx>& a, const std::vector<Cx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cx)) == 0;
}

TEST(DistributedFftBitwise, EveryGroupSizeMatchesTheStageByStageKernel) {
  // n = 8192 on 1..8 copies puts b = 8192..1024 points on a copy, so the
  // cache-blocked stages and the whole-block sweeps both run, and so do
  // the exchange stages.
  const int n = 8192;
  std::vector<double> eps(static_cast<std::size_t>(2 * n));
  compute_roots(n, eps.data());
  const std::vector<Cx> x = random_signal(n, 29);
  const std::vector<Cx> scattered = bit_reverse_permute(x);
  const std::vector<Cx> inverse = naive_dft(x, +1);
  std::vector<Cx> forward = naive_dft(x, -1);
  for (auto& v : forward) v /= static_cast<double>(n);

  for (const bool reverse_order : {true, false}) {
    for (const int flag : {kInverse, kForward}) {
      SCOPED_TRACE(std::string(reverse_order ? "fft_reverse" : "fft_natural") +
                   (flag == kForward ? " forward" : " inverse"));
      // fft_reverse takes bit-reversed storage to natural; fft_natural
      // natural to bit-reversed.
      const std::vector<Cx>& input = reverse_order ? scattered : x;
      std::vector<double> want = to_interleaved(input);
      reference_fft(n, flag, reverse_order, eps.data(), want.data());
      const std::vector<Cx> one =
          run_transform(1, n, input, flag, reverse_order);
      EXPECT_TRUE(same_bits(one, from_interleaved(want)));
      for (const int p : {2, 4, 8}) {
        EXPECT_TRUE(same_bits(run_transform(p, n, input, flag, reverse_order),
                              one))
            << "p = " << p;
      }
      const std::vector<Cx> natural =
          reverse_order ? one : bit_reverse_permute(one);
      expect_near(natural, flag == kForward ? forward : inverse, 1e-8 * n);
    }
  }
}

TEST(DistributedFftBitwise, BothKernelsMatchTheStageByStageKernel) {
  // Each kernel, forced in turn, against the one-copy reference bit for
  // bit: b = 1, 2 and 4 points per copy reach the scalar tails (span-2
  // stages, one-point exchange blocks), and P = 2 and 4 the exchange
  // twiddle strides 1 and 2.
  const std::string selected = detail::kernel_name();
  std::printf("fft kernel: %s\n", selected.c_str());
  struct RestoreKernel {
    ~RestoreKernel() { detail::force_scalar_kernel(false); }
  } restore;
  for (const bool scalar : {true, false}) {
    if (!scalar && selected != "avx2") break;
    detail::force_scalar_kernel(scalar);
    ASSERT_STREQ(detail::kernel_name(), scalar ? "scalar" : "avx2");
    for (const int n : {8, 64, 8192, 65536}) {
      std::vector<double> eps(static_cast<std::size_t>(2 * n));
      compute_roots(n, eps.data());
      const std::vector<Cx> x = random_signal(n, 37);
      const std::vector<Cx> scattered = bit_reverse_permute(x);
      for (const bool reverse_order : {true, false}) {
        for (const int flag : {kInverse, kForward}) {
          const std::vector<Cx>& input = reverse_order ? scattered : x;
          std::vector<double> want = to_interleaved(input);
          reference_fft(n, flag, reverse_order, eps.data(), want.data());
          for (const int p : {1, 2, 4, 8}) {
            if (p > n) continue;
            EXPECT_TRUE(same_bits(
                run_transform(p, n, input, flag, reverse_order),
                from_interleaved(want)))
                << detail::kernel_name() << " kernel, "
                << (reverse_order ? "fft_reverse" : "fft_natural")
                << (flag == kForward ? " forward" : " inverse")
                << ", n = " << n << ", p = " << p;
          }
        }
      }
    }
  }
  if (selected != "avx2") {
    GTEST_SKIP() << "this CPU has no AVX2: only the scalar kernel was tested";
  }
}

TEST(DistributedFftPrograms, RegisteredProgramsMatchDirectCalls) {
  // Drive "compute_roots" and "fft_reverse" through distributed calls with
  // the thesis's parameter layout.
  core::Runtime rt(4);
  register_programs(rt.programs());
  const int n = 16;
  const int p = 4;
  dist::ArrayId eps;
  dist::ArrayId data;
  ASSERT_EQ(rt.arrays().create_array(
                0, dist::ElemType::Float64, {2 * n, p}, rt.all_procs(),
                {dist::DimSpec::star(), dist::DimSpec::block()},
                dist::BorderSpec::none(), dist::Indexing::ColumnMajor, eps),
            Status::Ok);
  ASSERT_EQ(rt.arrays().create_array(
                0, dist::ElemType::Float64, {2 * n}, rt.all_procs(),
                {dist::DimSpec::block()}, dist::BorderSpec::none(),
                dist::Indexing::RowMajor, data),
            Status::Ok);
  ASSERT_EQ(rt.call(rt.all_procs(), "compute_roots")
                .constant(n)
                .local(eps)
                .run(),
            kStatusOk);

  // Load x[rho(s)] into storage position s via global element writes — the
  // task-parallel program's get_input (§6.2.2).
  std::vector<Cx> x = random_signal(n, 23);
  const int bits = util::floor_log2(n);
  for (int s = 0; s < n; ++s) {
    const auto src = static_cast<std::size_t>(
        util::bit_reverse(bits, static_cast<std::uint64_t>(s)));
    ASSERT_EQ(rt.arrays().write_element(0, data, std::vector<int>{2 * s},
                                        dist::Scalar{x[src].real()}),
              Status::Ok);
    ASSERT_EQ(rt.arrays().write_element(0, data, std::vector<int>{2 * s + 1},
                                        dist::Scalar{x[src].imag()}),
              Status::Ok);
  }
  ASSERT_EQ(rt.call(rt.all_procs(), "fft_reverse")
                .constant(rt.all_procs())
                .constant(p)
                .index()
                .constant(n)
                .constant(kInverse)
                .local(eps)
                .local(data)
                .run(),
            kStatusOk);

  std::vector<Cx> want = naive_dft(x, +1);
  for (int j = 0; j < n; ++j) {
    dist::Scalar re;
    dist::Scalar im;
    ASSERT_EQ(rt.arrays().read_element(0, data, std::vector<int>{2 * j}, re),
              Status::Ok);
    ASSERT_EQ(
        rt.arrays().read_element(0, data, std::vector<int>{2 * j + 1}, im),
        Status::Ok);
    EXPECT_NEAR(std::get<double>(re), want[static_cast<std::size_t>(j)].real(),
                1e-8 * n);
    EXPECT_NEAR(std::get<double>(im), want[static_cast<std::size_t>(j)].imag(),
                1e-8 * n);
  }
}

TEST(PolynomialMultiplication, FftConvolutionMatchesNaive) {
  // The full §6.2 algorithm sequentially: pad to 2n, inverse DFT both,
  // multiply pointwise, forward DFT (with 1/2n) => product coefficients.
  const int n = 8;
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> f(n);
  std::vector<double> g(n);
  for (auto& v : f) v = dist(rng);
  for (auto& v : g) v = dist(rng);

  const int nn = 2 * n;
  auto lift = [&](const std::vector<double>& poly) {
    std::vector<Cx> out(static_cast<std::size_t>(nn), Cx{0.0, 0.0});
    for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = poly[static_cast<std::size_t>(i)];
    return naive_dft(out, +1);
  };
  std::vector<Cx> fh = lift(f);
  std::vector<Cx> gh = lift(g);
  std::vector<Cx> hh(static_cast<std::size_t>(nn));
  for (int i = 0; i < nn; ++i) {
    hh[static_cast<std::size_t>(i)] =
        fh[static_cast<std::size_t>(i)] * gh[static_cast<std::size_t>(i)];
  }
  std::vector<Cx> h = naive_dft(hh, -1);
  for (auto& v : h) v /= static_cast<double>(nn);

  std::vector<double> want = poly_mul_naive(f, g);
  for (int i = 0; i < 2 * n - 1; ++i) {
    EXPECT_NEAR(h[static_cast<std::size_t>(i)].real(),
                want[static_cast<std::size_t>(i)], 1e-9);
    EXPECT_NEAR(h[static_cast<std::size_t>(i)].imag(), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace tdp::fft
