#include "fft/fft.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/bits.hpp"

namespace tdp::fft {
namespace {

/// One interleaved complex value.
struct Cx {
  double re;
  double im;
};

inline Cx load(const double* a, int i) { return {a[2 * i], a[2 * i + 1]}; }
inline void store(double* a, int i, Cx v) {
  a[2 * i] = v.re;
  a[2 * i + 1] = v.im;
}
inline Cx add(Cx a, Cx b) { return {a.re + b.re, a.im + b.im}; }
inline Cx sub(Cx a, Cx b) { return {a.re - b.re, a.im - b.im}; }
inline Cx mul(Cx a, Cx b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/// Twiddle omega^{sign*idx} from the roots table (omega = e^{2*pi*i/n}).
inline Cx twiddle(const double* eps, int idx, bool conj) {
  Cx w{eps[2 * idx], eps[2 * idx + 1]};
  if (conj) w.im = -w.im;
  return w;
}

/// Points per depth-first block (16 KiB): every stage whose butterflies fit
/// inside a block runs block by block while the block sits in L1.
constexpr int kBlock = 1024;

constexpr int kStageTagBase = 16;

/// The call's twiddle row: row[j] = omega_b^{sign*j} for j < b/2, copied out
/// of epsilon[j*(n/b)], so a local stage of span m reads the table's own
/// value for epsilon[j*(n/m)] at row[j*(b/m)] — densely, in b/2 points
/// instead of the whole n-point table.
std::unique_ptr<Cx[]> twiddle_row(const double* eps, int n, int b,
                                  bool conj) {
  auto row = std::make_unique_for_overwrite<Cx[]>(
      static_cast<std::size_t>(b / 2));
  const int step = n / b;
  for (int j = 0; j < b / 2; ++j) row[j] = twiddle(eps, j * step, conj);
  return row;
}

/// One decimation-in-time stage of span m over the `len` points at `a`
/// (len a multiple of m), twiddles row[j*stride].
void dit_stage(double* a, int len, int m, const Cx* row, int stride) {
  const int half = m / 2;
  for (int k = 0; k < len; k += m) {
    for (int j = 0; j < half; ++j) {
      const Cx w = row[j * stride];
      const int i0 = k + j;
      const int i1 = k + j + half;
      const Cx u = load(a, i0);
      const Cx t = mul(w, load(a, i1));
      store(a, i0, add(u, t));
      store(a, i1, sub(u, t));
    }
  }
}

/// One decimation-in-frequency stage, shaped like dit_stage.
void dif_stage(double* a, int len, int m, const Cx* row, int stride) {
  const int half = m / 2;
  for (int k = 0; k < len; k += m) {
    for (int j = 0; j < half; ++j) {
      const Cx w = row[j * stride];
      const int i0 = k + j;
      const int i1 = k + j + half;
      const Cx u = load(a, i0);
      const Cx v = load(a, i1);
      store(a, i0, add(u, v));
      store(a, i1, mul(sub(u, v), w));
    }
  }
}

/// Decimation-in-time exchange stage: this copy's leg of the butterflies
/// whose other leg `theirs` lives at the partner.  Element i pairs with
/// twiddle omega^{sign*(j0+i)*step}; the lower leg keeps u + w*v, the upper
/// u - w*v with the roles of the two blocks swapped.
void dit_exchange(double* bb, const double* theirs, int b, const double* eps,
                  int j0, int step, bool conj, bool upper) {
  if (!upper) {
    for (int i = 0; i < b; ++i) {
      const Cx w = twiddle(eps, (j0 + i) * step, conj);
      store(bb, i, add(load(bb, i), mul(w, load(theirs, i))));
    }
  } else {
    for (int i = 0; i < b; ++i) {
      const Cx w = twiddle(eps, (j0 + i) * step, conj);
      store(bb, i, sub(load(theirs, i), mul(w, load(bb, i))));
    }
  }
}

/// Decimation-in-frequency exchange stage, shaped like dit_exchange: the
/// lower leg keeps u + v, the upper (u - v)*w.
void dif_exchange(double* bb, const double* theirs, int b, const double* eps,
                  int j0, int step, bool conj, bool upper) {
  if (!upper) {
    for (int i = 0; i < b; ++i) {
      store(bb, i, add(load(bb, i), load(theirs, i)));
    }
  } else {
    for (int i = 0; i < b; ++i) {
      const Cx w = twiddle(eps, (j0 + i) * step, conj);
      store(bb, i, mul(sub(load(theirs, i), load(bb, i)), w));
    }
  }
}

#if defined(__x86_64__)
// The AVX2 kernel: one 256-bit register holds two complex values
// [re0 im0 re1 im1], so one instruction does two butterflies' worth of one
// operation.  Every lane computes exactly the scalar kernel's products,
// sums and differences — no FMA, which would round once where mul() rounds
// twice — so both kernels give the same bits.
#define TDP_AVX2 __attribute__((target("avx2")))

/// Two complex products w*x, lane for lane mul(w, x): addsub gives
/// [wr*xr - wi*xi, wr*xi + wi*xr] per value.
TDP_AVX2 inline __m256d mul2(__m256d w, __m256d x) {
  const __m256d wre = _mm256_movedup_pd(w);        // [wr0 wr0 wr1 wr1]
  const __m256d wim = _mm256_permute_pd(w, 0xF);   // [wi0 wi0 wi1 wi1]
  const __m256d xswap = _mm256_permute_pd(x, 0x5);  // [xi0 xr0 xi1 xr1]
  return _mm256_addsub_pd(_mm256_mul_pd(wre, x), _mm256_mul_pd(wim, xswap));
}

/// The twiddles at w[0] and w[stride] (complex strides): one load when
/// they are adjacent, two 128-bit loads otherwise.
TDP_AVX2 inline __m256d twiddle2(const double* w, int stride) {
  if (stride == 1) return _mm256_loadu_pd(w);
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(w)),
                              _mm_loadu_pd(w + 2 * stride), 1);
}

/// The XOR mask that flips the imaginary signs: the forward transform's
/// conjugated twiddles, exact like the scalar `w.im = -w.im`.
TDP_AVX2 inline __m256d conj_mask(bool conj) {
  return conj ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0) : _mm256_setzero_pd();
}

/// dit_stage, two butterflies at a time (m >= 4).
TDP_AVX2 void dit_stage_avx2(double* a, int len, int m, const Cx* row,
                             int stride) {
  const int half = m / 2;
  const double* w = reinterpret_cast<const double*>(row);
  for (int k = 0; k < len; k += m) {
    double* lo = a + 2 * k;
    double* hi = lo + 2 * half;
    for (int j = 0; j < half; j += 2) {
      const __m256d u = _mm256_loadu_pd(lo + 2 * j);
      const __m256d t = mul2(twiddle2(w + 2 * j * stride, stride),
                             _mm256_loadu_pd(hi + 2 * j));
      _mm256_storeu_pd(lo + 2 * j, _mm256_add_pd(u, t));
      _mm256_storeu_pd(hi + 2 * j, _mm256_sub_pd(u, t));
    }
  }
}

/// dif_stage, two butterflies at a time (m >= 4).
TDP_AVX2 void dif_stage_avx2(double* a, int len, int m, const Cx* row,
                             int stride) {
  const int half = m / 2;
  const double* w = reinterpret_cast<const double*>(row);
  for (int k = 0; k < len; k += m) {
    double* lo = a + 2 * k;
    double* hi = lo + 2 * half;
    for (int j = 0; j < half; j += 2) {
      const __m256d u = _mm256_loadu_pd(lo + 2 * j);
      const __m256d v = _mm256_loadu_pd(hi + 2 * j);
      _mm256_storeu_pd(lo + 2 * j, _mm256_add_pd(u, v));
      _mm256_storeu_pd(hi + 2 * j,
                       mul2(twiddle2(w + 2 * j * stride, stride),
                            _mm256_sub_pd(u, v)));
    }
  }
}

/// dit_exchange, two points at a time (b >= 2).
TDP_AVX2 void dit_exchange_avx2(double* bb, const double* theirs, int b,
                                const double* eps, int j0, int step,
                                bool conj, bool upper) {
  const __m256d flip = conj_mask(conj);
  for (int i = 0; i < b; i += 2) {
    const __m256d w = _mm256_xor_pd(
        twiddle2(eps + 2 * static_cast<long long>(j0 + i) * step, step),
        flip);
    const __m256d mine = _mm256_loadu_pd(bb + 2 * i);
    const __m256d other = _mm256_loadu_pd(theirs + 2 * i);
    _mm256_storeu_pd(bb + 2 * i,
                     upper ? _mm256_sub_pd(other, mul2(w, mine))
                           : _mm256_add_pd(mine, mul2(w, other)));
  }
}

/// dif_exchange, two points at a time (b >= 2).
TDP_AVX2 void dif_exchange_avx2(double* bb, const double* theirs, int b,
                                const double* eps, int j0, int step,
                                bool conj, bool upper) {
  const __m256d flip = conj_mask(conj);
  for (int i = 0; i < b; i += 2) {
    const __m256d mine = _mm256_loadu_pd(bb + 2 * i);
    const __m256d other = _mm256_loadu_pd(theirs + 2 * i);
    if (!upper) {
      _mm256_storeu_pd(bb + 2 * i, _mm256_add_pd(mine, other));
    } else {
      const __m256d w = _mm256_xor_pd(
          twiddle2(eps + 2 * static_cast<long long>(j0 + i) * step, step),
          flip);
      _mm256_storeu_pd(bb + 2 * i, mul2(w, _mm256_sub_pd(other, mine)));
    }
  }
}

#undef TDP_AVX2

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#else
bool cpu_has_avx2() { return false; }
#endif

std::atomic<bool> g_force_scalar{false};

/// True when a transform runs the AVX2 kernel: the CPU is asked once, and
/// detail::force_scalar_kernel can switch the scalar kernel back on.
bool simd_kernel() {
  static const bool avx2 = cpu_has_avx2();
  return avx2 && !g_force_scalar.load(std::memory_order_relaxed);
}

// Dispatch: the AVX2 kernel takes two butterflies at a time, so a stage of
// span 2 (one butterfly per group) and a block of one point stay scalar.
void dit([[maybe_unused]] bool simd, double* a, int len, int m,
         const Cx* row, int stride) {
#if defined(__x86_64__)
  if (simd && m >= 4) return dit_stage_avx2(a, len, m, row, stride);
#endif
  dit_stage(a, len, m, row, stride);
}

void dif([[maybe_unused]] bool simd, double* a, int len, int m,
         const Cx* row, int stride) {
#if defined(__x86_64__)
  if (simd && m >= 4) return dif_stage_avx2(a, len, m, row, stride);
#endif
  dif_stage(a, len, m, row, stride);
}

void dit_swap([[maybe_unused]] bool simd, double* bb, const double* theirs,
              int b, const double* eps, int j0, int step, bool conj,
              bool upper) {
#if defined(__x86_64__)
  if (simd && b >= 2) {
    return dit_exchange_avx2(bb, theirs, b, eps, j0, step, conj, upper);
  }
#endif
  dit_exchange(bb, theirs, b, eps, j0, step, conj, upper);
}

void dif_swap([[maybe_unused]] bool simd, double* bb, const double* theirs,
              int b, const double* eps, int j0, int step, bool conj,
              bool upper) {
#if defined(__x86_64__)
  if (simd && b >= 2) {
    return dif_exchange_avx2(bb, theirs, b, eps, j0, step, conj, upper);
  }
#endif
  dif_exchange(bb, theirs, b, eps, j0, step, conj, upper);
}

/// Sends this copy's block to the partner across a stage of span m > b and
/// returns the partner's block, to be read in place.
vp::Payload swap_blocks(spmd::SpmdContext& ctx, int m, int stage,
                        const double* bb, int b) {
  const std::span<const double> mine(bb, static_cast<std::size_t>(2 * b));
  return ctx.exchange_payload(ctx.index() ^ (m / 2 / b),
                              kStageTagBase + stage, std::as_bytes(mine),
                              mine.size_bytes());
}

inline const double* doubles(const vp::Payload& p) {
  return reinterpret_cast<const double*>(p.data());
}

void scale_forward(int n, int b, double* bb) {
  const double inv = 1.0 / static_cast<double>(n);
  for (int i = 0; i < 2 * b; ++i) bb[i] *= inv;
}

}  // namespace

namespace detail {

const char* kernel_name() { return simd_kernel() ? "avx2" : "scalar"; }

void force_scalar_kernel(bool on) {
  g_force_scalar.store(on, std::memory_order_relaxed);
}

}  // namespace detail

void fft_reverse(spmd::SpmdContext& ctx, int n, int flag,
                 const double* epsilon, double* bb) {
  const int b = n / ctx.nprocs();  // local complex count
  const long long base = static_cast<long long>(ctx.index()) * b;
  const bool conj = flag == kForward;  // forward kernel uses e^{-2*pi*i/n}
  const bool simd = simd_kernel();

  // Local stages, m <= b: the narrow ones depth-first per block, the wide
  // ones sweeping the whole block.
  {
    const std::unique_ptr<Cx[]> row = twiddle_row(epsilon, n, b, conj);
    const int blk = std::min(b, kBlock);
    for (int k = 0; k < b; k += blk) {
      for (int m = 2; m <= blk; m <<= 1) {
        dit(simd, bb + 2 * k, blk, m, row.get(), b / m);
      }
    }
    for (int m = 2 * blk; m <= b; m <<= 1) {
      dit(simd, bb, b, m, row.get(), b / m);
    }
  }

  // Exchange stages, m > b: one butterfly leg here, the other at the
  // partner.
  int stage = util::floor_log2(b);
  for (int m = 2 * b; m <= n; m <<= 1, ++stage) {
    const int half = m / 2;
    const int step = n / m;
    const vp::Payload got = swap_blocks(ctx, m, stage, bb, b);
    const double* theirs = doubles(got);
    const int j0 = static_cast<int>(base & (half - 1));
    dit_swap(simd, bb, theirs, b, epsilon, j0, step, conj, (base & half) != 0);
  }

  if (flag == kForward) scale_forward(n, b, bb);
}

void fft_natural(spmd::SpmdContext& ctx, int n, int flag,
                 const double* epsilon, double* bb) {
  const int b = n / ctx.nprocs();
  const long long base = static_cast<long long>(ctx.index()) * b;
  const bool conj = flag == kForward;
  const bool simd = simd_kernel();

  // Exchange stages first, m > b.
  int stage = 0;
  for (int m = n; m > b; m >>= 1, ++stage) {
    const int half = m / 2;
    const int step = n / m;
    const vp::Payload got = swap_blocks(ctx, m, stage, bb, b);
    const double* theirs = doubles(got);
    const int j0 = static_cast<int>(base & (half - 1));
    dif_swap(simd, bb, theirs, b, epsilon, j0, step, conj, (base & half) != 0);
  }

  // Local stages, m <= b: the wide ones sweeping, then the narrow ones
  // depth-first per block.
  const std::unique_ptr<Cx[]> row = twiddle_row(epsilon, n, b, conj);
  const int blk = std::min(b, kBlock);
  for (int m = b; m > blk; m >>= 1) dif(simd, bb, b, m, row.get(), b / m);
  for (int k = 0; k < b; k += blk) {
    for (int m = blk; m >= 2; m >>= 1) {
      dif(simd, bb + 2 * k, blk, m, row.get(), b / m);
    }
  }

  if (flag == kForward) scale_forward(n, b, bb);
}

void register_programs(core::ProgramRegistry& registry) {
  // §6.2.2 call: distributed_call(Procs, "compute_roots", {NN, local(Eps)}).
  registry.add("compute_roots",
               [](spmd::SpmdContext& ctx, core::CallArgs& args) {
                 (void)ctx;
                 const int nn = args.in<int>(0);
                 compute_roots(nn, args.local(1).f64());
               });

  // §6.2.2 call: Procs, P, "index", NN, Flag, local(Eps), local(Array).
  auto fft_args = [](spmd::SpmdContext& ctx, core::CallArgs& args,
                     bool reverse_order) {
    const int nn = args.in<int>(3);
    const int flag = args.in<int>(4);
    const double* eps = args.local(5).f64();
    double* bb = args.local(6).f64();
    if (reverse_order) {
      fft_reverse(ctx, nn, flag, eps, bb);
    } else {
      fft_natural(ctx, nn, flag, eps, bb);
    }
  };
  registry.add("fft_reverse",
               [fft_args](spmd::SpmdContext& ctx, core::CallArgs& args) {
                 fft_args(ctx, args, true);
               });
  registry.add("fft_natural",
               [fft_args](spmd::SpmdContext& ctx, core::CallArgs& args) {
                 fft_args(ctx, args, false);
               });
}

}  // namespace tdp::fft
