#include "fft/fft.hpp"

#include <algorithm>
#include <memory>

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

void fft_reverse(spmd::SpmdContext& ctx, int n, int flag,
                 const double* epsilon, double* bb) {
  const int b = n / ctx.nprocs();  // local complex count
  const long long base = static_cast<long long>(ctx.index()) * b;
  const bool conj = flag == kForward;  // forward kernel uses e^{-2*pi*i/n}

  // Local stages, m <= b: the narrow ones depth-first per block, the wide
  // ones sweeping the whole block.
  {
    const std::unique_ptr<Cx[]> row = twiddle_row(epsilon, n, b, conj);
    const int blk = std::min(b, kBlock);
    for (int k = 0; k < b; k += blk) {
      for (int m = 2; m <= blk; m <<= 1) {
        dit_stage(bb + 2 * k, blk, m, row.get(), b / m);
      }
    }
    for (int m = 2 * blk; m <= b; m <<= 1) {
      dit_stage(bb, b, m, row.get(), b / m);
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
    if ((base & half) == 0) {
      for (int i = 0; i < b; ++i) {
        const Cx w = twiddle(epsilon, (j0 + i) * step, conj);
        store(bb, i, add(load(bb, i), mul(w, load(theirs, i))));
      }
    } else {
      for (int i = 0; i < b; ++i) {
        const Cx w = twiddle(epsilon, (j0 + i) * step, conj);
        store(bb, i, sub(load(theirs, i), mul(w, load(bb, i))));
      }
    }
  }

  if (flag == kForward) scale_forward(n, b, bb);
}

void fft_natural(spmd::SpmdContext& ctx, int n, int flag,
                 const double* epsilon, double* bb) {
  const int b = n / ctx.nprocs();
  const long long base = static_cast<long long>(ctx.index()) * b;
  const bool conj = flag == kForward;

  // Exchange stages first, m > b.
  int stage = 0;
  for (int m = n; m > b; m >>= 1, ++stage) {
    const int half = m / 2;
    const int step = n / m;
    const vp::Payload got = swap_blocks(ctx, m, stage, bb, b);
    const double* theirs = doubles(got);
    const int j0 = static_cast<int>(base & (half - 1));
    if ((base & half) == 0) {
      for (int i = 0; i < b; ++i) {
        store(bb, i, add(load(bb, i), load(theirs, i)));
      }
    } else {
      for (int i = 0; i < b; ++i) {
        const Cx w = twiddle(epsilon, (j0 + i) * step, conj);
        store(bb, i, mul(sub(load(theirs, i), load(bb, i)), w));
      }
    }
  }

  // Local stages, m <= b: the wide ones sweeping, then the narrow ones
  // depth-first per block.
  const std::unique_ptr<Cx[]> row = twiddle_row(epsilon, n, b, conj);
  const int blk = std::min(b, kBlock);
  for (int m = b; m > blk; m >>= 1) dif_stage(bb, b, m, row.get(), b / m);
  for (int k = 0; k < b; k += blk) {
    for (int m = blk; m >= 2; m >>= 1) {
      dif_stage(bb + 2 * k, blk, m, row.get(), b / m);
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
