// Distributed FFT data-parallel programs (thesis §6.2.3).
//
// The thesis pipeline example calls four routines whose specifications we
// implement exactly:
//   compute_roots(N, epsilon) — epsilon[j] = omega^j where omega is the
//       primitive N-th root of unity e^{2*pi*i/N};
//   rho_proc(bits, t)         — bit-reversal permutation (util::bit_reverse);
//   fft_reverse(...)          — transform with input in bit-reversed order
//       and output in natural order (decimation in time);
//   fft_natural(...)          — transform with input in natural order and
//       output in bit-reversed order (decimation in frequency).
//
// Conventions (§6.2.1): the *inverse* transform is
//   X[j] = sum_k x[k] e^{+2*pi*i*j*k/N}          (no scaling)
// and the *forward* transform is
//   x[j] = (1/N) sum_k X[k] e^{-2*pi*i*j*k/N}    (includes division by N).
//
// Arrays are interleaved complex: element j occupies doubles 2j (real) and
// 2j+1 (imaginary).  A length-N complex array is block-distributed over P
// processors (P a power of two, N >= P), b = N/P complex elements per copy.
//
// Kernel: radix-2 binary exchange, laid out for the cache.
//   * Local stages (span m <= b) read their twiddles from one row of b/2
//     points per call, row[j] = epsilon[j*P] = omega_b^j (conjugated for
//     the forward transform), so stage m reads row[j*(b/m)] instead of
//     striding through the N-point table.
//   * The stages of span <= 1024 run depth-first on 1024-point (16 KiB)
//     blocks, each block through all of them while it sits in L1 —
//     decimation in time's first stages, decimation in frequency's last.
//     The wider local stages sweep the whole block.
//   * Stages spanning processors swap whole blocks with the partner copy
//     (SpmdContext::exchange_payload, lower index sends first); each copy
//     reads the partner's block where the received payload lies and
//     computes its own elements.
//   * On x86-64 CPUs with AVX2 (asked once, __builtin_cpu_supports), every
//     stage of span >= 4 and every exchange stage of a block of >= 2 points
//     runs two butterflies per 256-bit register, laid out [re0 im0 re1 im1].
//     The complex product is movedup/permute + mul + addsub: each lane
//     forms the same two products and the same sum or difference as the
//     scalar multiply, and no multiply-add is fused (an FMA rounds once
//     where the scalar code rounds twice).  The forward transform's
//     conjugated twiddles flip the imaginary sign bit.  Elsewhere — span-2
//     stages, one-point blocks, CPUs without AVX2, other architectures —
//     the scalar kernel runs.
// These only reorder independent butterflies and read the table's own
// twiddle values, so the output is bitwise identical to the stage-by-stage
// kernel on one copy, for every P and either kernel (tests/fft_test.cpp
// pins this with memcmp).
#pragma once

#include <span>

#include "core/registry.hpp"
#include "spmd/context.hpp"

namespace tdp::fft {

/// Direction flags, as in the example's fftdef.h.
inline constexpr int kForward = 0;
inline constexpr int kInverse = 1;

/// compute_roots (§6.2.3): fills `epsilon` (2*N doubles) with the N N-th
/// roots of unity, epsilon[2j] + i*epsilon[2j+1] = e^{2*pi*i*j/N}.
void compute_roots(int n, double* epsilon);

/// fft_reverse (§6.2.3): in-place transform of the distributed array whose
/// local section is `bb` (2*(N/P) doubles); global indexing of the input is
/// in bit-reversed order, of the output in natural order.  `epsilon` holds
/// the N roots of unity (each copy has the full table).  `flag` is kInverse
/// or kForward; forward includes the division by N.
void fft_reverse(spmd::SpmdContext& ctx, int n, int flag,
                 const double* epsilon, double* bb);

/// fft_natural (§6.2.3): like fft_reverse but with input in natural order
/// and output in bit-reversed order.
void fft_natural(spmd::SpmdContext& ctx, int n, int flag,
                 const double* epsilon, double* bb);

/// Registers the callable data-parallel programs with the exact parameter
/// shapes used by the thesis pipeline (§6.2.2):
///   "compute_roots" — NN (int), local epsilon
///   "fft_reverse"   — Procs, P, index, NN, Flag, local epsilon, local bb
///   "fft_natural"   — Procs, P, index, NN, Flag, local epsilon, local bb
void register_programs(core::ProgramRegistry& registry);

namespace detail {

/// The butterfly kernel the transforms run now: "avx2" or "scalar".
const char* kernel_name();

/// While `on`, every transform runs the scalar kernel, whatever the CPU
/// supports (a test seam: both kernels must give the same bits).
void force_scalar_kernel(bool on);

}  // namespace detail

}  // namespace tdp::fft
