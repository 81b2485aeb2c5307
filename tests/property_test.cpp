// Property-based suites over the invariants DESIGN.md calls out: border
// reallocation chains, decomposition sweeps through distributed calls, FFT
// algebraic identities, and channel ordering.
#include <gtest/gtest.h>

#include <complex>
#include <ostream>
#include <random>

#include "core/runtime.hpp"
#include "fft/fft.hpp"
#include "fft/reference.hpp"
#include "pcn/process.hpp"
#include "spmd/context.hpp"
#include "util/node_array.hpp"

namespace tdp {
namespace {

// --- verify_array chains -----------------------------------------------

class BorderChain : public ::testing::TestWithParam<unsigned> {};

TEST_P(BorderChain, RandomBorderSequencesPreserveInterior) {
  // Apply a random chain of verify_array border changes to a 2-D array and
  // check the interior after every step (§4.2.7: "unchanged interior data").
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> border_dist(0, 3);

  core::Runtime rt(4);
  dist::ArrayId id;
  ASSERT_EQ(rt.arrays().create_array(
                0, dist::ElemType::Float64, {8, 12}, rt.all_procs(),
                {dist::DimSpec::block_n(2), dist::DimSpec::block_n(2)},
                dist::BorderSpec::exact({border_dist(rng), border_dist(rng),
                                         border_dist(rng), border_dist(rng)}),
                dist::Indexing::RowMajor, id),
            Status::Ok);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 12; ++j) {
      ASSERT_EQ(rt.arrays().write_element(0, id, std::vector<int>{i, j},
                                          dist::Scalar{i * 100.0 + j}),
                Status::Ok);
    }
  }
  for (int step = 0; step < 6; ++step) {
    const std::vector<int> want{border_dist(rng), border_dist(rng),
                                border_dist(rng), border_dist(rng)};
    ASSERT_EQ(rt.arrays().verify_array(0, id, 2, dist::BorderSpec::exact(want),
                                       dist::Indexing::RowMajor),
              Status::Ok);
    dist::InfoValue v;
    ASSERT_EQ(rt.arrays().find_info(0, id, dist::InfoKind::Borders, v),
              Status::Ok);
    EXPECT_EQ(std::get<std::vector<int>>(v), want);
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 12; ++j) {
        dist::Scalar s;
        ASSERT_EQ(rt.arrays().read_element(0, id, std::vector<int>{i, j}, s),
                  Status::Ok);
        ASSERT_DOUBLE_EQ(std::get<double>(s), i * 100.0 + j)
            << "step " << step << " at " << i << "," << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BorderChain,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- distributed calls across decompositions ----------------------------

struct CallSweepCase {
  std::vector<int> dims;
  std::vector<dist::DimSpec> distrib;
  dist::Indexing indexing;
};

/// Prints "d8x8_b4b2_col" — dims, one letter per DimSpec (b = block,
/// bN = block_n(N), s = star), indexing — so gtest lists the case by this
/// text (its ctest name), not by raw bytes.
void PrintTo(const CallSweepCase& c, std::ostream* os) {
  *os << "d";
  for (std::size_t i = 0; i < c.dims.size(); ++i) {
    *os << (i != 0 ? "x" : "") << c.dims[i];
  }
  *os << "_";
  for (const dist::DimSpec& d : c.distrib) {
    *os << (d.kind == dist::DimSpec::Kind::Star ? "s" : "b");
    if (d.kind == dist::DimSpec::Kind::BlockN) *os << d.n;
  }
  *os << (c.indexing == dist::Indexing::RowMajor ? "_row" : "_col");
}

class CallDecompositionSweep
    : public ::testing::TestWithParam<CallSweepCase> {};

TEST_P(CallDecompositionSweep, CopiesCoverTheArrayExactlyOnce) {
  // Every copy stamps its interior with its index; globally, every element
  // must be stamped exactly once and with the owner the layout predicts.
  const CallSweepCase& c = GetParam();
  core::Runtime rt(8);
  rt.programs().add("stamp", [](spmd::SpmdContext& ctx, core::CallArgs& args) {
    const dist::LocalSectionView& v = args.local(0);
    const long long count = v.interior_count();
    for (long long lin = 0; lin < count; ++lin) {
      std::vector<int> idx =
          dist::delinearize(lin, v.interior_dims, v.indexing);
      v.f64()[v.offset(idx)] = 1000.0 + ctx.index();
    }
  });

  dist::ArrayId id;
  ASSERT_EQ(rt.arrays().create_array(0, dist::ElemType::Float64, c.dims,
                                     rt.all_procs(), c.distrib,
                                     dist::BorderSpec::exact(
                                         std::vector<int>(2 * c.dims.size(), 1)),
                                     c.indexing, id),
            Status::Ok);
  dist::InfoValue info;
  ASSERT_EQ(rt.arrays().find_info(0, id, dist::InfoKind::Processors, info),
            Status::Ok);
  const std::vector<int> owners = std::get<std::vector<int>>(info);
  ASSERT_EQ(rt.call(owners, "stamp").local(id).run(), kStatusOk);

  ASSERT_EQ(rt.arrays().find_info(0, id, dist::InfoKind::GridDimensions,
                                  info),
            Status::Ok);
  const std::vector<int> grid = std::get<std::vector<int>>(info);
  ASSERT_EQ(rt.arrays().find_info(0, id, dist::InfoKind::LocalDimensions,
                                  info),
            Status::Ok);
  const std::vector<int> local = std::get<std::vector<int>>(info);

  const long long n = dist::element_count(c.dims);
  for (long long lin = 0; lin < n; ++lin) {
    std::vector<int> gidx = dist::delinearize(lin, c.dims, c.indexing);
    dist::GlobalMap m = dist::map_global(gidx, local);
    const long long rank = dist::grid_rank(m.grid_pos, grid, c.indexing);
    dist::Scalar s;
    ASSERT_EQ(rt.arrays().read_element(0, id, gidx, s), Status::Ok);
    EXPECT_DOUBLE_EQ(std::get<double>(s), 1000.0 + static_cast<double>(rank))
        << "lin " << lin;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, CallDecompositionSweep,
    ::testing::Values(
        CallSweepCase{{16}, {dist::DimSpec::block()}, dist::Indexing::RowMajor},
        CallSweepCase{{8, 8},
                      {dist::DimSpec::block_n(4), dist::DimSpec::block_n(2)},
                      dist::Indexing::RowMajor},
        CallSweepCase{{8, 8},
                      {dist::DimSpec::block_n(4), dist::DimSpec::block_n(2)},
                      dist::Indexing::ColumnMajor},
        CallSweepCase{{8, 6}, {dist::DimSpec::block(), dist::DimSpec::star()},
                      dist::Indexing::RowMajor},
        CallSweepCase{{4, 4, 4},
                      {dist::DimSpec::block_n(2), dist::DimSpec::block_n(2),
                       dist::DimSpec::block_n(2)},
                      dist::Indexing::ColumnMajor}));

// --- FFT algebraic identities --------------------------------------------

using Cx = std::complex<double>;

std::vector<Cx> distributed_inverse(int p, int n, const std::vector<Cx>& x) {
  vp::Machine machine(p);
  const int b = n / p;
  std::vector<double> packed =
      fft::to_interleaved(fft::bit_reverse_permute(x));
  std::vector<double> out(static_cast<std::size_t>(2 * n));
  std::vector<double> eps(static_cast<std::size_t>(2 * n));
  fft::compute_roots(n, eps.data());
  const std::uint64_t comm = machine.next_comm();
  const std::vector<int> procs = util::iota_nodes(p);
  pcn::ProcessGroup group;
  for (int i = 0; i < p; ++i) {
    group.spawn_on(machine, i, [&, i] {
      spmd::SpmdContext ctx(machine, comm, procs, i);
      std::vector<double> bb(
          packed.begin() + static_cast<std::size_t>(i) * 2 * b,
          packed.begin() + static_cast<std::size_t>(i + 1) * 2 * b);
      fft::fft_reverse(ctx, n, fft::kInverse, eps.data(), bb.data());
      std::copy(bb.begin(), bb.end(),
                out.begin() + static_cast<std::size_t>(i) * 2 * b);
    });
  }
  group.join();
  return fft::from_interleaved(out);
}

class FftAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(FftAlgebra, TransformIsLinear) {
  const int n = GetParam();
  std::mt19937 rng(42u + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<Cx> x(static_cast<std::size_t>(n));
  std::vector<Cx> y(static_cast<std::size_t>(n));
  std::vector<Cx> combo(static_cast<std::size_t>(n));
  const Cx a{d(rng), d(rng)};
  const Cx b{d(rng), d(rng)};
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = {d(rng), d(rng)};
    y[static_cast<std::size_t>(i)] = {d(rng), d(rng)};
    combo[static_cast<std::size_t>(i)] = a * x[static_cast<std::size_t>(i)] +
                                         b * y[static_cast<std::size_t>(i)];
  }
  const std::vector<Cx> fx = distributed_inverse(4, n, x);
  const std::vector<Cx> fy = distributed_inverse(4, n, y);
  const std::vector<Cx> fc = distributed_inverse(4, n, combo);
  for (int i = 0; i < n; ++i) {
    const Cx want = a * fx[static_cast<std::size_t>(i)] +
                    b * fy[static_cast<std::size_t>(i)];
    EXPECT_NEAR(std::abs(fc[static_cast<std::size_t>(i)] - want), 0.0,
                1e-9 * n);
  }
}

TEST_P(FftAlgebra, ParsevalHolds) {
  // For the unscaled inverse transform, sum |X|^2 = N * sum |x|^2.
  const int n = GetParam();
  std::mt19937 rng(77u + static_cast<unsigned>(n));
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<Cx> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {d(rng), d(rng)};
  const std::vector<Cx> fx = distributed_inverse(4, n, x);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (int i = 0; i < n; ++i) {
    time_energy += std::norm(x[static_cast<std::size_t>(i)]);
    freq_energy += std::norm(fx[static_cast<std::size_t>(i)]);
  }
  EXPECT_NEAR(freq_energy, n * time_energy, 1e-8 * n * time_energy);
}

TEST_P(FftAlgebra, DeltaTransformsToConstant) {
  const int n = GetParam();
  std::vector<Cx> delta(static_cast<std::size_t>(n), Cx{0.0, 0.0});
  delta[0] = {1.0, 0.0};
  const std::vector<Cx> f = distributed_inverse(4, n, delta);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(f[static_cast<std::size_t>(i)].real(), 1.0, 1e-10);
    EXPECT_NEAR(f[static_cast<std::size_t>(i)].imag(), 0.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftAlgebra,
                         ::testing::Values(8, 16, 64, 256));

// --- channels -------------------------------------------------------------

TEST(ChannelsProperty, FifoOrderUnderLoad) {
  auto [a, b] = core::make_channels(1);
  core::Port pa = a.port(0);
  core::Port pb = b.port(0);
  pcn::par(
      [&] {
        for (int i = 0; i < 1000; ++i) {
          const double v = i;
          pa.send<double>(std::span<const double>(&v, 1));
        }
      },
      [&] {
        for (int i = 0; i < 1000; ++i) {
          EXPECT_DOUBLE_EQ(pb.recv<double>().at(0), i);
        }
      });
}

TEST(ChannelsProperty, DirectionsAreIndependent) {
  auto [a, b] = core::make_channels(1);
  core::Port pa = a.port(0);
  core::Port pb = b.port(0);
  const double va = 1.0;
  const double vb = 2.0;
  pa.send<double>(std::span<const double>(&va, 1));
  pb.send<double>(std::span<const double>(&vb, 1));
  EXPECT_DOUBLE_EQ(pa.recv<double>().at(0), 2.0);
  EXPECT_DOUBLE_EQ(pb.recv<double>().at(0), 1.0);
  EXPECT_EQ(pa.pending(), 0u);
}

TEST(ChannelsProperty, ReversedPairsCrossConnect) {
  auto [a, b] = core::make_channels(3);
  core::ChannelGroup br = b.reversed();
  for (int i = 0; i < 3; ++i) {
    core::Port sender = a.port(i);
    const double v = 10.0 * i;
    sender.send<double>(std::span<const double>(&v, 1));
  }
  for (int i = 0; i < 3; ++i) {
    core::Port receiver = br.port(i);
    EXPECT_DOUBLE_EQ(receiver.recv<double>().at(0), 10.0 * (2 - i));
  }
}

}  // namespace
}  // namespace tdp
