// Figure 3.9 — runtime support for distributed arrays.
//
// The array manager serves global-construct requests: element reads and
// writes route to the owning processor's manager; local-section lookups are
// local.  Series: element access latency when the element is local to the
// requesting manager vs owned remotely; find_local and find_info request
// cost; and figure 3.8's row- vs column-major distribution as a throughput
// comparison.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace tdp;

// The element series pass a fixed `const int idx[1]`, as the workloads do,
// so they time the request and not a per-iteration index vector.
void BM_ReadElementLocalOwner(benchmark::State& state) {
  core::Runtime rt(4);
  dist::ArrayId id = bench::make_vector(rt, 4096, rt.all_procs());
  // Element 0 is owned by processor 0; issue the request there.
  const int idx[1] = {0};
  dist::Scalar v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.arrays().read_element(0, id, idx, v));
  }
}
BENCHMARK(BM_ReadElementLocalOwner);

void BM_ReadElementRemoteOwner(benchmark::State& state) {
  core::Runtime rt(4);
  dist::ArrayId id = bench::make_vector(rt, 4096, rt.all_procs());
  // Element 4095 is owned by processor 3; issue the request on 0.
  const int idx[1] = {4095};
  dist::Scalar v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.arrays().read_element(0, id, idx, v));
  }
}
BENCHMARK(BM_ReadElementRemoteOwner);

void BM_WriteElement(benchmark::State& state) {
  core::Runtime rt(4);
  dist::ArrayId id = bench::make_vector(rt, 4096, rt.all_procs());
  // Sweeps all 4096 elements from processor 0, which owns a quarter.
  int idx[1] = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rt.arrays().write_element(0, id, idx, dist::Scalar{1.0}));
    idx[0] = (idx[0] + 1) & 4095;
  }
}
BENCHMARK(BM_WriteElement);

void BM_WriteElementRemoteOwner(benchmark::State& state) {
  core::Runtime rt(4);
  dist::ArrayId id = bench::make_vector(rt, 4096, rt.all_procs());
  // Elements 3072..4095 are owned by processor 3; issue the requests on 0.
  int idx[1] = {3072};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rt.arrays().write_element(0, id, idx, dist::Scalar{1.0}));
    idx[0] = 3072 + ((idx[0] + 1) & 1023);
  }
}
BENCHMARK(BM_WriteElementRemoteOwner);

void BM_WholeArraySweepThroughGlobalInterface(benchmark::State& state) {
  // The cost of the task-parallel program touching every element through
  // the global view — the path the thesis reserves for "simple
  // manipulations" as opposed to data-parallel bulk work.
  const int n = static_cast<int>(state.range(0));
  core::Runtime rt(4);
  dist::ArrayId id = bench::make_vector(rt, n, rt.all_procs());
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      rt.arrays().write_element(0, id, std::vector<int>{i},
                                dist::Scalar{static_cast<double>(i)});
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WholeArraySweepThroughGlobalInterface)->Arg(1024)->Arg(16384);

void BM_FindLocal(benchmark::State& state) {
  core::Runtime rt(4);
  dist::ArrayId id = bench::make_vector(rt, 4096, rt.all_procs());
  dist::LocalSectionView view;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.arrays().find_local(2, id, view));
  }
}
BENCHMARK(BM_FindLocal);

void BM_FindInfo(benchmark::State& state) {
  core::Runtime rt(4);
  dist::ArrayId id = bench::make_vector(rt, 4096, rt.all_procs());
  dist::InfoValue v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rt.arrays().find_info(1, id, dist::InfoKind::LocalDimensions, v));
  }
}
BENCHMARK(BM_FindInfo);

void BM_ElementSweepByIndexing(benchmark::State& state) {
  // Figure 3.8: the same 2-D traversal under row- vs column-major
  // distribution; traversal order matches storage for one and fights it for
  // the other.
  const bool row_major = state.range(0) != 0;
  const int n = 128;
  core::Runtime rt(4);
  dist::ArrayId id;
  rt.arrays().create_array(
      0, dist::ElemType::Float64, {n, n}, rt.all_procs(),
      {dist::DimSpec::block(), dist::DimSpec::block()},
      dist::BorderSpec::none(),
      row_major ? dist::Indexing::RowMajor : dist::Indexing::ColumnMajor, id);
  dist::Scalar v;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        benchmark::DoNotOptimize(
            rt.arrays().read_element(0, id, std::vector<int>{i, j}, v));
      }
    }
  }
  state.counters["row_major"] = row_major ? 1 : 0;
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ElementSweepByIndexing)->Arg(1)->Arg(0);

}  // namespace

TDP_BENCH_MAIN();
