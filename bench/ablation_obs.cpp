// Ablation — price of the observability plane on the distributed-call path.
//
// The flight-recorder design claims always-on observability is cheap enough
// to leave enabled in production runs.  Series, over the same empty-call
// workload (the most instrumentation-dense path: every call marshals,
// spawns, sends, receives, and combines under trace spans and metric
// bumps):
//
//   (a) TDP_OBS off — the disabled path is one relaxed load + branch per
//       instrumentation site;
//   (b) ring tracing — the flight recorder: every emit takes the per-shard
//       mutex (uncontended by construction) and overwrites the oldest slot,
//       so the cost never changes with run length;
//   (c) ring + telemetry sampler — (b) plus the background sampler on an
//       aggressive 10 ms period (25x the default rate), snapshotting the
//       registry and per-VP wait state while calls run;
//   (d) ring + sampler + per-call attribution armed — (c) with a slow-call
//       threshold set, so every call runs the CallTable ledger (begin,
//       marshal/exec folds, per-delivery queue/blocked accounting, end)
//       and the exemplar reservoir admission check.  The threshold is far
//       above the workload's latency, so captures stop once the top-K
//       reservoir fills — the steady-state cost, which the acceptance bar
//       requires within noise of (c).
//
// The acceptance bar for the live plane is (c) within 5% of (a).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/distributed_call.hpp"
#include "obs/attr.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace tdp;

constexpr int kProcs = 4;

/// The measured region: empty distributed calls on a fresh runtime.
void run_call_workload(benchmark::State& state) {
  core::Runtime rt(kProcs);
  rt.programs().add("noop", [](spmd::SpmdContext&, core::CallArgs&) {});
  const std::vector<int> procs = rt.all_procs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.call(procs, "noop").run());
  }
  state.counters["procs"] = kProcs;
  // Quiet the Runtime destructor's shutdown flush (untimed, but it would
  // interleave a summary and a trace file with every series).
  obs::set_enabled(false);
}

/// Leaves the process as the next benchmark expects to find it: tracing
/// off, buffers empty, sampler stopped (also keeps the atexit trace flush
/// quiet after the last series).
void obs_quiesce() {
  obs::Telemetry::instance().stop();
  obs::Telemetry::instance().reset_for_test();
  obs::set_enabled(false);
  obs::Tracer::instance().reset();
  obs::Registry::instance().reset_values();
  obs::CallTable::instance().reset_for_test();
}

void BM_CallObsOff(benchmark::State& state) {
  obs::set_enabled(false);
  run_call_workload(state);
}
BENCHMARK(BM_CallObsOff)->UseRealTime();

void BM_CallObsRing(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Tracer::instance().reset();
  run_call_workload(state);
  state.counters["recorded"] =
      static_cast<double>(obs::Tracer::instance().recorded());
  state.counters["overwritten"] =
      static_cast<double>(obs::Tracer::instance().overwritten());
  obs_quiesce();
}
BENCHMARK(BM_CallObsRing)->UseRealTime();

void BM_CallObsRingPlusSampler(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Tracer::instance().reset();
  obs::Telemetry::instance().start(10);  // 25x the default sampling rate
  run_call_workload(state);
  state.counters["recorded"] =
      static_cast<double>(obs::Tracer::instance().recorded());
  state.counters["overwritten"] =
      static_cast<double>(obs::Tracer::instance().overwritten());
  state.counters["samples"] =
      static_cast<double>(obs::Telemetry::instance().snapshot().samples);
  obs_quiesce();
}
BENCHMARK(BM_CallObsRingPlusSampler)->UseRealTime();

void BM_CallObsRingSamplerAttr(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Tracer::instance().reset();
  obs::CallTable::instance().reset_for_test();
  // Arm capture with a threshold no empty call reaches: the reservoir
  // fills with the first kMaxExemplars completions, then admission is a
  // strictly-slower check that near-identical calls keep failing — the
  // snapshot path goes quiet and the ledger cost is what's measured.
  obs::CallTable::instance().set_slow_threshold_ms(60000);
  obs::Telemetry::instance().start(10);
  run_call_workload(state);
  state.counters["recorded"] =
      static_cast<double>(obs::Tracer::instance().recorded());
  state.counters["overwritten"] =
      static_cast<double>(obs::Tracer::instance().overwritten());
  state.counters["calls_tracked"] =
      static_cast<double>(obs::CallTable::instance().completed());
  state.counters["exemplars"] =
      static_cast<double>(obs::CallTable::instance().captured());
  obs_quiesce();
}
BENCHMARK(BM_CallObsRingSamplerAttr)->UseRealTime();

}  // namespace

TDP_BENCH_MAIN();
