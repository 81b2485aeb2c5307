// Ablation — typed messages with selective receive (§3.4.1).
//
// The design requires selective receive so that task-parallel and
// data-parallel traffic (and different concurrent calls) never intercept
// each other's messages.  The cost is that a receive must scan past queued
// non-matching messages.  Series: receive latency as a function of the
// number of non-matching messages ahead of the match, and the end-to-end
// effect on a distributed call running while unrelated traffic is queued.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "vp/mailbox.hpp"

namespace {

using namespace tdp;

void BM_SelectiveReceiveScanDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  vp::Mailbox mb;
  // Pre-queue `depth` messages of a different comm that never match.
  for (int i = 0; i < depth; ++i) {
    vp::Message m;
    m.cls = vp::MessageClass::DataParallel;
    m.comm = 1;
    m.tag = 0;
    m.src = 0;
    mb.post(std::move(m));
  }
  for (auto _ : state) {
    vp::Message match;
    match.cls = vp::MessageClass::DataParallel;
    match.comm = 2;
    match.tag = 7;
    match.src = 3;
    mb.post(std::move(match));
    benchmark::DoNotOptimize(
        mb.receive(vp::MessageClass::DataParallel, 2, 7, 3));
  }
  state.counters["queued_ahead"] = depth;
}
BENCHMARK(BM_SelectiveReceiveScanDepth)
    ->Arg(0)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096);

void BM_DistributedCallWithForeignTrafficQueued(benchmark::State& state) {
  // A call's copies must skip over queued messages belonging to another
  // (suspended) call.  This is the price of comm scoping; the alternative —
  // crosstalk — would be incorrect, not merely slow.
  const int foreign = static_cast<int>(state.range(0));
  core::Runtime rt(4);
  rt.programs().add("ring_once",
                    [](spmd::SpmdContext& ctx, core::CallArgs&) {
                      const int next = (ctx.index() + 1) % ctx.nprocs();
                      const int prev = (ctx.index() + ctx.nprocs() - 1) %
                                       ctx.nprocs();
                      ctx.send_value<int>(next, 0, 1);
                      (void)ctx.recv_value<int>(prev, 0);
                    });
  // Queue foreign-comm messages on every processor's mailbox.
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < foreign; ++i) {
      vp::Message m;
      m.cls = vp::MessageClass::DataParallel;
      m.comm = rt.machine().next_comm();
      m.tag = 0;
      m.src = 0;
      rt.machine().send(p, std::move(m));
    }
  }
  const std::vector<int> procs = rt.all_procs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.call(procs, "ring_once").run());
  }
  state.counters["foreign_msgs"] = foreign;
}
BENCHMARK(BM_DistributedCallWithForeignTrafficQueued)
    ->Arg(0)
    ->Arg(64)
    ->Arg(1024);

}  // namespace

TDP_BENCH_MAIN();
