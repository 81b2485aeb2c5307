// Tests for the distributed-call machinery (§3.3, §4.3, §5.2): do_all, the
// five parameter kinds, status/reduction merging, failure paths, concurrent
// calls and the channels extension (§7.2.1).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "core/do_all.hpp"
#include "core/runtime.hpp"
#include "obs/metrics.hpp"
#include "pcn/process.hpp"
#include "sched/sched.hpp"
#include "util/node_array.hpp"
#include "vp/payload.hpp"

namespace tdp::core {
namespace {

TEST(DoAll, RunsOncePerProcessorOnThatProcessor) {
  vp::Machine machine(4);
  std::vector<int> placed(4, -1);
  const int status = do_all(
      machine, util::iota_nodes(4),
      [&](int index) {
        placed[static_cast<std::size_t>(index)] = vp::current_proc();
        return index;
      },
      status_combine_max);
  EXPECT_EQ(status, 3);  // max of 0..3
  EXPECT_EQ(placed, (std::vector<int>{0, 1, 2, 3}));
}

TEST(DoAll, CombinesPairwiseInIndexOrder) {
  vp::Machine machine(4);
  std::vector<std::pair<int, int>> combinations;
  std::mutex mu;
  const int status = do_all(
      machine, util::iota_nodes(4), [](int index) { return index + 1; },
      [&](int a, int b) {
        std::lock_guard<std::mutex> lock(mu);
        combinations.push_back({a, b});
        return a + b;
      });
  EXPECT_EQ(status, 10);
  ASSERT_EQ(combinations.size(), 3u);
  EXPECT_EQ(combinations[0], (std::pair<int, int>{1, 2}));
  EXPECT_EQ(combinations[1], (std::pair<int, int>{3, 3}));
  EXPECT_EQ(combinations[2], (std::pair<int, int>{6, 4}));
}

TEST(DoAll, EmptyGroupYieldsZero) {
  vp::Machine machine(2);
  EXPECT_EQ(do_all(machine, {}, [](int) { return 42; }, status_combine_max),
            0);
}

TEST(DoAll, AsyncStatusDefinedOnlyAfterAllCopies) {
  vp::Machine machine(3);
  pcn::Def<int> release_copy2;
  pcn::ProcessGroup group;
  pcn::Def<int> status = do_all_async(
      machine, util::iota_nodes(3),
      [&](int index) {
        if (index == 2) return release_copy2.read();
        return 0;
      },
      status_combine_max, group);
  EXPECT_EQ(status.read_for(std::chrono::milliseconds(30)), nullptr);
  release_copy2.define(5);
  group.join();
  EXPECT_EQ(status.read(), 5);
}

class DistributedCallTest : public ::testing::Test {
 protected:
  DistributedCallTest() : rt_(8) {}

  dist::ArrayId make_vector(int n, const std::vector<int>& procs) {
    dist::ArrayId id;
    EXPECT_EQ(rt_.arrays().create_array(
                  0, dist::ElemType::Float64, {n}, procs,
                  {dist::DimSpec::block()}, dist::BorderSpec::none(),
                  dist::Indexing::RowMajor, id),
              Status::Ok);
    return id;
  }

  Runtime rt_;
};

TEST_F(DistributedCallTest, ControlFlowCallAndReturn) {
  // Fig 3.2: one copy per processor; caller resumes after all return.
  std::atomic<int> copies{0};
  std::set<int> procs_seen;
  std::mutex mu;
  rt_.programs().add("count", [&](spmd::SpmdContext& ctx, CallArgs&) {
    ++copies;
    std::lock_guard<std::mutex> lock(mu);
    procs_seen.insert(ctx.proc());
  });
  const int status = rt_.call(util::iota_nodes(8), "count").run();
  EXPECT_EQ(status, kStatusOk);
  EXPECT_EQ(copies.load(), 8);
  EXPECT_EQ(procs_seen.size(), 8u);
}

TEST_F(DistributedCallTest, ConstantsAreSharedInputs) {
  rt_.programs().add("check_consts",
                     [](spmd::SpmdContext&, CallArgs& args) {
                       EXPECT_EQ(args.in<int>(0), 7);
                       EXPECT_DOUBLE_EQ(args.in<double>(1), 2.5);
                       EXPECT_EQ(args.in<std::string>(2), "hello");
                       EXPECT_EQ(args.in<std::vector<int>>(3),
                                 (std::vector<int>{1, 2, 3}));
                     });
  const int status = rt_.call(util::iota_nodes(4), "check_consts")
                         .constant(7)
                         .constant(2.5)
                         .constant(std::string("hello"))
                         .constant(std::vector<int>{1, 2, 3})
                         .run();
  EXPECT_EQ(status, kStatusOk);
}

TEST_F(DistributedCallTest, PayloadConstantIsSharedWithoutCopies) {
  // A bulk constant rides through the marshal phase as a refcounted handle:
  // every copy of the program sees the *same* buffer, and wrapping plus
  // marshalling costs zero payload-byte copies.
  std::vector<std::byte> bulk(512);
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    bulk[i] = static_cast<std::byte>(i & 0xff);
  }
  const std::byte* raw = bulk.data();
  auto& copied = obs::Registry::instance().counter("comm.bytes_copied");
  const std::uint64_t before = copied.value();

  std::mutex mu;
  std::set<const std::byte*> seen;
  rt_.programs().add("check_payload",
                     [&](spmd::SpmdContext&, CallArgs& args) {
                       const std::span<const std::byte> p = args.payload(0);
                       ASSERT_EQ(p.size(), 512u);
                       EXPECT_EQ(p[255], std::byte{255});
                       std::lock_guard<std::mutex> lock(mu);
                       seen.insert(p.data());
                     });
  const int status = rt_.call(util::iota_nodes(4), "check_payload")
                         .constant(vp::Payload::take(std::move(bulk)))
                         .run();
  EXPECT_EQ(status, kStatusOk);
  ASSERT_EQ(seen.size(), 1u) << "all copies must share one buffer";
  EXPECT_EQ(*seen.begin(), raw) << "and it is the caller's adopted storage";
  EXPECT_EQ(copied.value() - before, 0u);
}

TEST_F(DistributedCallTest, IndexParameterIsPositionInProcessorArray) {
  // §3.3.1.2: the index is an index into the call's processor array.
  std::vector<int> index_on_proc(8, -1);
  rt_.programs().add("record_index",
                     [&](spmd::SpmdContext& ctx, CallArgs& args) {
                       index_on_proc[static_cast<std::size_t>(ctx.proc())] =
                           args.index(0);
                     });
  const std::vector<int> procs = util::node_array(6, -2, 4);  // 6,4,2,0
  ASSERT_EQ(rt_.call(procs, "record_index").index().run(), kStatusOk);
  EXPECT_EQ(index_on_proc[6], 0);
  EXPECT_EQ(index_on_proc[4], 1);
  EXPECT_EQ(index_on_proc[2], 2);
  EXPECT_EQ(index_on_proc[0], 3);
}

TEST_F(DistributedCallTest, LocalSectionsArePerCopyAndWritable) {
  // Fig 3.3: each copy gets its own local section, used as output here.
  dist::ArrayId a = make_vector(16, util::iota_nodes(4));
  rt_.programs().add("fill_with_index",
                     [](spmd::SpmdContext&, CallArgs& args) {
                       const dist::LocalSectionView& v = args.local(1);
                       for (long long i = 0; i < v.interior_count(); ++i) {
                         v.f64()[i] = args.index(0) * 100.0 + i;
                       }
                     });
  ASSERT_EQ(rt_.call(util::iota_nodes(4), "fill_with_index")
                .index()
                .local(a)
                .run(),
            kStatusOk);
  for (int g = 0; g < 16; ++g) {
    dist::Scalar v;
    ASSERT_EQ(rt_.arrays().read_element(0, a, std::vector<int>{g}, v),
              Status::Ok);
    EXPECT_DOUBLE_EQ(std::get<double>(v), (g / 4) * 100.0 + (g % 4));
  }
}

TEST_F(DistributedCallTest, StatusMergesWithDefaultMax) {
  rt_.programs().add("set_status",
                     [](spmd::SpmdContext& ctx, CallArgs& args) {
                       args.status(0) = ctx.index() == 2 ? 7 : 1;
                     });
  EXPECT_EQ(rt_.call(util::iota_nodes(4), "set_status").status().run(), 7);
}

TEST_F(DistributedCallTest, StatusMergesWithUserCombiner) {
  rt_.programs().add("set_status_min",
                     [](spmd::SpmdContext& ctx, CallArgs& args) {
                       args.status(0) = 10 + ctx.index();
                     });
  EXPECT_EQ(rt_.call(util::iota_nodes(4), "set_status_min")
                .status(status_combine_min)
                .run(),
            10);
}

TEST_F(DistributedCallTest, NoStatusParameterYieldsOk) {
  rt_.programs().add("noop", [](spmd::SpmdContext&, CallArgs&) {});
  EXPECT_EQ(rt_.call(util::iota_nodes(3), "noop").run(), kStatusOk);
}

TEST_F(DistributedCallTest, ReduceVariableMergesPairwise) {
  // §6.1-style: every copy writes a value; combiner max returns the global.
  rt_.programs().add("reduce_index",
                     [](spmd::SpmdContext& ctx, CallArgs& args) {
                       args.reduce_f64(0)[0] = static_cast<double>(ctx.index());
                     });
  std::vector<double> out;
  ASSERT_EQ(rt_.call(util::iota_nodes(6), "reduce_index")
                .reduce_f64(1, f64_max(), &out)
                .run(),
            kStatusOk);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 5.0);
}

TEST_F(DistributedCallTest, ReduceSupportsArraysAndMultipleVariables) {
  // §3.3.1.2: any number of reduction variables, any length.
  rt_.programs().add("two_reduces",
                     [](spmd::SpmdContext& ctx, CallArgs& args) {
                       auto r0 = args.reduce_f64(0);
                       r0[0] = ctx.index();
                       r0[1] = 2.0 * ctx.index();
                       args.reduce_i32(1)[0] = 1;
                     });
  std::vector<double> sums;
  std::vector<int> counts;
  ASSERT_EQ(rt_.call(util::iota_nodes(4), "two_reduces")
                .reduce_f64(2, f64_sum(), &sums)
                .reduce_i32(1, i32_sum(), &counts)
                .run(),
            kStatusOk);
  EXPECT_EQ(sums, (std::vector<double>{6.0, 12.0}));
  EXPECT_EQ(counts, (std::vector<int>{4}));
}

TEST_F(DistributedCallTest, StatusAndReduceTogether) {
  // The §5.2.4 "status, reduction, and local-section" shape.
  dist::ArrayId a = make_vector(8, util::iota_nodes(4));
  rt_.programs().add("mixed", [](spmd::SpmdContext& ctx, CallArgs& args) {
    const dist::LocalSectionView& v = args.local(0);
    for (long long i = 0; i < v.interior_count(); ++i) {
      v.f64()[i] = 1.0;
    }
    args.status(1) = ctx.index();
    args.reduce_f64(2)[0] = static_cast<double>(v.interior_count());
  });
  std::vector<double> total;
  const int status = rt_.call(util::iota_nodes(4), "mixed")
                         .local(a)
                         .status()
                         .reduce_f64(1, f64_sum(), &total)
                         .run();
  EXPECT_EQ(status, 3);
  EXPECT_DOUBLE_EQ(total[0], 8.0);
}

TEST_F(DistributedCallTest, UnknownProgramIsInvalid) {
  EXPECT_EQ(rt_.call(util::iota_nodes(2), "does_not_exist").run(),
            kStatusInvalid);
}

TEST_F(DistributedCallTest, BadProcessorsAreInvalid) {
  rt_.programs().add("noop2", [](spmd::SpmdContext&, CallArgs&) {});
  EXPECT_EQ(rt_.call({0, 99}, "noop2").run(), kStatusInvalid);
  EXPECT_EQ(rt_.call({}, "noop2").run(), kStatusInvalid);
}

TEST_F(DistributedCallTest, TwoStatusParametersAreInvalid) {
  rt_.programs().add("noop3", [](spmd::SpmdContext&, CallArgs&) {});
  EXPECT_EQ(rt_.call(util::iota_nodes(2), "noop3").status().status().run(),
            kStatusInvalid);
}

TEST_F(DistributedCallTest, ArrayNotDistributedOverCallProcessorsFails) {
  // The wrapper's find_local fails on copies whose processor owns no local
  // section; the failure code surfaces through the merged status and the
  // program is not called there (§5.2.4).
  dist::ArrayId a = make_vector(8, util::iota_nodes(4));  // owners 0..3
  std::atomic<int> calls{0};
  rt_.programs().add("count_calls",
                     [&](spmd::SpmdContext&, CallArgs&) { ++calls; });
  const int status =
      rt_.call(util::node_array(2, 1, 4), "count_calls").local(a).run();
  EXPECT_EQ(status, kStatusNotFound);  // copies on 4,5 fail find_local
  EXPECT_EQ(calls.load(), 2);          // copies on 2,3 ran
}

TEST_F(DistributedCallTest, FreedArrayFailsTheCall) {
  dist::ArrayId a = make_vector(8, util::iota_nodes(4));
  ASSERT_EQ(rt_.arrays().free_array(0, a), Status::Ok);
  rt_.programs().add("touch", [](spmd::SpmdContext&, CallArgs&) {
    FAIL() << "program must not run when find_local fails everywhere";
  });
  EXPECT_EQ(rt_.call(util::iota_nodes(4), "touch").local(a).run(),
            kStatusNotFound);
}

TEST_F(DistributedCallTest, CopiesCanCommunicateWithinTheCall) {
  // §3.3.1: concurrently-executing copies communicate just as they would
  // outside a distributed call.
  rt_.programs().add("allreduce_check",
                     [](spmd::SpmdContext& ctx, CallArgs& args) {
                       const double sum = ctx.allreduce_sum(1.0);
                       args.reduce_f64(0)[0] = sum;
                     });
  std::vector<double> out;
  ASSERT_EQ(rt_.call(util::iota_nodes(8), "allreduce_check")
                .reduce_f64(1, f64_max(), &out)
                .run(),
            kStatusOk);
  EXPECT_DOUBLE_EQ(out[0], 8.0);
}

TEST_F(DistributedCallTest, ConcurrentCallsOnDisjointGroupsRunIndependently) {
  // Fig 3.4: TPA calls DPA on group A while TPB calls DPB on group B.
  rt_.programs().add("ring_sum",
                     [](spmd::SpmdContext& ctx, CallArgs& args) {
                       for (int round = 0; round < 20; ++round) {
                         const int next = (ctx.index() + 1) % ctx.nprocs();
                         const int prev =
                             (ctx.index() + ctx.nprocs() - 1) % ctx.nprocs();
                         ctx.send_value<int>(next, round, ctx.index());
                         const int got = ctx.recv_value<int>(prev, round);
                         EXPECT_EQ(got, prev);
                       }
                       args.reduce_f64(1)[0] = args.in<double>(0);
                     });
  std::vector<double> out_a;
  std::vector<double> out_b;
  pcn::par(
      [&] {
        EXPECT_EQ(rt_.call(util::node_array(0, 1, 4), "ring_sum")
                      .constant(1.0)
                      .reduce_f64(1, f64_sum(), &out_a)
                      .run(),
                  kStatusOk);
      },
      [&] {
        EXPECT_EQ(rt_.call(util::node_array(4, 1, 4), "ring_sum")
                      .constant(2.0)
                      .reduce_f64(1, f64_sum(), &out_b)
                      .run(),
                  kStatusOk);
      });
  EXPECT_DOUBLE_EQ(out_a[0], 4.0);
  EXPECT_DOUBLE_EQ(out_b[0], 8.0);
}

TEST_F(DistributedCallTest, RunAsyncStatusDefinedOnlyAtCompletion) {
  pcn::Def<int> release;
  rt_.programs().add("wait_release",
                     [&](spmd::SpmdContext& ctx, CallArgs& args) {
                       if (ctx.index() == 0) release.read();
                       args.status(0) = kStatusOk;
                     });
  pcn::ProcessGroup group;
  pcn::Def<int> status =
      rt_.call(util::iota_nodes(3), "wait_release").status().run_async(group);
  EXPECT_EQ(status.read_for(std::chrono::milliseconds(30)), nullptr);
  release.define(1);
  group.join();
  EXPECT_EQ(status.read(), kStatusOk);
}

TEST_F(DistributedCallTest, ChannelsConnectTwoConcurrentCalls) {
  // §7.2.1 extension: copy i of the producer call talks directly to copy i
  // of the consumer call, bypassing the task-parallel level.
  auto [producer_side, consumer_side] = make_channels(4);
  rt_.programs().add("producer", [](spmd::SpmdContext& ctx, CallArgs& args) {
    std::vector<double> data{static_cast<double>(ctx.index()), 1.5};
    args.port(0).send<double>(data);
  });
  rt_.programs().add("consumer", [](spmd::SpmdContext& ctx, CallArgs& args) {
    std::vector<double> got = args.port(0).recv<double>();
    EXPECT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], ctx.index());
    args.reduce_f64(1)[0] = got[1];
  });
  std::vector<double> out;
  pcn::par(
      [&, side = producer_side] {
        EXPECT_EQ(rt_.call(util::node_array(0, 1, 4), "producer")
                      .port(side)
                      .run(),
                  kStatusOk);
      },
      [&, side = consumer_side] {
        EXPECT_EQ(rt_.call(util::node_array(4, 1, 4), "consumer")
                      .port(side)
                      .reduce_f64(1, f64_max(), &out)
                      .run(),
                  kStatusOk);
      });
  EXPECT_DOUBLE_EQ(out[0], 1.5);
}

TEST_F(DistributedCallTest, PortGroupTooSmallIsInvalid) {
  auto [a, b] = make_channels(2);
  (void)b;
  rt_.programs().add("noop4", [](spmd::SpmdContext&, CallArgs&) {});
  EXPECT_EQ(rt_.call(util::iota_nodes(4), "noop4").port(a).run(),
            kStatusInvalid);
}

TEST_F(DistributedCallTest, WrongKindAccessThrowsInsideProgram) {
  rt_.programs().add("misuse", [](spmd::SpmdContext&, CallArgs& args) {
    EXPECT_THROW(args.index(0), std::logic_error);   // slot 0 is a constant
    EXPECT_THROW(args.local(1), std::logic_error);   // out of range
    EXPECT_NO_THROW(args.in<int>(0));
  });
  EXPECT_EQ(rt_.call(util::iota_nodes(1), "misuse").constant(3).run(),
            kStatusOk);
}

TEST(Registry, AddFindAndBorders) {
  ProgramRegistry reg;
  EXPECT_EQ(reg.add("", [](spmd::SpmdContext&, CallArgs&) {}),
            Status::Invalid);
  EXPECT_EQ(reg.add("p", nullptr), Status::Invalid);
  EXPECT_EQ(reg.add("p", [](spmd::SpmdContext&, CallArgs&) {},
                    [](int parm, int ndims) {
                      return std::vector<int>(
                          static_cast<std::size_t>(2 * ndims), parm);
                    }),
            Status::Ok);
  EXPECT_TRUE(reg.contains("p"));
  EXPECT_FALSE(reg.contains("q"));
  std::vector<int> borders;
  EXPECT_EQ(reg.borders_for("p", 3, 2, borders), Status::Ok);
  EXPECT_EQ(borders, (std::vector<int>{3, 3, 3, 3}));
  EXPECT_EQ(reg.borders_for("q", 1, 1, borders), Status::NotFound);
  // A program without a border routine is NotFound for borders.
  reg.add("plain", [](spmd::SpmdContext&, CallArgs&) {});
  EXPECT_EQ(reg.borders_for("plain", 1, 1, borders), Status::NotFound);
}

TEST(RuntimeWiring, ForeignBordersResolveThroughRegistry) {
  // End-to-end §5.1.7: create_array(foreign_borders) consults the border
  // routine registered with the named program.
  Runtime rt(4);
  rt.programs().add("stencil3", [](spmd::SpmdContext&, CallArgs&) {},
                    [](int parm_num, int ndims) {
                      std::vector<int> b(static_cast<std::size_t>(2 * ndims),
                                         0);
                      if (parm_num == 0) b = {1, 1};
                      return b;
                    });
  dist::ArrayId id;
  ASSERT_EQ(rt.arrays().create_array(
                0, dist::ElemType::Float64, {8}, rt.all_procs(),
                {dist::DimSpec::block()},
                dist::BorderSpec::foreign("stencil3", 0),
                dist::Indexing::RowMajor, id),
            Status::Ok);
  dist::InfoValue v;
  ASSERT_EQ(rt.arrays().find_info(0, id, dist::InfoKind::Borders, v),
            Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{1, 1}));
  // verify_array against a different program's expectations reallocates.
  rt.programs().add("stencil5", [](spmd::SpmdContext&, CallArgs&) {},
                    [](int, int) { return std::vector<int>{2, 2}; });
  ASSERT_EQ(rt.arrays().verify_array(0, id, 1,
                                     dist::BorderSpec::foreign("stencil5", 0),
                                     dist::Indexing::RowMajor),
            Status::Ok);
  ASSERT_EQ(rt.arrays().find_info(0, id, dist::InfoKind::Borders, v),
            Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{2, 2}));
}

// ------------------------------------------- Synchronous compositions ----
//
// run() and do_all() merge in the calling process and par() runs its last
// block there: the caller would otherwise only wait.  The Core.
// SyncCompositionsOnOneStealWorker ctest runs this suite on one steal
// worker.

// Forces the steal lane for one test; restores the environment's choice.
struct StealLane {
  StealLane() { sched::force_sched_mode(sched::SchedMode::Steal); }
  ~StealLane() { sched::unforce_sched_mode(); }
  StealLane(const StealLane&) = delete;
  StealLane& operator=(const StealLane&) = delete;
};

std::uint64_t tasks_spawned() { return sched::stats().spawned; }

TEST(SyncCompositions, RunSpawnsOnlyTheCopies) {
  StealLane lane;
  Runtime rt(4);
  rt.programs().add("noop", [](spmd::SpmdContext&, CallArgs&) {});
  const std::uint64_t before = tasks_spawned();
  ASSERT_EQ(rt.call(util::iota_nodes(4), "noop").run(), kStatusOk);
  EXPECT_EQ(tasks_spawned() - before, 4u);
  // The asynchronous form still spawns a combine process.
  const std::uint64_t async_before = tasks_spawned();
  pcn::ProcessGroup group;
  pcn::Def<int> status = rt.call(util::iota_nodes(4), "noop").run_async(group);
  group.join();
  EXPECT_EQ(status.read(), kStatusOk);
  EXPECT_EQ(tasks_spawned() - async_before, 5u);
}

TEST(SyncCompositions, DoAllSpawnsOnlyTheCopies) {
  StealLane lane;
  vp::Machine machine(3);
  const std::uint64_t before = tasks_spawned();
  EXPECT_EQ(do_all(machine, util::iota_nodes(3), [](int i) { return i; },
                   status_combine_max),
            2);
  EXPECT_EQ(tasks_spawned() - before, 3u);
  const std::uint64_t async_before = tasks_spawned();
  pcn::ProcessGroup group;
  pcn::Def<int> status =
      do_all_async(machine, util::iota_nodes(3), [](int i) { return i; },
                   status_combine_max, group);
  group.join();
  EXPECT_EQ(status.read(), 2);
  EXPECT_EQ(tasks_spawned() - async_before, 4u);
}

TEST(SyncCompositions, RunMergesOnTheCallingThreadInCopyOrder) {
  Runtime rt(4);
  rt.programs().add("rank", [](spmd::SpmdContext& ctx, CallArgs& args) {
    args.status(0) = ctx.index() + 1;
    args.reduce_f64(1)[0] = ctx.index() + 1;
  });
  std::vector<std::pair<int, int>> status_merges;
  std::set<std::thread::id> merge_threads;
  std::vector<double> digits;
  const int status =
      rt.call(util::iota_nodes(4), "rank")
          .status([&](int a, int b) {
            status_merges.push_back({a, b});
            merge_threads.insert(std::this_thread::get_id());
            return a + b;
          })
          // Not commutative: the result spells out the merge order.
          .reduce_f64(1,
                      [&](std::span<const double> a,
                          std::span<const double> b, std::span<double> out) {
                        merge_threads.insert(std::this_thread::get_id());
                        out[0] = a[0] * 10 + b[0];
                      },
                      &digits)
          .run();
  EXPECT_EQ(status, 10);
  EXPECT_EQ(status_merges, (std::vector<std::pair<int, int>>{
                               {1, 2}, {3, 3}, {6, 4}}));
  EXPECT_EQ(digits, (std::vector<double>{1234.0}));
  EXPECT_EQ(merge_threads, (std::set<std::thread::id>{
                               std::this_thread::get_id()}));
}

TEST(SyncCompositions, DoAllMergesOnTheCallingThread) {
  vp::Machine machine(4);
  std::set<std::thread::id> merge_threads;
  std::set<std::thread::id> copy_threads;
  std::mutex mu;
  const int status = do_all(
      machine, util::iota_nodes(4),
      [&](int index) {
        std::lock_guard<std::mutex> lock(mu);
        copy_threads.insert(std::this_thread::get_id());
        return index;
      },
      [&](int a, int b) {
        merge_threads.insert(std::this_thread::get_id());
        return a * 10 + b;
      });
  EXPECT_EQ(status, 123);
  EXPECT_EQ(merge_threads, (std::set<std::thread::id>{
                               std::this_thread::get_id()}));
  EXPECT_FALSE(copy_threads.contains(std::this_thread::get_id()));
}

TEST(SyncCompositions, NestedParRunAndDoAllFinishFromAFiber) {
  StealLane lane;
  Runtime rt(4);
  // The copies meet in an allreduce, so each must park while it waits for
  // the others, and so must every inline merge and par block above them.
  rt.programs().add("sum_index", [](spmd::SpmdContext& ctx, CallArgs& args) {
    args.reduce_f64(0)[0] = ctx.allreduce_sum(ctx.index());
  });
  const auto call = [&](std::vector<int> procs, std::vector<double>* out) {
    return rt.call(std::move(procs), "sum_index")
        .reduce_f64(1, f64_max(), out)
        .run();
  };
  std::vector<double> left;
  std::vector<double> right;
  std::atomic<int> do_all_status{-1};
  std::atomic<int> outer_status{-1};
  pcn::ProcessGroup group;
  group.spawn([&] {
    pcn::par(
        [&] {
          pcn::par([&] { outer_status = call({0, 1}, &left); },
                   [&] {
                     do_all_status = do_all(
                         rt.machine(), util::iota_nodes(4),
                         [](int i) { return i; }, status_combine_max);
                   });
        },
        [&] { EXPECT_EQ(call({2, 3}, &right), kStatusOk); });
  });
  group.join();
  EXPECT_EQ(outer_status.load(), kStatusOk);
  EXPECT_EQ(do_all_status.load(), 3);
  EXPECT_EQ(left, (std::vector<double>{1.0}));   // 0 + 1, on every copy
  EXPECT_EQ(right, (std::vector<double>{1.0}));
}

// ------------------------------------------------- Merge callbacks ----
//
// A status combine or reduction combine that throws folds into
// kStatusError like a throwing copy (§4.1.2): the status always defines,
// the error message names the callback, and the call's layout pins are
// released, so the array can migrate at once afterwards.

class CombineFailure : public ::testing::Test {
 protected:
  CombineFailure() : rt_(4) {
    EXPECT_EQ(rt_.arrays().create_array(
                  0, dist::ElemType::Float64, {8}, util::iota_nodes(2),
                  {dist::DimSpec::block()}, dist::BorderSpec::none(),
                  dist::Indexing::RowMajor, a_),
              Status::Ok);
    rt_.programs().add("touch", [](spmd::SpmdContext& ctx, CallArgs& args) {
      args.status(1) = ctx.index();
      args.reduce_f64(2)[0] = 1.0;
    });
  }

  DistributedCall call(StatusCombine status, F64Combine reduce,
                       std::string* error) {
    return rt_.call(util::iota_nodes(2), "touch")
        .local(a_)
        .status(std::move(status))
        .reduce_f64(1, std::move(reduce), &total_)
        .error_message(error);
  }

  // A pin left behind would hold migrate_shard for the 2 s pin-drain
  // timeout and then fail it.
  void expect_unpinned() {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(rt_.arrays().migrate_shard(0, a_, 0, 3), Status::Ok);
    EXPECT_EQ(rt_.arrays().migrate_shard(0, a_, 0, 0), Status::Ok);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  }

  // Runs the call synchronously and asynchronously; both must end in
  // kStatusError with an error naming `label`.
  void expect_folded(const StatusCombine& status, const F64Combine& reduce,
                     const std::string& label) {
    std::string error;
    EXPECT_EQ(call(status, reduce, &error).run(), kStatusError);
    EXPECT_EQ(error.rfind(label + ": boom", 0), 0u) << error;
    expect_unpinned();

    std::string async_error;
    pcn::ProcessGroup group;
    pcn::Def<int> defined = call(status, reduce, &async_error).run_async(group);
    group.join();
    const int* got = defined.read_for(std::chrono::seconds(0));
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, kStatusError);
    EXPECT_EQ(async_error.rfind(label + ": boom", 0), 0u) << async_error;
    expect_unpinned();
  }

  Runtime rt_;
  dist::ArrayId a_;
  std::vector<double> total_;
};

TEST_F(CombineFailure, ThrowingStatusCombineFoldsIntoErrorStatus) {
  expect_folded([](int, int) -> int { throw std::runtime_error("boom"); },
                f64_sum(), "status combine");
}

TEST_F(CombineFailure, ThrowingReduceCombineFoldsIntoErrorStatus) {
  expect_folded(status_combine_max,
                [](std::span<const double>, std::span<const double>,
                   std::span<double>) { throw std::runtime_error("boom"); },
                "reduce combine 0");
}

// do_all has no error-message channel, so a throwing combine surfaces as
// a throwing copy does: the status defines as kStatusError and the
// exception reaches whoever joins.
TEST_F(CombineFailure, ThrowingDoAllCombineDefinesErrorAndRethrows) {
  std::atomic<int> combines{0};
  const DoAllCombine boom = [&](int, int) -> int {
    ++combines;
    throw std::runtime_error("boom");
  };
  EXPECT_THROW(do_all(rt_.machine(), util::iota_nodes(3),
                      [](int) { return kStatusOk; }, boom),
               std::runtime_error);
  EXPECT_EQ(combines.load(), 1);  // later pairs are not combined

  pcn::ProcessGroup group;
  pcn::Def<int> defined = do_all_async(rt_.machine(), util::iota_nodes(3),
                                       [](int) { return kStatusOk; }, boom,
                                       group);
  EXPECT_THROW(group.join(), std::runtime_error);
  const int* got = defined.read_for(std::chrono::seconds(0));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, kStatusError);
}

}  // namespace
}  // namespace tdp::core
