// Tests for the tdp::fault layer and the hardening it exercises: plan
// parsing, deterministic seeded injection, deadline-aware receive,
// status-merged error propagation through distributed calls and do_all,
// bounded retry for array-server requests, and clean teardown under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/do_all.hpp"
#include "core/runtime.hpp"
#include "dist/array_server.hpp"
#include "fault/inject.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pcn/process.hpp"
#include "spmd/coll.hpp"
#include "spmd/context.hpp"
#include "util/node_array.hpp"

namespace tdp {
namespace {

// ---------------------------------------------------------------- Plan ----

TEST(FaultPlan, ParsesAllKeys) {
  fault::Plan plan;
  std::string error;
  ASSERT_TRUE(fault::Plan::parse(
      "drop:0.05,delay:2,dup:0.01,reorder:0.02,fail:3,fail:5,seed:42", plan,
      error))
      << error;
  EXPECT_DOUBLE_EQ(plan.drop, 0.05);
  EXPECT_EQ(plan.delay_ms, 2u);
  EXPECT_DOUBLE_EQ(plan.dup, 0.01);
  EXPECT_DOUBLE_EQ(plan.reorder, 0.02);
  EXPECT_EQ(plan.failed, (std::vector<int>{3, 5}));
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlan, DefaultPlanIsInactive) {
  fault::Plan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(plan.seed, 1u);
}

TEST(FaultPlan, RejectsUnknownKeyNamingIt) {
  fault::Plan plan;
  std::string error;
  EXPECT_FALSE(fault::Plan::parse("drop:0.1,bogus:3", plan, error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(plan.active());  // out left default-constructed
}

TEST(FaultPlan, RejectsMalformedValues) {
  fault::Plan plan;
  std::string error;
  EXPECT_FALSE(fault::Plan::parse("drop:abc", plan, error));
  EXPECT_FALSE(fault::Plan::parse("delay", plan, error));
  EXPECT_FALSE(fault::Plan::parse("seed:", plan, error));
}

TEST(FaultPlan, ClampsProbabilities) {
  fault::Plan plan;
  std::string error;
  ASSERT_TRUE(fault::Plan::parse("drop:7.5", plan, error));
  EXPECT_DOUBLE_EQ(plan.drop, 1.0);
}

TEST(FaultPlan, DescribeRendersActiveFields) {
  fault::Plan plan;
  std::string error;
  ASSERT_TRUE(fault::Plan::parse("drop:0.5,fail:2,seed:9", plan, error));
  const std::string d = plan.describe();
  EXPECT_NE(d.find("drop:0.5"), std::string::npos);
  EXPECT_NE(d.find("fail:2"), std::string::npos);
  EXPECT_NE(d.find("seed:9"), std::string::npos);
}

// ------------------------------------------------------------ Injector ----

std::vector<int> delivered_tags(fault::Injector& inj, int dst, int count) {
  std::vector<int> tags;
  for (int i = 0; i < count; ++i) {
    vp::Message m;
    m.tag = i;
    inj.on_send(-1, dst, std::move(m),
                [&tags](vp::Message&& out) { tags.push_back(out.tag); });
  }
  return tags;
}

TEST(FaultInjector, SameSeedSameInjectedFaultSequence) {
  fault::Plan plan;
  plan.drop = 0.5;
  plan.seed = 42;
  fault::Injector a(plan, 2);
  fault::Injector b(plan, 2);
  const std::vector<int> ta = delivered_tags(a, 0, 200);
  const std::vector<int> tb = delivered_tags(b, 0, 200);
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.counts().drops, b.counts().drops);
  EXPECT_GT(a.counts().drops, 0u);
  EXPECT_LT(a.counts().drops, 200u);
}

TEST(FaultInjector, DifferentSeedDifferentSequence) {
  fault::Plan p1, p2;
  p1.drop = p2.drop = 0.5;
  p1.seed = 1;
  p2.seed = 2;
  fault::Injector a(p1, 2);
  fault::Injector b(p2, 2);
  EXPECT_NE(delivered_tags(a, 0, 200), delivered_tags(b, 0, 200));
}

TEST(FaultInjector, DuplicatesDeliverTwice) {
  fault::Plan plan;
  plan.dup = 1.0;
  fault::Injector inj(plan, 1);
  EXPECT_EQ(delivered_tags(inj, 0, 3), (std::vector<int>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(inj.counts().dups, 3u);
}

TEST(FaultInjector, ReorderSwapsAdjacentMessages) {
  fault::Plan plan;
  plan.reorder = 1.0;
  fault::Injector inj(plan, 1);
  // Every stash-empty send is stashed; the next send flushes it after
  // itself: pairwise swaps.
  EXPECT_EQ(delivered_tags(inj, 0, 4), (std::vector<int>{1, 0, 3, 2}));
  EXPECT_EQ(inj.counts().reorders, 2u);
}

TEST(FaultInjector, DrainFlushesStashedMessages) {
  fault::Plan plan;
  plan.reorder = 1.0;
  fault::Injector inj(plan, 2);
  vp::Message m;
  m.tag = 7;
  inj.on_send(-1, 1, std::move(m), [](vp::Message&&) { FAIL(); });
  int drained_dst = -1;
  int drained_tag = -1;
  inj.drain([&](int dst, vp::Message&& out) {
    drained_dst = dst;
    drained_tag = out.tag;
  });
  EXPECT_EQ(drained_dst, 1);
  EXPECT_EQ(drained_tag, 7);
}

TEST(FaultInjector, FailedVpLosesAllTraffic) {
  fault::Plan plan;
  plan.failed = {1};
  fault::Injector inj(plan, 3);
  EXPECT_TRUE(inj.vp_failed(1));
  EXPECT_FALSE(inj.vp_failed(0));
  EXPECT_TRUE(delivered_tags(inj, 1, 5).empty());     // to the failed VP
  EXPECT_EQ(delivered_tags(inj, 2, 5).size(), 5u);    // between healthy VPs
  vp::Message m;
  bool delivered = false;
  inj.on_send(/*src_vp=*/1, 2, std::move(m),
              [&](vp::Message&&) { delivered = true; });
  EXPECT_FALSE(delivered);  // from the failed VP
  EXPECT_TRUE(inj.drop_request(1));
  EXPECT_FALSE(inj.drop_request(2));
}

TEST(FaultMachine, FullDropNeverDelivers) {
  vp::Machine machine(2);
  fault::Plan plan;
  plan.drop = 1.0;
  machine.set_fault_plan(plan);
  ASSERT_NE(machine.faults(), nullptr);
  vp::Message m;
  m.tag = 1;
  machine.send(1, std::move(m));
  EXPECT_EQ(machine.mailbox(1).pending(), 0u);
  EXPECT_EQ(machine.faults()->counts().drops, 1u);
}

// ----------------------------------------------------- Receive deadline ----

TEST(ReceiveDeadline, TimeoutCarriesAwaitedTuple) {
  vp::Mailbox box(3);
  vp::Message pending;
  pending.cls = vp::MessageClass::DataParallel;
  pending.comm = 7;
  pending.tag = 99;  // queued but never matching
  pending.src = 0;
  box.post(std::move(pending));
  try {
    box.receive_for(vp::MessageClass::DataParallel, 7, 3, 2, 50);
    FAIL() << "expected ReceiveTimeout";
  } catch (const vp::ReceiveTimeout& e) {
    EXPECT_EQ(e.owner, 3);
    EXPECT_TRUE(e.has_detail);
    EXPECT_EQ(e.cls, vp::MessageClass::DataParallel);
    EXPECT_EQ(e.comm, 7u);
    EXPECT_EQ(e.tag, 3);
    EXPECT_EQ(e.src, 2);
    const std::string what = e.what();
    EXPECT_NE(what.find("comm=7"), std::string::npos);
    EXPECT_NE(what.find("tag=3"), std::string::npos);
    // The pending-queue snapshot names what was available but not matching.
    EXPECT_NE(what.find("1 pending"), std::string::npos);
    EXPECT_NE(what.find("tag=99"), std::string::npos);
  }
  EXPECT_EQ(box.pending(), 1u);  // the non-matching message stays queued
}

TEST(ReceiveDeadline, DeliversWhenMessageArrivesInTime) {
  vp::Mailbox box(0);
  std::thread poster([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    vp::Message m;
    m.cls = vp::MessageClass::TaskParallel;
    m.tag = 5;
    box.post(std::move(m));
  });
  vp::Message got =
      box.receive_for(vp::MessageClass::TaskParallel, 0, 5, -1, 5000);
  EXPECT_EQ(got.tag, 5);
  poster.join();
}

TEST(ReceiveDeadline, OpaquePredicateTimeoutSaysSo) {
  vp::Mailbox box(1);
  try {
    box.receive_for([](const vp::Message&) { return false; }, 30);
    FAIL() << "expected ReceiveTimeout";
  } catch (const vp::ReceiveTimeout& e) {
    EXPECT_FALSE(e.has_detail);
    EXPECT_NE(std::string(e.what()).find("opaque predicate"),
              std::string::npos);
  }
}

TEST(ReceiveDeadline, SpmdRecvTimesOutWithCommTagSrc) {
  spmd::set_recv_timeout_ms(60);
  vp::Machine machine(2);
  spmd::SpmdContext ctx(machine, /*comm=*/11, {0, 1}, /*index=*/0);
  try {
    ctx.recv_value<int>(/*src_index=*/1, /*tag=*/4);
    FAIL() << "expected ReceiveTimeout";
  } catch (const vp::ReceiveTimeout& e) {
    EXPECT_EQ(e.cls, vp::MessageClass::DataParallel);
    EXPECT_EQ(e.comm, 11u);
    EXPECT_EQ(e.tag, 4);
    EXPECT_EQ(e.src, 1);
  }
  // Restore the environment default (whatever TDP_RECV_TIMEOUT_MS says).
  spmd::set_recv_timeout_ms(-1);
  EXPECT_GE(spmd::recv_timeout_ms(), 0);
}

// -------------------------------------------- Opaque-predicate watchdog ----

TEST(WatchdogDetail, OpaqueWaitClearsStaleTuple) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "wait-state publishing compiled out (TDP_OBS_ENABLE=OFF)";
  }
  obs::set_enabled(true);
  {
    vp::Mailbox box(0);
    // Leave a stale detailed tuple in the wait state.
    EXPECT_THROW(
        box.receive_for(vp::MessageClass::DataParallel, 7, 3, 2, 20),
        vp::ReceiveTimeout);
    std::thread blocked([&box] {
      vp::Message m =
          box.receive([](const vp::Message& m) { return m.tag == 5; });
      EXPECT_EQ(m.tag, 5);
    });
    obs::VpWaitState& ws = box.wait_state();
    while (ws.blocked_since_ns.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    EXPECT_EQ(ws.wait_cls.load(std::memory_order_relaxed), -1);
    EXPECT_EQ(ws.wait_comm.load(std::memory_order_relaxed), 0u);
    EXPECT_EQ(ws.wait_tag.load(std::memory_order_relaxed), 0);
    EXPECT_EQ(ws.wait_src.load(std::memory_order_relaxed), -1);
    vp::Message release;
    release.tag = 5;
    box.post(std::move(release));
    blocked.join();
  }
  obs::set_enabled(false);
}

// ------------------------------------------------- Error propagation ----

TEST(ErrorPropagation, DoAllRethrowsFirstBodyExceptionOnJoiningThread) {
  vp::Machine machine(4);
  EXPECT_THROW(
      core::do_all(
          machine, util::iota_nodes(4),
          [](int index) -> int {
            if (index == 2) throw std::runtime_error("boom");
            return 0;
          },
          core::status_combine_max),
      std::runtime_error);
}

TEST(ErrorPropagation, ParRethrowsOnJoin) {
  pcn::ProcessGroup group;
  group.spawn([] { throw std::logic_error("bad"); });
  EXPECT_THROW(group.join(), std::logic_error);
  EXPECT_EQ(group.first_exception(), nullptr);  // join consumed it
}

TEST(ErrorPropagation, ThrowingCopyFoldsIntoStatusMerge) {
  core::Runtime rt(4);
  rt.programs().add("explode", [](spmd::SpmdContext& ctx, core::CallArgs&) {
    if (ctx.index() == 2) throw std::runtime_error("boom");
  });
  std::string error;
  const int status = rt.call(rt.all_procs(), "explode")
                         .error_message(&error)
                         .run();
  EXPECT_EQ(status, kStatusError);
  EXPECT_NE(error.find("copy 2"), std::string::npos);
  EXPECT_NE(error.find("boom"), std::string::npos);
}

TEST(ErrorPropagation, HealthyCallLeavesErrorMessageEmpty) {
  core::Runtime rt(2);
  rt.programs().add("fine", [](spmd::SpmdContext&, core::CallArgs&) {});
  std::string error = "stale";
  EXPECT_EQ(rt.call(rt.all_procs(), "fine").error_message(&error).run(),
            kStatusOk);
  EXPECT_TRUE(error.empty());
}

// The ISSUE acceptance scenario: under TDP_FAULT=drop:0.05,seed:1 an 8-VP
// distributed call returns a non-OK merged status — no hang, no
// std::terminate — and the trace shows the injected drops and resulting
// timeouts as fault.* events.
TEST(ErrorPropagation, DroppedMessagesSurfaceAsMergedErrorStatus) {
  spmd::set_recv_timeout_ms(250);
  obs::set_enabled(true);
  obs::Tracer::instance().reset();

  fault::Plan plan;
  std::string parse_error;
  ASSERT_TRUE(fault::Plan::parse("drop:0.05,seed:1", plan, parse_error));

  auto run_once = [&plan]() {
    core::Runtime rt(8);
    rt.machine().set_fault_plan(plan);
    rt.programs().add("chatty", [](spmd::SpmdContext& ctx, core::CallArgs&) {
      for (int round = 0; round < 20; ++round) ctx.barrier();
    });
    std::string error;
    const int status =
        rt.call(rt.all_procs(), "chatty").error_message(&error).run();
    EXPECT_FALSE(error.empty());
    const std::uint64_t drops = rt.machine().faults()->counts().drops;
    EXPECT_GT(drops, 0u);
    return status;
  };

  const int first = run_once();
  EXPECT_EQ(first, kStatusError);  // non-OK merged status, §4.1.2
  // Determinism: the same seed gives the same merged status again.
  EXPECT_EQ(run_once(), first);

  if (obs::kCompiledIn) {  // trace assertions need the instrumentation
    bool saw_drop = false;
    bool saw_timeout = false;
    for (const obs::EventRecord& rec : obs::Tracer::instance().snapshot()) {
      if (rec.op == obs::Op::FaultDrop) saw_drop = true;
      if (rec.op == obs::Op::FaultTimeout) saw_timeout = true;
    }
    EXPECT_TRUE(saw_drop);
    EXPECT_TRUE(saw_timeout);
  }

  obs::set_enabled(false);
  obs::Tracer::instance().reset();
  spmd::set_recv_timeout_ms(-1);
}

// ------------------------------------------------------------ Teardown ----

TEST(Teardown, MachineDestructionUnblocksProcessesCleanly) {
  std::atomic<int> scanning{0};
  pcn::ProcessGroup group;
  {
    vp::Machine machine(4);
    for (int p = 0; p < 4; ++p) {
      // Bait message so the never-matching predicate runs (inside the
      // mailbox monitor), proving the process is inside receive before the
      // machine is torn down.
      vp::Message bait;
      bait.tag = 1000 + p;
      machine.send(p, std::move(bait));
      group.spawn_on(machine, p, [&machine, &scanning, p] {
        bool counted = false;
        machine.mailbox(p).receive([&](const vp::Message&) {
          if (!counted) {
            counted = true;
            scanning.fetch_add(1);
          }
          return false;
        });
        ADD_FAILURE() << "receive returned without a matching message";
      });
    }
    while (scanning.load() < 4) std::this_thread::yield();
  }  // ~Machine closes mailboxes under load: MailboxClosed = clean shutdown
  EXPECT_NO_THROW(group.join());
}

// -------------------------------------------------------- TDP_COLL guard ----

TEST(CollEnv, AlgoFromNameValidatesValues) {
  bool known = false;
  EXPECT_EQ(spmd::coll::algo_from_name("linear", known),
            spmd::coll::Algo::Linear);
  EXPECT_TRUE(known);
  EXPECT_EQ(spmd::coll::algo_from_name("tree", known),
            spmd::coll::Algo::Tree);
  EXPECT_TRUE(known);
  EXPECT_EQ(spmd::coll::algo_from_name("butterfly", known),
            spmd::coll::Algo::Tree);
  EXPECT_FALSE(known);
}

// --------------------------------------------------------- Server retry ----

class FaultServerTest : public ::testing::Test {
 protected:
  FaultServerTest() : machine_(4), am_(machine_), servers_(machine_) {
    dist::install_array_manager(servers_, am_);
    dist::CreateArrayRequest create;
    create.type = dist::ElemType::Float64;
    create.dims = {8};
    create.processors = util::iota_nodes(4);
    create.distrib = {dist::DimSpec::block()};
    create.borders = dist::BorderSpec::none();
    auto created = std::any_cast<dist::CreateArrayReply>(
        servers_.request_wait(0, "create_array", create));
    EXPECT_EQ(created.status, Status::Ok);
    id_ = created.id;
  }

  vp::Machine machine_;
  dist::ArrayManager am_;
  vp::ServerSystem servers_;
  dist::ArrayId id_;
};

TEST_F(FaultServerTest, SectionRoundTripWithoutFaults) {
  // 8 elements over 4 procs: shard 1 (elements 2..3) lives on processor 1.
  vp::Payload section;
  ASSERT_EQ(dist::read_shard_request(servers_, 1, id_, 1, section),
            Status::Ok);
  ASSERT_EQ(section.size(), 2 * sizeof(double));
  std::vector<double> values{3.5, -1.25};
  ASSERT_EQ(dist::write_shard_request(
                servers_, 1, id_, 1,
                vp::Payload::copy_of(std::as_bytes(std::span<const double>(
                    values)))),
            Status::Ok);
  ASSERT_EQ(dist::read_shard_request(servers_, 1, id_, 1, section),
            Status::Ok);
  const double* d = reinterpret_cast<const double*>(section.data());
  EXPECT_DOUBLE_EQ(d[0], 3.5);
  EXPECT_DOUBLE_EQ(d[1], -1.25);
}

TEST_F(FaultServerTest, RetryExhaustionUnderFullDropReportsError) {
  fault::Plan plan;
  plan.drop = 1.0;
  machine_.set_fault_plan(plan);
  dist::RetryPolicy policy;
  policy.timeout_ms = 20;
  policy.max_attempts = 3;
  policy.backoff_ms = 1;
  vp::Payload section;
  EXPECT_EQ(dist::read_shard_request(servers_, 1, id_, 1, section, policy),
            Status::Error);
  // All three attempts were dropped in transit, none serviced.
  EXPECT_EQ(machine_.faults()->counts().request_drops, 3u);
  machine_.set_fault_plan(fault::Plan{});  // deactivate before teardown
}

TEST_F(FaultServerTest, FailedProcessorLosesOnlyItsRequests) {
  fault::Plan plan;
  plan.failed = {2};
  machine_.set_fault_plan(plan);
  dist::RetryPolicy policy;
  policy.timeout_ms = 20;
  policy.max_attempts = 2;
  policy.backoff_ms = 1;
  vp::Payload section;
  EXPECT_EQ(dist::read_shard_request(servers_, 2, id_, 2, section, policy),
            Status::Error);
  EXPECT_EQ(dist::read_shard_request(servers_, 1, id_, 1, section, policy),
            Status::Ok);
  machine_.set_fault_plan(fault::Plan{});
}

}  // namespace
}  // namespace tdp
