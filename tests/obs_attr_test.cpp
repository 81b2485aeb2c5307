// Tests for per-call latency attribution (obs/attr): the sharded call
// ledger, the slow-call exemplar reservoir and its ring-subtree snapshots,
// the exemplar JSON round trip consumed by `tdp_trace why`, and the
// end-to-end feed from core::DistributedCall / core::do_all.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/call_args.hpp"
#include "core/do_all.hpp"
#include "core/runtime.hpp"
#include "obs/analyze.hpp"
#include "obs/attr.hpp"
#include "obs/expose.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/node_array.hpp"

namespace tdp::obs {
namespace {

class ObsAttrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "obs compiled out (TDP_OBS_ENABLE=OFF)";
    set_enabled(true);
    Tracer::instance().reset(1 << 12);
    Registry::instance().reset_values();
    CallTable::instance().reset_for_test();
  }
  void TearDown() override {
    if (!kCompiledIn) return;
    CallTable::instance().reset_for_test();
    Tracer::instance().reset();
    Registry::instance().reset_values();
    set_enabled(false);
  }
};

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST_F(ObsAttrTest, LedgerAccumulatesPhasesAndCapturesExemplar) {
  CallTable& t = CallTable::instance();
  // Threshold far above the call's latency: the capture below is a
  // reservoir-fill admission, not an over-threshold one.
  t.set_slow_threshold_ms(60000);

  t.call_begin(42, CallKind::Call, 3);
  t.add_marshal(42, 1000);
  t.add_exec(42, 5000);
  t.add_exec(42, 7000);
  t.on_delivery(42, /*queue_ns=*/200, /*bytes=*/64, /*blocked_ns=*/3000);
  t.on_delivery(42, /*queue_ns=*/300, /*bytes=*/32, /*blocked_ns=*/0);
  t.add_statement(42);
  t.call_end(42);

  EXPECT_EQ(t.started(), 1u);
  EXPECT_EQ(t.completed(), 1u);
  EXPECT_EQ(t.captured(), 1u);

  const std::vector<ExemplarSummary> ex = t.exemplar_summaries();
  ASSERT_EQ(ex.size(), 1u);
  EXPECT_EQ(ex[0].call.id, 42u);
  EXPECT_EQ(ex[0].call.kind, CallKind::Call);
  EXPECT_EQ(ex[0].call.copies, 3);
  EXPECT_FALSE(ex[0].over_threshold);
  const CallPhases& p = ex[0].call.phases;
  EXPECT_EQ(p.marshal_ns, 1000u);
  EXPECT_EQ(p.queue_ns, 500u);
  EXPECT_EQ(p.blocked_ns, 3000u);
  EXPECT_EQ(p.exec_ns, 12000u);
  EXPECT_EQ(p.compute_ns(), 9000u);  // exec minus blocked
  EXPECT_EQ(p.copy_bytes, 96u);
  EXPECT_EQ(p.messages, 2u);
  EXPECT_EQ(p.dp_statements, 1u);
  EXPECT_GT(ex[0].call.latency_ns(), 0u);

  // call_end folded the latency into the histogram.
  EXPECT_EQ(Registry::instance().histogram("call.latency_ns").count(), 1u);
}

TEST_F(ObsAttrTest, NoCaptureWhenThresholdUnarmed) {
  CallTable& t = CallTable::instance();
  t.set_slow_threshold_ms(0);  // capture off; ledger + histogram still run

  t.call_begin(7, CallKind::Call, 2);
  t.add_exec(7, 4000);
  t.call_end(7);

  EXPECT_EQ(t.completed(), 1u);
  EXPECT_EQ(t.captured(), 0u);
  EXPECT_TRUE(t.exemplar_summaries().empty());
  EXPECT_EQ(Registry::instance().histogram("call.latency_ns").count(), 1u);
}

TEST_F(ObsAttrTest, UnknownIdsAreNoOps) {
  CallTable& t = CallTable::instance();
  t.set_slow_threshold_ms(1);
  // No call_begin: every feed is a hash miss and nothing else.
  t.add_marshal(999, 1000);
  t.add_exec(999, 1000);
  t.on_delivery(999, 1, 1, 1);
  t.add_statement(999);
  t.call_end(999);
  t.call_end(0);  // the "obs disabled at mint time" sentinel

  EXPECT_EQ(t.started(), 0u);
  EXPECT_EQ(t.completed(), 0u);
  EXPECT_EQ(t.captured(), 0u);
  EXPECT_EQ(Registry::instance().histogram("call.latency_ns").count(), 0u);
}

TEST_F(ObsAttrTest, ReservoirCooldownAndOverThresholdCapture) {
  CallTable& t = CallTable::instance();
  t.set_slow_threshold_ms(60000);

  // Two fast under-threshold calls back to back: both are reservoir-fill
  // admissions, but the second lands inside the 1 s capture cooldown.
  t.call_begin(1, CallKind::Call, 1);
  t.call_end(1);
  t.call_begin(2, CallKind::Call, 1);
  t.call_end(2);
  EXPECT_EQ(t.completed(), 2u);
  EXPECT_EQ(t.captured(), 1u);
  EXPECT_EQ(t.exemplar_summaries().size(), 1u);

  // Over-threshold calls are never rate-limited.
  t.set_slow_threshold_ms(1);
  for (std::uint64_t id = 3; id <= 4; ++id) {
    t.call_begin(id, CallKind::Call, 1);
    sleep_ms(2);
    t.call_end(id);
  }
  EXPECT_EQ(t.captured(), 3u);
  const std::vector<ExemplarSummary> ex = t.exemplar_summaries();
  ASSERT_EQ(ex.size(), 3u);
  // Slowest first: the 2 ms calls outrank the microsecond one.
  EXPECT_TRUE(ex[0].over_threshold);
  EXPECT_GE(ex[0].call.latency_ns(), ex[1].call.latency_ns());
  EXPECT_GE(ex[1].call.latency_ns(), ex[2].call.latency_ns());
  EXPECT_FALSE(ex[2].over_threshold);
}

TEST_F(ObsAttrTest, ExemplarSnapshotsOnlyTheCallsSubtree) {
  Tracer::instance().reset(256);
  CallTable& t = CallTable::instance();
  t.set_slow_threshold_ms(1);

  t.call_begin(5, CallKind::Call, 1);
  // Interleave ring traffic for the tracked call with a neighbour's.
  for (int i = 0; i < 10; ++i) {
    instant(Op::MsgSend, /*comm=*/(i % 2 == 0) ? 5u : 6u, /*arg0=*/8);
  }
  sleep_ms(2);
  t.call_end(5);

  ASSERT_EQ(t.captured(), 1u);
  const std::vector<Exemplar> ex = t.exemplars();
  ASSERT_EQ(ex.size(), 1u);
  EXPECT_EQ(ex[0].subtree_events, 5u);
  EXPECT_EQ(ex[0].captured_events, 5u);
  ASSERT_EQ(ex[0].events.size(), 5u);
  for (const EventRecord& e : ex[0].events) {
    EXPECT_EQ(e.comm, 5u);
  }
}

TEST_F(ObsAttrTest, ExemplarJsonRoundTripsAndWhyReportRenders) {
  Tracer::instance().reset(256);
  CallTable& t = CallTable::instance();
  t.set_slow_threshold_ms(1);

  t.call_begin(11, CallKind::DoAll, 2);
  instant(Op::DoAllCopy, /*comm=*/11);
  t.add_exec(11, 4000000);
  t.on_delivery(11, /*queue_ns=*/1000000, /*bytes=*/256,
                /*blocked_ns=*/500000);
  sleep_ms(2);
  t.call_end(11);
  ASSERT_EQ(t.captured(), 1u);

  std::istringstream doc(t.render_exemplars_json());
  std::vector<CallExemplar> loaded;
  std::string error;
  std::uint64_t slow_ms = 0;
  ASSERT_TRUE(load_exemplars(doc, loaded, &error, &slow_ms)) << error;
  EXPECT_EQ(slow_ms, 1u);
  ASSERT_EQ(loaded.size(), 1u);
  const CallExemplar& ex = loaded[0];
  EXPECT_EQ(ex.call_id, 11u);
  EXPECT_EQ(ex.kind, "do_all");
  EXPECT_EQ(ex.copies, 2);
  EXPECT_TRUE(ex.over_threshold);
  EXPECT_EQ(ex.exec_ns, 4000000u);
  EXPECT_EQ(ex.queue_ns, 1000000u);
  EXPECT_EQ(ex.blocked_ns, 500000u);
  EXPECT_EQ(ex.compute_ns, 3500000u);
  EXPECT_EQ(ex.copy_bytes, 256u);
  EXPECT_EQ(ex.messages, 1u);
  EXPECT_GE(ex.latency_ns, 2000000u);
  EXPECT_EQ(ex.captured_events, 1u);
  ASSERT_EQ(ex.events.size(), 1u);

  std::ostringstream report;
  write_why_report(report, ex);
  const std::string text = report.str();
  EXPECT_NE(text.find("tdp_trace why: do_all 11"), std::string::npos) << text;
  EXPECT_NE(text.find("over TDP_OBS_SLOW_MS"), std::string::npos);
  EXPECT_NE(text.find("queue wait"), std::string::npos);
  EXPECT_NE(text.find("blocked recv"), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
}

TEST_F(ObsAttrTest, TelemetrySurfacesExposeSlowCalls) {
  CallTable& t = CallTable::instance();
  t.set_slow_threshold_ms(1);
  t.call_begin(21, CallKind::Call, 1);
  sleep_ms(2);
  t.call_end(21);
  ASSERT_EQ(t.captured(), 1u);

  Telemetry& tel = Telemetry::instance();
  tel.sample_now();
  tel.sample_now();

  // Prometheus: the p99 latency line carries an OpenMetrics exemplar
  // annotation pointing at the slowest retained call.
  const std::string prom = tel.render_prometheus();
  EXPECT_NE(prom.find("tdp_call_latency_ns{quantile=\"0.99\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# {call_id=\"21\"}"), std::string::npos) << prom;
  EXPECT_NE(prom.find("tdp_call_exemplars_captured 1"), std::string::npos);

  // JSON: the `slow` section summarises the retained exemplars.
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(tel.render_json(), doc, &error)) << error;
  const json::Value* slow = doc.find("slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->num_or("threshold_ms", -1), 1.0);
  EXPECT_EQ(slow->num_or("captured", -1), 1.0);
  const json::Value* calls = slow->find("calls");
  ASSERT_NE(calls, nullptr);
  ASSERT_EQ(calls->array.size(), 1u);
  EXPECT_EQ(calls->array[0].num_or("call_id", -1), 21.0);

  // The exposition verb returns the full document tdp_trace can read back.
  std::istringstream reply(ExpositionServer::respond("slow"));
  std::vector<CallExemplar> loaded;
  ASSERT_TRUE(load_exemplars(reply, loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].call_id, 21u);

  EXPECT_NE(ExpositionServer::respond("bogus").find(
                "metrics, json, slow, or dump"),
            std::string::npos);
}

TEST_F(ObsAttrTest, DistributedCallFeedsTheLedgerEndToEnd) {
  Tracer::instance().reset(1 << 10);
  CallTable& t = CallTable::instance();
  t.set_slow_threshold_ms(60000);
  {
    core::Runtime rt(4);
    // The barrier makes the copies exchange real messages stamped with the
    // call's comm — the mailbox path the delivery attribution hangs off.
    rt.programs().add("sync",
                      [](spmd::SpmdContext& ctx, core::CallArgs&) {
                        ctx.barrier();
                      });
    EXPECT_EQ(rt.call(rt.all_procs(), "sync").run(), 0);
    // Quiet the Runtime destructor's shutdown trace flush.
    set_enabled(false);
  }
  set_enabled(true);

  EXPECT_EQ(t.started(), 1u);
  EXPECT_EQ(t.completed(), 1u);
  ASSERT_EQ(t.captured(), 1u);
  const std::vector<ExemplarSummary> ex = t.exemplar_summaries();
  ASSERT_EQ(ex.size(), 1u);
  EXPECT_EQ(ex[0].call.kind, CallKind::Call);
  EXPECT_EQ(ex[0].call.copies, 4);
  EXPECT_GT(ex[0].call.phases.exec_ns, 0u);
  EXPECT_GT(ex[0].call.phases.messages, 0u);
  EXPECT_GT(ex[0].call.latency_ns(), 0u);
  // The snapshot found the call's spans in the ring.
  EXPECT_GT(ex[0].captured_events, 0u);
}

TEST_F(ObsAttrTest, DoAllMintsACallRootAndCompletesIt) {
  CallTable& t = CallTable::instance();
  t.set_slow_threshold_ms(60000);
  vp::Machine machine(3);
  const int status = core::do_all(
      machine, util::iota_nodes(3),
      [](int index) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return index;
      },
      core::status_combine_max);
  EXPECT_EQ(status, 2);

  EXPECT_EQ(t.started(), 1u);
  EXPECT_EQ(t.completed(), 1u);
  const std::vector<ExemplarSummary> ex = t.exemplar_summaries();
  ASSERT_EQ(ex.size(), 1u);
  EXPECT_EQ(ex[0].call.kind, CallKind::DoAll);
  EXPECT_EQ(ex[0].call.copies, 3);
  EXPECT_GT(ex[0].call.phases.exec_ns, 0u);
}

}  // namespace
}  // namespace tdp::obs
