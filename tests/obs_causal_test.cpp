// Causal flow tracing, the trace analyzer, and the stall watchdog.
//
// The flow contract: every message send stamps a process-unique flow id
// into the envelope, the matching receive recovers it, and the exporter
// emits the pair as Chrome flow events — every "s" has exactly one "f",
// even when selective receive delivers messages out of arrival order under
// contention.  The analyzer contract: the critical path it reports for a
// distributed call is a causally-connected chain (each link follows a
// recorded spawn/message/join edge, not a timestamp guess).  The stall
// contract: a deadlocked selective receive produces a diagnosis naming the
// blocked VP, what it waits for, and what its mailbox holds instead.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "obs/analyze.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "spmd/context.hpp"
#include "vp/machine.hpp"

namespace {

using namespace tdp;

class ObsCausalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kCompiledIn) GTEST_SKIP() << "built with TDP_OBS_DISABLED";
    obs::set_enabled(true);
    obs::Tracer::instance().reset(1 << 14);
    obs::Registry::instance().reset_values();
  }
  void TearDown() override {
    if (!obs::kCompiledIn) return;
    obs::Telemetry::instance().set_report_sink(nullptr);
    obs::set_enabled(false);
    obs::Tracer::instance().reset();
    obs::Registry::instance().reset_values();
  }
};

// --- Flow pairing. ----------------------------------------------------------

TEST_F(ObsCausalTest, EveryFlowStartHasExactlyOneFinishAcrossARealRun) {
  // Runtime teardown flushes the trace when obs is on; keep it off disk.
  ::setenv("TDP_OBS_TRACE", "/dev/null", 1);
  {
    core::Runtime rt(4);
    rt.programs().add("ring", [](spmd::SpmdContext& ctx, core::CallArgs&) {
      // One full circulation: every copy both sends and selectively
      // receives, so the trace holds message flows from every VP.
      const int n = ctx.nprocs();
      const int next = (ctx.index() + 1) % n;
      const int prev = (ctx.index() + n - 1) % n;
      ctx.send_value<int>(next, 1, ctx.index());
      const int got = ctx.recv_value<int>(prev, 1);
      EXPECT_EQ(got, prev);
      ctx.barrier();
    });
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(rt.call(rt.all_procs(), "ring").run(), 0);
    }
  }
  ::unsetenv("TDP_OBS_TRACE");

  std::ostringstream out;
  obs::write_chrome_trace(out);
  std::istringstream in(out.str());
  std::vector<obs::LoadedEvent> events;
  std::string error;
  ASSERT_TRUE(obs::load_chrome_trace(in, events, &error)) << error;

  std::map<std::uint64_t, int> starts, finishes;
  for (const obs::LoadedEvent& e : events) {
    if (e.ph == "s") ++starts[e.id];
    if (e.ph == "f") ++finishes[e.id];
  }
  // Ring traffic plus call-phase chains: plenty of arrows.
  ASSERT_GE(starts.size(), 12u);
  for (const auto& [id, count] : starts) {
    EXPECT_EQ(count, 1) << "duplicate flow start id=" << id;
    EXPECT_EQ(finishes.count(id), 1u) << "dangling flow start id=" << id;
  }
  for (const auto& [id, count] : finishes) {
    EXPECT_EQ(count, 1) << "duplicate flow finish id=" << id;
    EXPECT_EQ(starts.count(id), 1u) << "dangling flow finish id=" << id;
  }
  const obs::TraceReport report = obs::analyze_trace(events);
  EXPECT_EQ(report.unmatched_flows, 0u);
  EXPECT_EQ(report.flow_pairs, starts.size());
}

TEST_F(ObsCausalTest, PairingSurvivesSelectiveReceiveReorderingUnderContention) {
  constexpr int kTags = 4;
  constexpr int kPerTag = 32;
  vp::Machine machine(2);

  // Contending senders, one per tag, all racing into mailbox 1.
  std::vector<std::thread> senders;
  for (int tag = 0; tag < kTags; ++tag) {
    senders.emplace_back([&machine, tag] {
      obs::set_current_vp(0);
      for (int k = 0; k < kPerTag; ++k) {
        vp::Message m;
        m.cls = vp::MessageClass::DataParallel;
        m.comm = 9;
        m.tag = tag;
        m.src = 0;
        m.payload = vp::Payload::zeros(static_cast<std::size_t>(tag) + 1);
        machine.send(1, std::move(m));
      }
      obs::set_current_vp(-1);
    });
  }

  // The receiver drains tags in DESCENDING order, so early-arriving low
  // tags sit queued while later-arriving high tags overtake them — the
  // §3.4.1 selective-receive reordering.
  std::map<std::uint64_t, int> tag_by_flow;
  for (int tag = kTags - 1; tag >= 0; --tag) {
    for (int k = 0; k < kPerTag; ++k) {
      const vp::Message m =
          machine.mailbox(1).receive(vp::MessageClass::DataParallel, 9, tag, 0);
      ASSERT_NE(m.flow, 0u);
      ASSERT_EQ(tag_by_flow.count(m.flow), 0u) << "flow id reused";
      tag_by_flow[m.flow] = m.tag;
    }
  }
  for (auto& t : senders) t.join();

  // Every delivered envelope pairs with exactly the send that produced it:
  // the send instant carrying the same flow id also carries the same tag.
  std::map<std::uint64_t, std::uint64_t> sent_tag_by_flow;
  for (const obs::EventRecord& e : obs::Tracer::instance().snapshot()) {
    if (e.op == obs::Op::MsgSend && e.kind == obs::EventKind::Instant) {
      EXPECT_EQ(sent_tag_by_flow.count(e.flow), 0u);
      sent_tag_by_flow[e.flow] = e.arg1;
    }
  }
  ASSERT_EQ(tag_by_flow.size(), static_cast<std::size_t>(kTags * kPerTag));
  ASSERT_EQ(sent_tag_by_flow.size(), tag_by_flow.size());
  for (const auto& [flow, tag] : tag_by_flow) {
    ASSERT_EQ(sent_tag_by_flow.count(flow), 1u);
    EXPECT_EQ(sent_tag_by_flow[flow], static_cast<std::uint64_t>(tag))
        << "flow " << flow << " paired a tag-" << tag
        << " receive with a different send";
  }
}

// --- Watchdog. --------------------------------------------------------------

TEST_F(ObsCausalTest, WatchdogFlagsDeadlockedSelectiveReceivePair) {
  std::mutex mu;
  std::vector<std::string> reports;
  obs::Telemetry::instance().set_report_sink([&](const std::string& r) {
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(r);
  });

  {
    vp::Machine machine(2);  // registers both mailboxes with the sampler
    obs::Telemetry::instance().start(0, 25);
    ASSERT_TRUE(obs::Telemetry::instance().running());

    // The classic crossed wait: vp0 wants tag 1 from vp1, vp1 wants tag 2
    // from vp0, and neither send ever happens.  vp0's mailbox additionally
    // holds a non-matching message — present, but not what it waits for.
    {
      vp::Message noise;
      noise.cls = vp::MessageClass::DataParallel;
      noise.comm = 7;
      noise.tag = 9;
      noise.src = 1;
      noise.payload = vp::Payload::zeros(4);
      machine.send(0, std::move(noise));
    }
    std::thread blocked0([&machine] {
      const vp::Message m =
          machine.mailbox(0).receive(vp::MessageClass::DataParallel, 7, 1, 1);
      EXPECT_EQ(m.tag, 1);
    });
    std::thread blocked1([&machine] {
      const vp::Message m =
          machine.mailbox(1).receive(vp::MessageClass::DataParallel, 7, 2, 0);
      EXPECT_EQ(m.tag, 2);
    });

    std::string report;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!reports.empty()) {
          report = reports.front();
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_FALSE(report.empty()) << "sampler never reported the deadlock";
    EXPECT_NE(report.find("no progress"), std::string::npos) << report;
    EXPECT_NE(report.find("2 of 2 VPs blocked"), std::string::npos) << report;
    EXPECT_NE(report.find("vp0"), std::string::npos) << report;
    EXPECT_NE(report.find("vp1"), std::string::npos) << report;
    // What vp0 waits for...
    EXPECT_NE(report.find("comm=7, tag=1, src=1"), std::string::npos)
        << report;
    // ...and what its mailbox holds instead.
    EXPECT_NE(report.find("tag=9"), std::string::npos) << report;

    // Resolve the deadlock so teardown is clean.
    vp::Message m0;
    m0.cls = vp::MessageClass::DataParallel;
    m0.comm = 7;
    m0.tag = 1;
    m0.src = 1;
    machine.send(0, std::move(m0));
    vp::Message m1;
    m1.cls = vp::MessageClass::DataParallel;
    m1.comm = 7;
    m1.tag = 2;
    m1.src = 0;
    machine.send(1, std::move(m1));
    blocked0.join();
    blocked1.join();
  }
  // The machine's destructor removed the last sources, which stops the
  // sampling thread — no dangling VpWaitState pointers.
  EXPECT_FALSE(obs::Telemetry::instance().running());
}

// --- Analyzer. --------------------------------------------------------------

TEST_F(ObsCausalTest, SyntheticTraceYieldsCausallyConnectedCriticalPath) {
  // A hand-built two-VP call with a known causal structure:
  //   marshal(ext) -spawn-> execute(vp0) -msg flow 77-> execute(vp1)
  //   -join-> combine(ext)
  // vp1 finishes last, so the causal chain must route through the message
  // vp0 sent at ts=60, NOT simply pick spans by timestamp.
  const std::string json = R"({"traceEvents":[
{"name":"call.marshal","cat":"call","ph":"X","pid":1,"tid":1000000,"ts":0,"dur":10,"args":{"comm":5,"arg0":0,"arg1":0}},
{"name":"call.execute","cat":"call","ph":"X","pid":1,"tid":0,"ts":20,"dur":100,"args":{"comm":5,"arg0":0,"arg1":0}},
{"name":"vp.send","cat":"vp","ph":"i","s":"t","pid":1,"tid":0,"ts":60,"args":{"comm":5,"arg0":1,"arg1":3,"flow":77}},
{"name":"call.execute","cat":"call","ph":"X","pid":1,"tid":1,"ts":30,"dur":150,"args":{"comm":5,"arg0":1,"arg1":0}},
{"name":"vp.recv","cat":"vp","ph":"X","pid":1,"tid":1,"ts":40,"dur":60,"args":{"comm":5,"arg0":1,"arg1":4,"flow":77}},
{"name":"vp.msg","cat":"flow","ph":"s","id":77,"pid":1,"tid":0,"ts":60,"args":{"comm":5}},
{"name":"vp.msg","cat":"flow","ph":"f","bp":"e","id":77,"pid":1,"tid":1,"ts":100,"args":{"comm":5}},
{"name":"call.combine","cat":"call","ph":"X","pid":1,"tid":1000000,"ts":200,"dur":20,"args":{"comm":5,"arg0":0,"arg1":0}}
],"displayTimeUnit":"ms"})";

  std::istringstream in(json);
  std::vector<obs::LoadedEvent> events;
  std::string error;
  ASSERT_TRUE(obs::load_chrome_trace(in, events, &error)) << error;
  ASSERT_EQ(events.size(), 8u);  // thread_name metadata would be skipped

  const obs::TraceReport report = obs::analyze_trace(events);
  EXPECT_EQ(report.flow_pairs, 1u);
  EXPECT_EQ(report.unmatched_flows, 0u);

  ASSERT_EQ(report.calls.size(), 1u);
  const obs::CallStats& call = report.calls[0];
  EXPECT_EQ(call.comm, 5u);
  EXPECT_EQ(call.copies, 2);
  EXPECT_DOUBLE_EQ(call.makespan_us, 220.0);

  ASSERT_EQ(call.critical_path.size(), 4u);
  EXPECT_EQ(call.critical_path[0].name, "call.marshal");
  EXPECT_EQ(call.critical_path[0].via, "spawn");
  EXPECT_EQ(call.critical_path[1].name, "call.execute");
  EXPECT_EQ(call.critical_path[1].tid, 0);
  EXPECT_EQ(call.critical_path[1].via, "msg tag=3 vp0->vp1");
  EXPECT_EQ(call.critical_path[2].name, "call.execute");
  EXPECT_EQ(call.critical_path[2].tid, 1);
  EXPECT_EQ(call.critical_path[2].via, "join");
  EXPECT_EQ(call.critical_path[3].name, "call.combine");
  EXPECT_TRUE(call.critical_path[3].via.empty());
  // Union of [0,10] [20,120]∪[30,180]=[20,180] [200,220] = 10+160+20.
  EXPECT_DOUBLE_EQ(call.path_us, 190.0);
  EXPECT_LE(call.path_us, call.makespan_us);

  // Blocking breakdown from known intervals: vp1 was active 150us of
  // which 60us blocked in receive.
  const obs::VpStats* vp1 = nullptr;
  for (const obs::VpStats& v : report.vps) {
    if (v.tid == 1) vp1 = &v;
  }
  ASSERT_NE(vp1, nullptr);
  EXPECT_DOUBLE_EQ(vp1->active_us, 150.0);
  EXPECT_DOUBLE_EQ(vp1->recv_wait_us, 60.0);
  EXPECT_DOUBLE_EQ(vp1->compute_us, 90.0);
  EXPECT_EQ(vp1->recv_count, 1u);

  // The report renders without surprises.
  std::ostringstream rendered;
  obs::write_report(rendered, report);
  EXPECT_NE(rendered.str().find("msg tag=3 vp0->vp1"), std::string::npos)
      << rendered.str();
  EXPECT_NE(rendered.str().find("call comm=5"), std::string::npos);
}

TEST_F(ObsCausalTest, LoaderRejectsMalformedInput) {
  std::vector<obs::LoadedEvent> events;
  std::string error;
  std::istringstream truncated(R"({"traceEvents":[{"name":"x")");
  EXPECT_FALSE(obs::load_chrome_trace(truncated, events, &error));
  EXPECT_FALSE(error.empty());

  std::istringstream wrong_shape(R"({"otherKey":1})");
  error.clear();
  EXPECT_FALSE(obs::load_chrome_trace(wrong_shape, events, &error));
  EXPECT_NE(error.find("traceEvents"), std::string::npos);
}

}  // namespace
