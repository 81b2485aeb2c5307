// tdp::obs flight recorder + telemetry plane.
//
// Contracts under test: the ring keeps exactly the most recent events and
// counts displaced ones; the shared JSON module round-trips everything the
// exporters emit (escape → parse is identity, the Chrome trace and the
// telemetry dump both parse cleanly); the sampler derives windowed rates
// and bucket-delta percentiles from the registry; the exposition server
// answers the metrics/json/dump protocol over a real socket; and a stall
// detected by the same sampler auto-dumps a readable trace file.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/attr.hpp"
#include "obs/export.hpp"
#include "obs/expose.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "vp/machine.hpp"

namespace {

using namespace tdp;

class ObsTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kCompiledIn) GTEST_SKIP() << "built with TDP_OBS_DISABLED";
    obs::set_enabled(true);
    obs::Tracer::instance().reset(1 << 10);
    obs::Registry::instance().reset_values();
    obs::Telemetry::instance().stop();
    // Also forgets the last stall auto-dump, so an earlier test's dump
    // does not put this one's stall inside the cooldown window.
    obs::Telemetry::instance().reset_for_test();
    obs::CallTable::instance().reset_for_test();
  }
  void TearDown() override {
    if (!obs::kCompiledIn) return;
    obs::ExpositionServer::instance().stop();
    obs::Telemetry::instance().stop();
    obs::Telemetry::instance().reset_for_test();
    obs::CallTable::instance().reset_for_test();
    obs::Telemetry::instance().set_report_sink(nullptr);
    obs::Tracer::instance().reset();
    obs::Registry::instance().reset_values();
    obs::set_enabled(false);
    ::unsetenv("TDP_OBS_DUMP");
    // Swallow any dump request a test armed but never serviced.
    obs::service_flight_dump_request();
  }

  static obs::EventRecord make_event(std::uint64_t ts, std::uint64_t arg0) {
    obs::EventRecord rec;
    rec.ts_ns = ts;
    rec.op = obs::Op::MsgSend;
    rec.kind = obs::EventKind::Instant;
    rec.arg0 = arg0;
    rec.vp = 3;
    return rec;
  }
};

// --- flight-recorder ring --------------------------------------------------

TEST_F(ObsTelemetryTest, RingKeepsMostRecentAndCountsOverwritten) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset(16);  // single emitting shard (vp 3): 16 live slots

  for (std::uint64_t i = 0; i < 40; ++i) {
    tracer.emit(make_event(i + 1, i));
  }
  EXPECT_EQ(tracer.recorded(), 40u);
  EXPECT_EQ(tracer.overwritten(), 24u);

  const std::vector<obs::EventRecord> snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 16u);
  // Oldest-first, and exactly the last 16 emitted (arg0 24..39).
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].arg0, 24u + i);
  }
}

TEST_F(ObsTelemetryTest, RingSnapshotIsSafeAgainstLiveEmitters) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset(64);

  std::atomic<bool> stop{false};
  std::thread emitter([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++i;
      tracer.emit(make_event(i, i));
    }
  });
  for (int round = 0; round < 50; ++round) {
    const std::vector<obs::EventRecord> snap = tracer.snapshot();
    // Within one shard the snapshot must be a contiguous run of the
    // sequence: strictly increasing arg0 with no gaps.
    for (std::size_t i = 1; i < snap.size(); ++i) {
      ASSERT_EQ(snap[i].arg0, snap[i - 1].arg0 + 1);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  emitter.join();
}

// --- shared JSON module ----------------------------------------------------

TEST_F(ObsTelemetryTest, JsonEscapeParseRoundTrip) {
  const std::string nasty =
      "quote\" backslash\\ newline\n tab\t ctrl\x01 utf8 \xc3\xa9 end";
  const std::string doc = "{\"s\":\"" + obs::json::escape(nasty) + "\"}";
  obs::json::Value v;
  std::string error;
  ASSERT_TRUE(obs::json::parse(doc, v, &error)) << error;
  EXPECT_EQ(v.str_or("s"), nasty);
}

TEST_F(ObsTelemetryTest, JsonParseRejectsMalformedAndTrailingGarbage) {
  obs::json::Value v;
  std::string error;
  EXPECT_FALSE(obs::json::parse("{\"a\":", v, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(obs::json::parse("{} trailing", v, &error));
  EXPECT_FALSE(obs::json::parse("[1, 2", v, &error));
  EXPECT_TRUE(obs::json::parse("{\"n\":-12.5e2,\"b\":true,\"x\":null}", v,
                               &error))
      << error;
  EXPECT_DOUBLE_EQ(v.num_or("n", 0.0), -1250.0);
}

TEST_F(ObsTelemetryTest, ChromeTraceParsesCleanlyWithMeta) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset(8);
  for (std::uint64_t i = 0; i < 20; ++i) tracer.emit(make_event(i + 1, i));

  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string text = out.str();

  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(text, doc, &error)) << error;
  ASSERT_NE(doc.find("traceEvents"), nullptr);

  // And the analyzer reads back the truncation sidecar.
  std::istringstream in(text);
  std::vector<obs::LoadedEvent> events;
  obs::TraceMeta meta;
  ASSERT_TRUE(obs::load_chrome_trace(in, events, &error, &meta)) << error;
  EXPECT_TRUE(meta.present);
  EXPECT_EQ(meta.recorded, 20u);
  EXPECT_EQ(meta.overwritten, 12u);
  EXPECT_TRUE(meta.truncated());
}

// --- telemetry sampler -----------------------------------------------------

TEST_F(ObsTelemetryTest, SamplerDerivesCounterRatesAndWindowedPercentiles) {
  obs::Telemetry& tel = obs::Telemetry::instance();
  obs::Registry& reg = obs::Registry::instance();

  obs::Histogram& h = reg.histogram("test.lat_ns");  // exists pre-prime
  reg.counter("test.ticks").add(5);
  tel.sample_now();  // primes every track; rates are 0 on the first point

  reg.counter("test.ticks").add(1000);
  for (int i = 0; i < 100; ++i) h.record(10);  // bucket [8,15]
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tel.sample_now();

  const obs::Telemetry::Snapshot snap = tel.snapshot();
  EXPECT_EQ(snap.samples, 2u);

  bool found_counter = false;
  for (const auto& [name, point] : snap.counters) {
    if (name != "test.ticks") continue;
    found_counter = true;
    EXPECT_DOUBLE_EQ(point.value, 1005.0);
    EXPECT_GT(point.rate, 0.0);  // 1000 over a ~2 ms window
  }
  EXPECT_TRUE(found_counter);

  bool found_hist = false;
  for (const auto& row : snap.histograms) {
    if (row.name != "test.lat_ns") continue;
    found_hist = true;
    EXPECT_EQ(row.latest.count, 100u);
    EXPECT_GT(row.latest.rate, 0.0);
    // Window is 100 samples of value 10, all in bucket [8,15]:
    // p50 rank 50 → 8 + floor(0.5 * 7) = 11; p99 rank 99 → 8 + floor(6.93).
    EXPECT_EQ(row.latest.p50, 11u);
    EXPECT_EQ(row.latest.p99, 14u);
    EXPECT_EQ(row.lifetime_count, 100u);
  }
  EXPECT_TRUE(found_hist);
}

TEST_F(ObsTelemetryTest, SamplerWindowWithNoNewSamplesReadsZero) {
  obs::Telemetry& tel = obs::Telemetry::instance();
  obs::Histogram& h = obs::Registry::instance().histogram("test.idle_ns");
  for (int i = 0; i < 50; ++i) h.record(1000);
  tel.sample_now();  // primes the track (the recorded samples land here)
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tel.sample_now();  // an all-zero bucket-delta window

  const obs::Telemetry::Snapshot snap = tel.snapshot();
  bool found = false;
  for (const auto& row : snap.histograms) {
    if (row.name != "test.idle_ns") continue;
    found = true;
    EXPECT_EQ(row.latest.count, 0u);
    EXPECT_DOUBLE_EQ(row.latest.rate, 0.0);
    // An idle window's quantiles read 0, not stale lifetime values.
    EXPECT_EQ(row.latest.p50, 0u);
    EXPECT_EQ(row.latest.p99, 0u);
    EXPECT_EQ(row.lifetime_count, 50u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTelemetryTest, SamplerTracksPerVpRunFractionAndQueueDepth) {
  obs::Telemetry& tel = obs::Telemetry::instance();
  obs::VpWaitState state;
  const int token = tel.add_vp_source(5, &state);

  // Blocked since long before the window opens: the whole window is
  // blocked time, so run_frac collapses to ~0.
  state.blocked_since_ns.store(1, std::memory_order_relaxed);
  state.queue_depth.store(7, std::memory_order_relaxed);
  tel.sample_now();
  obs::Registry::instance().counter("vp.messages").add_at(5, 42);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tel.sample_now();
  // The block closes here, at the second sample: everything the test does
  // from now on belongs to the runnable window.
  const std::uint64_t now = obs::now_ns();

  const obs::Telemetry::Snapshot snap = tel.snapshot();
  bool found = false;
  for (const auto& row : snap.vps) {
    if (row.vp != 5) continue;
    found = true;
    EXPECT_EQ(row.latest.depth, 7u);
    EXPECT_TRUE(row.latest.blocked);
    EXPECT_GT(row.latest.blocked_ms, 0u);
    EXPECT_LT(row.latest.run_frac, 0.1);
    EXPECT_GT(row.latest.msg_rate, 0.0);
  }
  EXPECT_TRUE(found);

  // Close the block; a fully-runnable window reads ~1.  The window is long
  // next to the gap between the second sample and `now` (the only blocked
  // time it holds), even when a sanitizer slows every call.
  state.blocked_ns_total.fetch_add(now - 1, std::memory_order_relaxed);
  state.blocked_since_ns.store(0, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tel.sample_now();
  const obs::Telemetry::Snapshot snap2 = tel.snapshot();
  for (const auto& row : snap2.vps) {
    if (row.vp != 5) continue;
    EXPECT_FALSE(row.latest.blocked);
    EXPECT_GT(row.latest.run_frac, 0.9);
  }

  tel.remove_vp_source(token);
}

TEST_F(ObsTelemetryTest, MailboxAccumulatesBlockedTimeAcrossReceive) {
  vp::Machine machine(2);
  vp::Mailbox& box = machine.mailbox(1);
  const obs::VpWaitState& state = box.wait_state();
  ASSERT_EQ(state.blocked_ns_total.load(std::memory_order_relaxed), 0u);

  std::thread receiver([&] {
    vp::ProcScope scope(1);
    (void)box.receive(vp::MessageClass::TaskParallel, 9, 1, -1);
  });
  // Wait until the receiver is actually blocked, then let it block a bit.
  while (state.blocked_since_ns.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  {
    vp::ProcScope scope(0);
    vp::Message m;
    m.cls = vp::MessageClass::TaskParallel;
    m.comm = 9;
    m.tag = 1;
    m.src = 0;
    machine.send(1, std::move(m));
  }
  receiver.join();
  // Delivery closed the block interval into the cumulative total.
  EXPECT_EQ(state.blocked_since_ns.load(std::memory_order_relaxed), 0u);
  EXPECT_GE(state.blocked_ns_total.load(std::memory_order_relaxed),
            std::uint64_t{4} * 1000 * 1000);
}

TEST_F(ObsTelemetryTest, RenderJsonRoundTripsThroughParser) {
  obs::Telemetry& tel = obs::Telemetry::instance();
  obs::VpWaitState state;
  const int token = tel.add_vp_source(2, &state);
  obs::Registry::instance().counter("test.rt").add(3);
  obs::Registry::instance().histogram("test.rt_ns").record(100);
  tel.sample_now();
  tel.note_stall("== stall with \"quotes\" ==\nsecond line ignored");
  tel.sample_now();

  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(tel.render_json(), doc, &error)) << error;

  EXPECT_EQ(static_cast<std::uint64_t>(doc.num_or("samples", 0.0)), 2u);
  const obs::json::Value* stalls = doc.find("stalls");
  ASSERT_NE(stalls, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(stalls->num_or("count", 0.0)), 1u);
  EXPECT_EQ(stalls->str_or("last"), "== stall with \"quotes\" ==");

  const obs::json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  bool found = false;
  for (const obs::json::Value& series : counters->array) {
    if (series.str_or("name") != "test.rt") continue;
    found = true;
    const obs::json::Value* points = series.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->array.size(), 2u);
    EXPECT_DOUBLE_EQ(points->array.back().num_or("v", 0.0), 3.0);
  }
  EXPECT_TRUE(found);

  const obs::json::Value* vps = doc.find("vps");
  ASSERT_NE(vps, nullptr);
  ASSERT_EQ(vps->array.size(), 1u);
  EXPECT_EQ(static_cast<int>(vps->array[0].num_or("vp", -1.0)), 2);

  tel.remove_vp_source(token);
}

TEST_F(ObsTelemetryTest, PrometheusRenderingNamesAndLabels) {
  obs::Telemetry& tel = obs::Telemetry::instance();
  obs::VpWaitState state;
  const int token = tel.add_vp_source(4, &state);
  obs::Registry::instance().counter("test.promQ!").add(7);
  tel.sample_now();

  const std::string text = tel.render_prometheus();
  EXPECT_NE(text.find("tdp_up 1\n"), std::string::npos);
  // Metric names sanitize to [A-Za-z0-9_].
  EXPECT_NE(text.find("tdp_test_promQ__total 7\n"), std::string::npos);
  EXPECT_NE(text.find("tdp_vp_run_fraction{vp=\"4\"}"), std::string::npos);
  EXPECT_NE(text.find("tdp_vp_queue_depth{vp=\"4\"}"), std::string::npos);
  EXPECT_NE(text.find("tdp_trace_recorded"), std::string::npos);
  tel.remove_vp_source(token);
}

TEST_F(ObsTelemetryTest, PrometheusFoldsHighVpsIntoOneRow) {
  obs::Telemetry& tel = obs::Telemetry::instance();
  obs::VpWaitState low, high_a, high_b;
  const int t1 = tel.add_vp_source(3, &low);
  const int t2 = tel.add_vp_source(64, &high_a);
  const int t3 = tel.add_vp_source(200, &high_b);
  high_a.queue_depth.store(2, std::memory_order_relaxed);
  high_b.queue_depth.store(5, std::memory_order_relaxed);
  high_b.blocked_since_ns.store(1, std::memory_order_relaxed);
  tel.sample_now();

  const std::string text = tel.render_prometheus();
  EXPECT_NE(text.find("tdp_vp_run_fraction{vp=\"3\"}"), std::string::npos);
  // VPs past the cardinality bound get no individual rows...
  EXPECT_EQ(text.find("{vp=\"64\"}"), std::string::npos);
  EXPECT_EQ(text.find("{vp=\"200\"}"), std::string::npos);
  // ...they fold into one aggregate row: summed depth, blocked count.
  EXPECT_NE(text.find("tdp_vp_folded 2\n"), std::string::npos);
  EXPECT_NE(text.find("tdp_vp_queue_depth{vp=\"64+\"} 7"), std::string::npos);
  EXPECT_NE(text.find("tdp_vp_blocked{vp=\"64+\"} 1"), std::string::npos);
  // No folded message rate: vp.messages shards alias at vp mod 64, so the
  // folded delta would double-count low VPs.
  EXPECT_EQ(text.find("tdp_vp_message_rate{vp=\"64+\"}"), std::string::npos);
  tel.remove_vp_source(t1);
  tel.remove_vp_source(t2);
  tel.remove_vp_source(t3);
}

// --- flight dump -----------------------------------------------------------

TEST_F(ObsTelemetryTest, FlightDumpWritesParsableTraceAndTelemetry) {
  obs::Tracer::instance().reset(32);
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::Tracer::instance().emit(make_event(i + 1, i));
  }
  obs::Telemetry::instance().sample_now();

  const std::string prefix = ::testing::TempDir() + "tdp_flight_ut";
  ::setenv("TDP_OBS_DUMP", prefix.c_str(), 1);
  obs::request_flight_dump();
  EXPECT_TRUE(obs::service_flight_dump_request());
  EXPECT_FALSE(obs::service_flight_dump_request());  // one-shot flag

  std::ifstream trace(prefix + ".trace.json");
  ASSERT_TRUE(trace.good());
  std::vector<obs::LoadedEvent> events;
  std::string error;
  obs::TraceMeta meta;
  ASSERT_TRUE(obs::load_chrome_trace(trace, events, &error, &meta)) << error;
  EXPECT_EQ(events.size(), 10u);

  std::ifstream telemetry(prefix + ".telemetry.json");
  ASSERT_TRUE(telemetry.good());
  std::stringstream buf;
  buf << telemetry.rdbuf();
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(buf.str(), doc, &error)) << error;

  // The dump also writes the slow-call sidecar, parsable by the `why`
  // loader even when no exemplars were retained.
  std::ifstream slow(prefix + ".slow.json");
  ASSERT_TRUE(slow.good());
  std::vector<obs::CallExemplar> exemplars;
  ASSERT_TRUE(obs::load_exemplars(slow, exemplars, &error)) << error;
  EXPECT_TRUE(exemplars.empty());

  std::remove((prefix + ".trace.json").c_str());
  std::remove((prefix + ".telemetry.json").c_str());
  std::remove((prefix + ".slow.json").c_str());
}

TEST_F(ObsTelemetryTest, WatchdogStallAutoDumpsRing) {
  obs::Tracer::instance().reset(32);
  for (std::uint64_t i = 0; i < 8; ++i) {
    obs::Tracer::instance().emit(make_event(i + 1, i));
  }
  const std::string prefix = ::testing::TempDir() + "tdp_flight_stall";
  ::setenv("TDP_OBS_DUMP", prefix.c_str(), 1);

  obs::Telemetry& tel = obs::Telemetry::instance();
  std::atomic<int> reports{0};
  tel.set_report_sink([&](const std::string&) { ++reports; });

  // A permanently-blocked source with frozen progress: a stall one window
  // after the first check.
  obs::VpWaitState state;
  state.blocked_since_ns.store(1, std::memory_order_relaxed);
  const int token = tel.add_vp_source(7, &state);
  tel.start(0, 10);
  for (int i = 0; i < 200 && reports.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The sampler services the dump request it armed right after it
  // reported; the telemetry half is written strictly after the trace file
  // is complete, so its existence means the trace is safe to parse.
  bool dumped = false;
  for (int i = 0; i < 200 && !dumped; ++i) {
    dumped = std::ifstream(prefix + ".telemetry.json").good();
    if (!dumped) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  tel.remove_vp_source(token);  // stops the thread (last source out)

  EXPECT_GT(reports.load(), 0);
  ASSERT_TRUE(dumped);
  std::ifstream trace(prefix + ".trace.json");
  ASSERT_TRUE(trace.good());
  std::vector<obs::LoadedEvent> events;
  std::string error;
  ASSERT_TRUE(obs::load_chrome_trace(trace, events, &error)) << error;
  // Our 8 events plus the stall check's own WdQueued/WdBlocked counter
  // samples, all retained by the ring.
  EXPECT_GE(events.size(), 8u);

  // The stall also reached the telemetry plane.
  EXPECT_GE(obs::Telemetry::instance().snapshot().stalls, 1u);
  std::remove((prefix + ".trace.json").c_str());
  std::remove((prefix + ".telemetry.json").c_str());
  std::remove((prefix + ".slow.json").c_str());
}

TEST_F(ObsTelemetryTest, WatchdogCooldownSuppressesRepeatAutoDumps) {
  obs::Tracer::instance().reset(32);
  const std::string prefix = ::testing::TempDir() + "tdp_flight_cooldown";
  ::setenv("TDP_OBS_DUMP", prefix.c_str(), 1);

  obs::Telemetry& tel = obs::Telemetry::instance();
  std::atomic<int> reports{0};
  tel.set_report_sink([&](const std::string&) { ++reports; });
  obs::VpWaitState state;
  state.blocked_since_ns.store(1, std::memory_order_relaxed);
  const int token = tel.add_vp_source(7, &state);
  obs::ShardedCounter& suppressed =
      obs::Registry::instance().counter("watchdog.dumps_suppressed");
  const std::uint64_t suppressed0 = suppressed.value();

  tel.start(0, 5);
  for (int i = 0; i < 400 && reports.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(reports.load(), 0);
  // The first episode's dump goes through; wait for it, then clear the
  // files so a second dump would be visible.
  bool dumped = false;
  for (int i = 0; i < 400 && !dumped; ++i) {
    dumped = std::ifstream(prefix + ".telemetry.json").good();
    if (!dumped) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(dumped);
  std::remove((prefix + ".trace.json").c_str());
  std::remove((prefix + ".telemetry.json").c_str());
  std::remove((prefix + ".slow.json").c_str());

  // End the stall (one unit of progress), then freeze again: a second
  // episode well inside the cooldown window.
  const int before = reports.load();
  state.progress.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < 400 && reports.load() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(reports.load(), before);
  // Give the sampler a few more windows: it must NOT write a new dump.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  tel.remove_vp_source(token);  // stops the thread (last source out)

  EXPECT_GT(suppressed.value(), suppressed0);
  EXPECT_FALSE(std::ifstream(prefix + ".trace.json").good());
}

TEST_F(ObsTelemetryTest, StallWindowLongerThanSamplePeriodReportsOnce) {
  const std::string prefix = ::testing::TempDir() + "tdp_flight_window";
  ::setenv("TDP_OBS_DUMP", prefix.c_str(), 1);
  obs::Telemetry& tel = obs::Telemetry::instance();
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::string>> reports;  // (ns, text)
  tel.set_report_sink([&](const std::string& r) {
    std::lock_guard<std::mutex> lock(mu);
    reports.emplace_back(obs::now_ns(), r);
  });
  // The scheduler line of a stall report is rendered from the probe.
  tel.set_sched_probe([] {
    obs::Telemetry::SchedSample s;
    s.suspended = 3;
    s.worker_busy_ns = {0, 0};
    return s;
  });

  // A frozen blocked source, history every 5 ms, a 40 ms stall window.
  obs::VpWaitState state;
  state.blocked_since_ns.store(1, std::memory_order_relaxed);
  const std::uint64_t t0 = obs::now_ns();
  const int token = tel.add_vp_source(7, &state);
  tel.start(5, 40);
  const auto report_count = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return reports.size();
  };
  for (int i = 0; i < 400 && report_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Several more windows of the same frozen stall: still one episode.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::uint64_t samples = tel.snapshot().samples;
  tel.remove_vp_source(token);  // stops the thread (last source out)
  tel.set_sched_probe(nullptr);
  EXPECT_FALSE(tel.running());

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GE(reports[0].first - t0, 40u * 1000000u);
  const std::string& report = reports[0].second;
  EXPECT_NE(report.find("no progress for 40 ms"), std::string::npos) << report;
  EXPECT_NE(report.find("1 of 1 VPs blocked"), std::string::npos) << report;
  EXPECT_NE(report.find("sched: 2 workers, 0 runnable, 3 suspended"),
            std::string::npos)
      << report;
  // History kept its own period: many samples per stall window, not one.
  EXPECT_GE(samples, 16u);
  std::remove((prefix + ".trace.json").c_str());
  std::remove((prefix + ".telemetry.json").c_str());
  std::remove((prefix + ".slow.json").c_str());
}

TEST_F(ObsTelemetryTest, ConcurrentFlightDumpsLeaveParsableFiles) {
  obs::Tracer::instance().reset(1 << 12);
  const std::string prefix = ::testing::TempDir() + "tdp_flight_race";
  ::setenv("TDP_OBS_DUMP", prefix.c_str(), 1);
  // A live emitter whose payloads are 1 or 19 digits at random makes every
  // dump a different length, so two writers truncating the same file at
  // once would leave the longer one's tail behind the shorter document.
  std::atomic<bool> done{false};
  std::thread emitter([&] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 1; !done.load(); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      obs::Tracer::instance().emit(make_event(i, (x & 1) != 0 ? x : 0));
    }
  });
  std::vector<std::thread> dumpers;
  for (int t = 0; t < 4; ++t) {
    dumpers.emplace_back([] {
      for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(obs::dump_flight_data("concurrent test").empty());
      }
    });
  }
  for (std::thread& t : dumpers) t.join();
  done.store(true);
  emitter.join();

  // Strict parses: obs::json::parse rejects trailing bytes, which is what
  // a torn file carries; load_chrome_trace is the reader tools use.
  std::string error;
  std::stringstream trace_text;
  trace_text << std::ifstream(prefix + ".trace.json").rdbuf();
  obs::json::Value doc;
  EXPECT_TRUE(obs::json::parse(trace_text.str(), doc, &error)) << error;
  std::vector<obs::LoadedEvent> events;
  EXPECT_TRUE(obs::load_chrome_trace(trace_text, events, &error)) << error;
  EXPECT_FALSE(events.empty());
  std::stringstream telemetry_text;
  telemetry_text << std::ifstream(prefix + ".telemetry.json").rdbuf();
  EXPECT_TRUE(obs::json::parse(telemetry_text.str(), doc, &error)) << error;
  std::remove((prefix + ".trace.json").c_str());
  std::remove((prefix + ".telemetry.json").c_str());
  std::remove((prefix + ".slow.json").c_str());
}

// --- exposition server -----------------------------------------------------

std::string uds_query(const std::string& path, const std::string& command) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return "<connect failed>";
  }
  const std::string line = command + "\n";
  EXPECT_EQ(::write(fd, line.data(), line.size()),
            static_cast<ssize_t>(line.size()));
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST_F(ObsTelemetryTest, ExpositionServerAnswersProtocol) {
  obs::Registry::instance().counter("test.expo").add(11);
  obs::Telemetry::instance().sample_now();

  const std::string path = ::testing::TempDir() + "tdp_obs_test.sock";
  obs::ExpositionServer& server = obs::ExpositionServer::instance();
  ASSERT_TRUE(server.start(path));
  EXPECT_TRUE(server.running());
  EXPECT_EQ(server.path(), path);

  const std::string metrics = uds_query(path, "metrics");
  EXPECT_NE(metrics.find("tdp_up 1"), std::string::npos);
  EXPECT_NE(metrics.find("tdp_test_expo_total 11"), std::string::npos);

  const std::string json_reply = uds_query(path, "json");
  obs::json::Value doc;
  std::string error;
  ASSERT_TRUE(obs::json::parse(json_reply, doc, &error)) << error;
  ASSERT_NE(doc.find("counters"), nullptr);

  const std::string bad = uds_query(path, "bogus");
  EXPECT_NE(bad.find("unknown command"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  // The socket path is gone: a fresh client cannot connect.
  EXPECT_EQ(uds_query(path, "metrics"), "<connect failed>");
}

TEST_F(ObsTelemetryTest, ExpositionRespondMatchesSocketAnswers) {
  obs::Registry::instance().counter("test.direct").add(2);
  obs::Telemetry::instance().sample_now();
  const std::string direct = obs::ExpositionServer::respond("metrics");
  EXPECT_NE(direct.find("tdp_test_direct_total 2"), std::string::npos);
  // Whitespace-trimmed and defaulted commands reach the same renderer.
  EXPECT_EQ(obs::ExpositionServer::respond("  metrics \r\n"), direct);
  EXPECT_EQ(obs::ExpositionServer::respond(""), direct);
}

// --- interpolation edge cases ---------------------------------------------

TEST_F(ObsTelemetryTest, PercentileFromBucketsEdgeCases) {
  std::array<std::uint64_t, obs::Histogram::kBuckets> buckets{};
  EXPECT_EQ(obs::Histogram::percentile_from_buckets(buckets, 0.5), 0u);

  buckets[0] = 10;  // all zeros
  EXPECT_EQ(obs::Histogram::percentile_from_buckets(buckets, 0.99), 0u);

  buckets = {};
  buckets[4] = 1;  // single sample in [8,15]: every quantile interpolates
  EXPECT_EQ(obs::Histogram::percentile_from_buckets(buckets, 0.01), 15u);
  EXPECT_EQ(obs::Histogram::percentile_from_buckets(buckets, 1.0), 15u);

  buckets = {};
  buckets[1] = 50;  // [1,1]
  buckets[10] = 50;  // [512,1023]
  // Rank 50 lands exactly at the end of bucket 1.
  EXPECT_EQ(obs::Histogram::percentile_from_buckets(buckets, 0.5), 1u);
  // Rank 100 is the top of bucket 10.
  EXPECT_EQ(obs::Histogram::percentile_from_buckets(buckets, 1.0), 1023u);
}

// --- SIGUSR1 dump-handler hygiene -----------------------------------------
//
// The library must never clobber a handler its embedder registered, and
// must put back what it found when it leaves.  (These manipulate the
// process signal table, so they restore the original disposition on every
// path.)

namespace {
std::atomic<int> g_app_handler_hits{0};
extern "C" void app_sigusr1_handler(int) {
  g_app_handler_hits.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

TEST_F(ObsTelemetryTest, DumpHandlerInstallsOverDefaultAndRestores) {
  struct sigaction original {};
  ASSERT_EQ(sigaction(SIGUSR1, nullptr, &original), 0);
  // Force a known-default starting point.
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  sigemptyset(&dfl.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &dfl, nullptr), 0);

  obs::install_dump_signal_handler();
  EXPECT_TRUE(obs::dump_signal_handler_installed());
  // Idempotent: a second install is a no-op, not a re-save of our own
  // handler as "previous".
  obs::install_dump_signal_handler();
  EXPECT_TRUE(obs::dump_signal_handler_installed());

  obs::uninstall_dump_signal_handler();
  EXPECT_FALSE(obs::dump_signal_handler_installed());
  struct sigaction after {};
  ASSERT_EQ(sigaction(SIGUSR1, nullptr, &after), 0);
  EXPECT_EQ(after.sa_handler, SIG_DFL) << "previous disposition not restored";

  ASSERT_EQ(sigaction(SIGUSR1, &original, nullptr), 0);
}

TEST_F(ObsTelemetryTest, DumpHandlerNeverClobbersAnApplicationHandler) {
  struct sigaction original {};
  ASSERT_EQ(sigaction(SIGUSR1, nullptr, &original), 0);
  struct sigaction app {};
  app.sa_handler = &app_sigusr1_handler;
  sigemptyset(&app.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &app, nullptr), 0);

  // The old bug: std::signal unconditionally, silently disconnecting the
  // application's handler.  Now installation must be refused.
  obs::install_dump_signal_handler();
  EXPECT_FALSE(obs::dump_signal_handler_installed());

  const int before = g_app_handler_hits.load(std::memory_order_relaxed);
  ASSERT_EQ(raise(SIGUSR1), 0);
  EXPECT_EQ(g_app_handler_hits.load(std::memory_order_relaxed), before + 1)
      << "application handler no longer receives SIGUSR1";

  // Uninstall with nothing of ours installed is a no-op and leaves the
  // application handler alone.
  obs::uninstall_dump_signal_handler();
  struct sigaction after {};
  ASSERT_EQ(sigaction(SIGUSR1, nullptr, &after), 0);
  EXPECT_EQ(after.sa_handler, &app_sigusr1_handler);

  ASSERT_EQ(sigaction(SIGUSR1, &original, nullptr), 0);
}

TEST_F(ObsTelemetryTest, UninstallLeavesALaterApplicationHandlerAlone) {
  struct sigaction original {};
  ASSERT_EQ(sigaction(SIGUSR1, nullptr, &original), 0);
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  sigemptyset(&dfl.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &dfl, nullptr), 0);

  obs::install_dump_signal_handler();
  ASSERT_TRUE(obs::dump_signal_handler_installed());
  // The application replaces our handler after us; uninstall must not
  // stomp it with the stale saved disposition.
  struct sigaction app {};
  app.sa_handler = &app_sigusr1_handler;
  sigemptyset(&app.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &app, nullptr), 0);

  obs::uninstall_dump_signal_handler();
  struct sigaction after {};
  ASSERT_EQ(sigaction(SIGUSR1, nullptr, &after), 0);
  EXPECT_EQ(after.sa_handler, &app_sigusr1_handler);

  ASSERT_EQ(sigaction(SIGUSR1, &original, nullptr), 0);
}

TEST_F(ObsTelemetryTest, InstalledHandlerArmsTheDumpFlag) {
  struct sigaction original {};
  ASSERT_EQ(sigaction(SIGUSR1, nullptr, &original), 0);
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  sigemptyset(&dfl.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &dfl, nullptr), 0);

  obs::install_dump_signal_handler();
  ASSERT_TRUE(obs::dump_signal_handler_installed());
  const std::string prefix = ::testing::TempDir() + "tdp_sig_dump";
  ::setenv("TDP_OBS_DUMP", prefix.c_str(), 1);
  ASSERT_EQ(raise(SIGUSR1), 0);
  EXPECT_TRUE(obs::service_flight_dump_request());
  std::ifstream trace(prefix + ".trace.json");
  EXPECT_TRUE(trace.good());
  ::unsetenv("TDP_OBS_DUMP");

  obs::uninstall_dump_signal_handler();
  ASSERT_EQ(sigaction(SIGUSR1, &original, nullptr), 0);
}

}  // namespace
