// tdp::obs — tracer, metrics, and exporter behaviour.
//
// The tracer's contract: concurrent emitters lose nothing up to capacity
// (each slot is written exactly once), drops are counted past capacity, and
// the disabled path records nothing at all.  The exporters' contract: the
// Chrome trace is well-formed JSON with the trace_event keys, and the
// summary's per-VP message counts sum to the machine total.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vp/machine.hpp"

namespace {

using namespace tdp;

// Restores the kill switch and empties the tracer around every test so obs
// state never leaks between cases (or into other suites' expectations).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kCompiledIn) GTEST_SKIP() << "built with TDP_OBS_DISABLED";
    obs::set_enabled(true);
    obs::Tracer::instance().reset(1 << 12);
    obs::Registry::instance().reset_values();
  }
  void TearDown() override {
    if (!obs::kCompiledIn) return;
    obs::set_enabled(false);
    obs::Tracer::instance().reset();
    obs::Registry::instance().reset_values();
  }
};

// --- A minimal JSON parser: enough to verify well-formedness. -------------

struct JsonParser {
  const std::string& s;
  std::size_t i = 0;

  explicit JsonParser(const std::string& text) : s(text) {}

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool parse_string() {
    skip_ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
  bool parse_number() {
    skip_ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      ++i;
    }
    return i > start;
  }
  bool parse_value() {
    skip_ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
        return s.compare(i, 4, "true") == 0 && ((i += 4), true);
      case 'f':
        return s.compare(i, 5, "false") == 0 && ((i += 5), true);
      case 'n':
        return s.compare(i, 4, "null") == 0 && ((i += 4), true);
      default:
        return parse_number();
    }
  }
  bool parse_object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      if (!parse_string() || !eat(':') || !parse_value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool parse_array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!parse_value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool parse_document() {
    if (!parse_value()) return false;
    skip_ws();
    return i == s.size();
  }
};

// --- Tracer. ---------------------------------------------------------------

TEST_F(ObsTest, ConcurrentEmittersLoseNothingUpToCapacity) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;  // 1600 events, well under 4096/shard

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      // All threads claim the same virtual processor, so every event lands
      // in ONE shard and the emitters genuinely race on its buffer head.
      obs::set_current_vp(5);
      for (int k = 0; k < kPerThread; ++k) {
        obs::instant(obs::Op::MsgSend, 0,
                     static_cast<std::uint64_t>(t * kPerThread + k));
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::vector<obs::EventRecord> events =
      obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(obs::Tracer::instance().overwritten(), 0u);

  // Every payload appears exactly once: nothing lost, nothing duplicated.
  std::vector<bool> seen(kThreads * kPerThread, false);
  for (const obs::EventRecord& e : events) {
    ASSERT_LT(e.arg0, seen.size());
    EXPECT_FALSE(seen[e.arg0]);
    seen[e.arg0] = true;
    EXPECT_EQ(e.vp, 5);
    EXPECT_EQ(e.op, obs::Op::MsgSend);
  }
}

TEST_F(ObsTest, DisabledModeEmitsNothing) {
  obs::set_enabled(false);
  obs::instant(obs::Op::MsgSend, 1, 2, 3);
  {
    obs::Span span(obs::Op::CallExecute, 42);
  }
  obs::counter_sample(obs::Op::QueueDepth, 7, 3);
  EXPECT_EQ(obs::Tracer::instance().recorded(), 0u);
  EXPECT_TRUE(obs::Tracer::instance().snapshot().empty());
}

TEST_F(ObsTest, SpanRecordsDurationAndLateBoundPayload) {
  {
    obs::Span span(obs::Op::CallExecute, 9, 4);
    span.set_arg1(17);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::vector<obs::EventRecord> events =
      obs::Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::Span);
  EXPECT_EQ(events[0].comm, 9u);
  EXPECT_EQ(events[0].arg0, 4u);
  EXPECT_EQ(events[0].arg1, 17u);
  EXPECT_GE(events[0].dur_ns, 1000000u);  // at least 1ms of the 2ms sleep
}

// --- Metrics. --------------------------------------------------------------

TEST_F(ObsTest, ShardedCounterMergesAcrossVps) {
  obs::ShardedCounter c;
  std::vector<std::thread> threads;
  for (int vp = 0; vp < 4; ++vp) {
    threads.emplace_back([&c, vp] {
      obs::set_current_vp(vp);
      for (int k = 0; k < 1000; ++k) c.add();
    });
  }
  for (auto& th : threads) th.join();
  c.add_at(2, 5);
  EXPECT_EQ(c.value(), 4005u);
  const std::vector<std::uint64_t> per_vp = c.per_shard(4);
  EXPECT_EQ(per_vp[0], 1000u);
  EXPECT_EQ(per_vp[2], 1005u);
}

TEST_F(ObsTest, HistogramPercentilesOnKnownDistribution) {
  obs::Histogram h;
  // 100 samples of 10 (bucket ub 15), 100 of 1000 (ub 1023), 100 of
  // 100000 (ub 131071): tertile boundaries are known exactly.
  for (int k = 0; k < 100; ++k) h.record(10);
  for (int k = 0; k < 100; ++k) h.record(1000);
  for (int k = 0; k < 100; ++k) h.record(100000);

  EXPECT_EQ(h.count(), 300u);
  EXPECT_EQ(h.sum(), 100u * 10 + 100u * 1000 + 100u * 100000);
  EXPECT_EQ(h.max(), 100000u);
  // Interpolated within the containing log2 bucket: p10's rank 30 sits
  // 30% into the [8,15] bucket, p50's rank 150 halfway into [512,1023],
  // p99's rank 297 97% into [65536,131071]; p100 is the bucket upper bound.
  EXPECT_EQ(h.percentile(0.10), 10u);
  EXPECT_EQ(h.percentile(0.50), 767u);
  EXPECT_EQ(h.percentile(0.99), 129104u);
  EXPECT_EQ(h.percentile(1.0), 131071u);

  obs::Histogram zeros;
  zeros.record(0);
  EXPECT_EQ(zeros.percentile(0.5), 0u);
  EXPECT_EQ(zeros.count(), 1u);
}

TEST_F(ObsTest, HistogramMergesShardsFromConcurrentVps) {
  obs::Histogram h;
  std::vector<std::thread> threads;
  for (int vp = 0; vp < 8; ++vp) {
    threads.emplace_back([&h, vp] {
      obs::set_current_vp(vp);
      for (int k = 0; k < 500; ++k) h.record(100);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), 4000u);
  // All 4000 samples share the [64,127] bucket; the median interpolates
  // to its midpoint.
  EXPECT_EQ(h.percentile(0.5), 95u);
}

TEST_F(ObsTest, RegistryReturnsStableReferences) {
  obs::ShardedCounter& a = obs::Registry::instance().counter("obs_test.a");
  obs::ShardedCounter& b = obs::Registry::instance().counter("obs_test.a");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  obs::Histogram& h1 = obs::Registry::instance().histogram("obs_test.h");
  obs::Histogram& h2 = obs::Registry::instance().histogram("obs_test.h");
  EXPECT_EQ(&h1, &h2);
}

// --- Exporters. ------------------------------------------------------------

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  obs::set_current_vp(2);
  obs::instant(obs::Op::MsgSend, 7, 1, 2);
  obs::counter_sample(obs::Op::QueueDepth, 5, 2);
  {
    obs::Span span(obs::Op::CallExecute, 7, 0);
  }
  obs::set_current_vp(-1);
  obs::instant(obs::Op::RecvMiss, 0, 0, 1);  // external thread row

  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string json = out.str();

  JsonParser parser(json);
  EXPECT_TRUE(parser.parse_document()) << json;

  // The trace_event envelope and per-event keys Perfetto requires.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"vp.send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"call.execute\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"comm\":7"), std::string::npos);
}

TEST_F(ObsTest, SummaryReportsPerVpMessagesSummingToMachineTotal) {
  vp::Machine machine(4);
  for (int dst = 0; dst < 4; ++dst) {
    for (int k = 0; k <= dst; ++k) {
      vp::Message m;
      m.src = 0;
      machine.send(dst, m);
      machine.mailbox(dst).receive([](const vp::Message&) { return true; });
    }
  }
  EXPECT_EQ(machine.messages_sent(), 10u);

  const std::vector<std::uint64_t> by_vp = machine.messages_by_vp();
  ASSERT_EQ(by_vp.size(), 4u);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < by_vp.size(); ++i) {
    EXPECT_EQ(by_vp[i], i + 1);
    sum += by_vp[i];
  }
  EXPECT_EQ(sum, machine.messages_sent());

  obs::MachineStats stats;
  stats.per_vp_messages = by_vp;
  stats.total_messages = machine.messages_sent();
  std::ostringstream out;
  obs::write_summary(out, &stats);
  const std::string text = out.str();
  EXPECT_NE(text.find("(consistent)"), std::string::npos) << text;
  EXPECT_NE(text.find("vp3=4"), std::string::npos) << text;
  EXPECT_NE(text.find("mailbox.recv_wait_ns"), std::string::npos) << text;
}

TEST_F(ObsTest, KillSwitchKeepsInstrumentedHotPathsSilent) {
  obs::set_enabled(false);
  vp::Machine machine(2);
  vp::Message m;
  m.src = 0;
  machine.send(1, m);
  machine.mailbox(1).receive([](const vp::Message&) { return true; });
  // The canonical message counter still counts (it predates obs)...
  EXPECT_EQ(machine.messages_sent(), 1u);
  // ...but no trace events and no registry activity were produced.
  EXPECT_EQ(obs::Tracer::instance().recorded(), 0u);
  EXPECT_EQ(
      obs::Registry::instance().counter("mailbox.recv_miss").value(), 0u);
}

}  // namespace
