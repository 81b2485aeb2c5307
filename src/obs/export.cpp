#include "obs/export.hpp"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <set>
#include <sstream>
#include <unordered_set>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_print.hpp"
#include "util/env.hpp"

namespace tdp::obs {

namespace {

// Trace rows: virtual processors keep their number; unplaced (external)
// threads share one row at the bottom of the view.
constexpr std::int64_t kExternalTid = 1000000;

std::int64_t tid_of(int vp) { return vp >= 0 ? vp : kExternalTid; }

void write_ts(std::ostream& os, std::uint64_t ts_ns) {
  os << std::fixed << std::setprecision(3)
     << static_cast<double>(ts_ns) / 1000.0;
}

void write_event(std::ostream& os, const EventRecord& e, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << json::escape(op_name(e.op)) << "\",\"cat\":\""
     << json::escape(op_category(e.op))
     << "\",\"pid\":1,\"tid\":" << tid_of(e.vp) << ",\"ts\":";
  write_ts(os, e.ts_ns);
  switch (e.kind) {
    case EventKind::Span:
      os << ",\"ph\":\"X\",\"dur\":" << std::fixed << std::setprecision(3)
         << static_cast<double>(e.dur_ns) / 1000.0;
      break;
    case EventKind::Instant:
      os << ",\"ph\":\"i\",\"s\":\"t\"";
      break;
    case EventKind::Counter:
      os << ",\"ph\":\"C\"";
      break;
    case EventKind::FlowStart:
    case EventKind::FlowEnd:
      break;  // exported separately as ph:"s"/"f"
  }
  os << ",\"args\":{";
  if (e.kind == EventKind::Counter) {
    os << "\"value\":" << e.arg0;
  } else {
    os << "\"comm\":" << e.comm << ",\"arg0\":" << e.arg0
       << ",\"arg1\":" << e.arg1;
    if (e.flow != 0) os << ",\"flow\":" << e.flow;
  }
  os << "}}";
}

/// One endpoint of a Chrome flow-event pair.  `start` selects ph:"s" vs
/// ph:"f"; the finish side binds to the enclosing slice ("bp":"e"), which
/// is what makes Perfetto attach the arrowhead to the receive span.
void write_flow_event(std::ostream& os, const char* name, std::uint64_t id,
                      int vp, std::uint64_t ts_ns, std::uint64_t comm,
                      bool start, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << name << "\",\"cat\":\"flow\",\"ph\":\""
     << (start ? 's' : 'f') << "\"";
  if (!start) os << ",\"bp\":\"e\"";
  os << ",\"id\":" << id << ",\"pid\":1,\"tid\":" << tid_of(vp)
     << ",\"ts\":";
  write_ts(os, ts_ns);
  os << ",\"args\":{\"comm\":" << comm << "}}";
}

/// Whether this record is the origin (ph:"s") of a causal flow.
bool is_flow_origin(const EventRecord& e) {
  return e.flow != 0 && (e.kind == EventKind::FlowStart ||
                         (e.kind == EventKind::Instant &&
                          e.op == Op::MsgSend));
}

/// Whether this record is the target (ph:"f") of a causal flow.
bool is_flow_target(const EventRecord& e) {
  return e.flow != 0 &&
         (e.kind == EventKind::FlowEnd || e.kind == EventKind::Span);
}

/// Events recorded at the last flush; the atexit hook re-flushes only when
/// this falls behind Tracer::recorded() (i.e. a Runtime shutdown did not
/// already export everything).
std::atomic<std::uint64_t> g_flushed_at{0};

}  // namespace

void write_trace_event_array(std::ostream& os,
                             const std::vector<EventRecord>& events,
                             bool thread_names) {
  // A flow arrow needs both endpoints in the output: the ring may have
  // overwritten one side (or an exemplar's subtree cut it off), and an
  // unpaired "s"/"f" renders as a dangling arrow (and violates the
  // exactly-one-match invariant the tests enforce).  Two passes: collect
  // ids seen on each side, emit the intersection.
  std::unordered_set<std::uint64_t> origins;
  std::unordered_set<std::uint64_t> targets;
  for (const EventRecord& e : events) {
    if (is_flow_origin(e)) origins.insert(e.flow);
    if (is_flow_target(e)) targets.insert(e.flow);
  }
  const auto matched = [&](const EventRecord& e) {
    return origins.count(e.flow) != 0 && targets.count(e.flow) != 0;
  };

  os << "[\n";
  bool first = true;

  if (thread_names) {
    std::set<std::int64_t> tids;
    for (const EventRecord& e : events) tids.insert(tid_of(e.vp));
    for (const std::int64_t tid : tids) {
      if (!first) os << ",\n";
      first = false;
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"args\":{\"name\":\""
         << json::escape(tid == kExternalTid ? std::string("external")
                                             : "vp " + std::to_string(tid))
         << "\"}}";
    }
  }

  for (const EventRecord& e : events) {
    if (e.kind == EventKind::FlowStart || e.kind == EventKind::FlowEnd) {
      if (matched(e)) {
        write_flow_event(os, op_name(e.op), e.flow, e.vp, e.ts_ns, e.comm,
                         e.kind == EventKind::FlowStart, first);
      }
      continue;
    }
    write_event(os, e, first);
    if (e.flow == 0 || !matched(e)) continue;
    if (is_flow_origin(e)) {
      // Send side: the arrow starts at the send instant.
      write_flow_event(os, op_name(Op::MsgFlow), e.flow, e.vp, e.ts_ns,
                       e.comm, /*start=*/true, first);
    } else if (e.kind == EventKind::Span) {
      // Receive side: the message was matched when the receive span ended.
      write_flow_event(os, op_name(Op::MsgFlow), e.flow, e.vp,
                       e.ts_ns + e.dur_ns, e.comm, /*start=*/false, first);
    }
  }
  os << "\n]";
}

void write_chrome_trace(std::ostream& os) {
  const std::vector<EventRecord> events = Tracer::instance().snapshot();

  os << "{\"traceEvents\":";
  write_trace_event_array(os, events, /*thread_names=*/true);
  // Truncation metadata rides along in the trace itself, so an offline
  // reader (tdp_trace) can warn that what it analyzed is not everything
  // that happened.  "otherData" is the Chrome trace_event escape hatch for
  // exactly this kind of sidecar.
  Tracer& tracer = Tracer::instance();
  os << ",\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":"
     << tracer.recorded() << ",\"overwritten\":" << tracer.overwritten()
     << "}}\n";
}

bool dump_flight_recorder(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_chrome_trace(out);
  out.flush();
  return out.good();
}

void write_summary(std::ostream& os, const MachineStats* machine) {
  Tracer& tracer = Tracer::instance();
  os << "== tdp::obs summary ==\n";
  os << "trace events: " << tracer.recorded() << " recorded, "
     << tracer.overwritten() << " overwritten (ring, capacity "
     << tracer.capacity() << ")\n";

  std::ostringstream counters;
  std::ostringstream histograms;
  std::ostringstream gauges;
  Registry::instance().visit(
      [&](const std::string& name, const ShardedCounter& c) {
        counters << "  " << std::left << std::setw(28) << name << std::right
                 << std::setw(14) << c.value() << "\n";
      },
      [&](const std::string& name, const Histogram& h) {
        if (h.count() == 0) return;
        histograms << "  " << std::left << std::setw(28) << name << std::right
                   << std::setw(10) << h.count() << std::setw(12)
                   << h.percentile(0.50) << std::setw(12) << h.percentile(0.90)
                   << std::setw(12) << h.percentile(0.99) << std::setw(12)
                   << h.max() << "\n";
      },
      [&](const std::string& name, const MaxGauge& g) {
        if (g.max() == 0) return;
        gauges << "  " << std::left << std::setw(28) << name << std::right
               << std::setw(14) << g.max() << "\n";
      });
  if (!counters.str().empty()) {
    os << "counters:\n" << counters.str();
  }
  if (!histograms.str().empty()) {
    os << "histograms:" << std::string(17, ' ') << std::right << std::setw(10)
       << "count" << std::setw(12) << "p50" << std::setw(12) << "p90"
       << std::setw(12) << "p99" << std::setw(12) << "max" << "\n"
       << histograms.str();
  }
  if (!gauges.str().empty()) {
    os << "high-water gauges:\n" << gauges.str();
  }

  if (machine != nullptr) {
    os << "messages delivered per VP (sum must equal machine total; "
          "peak = high-water mailbox depth):\n";
    const std::vector<std::uint64_t> peaks =
        Registry::instance().gauge("mailbox.peak_depth").per_shard(
            machine->per_vp_messages.size());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < machine->per_vp_messages.size(); ++i) {
      const std::uint64_t n = machine->per_vp_messages[i];
      sum += n;
      if (n != 0) {
        os << "  vp" << i << "=" << n;
        if (i < peaks.size() && peaks[i] != 0) {
          os << " (peak " << peaks[i] << ")";
        }
      }
    }
    os << "\n  sum=" << sum << " machine_total=" << machine->total_messages
       << (sum == machine->total_messages ? " (consistent)"
                                          : " (INCONSISTENT)")
       << "\n";
  }
}

std::string per_rank_path(std::string path) {
  static const long long rank =
      util::env_int("TDP_RANK", -1, 0, 1 << 20);
  if (rank < 0) return path;
  const std::string suffix = ".rank" + std::to_string(rank);
  const std::string ext = ".json";
  if (path.size() >= ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
    path.insert(path.size() - ext.size(), suffix);
  } else {
    path += suffix;
  }
  return path;
}

void flush_at_shutdown(const MachineStats* machine) {
  if (!enabled()) return;
  g_flushed_at.store(Tracer::instance().recorded(),
                     std::memory_order_relaxed);
  const char* env_path = std::getenv("TDP_OBS_TRACE");
  const std::string path = per_rank_path(
      env_path != nullptr && env_path[0] != '\0' ? env_path
                                                 : "tdp_trace.json");
  bool wrote = false;
  {
    std::ofstream out(path, std::ios::trunc);
    if (out) {
      write_chrome_trace(out);
      wrote = out.good();
    }
  }
  // One atomic block: the summary must not interleave with concurrent
  // program output (the watchdog may still be printing, examples write
  // results to stdout as they finish).
  std::ostringstream block;
  write_summary(block, machine);
  if (wrote) {
    block << "chrome trace written to " << path
          << " (open in chrome://tracing or ui.perfetto.dev)\n";
  } else {
    block << "chrome trace NOT written: cannot open " << path
          << " (set TDP_OBS_TRACE to a writable path)\n";
  }
  util::atomic_print_err(block.str());
}

void register_atexit_flush() {
  static std::atomic<bool> registered{false};
  if (registered.exchange(true, std::memory_order_relaxed)) return;
  // Exit handlers run in reverse registration order.  The flush reads the
  // tracer and the registry, so both singletons must be constructed — and
  // their destructors thereby registered — BEFORE our handler, or the
  // flush would read freed maps at exit.
  Tracer::instance();
  Registry::instance();
  std::atexit([] {
    if (!enabled()) return;
    // A normal run flushed at Runtime teardown and recorded nothing since;
    // re-flushing would only duplicate the summary.  Flush only when
    // events exist that no exporter has seen — the abandoned-mid-run case.
    const std::uint64_t recorded = Tracer::instance().recorded();
    if (recorded == 0 ||
        recorded == g_flushed_at.load(std::memory_order_relaxed)) {
      return;
    }
    util::atomic_print_err(
        "tdp::obs: flushing trace at exit (" +
        std::to_string(recorded -
                       g_flushed_at.load(std::memory_order_relaxed)) +
        " events since last flush)");
    flush_at_shutdown(nullptr);
  });
}

}  // namespace tdp::obs
