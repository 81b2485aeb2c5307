// tdp::obs exporters — Chrome trace_event JSON and a plain-text summary.
//
// The Chrome trace loads directly in chrome://tracing or https://ui.perfetto.dev:
// one row ("tid") per virtual processor, spans as complete events, receive
// misses as instants, queue depths as counter tracks.  The summary is a
// terminal table of every registered counter and histogram, printed at
// Runtime shutdown when TDP_OBS=1.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tdp::obs {

/// Per-machine message statistics supplied by the caller (the obs layer has
/// no dependency on vp::Machine).  per_vp_messages[i] counts messages
/// delivered to virtual processor i; the canonical Machine counter.
struct MachineStats {
  std::vector<std::uint64_t> per_vp_messages;
  std::uint64_t total_messages = 0;
};

struct EventRecord;  // trace.hpp

/// Writes `events` as a Chrome trace_event JSON *array* (brackets
/// included): span/instant/counter records plus the matched causal flow
/// pairs among them (unpaired endpoints are suppressed, as in the full
/// trace).  `thread_names` adds the per-row "thread_name" metadata
/// records.  write_chrome_trace wraps this in the object form; the
/// slow-call exemplar store (obs/attr.cpp) embeds the bare array so
/// tdp_trace's `why` subcommand can feed a captured subtree straight back
/// through the trace analyzer.
void write_trace_event_array(std::ostream& os,
                             const std::vector<EventRecord>& events,
                             bool thread_names);

/// Writes the tracer's snapshot as Chrome trace_event JSON, including the
/// causal flow arrows: every send instant whose flow id was recovered by a
/// matching receive span becomes a `ph:"s"` event, the receive a `ph:"f"`
/// at the span's end — Perfetto draws the arrow from sender to receiver.
/// Flow endpoints whose partner fell past tracer capacity are suppressed,
/// so every exported "s" has exactly one "f" and vice versa.
void write_chrome_trace(std::ostream& os);

/// Writes the tracer's current contents as a Chrome trace to `path` —
/// the flight-recorder dump ("give me the last N events NOW", from a
/// signal handler's service thread, a watchdog stall, or application
/// code).  Safe against live emitters.  Returns false when
/// the file cannot be opened or written.
bool dump_flight_recorder(const std::string& path);

/// Writes the plain-text summary: event/overwrite counts, every registry
/// counter, histogram (count, p50/p90/p99, max) and high-water gauge, and —
/// when `machine` is given — the per-VP message table with each VP's peak
/// mailbox queue depth.
void write_summary(std::ostream& os, const MachineStats* machine = nullptr);

/// Rank-qualifies an output path under a multi-process launch: with
/// TDP_RANK set (tools/tdp_launch exports it), inserts ".rank<k>" before a
/// trailing ".json" — "tdp_trace.json" -> "tdp_trace.rank2.json" — or
/// appends it otherwise, so N rank processes sharing a working directory
/// never clobber each other's trace/telemetry files.  Identity when
/// TDP_RANK is unset.
std::string per_rank_path(std::string path);

/// Shutdown hook used by core::Runtime when enabled(): writes the Chrome
/// trace to $TDP_OBS_TRACE (default "tdp_trace.json", rank-qualified via
/// per_rank_path under a multi-process launch) and the summary to stderr.
void flush_at_shutdown(const MachineStats* machine = nullptr);

/// Installs a std::atexit hook (once) that re-runs flush_at_shutdown if
/// events were recorded after the last flush — so a program that calls
/// exit() mid-run still leaves a trace behind instead of losing it.
/// Called automatically whenever observability becomes enabled.
void register_atexit_flush();

}  // namespace tdp::obs
