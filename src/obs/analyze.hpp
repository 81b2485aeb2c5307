// tdp::obs trace analysis — reads back an exported Chrome trace and turns
// it into the performance report the thesis's figures argue from.
//
// The exporter (obs/export.hpp) writes spans, instants, counters and causal
// flow pairs; this module loads that JSON through the shared obs::json
// reader (no external JSON dependency), reconstructs causality, and reports
//
//  * per-VP utilization and a blocking breakdown: time computing vs time
//    blocked in receive vs idle, plus selective-receive miss counts —
//    where each virtual processor's wall clock actually went;
//  * per distributed call, the critical path: the longest chain of
//    causally-linked spans (marshal → execute → [send → receive → execute]*
//    → combine), ranked by call makespan.  The chain follows real recorded
//    causality — flow ids stamped into message envelopes — not guesses
//    from timestamps.
//
// Used by tools/tdp_trace.cpp and replayed against synthetic traces in
// tests/obs_causal_test.cpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tdp::obs {

/// Truncation sidecar the exporter stamps into "otherData": how much of
/// the run the trace actually covers.  `present` is false for traces from
/// before the sidecar existed (or foreign tools) — absence of evidence,
/// not evidence of completeness.
struct TraceMeta {
  bool present = false;
  std::uint64_t recorded = 0;
  std::uint64_t overwritten = 0;  ///< events displaced by newer ones
  bool truncated() const { return overwritten != 0; }
};

/// One event loaded back from a Chrome trace_event JSON document.
struct LoadedEvent {
  std::string name;
  std::string cat;
  std::string ph;            ///< "X", "i", "C", "s", "f", "M"
  std::int64_t tid = 0;      ///< virtual processor (or the external row)
  double ts_us = 0.0;
  double dur_us = 0.0;       ///< spans only
  std::uint64_t id = 0;      ///< flow-event id ("s"/"f")
  std::uint64_t comm = 0;    ///< args.comm
  std::uint64_t flow = 0;    ///< args.flow (send instants, receive spans)
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

/// Where one virtual processor's wall clock went.
struct VpStats {
  std::int64_t tid = 0;
  double active_us = 0.0;     ///< union of its span intervals
  double recv_wait_us = 0.0;  ///< union of its vp.recv span intervals
  double compute_us = 0.0;    ///< active - recv_wait
  std::uint64_t recv_count = 0;
  std::uint64_t recv_misses = 0;  ///< selective receives that had to block
  std::uint64_t sends = 0;
  double utilization = 0.0;   ///< compute / trace wall time
  /// Windowless receive-wait quantiles: every vp.recv span duration on
  /// this row, rebucketed log2 and interpolated through the shared
  /// Histogram::percentile_from_buckets.
  double recv_p50_us = 0.0;
  double recv_p99_us = 0.0;
};

/// One link of a critical-path chain, annotated with how it causally feeds
/// the next link ("spawn", "msg tag=3 -> vp2", "join", ...).
struct PathNode {
  std::string name;
  std::int64_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::string via;  ///< empty on the last node
};

/// One distributed call reconstructed from its comm-scoped spans.
struct CallStats {
  std::uint64_t comm = 0;
  int copies = 0;
  double makespan_us = 0.0;  ///< earliest span start → latest span end
  double path_us = 0.0;  ///< union of critical-path span intervals
  std::vector<PathNode> critical_path;
};

struct TraceReport {
  std::uint64_t events = 0;
  double wall_us = 0.0;
  std::uint64_t flow_pairs = 0;      ///< matched "s"/"f" pairs
  std::uint64_t unmatched_flows = 0; ///< ids with a missing endpoint
  std::vector<VpStats> vps;          ///< ordered by tid
  std::vector<CallStats> calls;      ///< ranked by makespan, descending
};

/// One slow-call exemplar loaded back from the attribution document the
/// exposition server's `slow` verb (and `<prefix>.slow.json`) emits: the
/// call's phase ledger plus its captured causal span subtree.
struct CallExemplar {
  std::uint64_t call_id = 0;
  std::string kind;  ///< "call" / "do_all"
  int copies = 0;
  bool over_threshold = false;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t latency_ns = 0;
  std::uint64_t marshal_ns = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t blocked_ns = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t copy_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t dp_statements = 0;
  std::uint64_t subtree_events = 0;
  std::uint64_t captured_events = 0;
  std::vector<LoadedEvent> events;
};

/// Parses a Chrome trace_event document as written by write_chrome_trace
/// (object form with "traceEvents", or a bare event array).  Returns false
/// and fills *error on malformed input.  When `meta` is non-null and the
/// document carries the exporter's "otherData" truncation sidecar, fills
/// it (meta->present says whether it was found) — tdp_trace uses this to
/// warn when the analyzed trace is not the whole run.
bool load_chrome_trace(std::istream& in, std::vector<LoadedEvent>& out,
                       std::string* error, TraceMeta* meta = nullptr);

/// Parses a slow-call exemplar document (CallTable::render_exemplars_json).
/// Returns false and fills *error on malformed input; fills *slow_ms with
/// the document's armed threshold when non-null.  Exemplars come back in
/// document order (slowest first).
bool load_exemplars(std::istream& in, std::vector<CallExemplar>& out,
                    std::string* error, std::uint64_t* slow_ms = nullptr);

/// Renders one exemplar's "why was this call slow" explanation: the phase
/// attribution table and, when the captured subtree supports it, the
/// call's critical path via analyze_trace.
void write_why_report(std::ostream& os, const CallExemplar& ex);

/// Computes the report from loaded events.
TraceReport analyze_trace(const std::vector<LoadedEvent>& events);

/// Renders the report as the tdp_trace CLI prints it.
void write_report(std::ostream& os, const TraceReport& report);

}  // namespace tdp::obs
