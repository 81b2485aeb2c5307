#include "obs/analyze.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace tdp::obs {

namespace {

std::uint64_t as_u64(double v) {
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

void convert_event(const json::Value& j, LoadedEvent& e) {
  e.name = j.str_or("name");
  e.cat = j.str_or("cat");
  e.ph = j.str_or("ph");
  e.tid = static_cast<std::int64_t>(j.num_or("tid", 0.0));
  e.ts_us = j.num_or("ts", 0.0);
  e.dur_us = j.num_or("dur", 0.0);
  e.id = as_u64(j.num_or("id", 0.0));
  if (const json::Value* args = j.find("args");
      args != nullptr && args->type == json::Value::Type::Object) {
    e.comm = as_u64(args->num_or("comm", 0.0));
    e.flow = as_u64(args->num_or("flow", 0.0));
    e.arg0 = as_u64(args->num_or("arg0", 0.0));
    e.arg1 = as_u64(args->num_or("arg1", 0.0));
  }
}

/// Streams the elements of the traceEvents array without building a DOM for
/// the whole document: one small JValue per event, converted and discarded.
bool parse_event_array(json::Reader& reader, std::vector<LoadedEvent>& out) {
  if (!reader.consume('[')) return false;
  char c = 0;
  if (reader.peek(c) && c == ']') {
    return reader.consume(']');
  }
  while (true) {
    json::Value element;
    if (!reader.parse_value(element)) return false;
    if (element.type == json::Value::Type::Object) {
      LoadedEvent e;
      convert_event(element, e);
      if (e.ph != "M") out.push_back(std::move(e));  // skip metadata rows
    }
    if (!reader.peek(c)) return reader.fail("unterminated traceEvents");
    if (c == ',') {
      reader.consume(',');
      continue;
    }
    return reader.consume(']');
  }
}

// ---------------------------------------------------------------------------
// Interval arithmetic for the utilization table.

double union_length_us(std::vector<std::pair<double, double>>& intervals) {
  if (intervals.empty()) return 0.0;
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double lo = intervals.front().first;
  double hi = intervals.front().second;
  for (const auto& [s, e] : intervals) {
    if (s > hi) {
      total += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  return total + (hi - lo);
}

// ---------------------------------------------------------------------------
// Critical-path reconstruction.

struct CallSpans {
  const LoadedEvent* marshal = nullptr;
  const LoadedEvent* combine = nullptr;
  std::vector<const LoadedEvent*> executes;
};

double span_end(const LoadedEvent& e) { return e.ts_us + e.dur_us; }

/// The execute span of this call that contains the given time on the given
/// row — how a send or receive is attributed to the copy that issued it.
const LoadedEvent* enclosing_execute(const CallSpans& call, std::int64_t tid,
                                     double ts_us) {
  const LoadedEvent* best = nullptr;
  for (const LoadedEvent* e : call.executes) {
    if (e->tid != tid || ts_us < e->ts_us || ts_us > span_end(*e)) continue;
    // Prefer the tightest enclosing span if nested (re-entrant calls).
    if (best == nullptr || e->dur_us < best->dur_us) best = e;
  }
  return best;
}

std::string fmt_ms(double us) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << us / 1000.0 << " ms";
  return os.str();
}

std::string fmt_pct(double ratio) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << ratio * 100.0 << "%";
  return os.str();
}

std::string row_name(std::int64_t tid) {
  // Matches the exporter's thread_name metadata scheme.
  return tid >= 1000000 ? std::string("ext") : "vp" + std::to_string(tid);
}

}  // namespace

bool load_chrome_trace(std::istream& in, std::vector<LoadedEvent>& out,
                       std::string* error, TraceMeta* meta) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  json::Reader reader(text);

  char c = 0;
  if (!reader.peek(c)) {
    if (error != nullptr) *error = "empty input";
    return false;
  }
  bool ok = false;
  if (c == '[') {
    ok = parse_event_array(reader, out);
  } else if (c == '{') {
    // Object form: scan keys, stream "traceEvents", skip everything else.
    ok = reader.consume('{');
    bool found = false;
    while (ok) {
      if (reader.peek(c) && c == '}') {
        reader.consume('}');
        break;
      }
      std::string key;
      ok = reader.parse_string(key) && reader.consume(':');
      if (!ok) break;
      if (key == "traceEvents") {
        ok = parse_event_array(reader, out);
        found = true;
      } else if (key == "otherData" && meta != nullptr) {
        json::Value other;
        ok = reader.parse_value(other);
        if (ok && other.type == json::Value::Type::Object) {
          meta->present = true;
          meta->recorded = as_u64(other.num_or("recorded", 0.0));
          meta->overwritten = as_u64(other.num_or("overwritten", 0.0));
        }
      } else {
        json::Value skipped;
        ok = reader.parse_value(skipped);
      }
      if (ok && reader.peek(c) && c == ',') reader.consume(',');
    }
    if (ok && !found) {
      if (error != nullptr) *error = "no traceEvents array in document";
      return false;
    }
  } else {
    reader.fail("expected '[' or '{'");
  }
  if (!ok) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  return true;
}

bool load_exemplars(std::istream& in, std::vector<CallExemplar>& out,
                    std::string* error, std::uint64_t* slow_ms) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // Exemplar documents are bounded (top-K calls, capped subtrees), so a
  // whole-document DOM is fine where the trace loader has to stream.
  json::Value doc;
  if (!json::parse(text, doc, error)) return false;
  if (doc.type != json::Value::Type::Object) {
    if (error != nullptr) *error = "exemplar document is not an object";
    return false;
  }
  if (slow_ms != nullptr) *slow_ms = as_u64(doc.num_or("slow_ms", 0.0));
  const json::Value* exs = doc.find("exemplars");
  if (exs == nullptr || exs->type != json::Value::Type::Array) {
    if (error != nullptr) *error = "no exemplars array in document";
    return false;
  }
  for (const json::Value& j : exs->array) {
    if (j.type != json::Value::Type::Object) continue;
    CallExemplar ex;
    ex.call_id = as_u64(j.num_or("call_id", 0.0));
    ex.kind = j.str_or("kind");
    ex.copies = static_cast<int>(j.num_or("copies", 0.0));
    ex.over_threshold = j.num_or("over_threshold", 0.0) != 0.0;
    ex.start_ns = as_u64(j.num_or("start_ns", 0.0));
    ex.end_ns = as_u64(j.num_or("end_ns", 0.0));
    ex.latency_ns = as_u64(j.num_or("latency_ns", 0.0));
    if (const json::Value* p = j.find("phases");
        p != nullptr && p->type == json::Value::Type::Object) {
      ex.marshal_ns = as_u64(p->num_or("marshal_ns", 0.0));
      ex.queue_ns = as_u64(p->num_or("queue_ns", 0.0));
      ex.blocked_ns = as_u64(p->num_or("blocked_ns", 0.0));
      ex.exec_ns = as_u64(p->num_or("exec_ns", 0.0));
      ex.compute_ns = as_u64(p->num_or("compute_ns", 0.0));
      ex.copy_bytes = as_u64(p->num_or("copy_bytes", 0.0));
      ex.messages = as_u64(p->num_or("messages", 0.0));
      ex.dp_statements = as_u64(p->num_or("dp_statements", 0.0));
    }
    ex.subtree_events = as_u64(j.num_or("subtree_events", 0.0));
    ex.captured_events = as_u64(j.num_or("captured_events", 0.0));
    if (const json::Value* evs = j.find("events");
        evs != nullptr && evs->type == json::Value::Type::Array) {
      for (const json::Value& je : evs->array) {
        if (je.type != json::Value::Type::Object) continue;
        LoadedEvent e;
        convert_event(je, e);
        if (e.ph != "M") ex.events.push_back(std::move(e));
      }
    }
    out.push_back(std::move(ex));
  }
  return true;
}

TraceReport analyze_trace(const std::vector<LoadedEvent>& events) {
  TraceReport report;
  report.events = events.size();

  // --- wall clock ---------------------------------------------------------
  double t0 = 0.0, t1 = 0.0;
  bool have_time = false;
  for (const LoadedEvent& e : events) {
    if (e.ph != "X" && e.ph != "i" && e.ph != "s" && e.ph != "f") continue;
    const double end = e.ph == "X" ? span_end(e) : e.ts_us;
    if (!have_time) {
      t0 = e.ts_us;
      t1 = end;
      have_time = true;
    } else {
      t0 = std::min(t0, e.ts_us);
      t1 = std::max(t1, end);
    }
  }
  report.wall_us = have_time ? t1 - t0 : 0.0;

  // --- flow pairing -------------------------------------------------------
  std::unordered_set<std::uint64_t> starts, finishes;
  for (const LoadedEvent& e : events) {
    if (e.ph == "s") starts.insert(e.id);
    if (e.ph == "f") finishes.insert(e.id);
    // The exporter only emits "s"/"f" for flows whose BOTH endpoints were
    // in its own process, so a multi-process run's per-rank files carry no
    // arrow for any cross-process message.  The raw flow ids survive in
    // args on the send instant and the receive span, and next_flow_id
    // makes them launch-unique — pair on those too, so merging rank files
    // (tdp_trace tdp_trace.rank*.json) recovers cross-process arrows.
    if (e.ph == "i" && e.name == "vp.send" && e.flow != 0) {
      starts.insert(e.flow);
    }
    if (e.ph == "X" && e.name == "vp.recv" && e.flow != 0) {
      finishes.insert(e.flow);
    }
  }
  for (const std::uint64_t id : starts) {
    if (finishes.count(id) != 0) {
      ++report.flow_pairs;
    } else {
      ++report.unmatched_flows;
    }
  }
  for (const std::uint64_t id : finishes) {
    if (starts.count(id) == 0) ++report.unmatched_flows;
  }

  // --- per-VP utilization and blocking breakdown --------------------------
  struct VpAccum {
    std::vector<std::pair<double, double>> active;
    std::vector<std::pair<double, double>> recv_wait;
    // vp.recv durations rebucketed log2 (in ns) for the shared quantile
    // math — same bucket→percentile routine as the live sampler, so the
    // offline report and tdp_top agree on what "p99 recv wait" means.
    std::array<std::uint64_t, Histogram::kBuckets> recv_buckets{};
    VpStats stats;
  };
  std::map<std::int64_t, VpAccum> per_vp;  // ordered by tid for the report
  for (const LoadedEvent& e : events) {
    if (e.ph != "X" && e.ph != "i") continue;
    VpAccum& a = per_vp[e.tid];
    a.stats.tid = e.tid;
    if (e.ph == "X") {
      a.active.emplace_back(e.ts_us, span_end(e));
      if (e.name == "vp.recv") {
        a.recv_wait.emplace_back(e.ts_us, span_end(e));
        ++a.stats.recv_count;
        const std::uint64_t dur_ns =
            e.dur_us > 0.0 ? static_cast<std::uint64_t>(e.dur_us * 1000.0)
                           : 0;
        ++a.recv_buckets[static_cast<std::size_t>(std::bit_width(dur_ns))];
      }
    } else {
      if (e.name == "vp.recv_miss") ++a.stats.recv_misses;
      if (e.name == "vp.send") ++a.stats.sends;
    }
  }
  for (auto& [tid, a] : per_vp) {
    a.stats.active_us = union_length_us(a.active);
    a.stats.recv_wait_us = union_length_us(a.recv_wait);
    a.stats.compute_us = std::max(0.0, a.stats.active_us - a.stats.recv_wait_us);
    a.stats.utilization =
        report.wall_us > 0.0 ? a.stats.compute_us / report.wall_us : 0.0;
    if (a.stats.recv_count != 0) {
      a.stats.recv_p50_us = static_cast<double>(Histogram::percentile_from_buckets(
                                a.recv_buckets, 0.50)) /
                            1000.0;
      a.stats.recv_p99_us = static_cast<double>(Histogram::percentile_from_buckets(
                                a.recv_buckets, 0.99)) /
                            1000.0;
    }
    report.vps.push_back(a.stats);
  }

  // --- per-call critical path ---------------------------------------------
  std::map<std::uint64_t, CallSpans> calls;
  std::unordered_map<std::uint64_t, const LoadedEvent*> send_by_flow;
  std::unordered_map<std::uint64_t, std::vector<const LoadedEvent*>>
      recvs_by_comm;
  for (const LoadedEvent& e : events) {
    if (e.ph == "i" && e.name == "vp.send" && e.flow != 0) {
      send_by_flow.emplace(e.flow, &e);
    }
    if (e.ph != "X") continue;
    if (e.name == "vp.recv" && e.comm != 0 && e.flow != 0) {
      recvs_by_comm[e.comm].push_back(&e);
    }
    if (e.comm == 0) continue;
    CallSpans& call = calls[e.comm];
    if (e.name == "call.marshal") {
      call.marshal = &e;
    } else if (e.name == "call.execute") {
      call.executes.push_back(&e);
    } else if (e.name == "call.combine") {
      call.combine = &e;
    }
  }

  for (auto& [comm, call] : calls) {
    if (call.executes.empty()) continue;
    CallStats cs;
    cs.comm = comm;
    cs.copies = static_cast<int>(call.executes.size());

    double lo = call.executes.front()->ts_us;
    double hi = span_end(*call.executes.front());
    const auto widen = [&](const LoadedEvent* e) {
      if (e == nullptr) return;
      lo = std::min(lo, e->ts_us);
      hi = std::max(hi, span_end(*e));
    };
    widen(call.marshal);
    widen(call.combine);
    for (const LoadedEvent* e : call.executes) widen(e);
    cs.makespan_us = hi - lo;

    // Walk backward from the join.  Each step asks "what finished last
    // among the things this span had to wait for?" and follows the
    // recorded causal edge (message flow id or spawn) to its producer.
    std::vector<std::pair<const LoadedEvent*, std::string>> rev;  // node, via
    std::unordered_set<const LoadedEvent*> visited;
    const LoadedEvent* cur = call.combine;
    std::string via_from_pred;
    if (cur != nullptr) {
      rev.emplace_back(cur, "");
      visited.insert(cur);
      // The combine waits on every copy's result; its predecessor is the
      // copy that defined its result last.
      const LoadedEvent* last = nullptr;
      for (const LoadedEvent* e : call.executes) {
        if (last == nullptr || span_end(*e) > span_end(*last)) last = e;
      }
      cur = last;
      via_from_pred = "join";
    } else {
      const LoadedEvent* last = nullptr;
      for (const LoadedEvent* e : call.executes) {
        if (last == nullptr || span_end(*e) > span_end(*last)) last = e;
      }
      cur = last;
    }

    const std::vector<const LoadedEvent*>& comm_recvs = recvs_by_comm[comm];
    for (int step = 0; cur != nullptr && step < 128; ++step) {
      if (visited.count(cur) != 0) break;
      visited.insert(cur);
      rev.emplace_back(cur, via_from_pred);

      // Latest-finishing receive inside this execute whose sender we can
      // locate: the message this copy finished waiting for last.
      const LoadedEvent* gating_recv = nullptr;
      const LoadedEvent* gating_send = nullptr;
      for (const LoadedEvent* r : comm_recvs) {
        if (r->tid != cur->tid || r->ts_us < cur->ts_us ||
            span_end(*r) > span_end(*cur)) {
          continue;
        }
        const auto it = send_by_flow.find(r->flow);
        if (it == send_by_flow.end()) continue;
        const LoadedEvent* sender_exec =
            enclosing_execute(call, it->second->tid, it->second->ts_us);
        if (sender_exec == nullptr || visited.count(sender_exec) != 0) {
          continue;
        }
        if (gating_recv == nullptr || span_end(*r) > span_end(*gating_recv)) {
          gating_recv = r;
          gating_send = it->second;
        }
      }
      if (gating_recv != nullptr) {
        std::ostringstream via;
        via << "msg tag="
            << static_cast<std::int32_t>(
                   static_cast<std::uint32_t>(gating_send->arg1))
            << " " << row_name(gating_send->tid) << "->" << row_name(cur->tid);
        via_from_pred = via.str();
        cur = enclosing_execute(call, gating_send->tid, gating_send->ts_us);
        continue;
      }
      // No gating message: this copy started from the spawn.
      if (call.marshal != nullptr && visited.count(call.marshal) == 0 &&
          cur->name == "call.execute") {
        via_from_pred = "spawn";
        cur = call.marshal;
        continue;
      }
      break;
    }

    cs.critical_path.reserve(rev.size());
    for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
      PathNode node;
      node.name = it->first->name;
      node.tid = it->first->tid;
      node.ts_us = it->first->ts_us;
      node.dur_us = it->first->dur_us;
      cs.critical_path.push_back(std::move(node));
    }
    // rev[i].second labels the edge from rev[i] to its successor rev[i-1];
    // after reversing, that is exactly node i's edge to node i+1 (the final
    // node carries the empty label it was pushed with).
    for (std::size_t i = 0; i + 1 < cs.critical_path.size(); ++i) {
      cs.critical_path[i].via = rev[rev.size() - 1 - i].second;
    }
    // Chain spans overlap in time (a sender computes concurrently with its
    // receiver), so the path length is the union of their intervals: the
    // share of the makespan the chain accounts for, never more than 100%.
    std::vector<std::pair<double, double>> chain;
    chain.reserve(cs.critical_path.size());
    for (const PathNode& n : cs.critical_path) {
      chain.emplace_back(n.ts_us, n.ts_us + n.dur_us);
    }
    cs.path_us = union_length_us(chain);
    report.calls.push_back(std::move(cs));
  }
  std::sort(report.calls.begin(), report.calls.end(),
            [](const CallStats& a, const CallStats& b) {
              return a.makespan_us > b.makespan_us;
            });
  return report;
}

void write_report(std::ostream& os, const TraceReport& report) {
  os << "== tdp_trace report ==\n";
  os << "events: " << report.events << "  wall: " << fmt_ms(report.wall_us)
     << "  flow pairs: " << report.flow_pairs;
  if (report.unmatched_flows != 0) {
    os << "  UNMATCHED: " << report.unmatched_flows;
  }
  os << "\n\n";

  os << "per-VP utilization (blocking breakdown):\n";
  os << "  " << std::left << std::setw(6) << "vp" << std::right << std::setw(12)
     << "active" << std::setw(12) << "compute" << std::setw(12) << "recv-wait"
     << std::setw(12) << "recv-p50" << std::setw(12) << "recv-p99"
     << std::setw(8) << "recvs" << std::setw(8) << "misses" << std::setw(8)
     << "sends" << std::setw(8) << "util" << "\n";
  for (const VpStats& v : report.vps) {
    os << "  " << std::left << std::setw(6) << row_name(v.tid) << std::right
       << std::setw(12) << fmt_ms(v.active_us) << std::setw(12)
       << fmt_ms(v.compute_us) << std::setw(12) << fmt_ms(v.recv_wait_us)
       << std::setw(12) << fmt_ms(v.recv_p50_us) << std::setw(12)
       << fmt_ms(v.recv_p99_us)
       << std::setw(8) << v.recv_count << std::setw(8) << v.recv_misses
       << std::setw(8) << v.sends << std::setw(8) << fmt_pct(v.utilization)
       << "\n";
  }
  os << "\n";

  if (report.calls.empty()) {
    os << "distributed calls: none found in trace\n";
    return;
  }
  os << "distributed calls, ranked by makespan:\n";
  for (const CallStats& c : report.calls) {
    os << "  call comm=" << c.comm << ": " << c.copies
       << (c.copies == 1 ? " copy" : " copies") << ", makespan "
       << fmt_ms(c.makespan_us) << ", critical path " << fmt_ms(c.path_us);
    if (c.makespan_us > 0.0) {
      os << " (" << fmt_pct(c.path_us / c.makespan_us) << ")";
    }
    os << "\n";
    for (std::size_t i = 0; i < c.critical_path.size(); ++i) {
      const PathNode& n = c.critical_path[i];
      os << "    " << (i == 0 ? "  " : "└─ ") << "[" << std::left
         << std::setw(5) << row_name(n.tid) << std::right << "] " << std::left
         << std::setw(16) << n.name << std::right << " " << fmt_ms(n.dur_us);
      if (!n.via.empty()) os << "  --" << n.via << "-->";
      os << "\n";
    }
  }
}

void write_why_report(std::ostream& os, const CallExemplar& ex) {
  const double latency_ms = static_cast<double>(ex.latency_ns) / 1e6;
  os << "== tdp_trace why: " << ex.kind << " " << ex.call_id << " ("
     << ex.copies << (ex.copies == 1 ? " copy" : " copies") << ") ==\n";
  os << "latency: " << std::fixed << std::setprecision(3) << latency_ms
     << " ms  ("
     << (ex.over_threshold ? "over TDP_OBS_SLOW_MS"
                           : "top-K reservoir exemplar, under threshold")
     << ")\n\n";

  // Phase times sum over the call's concurrently-running copies
  // (copy-seconds), so shares are reported against the attributed total,
  // which can legitimately exceed the wall latency.
  const std::uint64_t attributed =
      ex.marshal_ns + ex.queue_ns + ex.blocked_ns + ex.compute_ns;
  const auto phase_row = [&](const char* label, std::uint64_t ns) {
    os << "  " << std::left << std::setw(16) << label << std::right
       << std::setw(14) << fmt_ms(static_cast<double>(ns) / 1000.0)
       << std::setw(9)
       << (attributed != 0
               ? fmt_pct(static_cast<double>(ns) /
                         static_cast<double>(attributed))
               : std::string("-"))
       << "\n";
  };
  os << "attributed phase time (copy-seconds; copies run concurrently, so "
        "the\ntotal can exceed wall latency):\n";
  phase_row("marshal", ex.marshal_ns);
  phase_row("queue wait", ex.queue_ns);
  phase_row("blocked recv", ex.blocked_ns);
  phase_row("compute", ex.compute_ns);
  os << "  " << std::left << std::setw(16) << "total" << std::right
     << std::setw(14) << fmt_ms(static_cast<double>(attributed) / 1000.0)
     << "\n\n";
  os << "traffic: " << ex.messages << " messages, " << ex.copy_bytes
     << " payload bytes, " << ex.dp_statements << " dp statements\n";
  os << "captured events: " << ex.captured_events << " of "
     << ex.subtree_events << " subtree events";
  if (ex.captured_events < ex.subtree_events) {
    os << " (oldest truncated by the per-exemplar cap)";
  }
  os << "\n\n";

  // The captured subtree is a valid Chrome-event set, so the ordinary
  // critical-path reconstruction applies to it directly.
  const TraceReport report = analyze_trace(ex.events);
  const CallStats* call = nullptr;
  for (const CallStats& c : report.calls) {
    if (c.comm == ex.call_id) {
      call = &c;
      break;
    }
  }
  if (call == nullptr || call->critical_path.empty()) {
    os << "critical path: not reconstructible from the captured subtree\n"
          "(no call.execute spans — a do_all exemplar, or the spans were\n"
          "evicted from the ring before capture); the phase table above is\n"
          "the attribution.\n";
    return;
  }
  os << "critical path (from the captured span subtree): "
     << fmt_ms(call->path_us) << " of " << fmt_ms(call->makespan_us)
     << " makespan";
  if (call->makespan_us > 0.0) {
    os << " (" << fmt_pct(call->path_us / call->makespan_us) << ")";
  }
  os << "\n";
  for (std::size_t i = 0; i < call->critical_path.size(); ++i) {
    const PathNode& n = call->critical_path[i];
    os << "    " << (i == 0 ? "  " : "└─ ") << "[" << std::left << std::setw(5)
       << row_name(n.tid) << std::right << "] " << std::left << std::setw(16)
       << n.name << std::right << " " << fmt_ms(n.dur_us);
    if (!n.via.empty()) os << "  --" << n.via << "-->";
    os << "\n";
  }
}

}  // namespace tdp::obs
