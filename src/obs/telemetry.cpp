#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/attr.hpp"
#include "obs/expose.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/atomic_print.hpp"
#include "util/env.hpp"

namespace tdp::obs {

namespace {

/// Set from the SIGUSR1 handler; only ever read/cleared from service
/// threads.  sig_atomic_t-compatible operations keep the handler safe.
std::atomic<int> g_dump_requested{0};

std::string dump_prefix() {
  const char* env = std::getenv("TDP_OBS_DUMP");
  // Rank-qualified under a multi-process launch, like the shutdown trace:
  // N ranks dumping into one directory must not clobber each other.
  return per_rank_path(env != nullptr && env[0] != '\0'
                           ? std::string(env)
                           : std::string("tdp_flight"));
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 4);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

constexpr std::uint64_t kNsPerMs = 1000000;

/// A millisecond period from the environment, 0 when unset/invalid.
std::uint64_t env_ms(const char* name) {
  return static_cast<std::uint64_t>(
      util::env_int(name, 0, 0, std::numeric_limits<long long>::max()));
}

const char* cls_name(std::int32_t cls) {
  switch (cls) {
    case 0: return "task";
    case 1: return "data";
    default: return "any";
  }
}

}  // namespace

Telemetry& Telemetry::instance() {
  // Construction is ordered after Tracer/Registry: the sampling thread
  // reads both, so both must be destroyed after the telemetry singleton.
  Tracer::instance();
  Registry::instance();
  static Telemetry telemetry;
  return telemetry;
}

Telemetry::~Telemetry() { stop(); }

void Telemetry::start(std::uint64_t sample_ms, std::uint64_t stall_ms) {
  if (sample_ms == 0 && stall_ms == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!thread_.joinable() || stall_ms != stall_ms_) {
    stall_since_ns_ = 0;  // a new window starts from a fresh observation
    stall_reported_ = false;
  }
  period_ms_ = sample_ms;
  stall_ms_ = stall_ms;
  if (!thread_.joinable()) {
    stopping_ = false;
    thread_ = std::thread([this] { run(); });
  }
}

void Telemetry::stop() {
  // Symmetric with telemetry_start_from_env: the sampler going away takes
  // the SIGUSR1 dump handler with it, restoring whatever disposition the
  // process had before (a no-op when we never installed one).
  uninstall_dump_signal_handler();
  join_thread();
}

void Telemetry::join_thread() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!thread_.joinable()) return;
    stopping_ = true;
    worker = std::move(thread_);
  }
  cv_.notify_all();
  worker.join();
}

bool Telemetry::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_.joinable();
}

int Telemetry::add_vp_source(int vp, const VpWaitState* state,
                             Describe describe) {
  std::lock_guard<std::mutex> lock(mutex_);
  VpTrack track;
  track.token = next_token_++;
  track.vp = vp;
  track.state = state;
  track.describe = std::move(describe);
  vps_.push_back(std::move(track));
  return vps_.back().token;
}

void Telemetry::remove_vp_source(int token) {
  bool stop_thread = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(vps_, [token](const VpTrack& t) { return t.token == token; });
    stop_thread = vps_.empty() && thread_.joinable();
  }
  // Not stop(): the SIGUSR1 disposition outlives one Machine, so a signal
  // between two Machines never meets the default (terminating) action.
  if (stop_thread) join_thread();
}

void Telemetry::set_report_sink(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  report_sink_ = std::move(sink);
}

void Telemetry::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    // One thread, two deadlines: a history sample every period_ms_, a
    // stall check at least every stall_ms_ (and at every wake, since a
    // check is a few loads per source).
    const std::uint64_t now = now_ns();
    const std::uint64_t sample_ns = period_ms_ * kNsPerMs;
    const std::uint64_t stall_ns = stall_ms_ * kNsPerMs;
    if (sample_ns != 0 && now >= last_tick_ns_ + sample_ns) tick_locked(now);
    const std::string report =
        stall_ns != 0 ? check_stall_locked(now) : std::string();
    std::uint64_t wake = now + (stall_ns != 0 ? stall_ns : sample_ns);
    if (sample_ns != 0) wake = std::min(wake, last_tick_ns_ + sample_ns);
    // Outside our lock: the sink is caller code, and the dump renders the
    // telemetry history, which takes the lock.
    const auto sink = report_sink_;
    lock.unlock();
    if (!report.empty()) {
      if (sink) {
        sink(report);
      } else {
        util::atomic_print_err(report);
      }
    }
    service_flight_dump_request();
    lock.lock();
    const std::uint64_t after = now_ns();
    const auto wait = std::chrono::nanoseconds(wake > after ? wake - after : 0);
    if (cv_.wait_for(lock, wait, [this] { return stopping_; })) break;
  }
}

void Telemetry::sample_now() {
  std::lock_guard<std::mutex> lock(mutex_);
  tick_locked(now_ns());
}

void Telemetry::set_sched_probe(SchedProbe probe) {
  std::lock_guard<std::mutex> lock(mutex_);
  sched_probe_ = std::move(probe);
  if (!sched_probe_) sched_track_ = SchedTrack{};
}

void Telemetry::set_dist_probe(DistProbe probe) {
  std::lock_guard<std::mutex> lock(mutex_);
  dist_probe_ = std::move(probe);
}

void Telemetry::note_stall(const std::string& report) {
  std::lock_guard<std::mutex> lock(mutex_);
  note_stall_locked(report);
}

void Telemetry::note_stall_locked(const std::string& report) {
  ++stalls_;
  const std::size_t eol = report.find('\n');
  last_stall_ = eol == std::string::npos ? report : report.substr(0, eol);
  snapshot_.stalls = stalls_;
  snapshot_.last_stall = last_stall_;
}

void Telemetry::tick_locked(std::uint64_t now) {
  const std::uint64_t ts_ms = now / 1000000;
  const double dt_s =
      last_tick_ns_ != 0 && now > last_tick_ns_
          ? static_cast<double>(now - last_tick_ns_) / 1e9
          : 0.0;

  Snapshot snap;
  snap.ts_ms = ts_ms;
  snap.period_ms = period_ms_;
  snap.samples = samples_ + 1;

  Registry::instance().visit(
      [&](const std::string& name, const ShardedCounter& c) {
        CounterTrack& t = counters_[name];
        const double value = static_cast<double>(c.value());
        Point p;
        p.ts_ms = ts_ms;
        p.value = value;
        p.rate = t.primed && dt_s > 0.0 ? (value - t.last) / dt_s : 0.0;
        if (p.rate < 0.0) p.rate = 0.0;  // reset_values mid-run
        t.last = value;
        t.primed = true;
        t.ring.push(p);
        snap.counters.emplace_back(name, p);
      },
      [&](const std::string& name, const Histogram& h) {
        HistTrack& t = histograms_[name];
        const std::array<std::uint64_t, Histogram::kBuckets> merged =
            h.merged();
        std::array<std::uint64_t, Histogram::kBuckets> delta{};
        std::uint64_t delta_count = 0;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          const std::uint64_t prev = t.primed ? t.last_buckets[b] : 0;
          delta[b] = merged[b] >= prev ? merged[b] - prev : merged[b];
          delta_count += delta[b];
        }
        HistPoint p;
        p.ts_ms = ts_ms;
        p.count = t.primed ? delta_count : 0;
        p.rate = t.primed && dt_s > 0.0
                     ? static_cast<double>(delta_count) / dt_s
                     : 0.0;
        if (p.count > 0) {
          p.p50 = Histogram::percentile_from_buckets(delta, 0.50);
          p.p99 = Histogram::percentile_from_buckets(delta, 0.99);
        }
        t.last_buckets = merged;
        t.primed = true;
        t.lifetime_count = h.count();
        t.lifetime_max = h.max();
        t.ring.push(p);
        Snapshot::HistRow row;
        row.name = name;
        row.latest = p;
        row.lifetime_count = t.lifetime_count;
        row.lifetime_max = t.lifetime_max;
        snap.histograms.push_back(std::move(row));
      });

  // Per-VP run/blocked sampling over the same VpWaitState blocks the stall
  // check reads.  Message rates come from the per-destination shards of
  // the vp.messages counter vp::Machine maintains.
  const std::vector<std::uint64_t> msgs =
      Registry::instance().counter("vp.messages").per_shard();
  for (VpTrack& t : vps_) {
    const std::uint64_t since =
        t.state->blocked_since_ns.load(std::memory_order_relaxed);
    std::uint64_t blocked_total =
        t.state->blocked_ns_total.load(std::memory_order_relaxed);
    if (since != 0 && now > since) blocked_total += now - since;
    const std::uint64_t progress =
        t.state->progress.load(std::memory_order_relaxed);
    const std::uint64_t vp_msgs = msgs[metric_shard(t.vp)];

    VpPoint p;
    p.ts_ms = ts_ms;
    p.depth = t.state->queue_depth.load(std::memory_order_relaxed);
    p.blocked = since != 0;
    p.blocked_ms = since != 0 && now > since ? (now - since) / 1000000 : 0;
    if (t.primed && dt_s > 0.0) {
      const double dt_ns = dt_s * 1e9;
      const double blocked_delta =
          blocked_total > t.last_blocked_ns
              ? static_cast<double>(blocked_total - t.last_blocked_ns)
              : 0.0;
      p.run_frac = std::clamp(1.0 - blocked_delta / dt_ns, 0.0, 1.0);
      p.msg_rate = vp_msgs >= t.last_msgs
                       ? static_cast<double>(vp_msgs - t.last_msgs) / dt_s
                       : 0.0;
      p.progress_rate =
          progress >= t.last_progress
              ? static_cast<double>(progress - t.last_progress) / dt_s
              : 0.0;
    }
    t.last_blocked_ns = blocked_total;
    t.last_progress = progress;
    t.last_msgs = vp_msgs;
    t.primed = true;
    t.ring.push(p);
    Snapshot::VpRow row;
    row.vp = t.vp;
    row.latest = p;
    snap.vps.push_back(std::move(row));
  }

  // Scheduler plane: per-worker run fractions from busy_ns deltas over the
  // window, runnable/suspended depths at the tick.
  if (sched_probe_) {
    const SchedSample s = sched_probe_();
    snap.sched.present = true;
    snap.sched.runnable = s.runnable;
    snap.sched.suspended = s.suspended;
    snap.sched.worker_run_frac.resize(s.worker_busy_ns.size(), 0.0);
    if (sched_track_.primed && dt_s > 0.0 &&
        sched_track_.last_busy_ns.size() == s.worker_busy_ns.size()) {
      const double dt_ns = dt_s * 1e9;
      for (std::size_t i = 0; i < s.worker_busy_ns.size(); ++i) {
        const std::uint64_t prev = sched_track_.last_busy_ns[i];
        const double busy =
            s.worker_busy_ns[i] >= prev
                ? static_cast<double>(s.worker_busy_ns[i] - prev)
                : 0.0;
        snap.sched.worker_run_frac[i] = std::clamp(busy / dt_ns, 0.0, 1.0);
      }
    }
    sched_track_.last_busy_ns = s.worker_busy_ns;
    sched_track_.primed = true;
  }

  // Distributed-array plane: cumulative migration counts and the hottest
  // shards by traffic in the current rebalance window.
  if (dist_probe_) {
    DistSample d = dist_probe_();
    snap.dist.present = true;
    snap.dist.migrations = d.migrations;
    snap.dist.rebalances = d.rebalances;
    snap.dist.forwards = d.forwards;
    snap.dist.hottest = std::move(d.hottest);
  }

  Tracer& tracer = Tracer::instance();
  snap.trace_recorded = tracer.recorded();
  snap.trace_overwritten = tracer.overwritten();
  snap.stalls = stalls_;
  snap.last_stall = last_stall_;

  ++samples_;
  last_tick_ns_ = now;
  snapshot_ = std::move(snap);
}

std::string Telemetry::check_stall_locked(std::uint64_t now) {
  std::uint64_t progress = 0;
  std::uint64_t queued = 0;
  std::uint64_t blocked = 0;
  for (const VpTrack& t : vps_) {
    progress += t.state->progress.load(std::memory_order_relaxed);
    queued += t.state->queue_depth.load(std::memory_order_relaxed);
    const std::uint64_t since =
        t.state->blocked_since_ns.load(std::memory_order_relaxed);
    if (since != 0 && since <= now) ++blocked;
  }
  counter_sample(Op::WdQueued, queued, -1);
  counter_sample(Op::WdBlocked, blocked, -1);

  if (stall_since_ns_ == 0 || progress != stall_progress_) {
    stall_progress_ = progress;
    stall_since_ns_ = now;
    stall_reported_ = false;
    return {};
  }
  if (blocked == 0 || now - stall_since_ns_ < stall_ms_ * kNsPerMs) {
    stall_reported_ = false;
    return {};
  }
  if (stall_reported_) return {};  // one report per stall episode
  stall_reported_ = true;

  std::ostringstream report;
  report << "== tdp::obs watchdog: no progress for " << stall_ms_ << " ms ("
         << blocked << " of " << vps_.size()
         << " VPs blocked in receive) ==\n"
         << describe_blocked_locked(now);
  if (sched_probe_) {
    const SchedSample s = sched_probe_();
    report << "  sched: " << s.worker_busy_ns.size() << " workers, "
           << s.runnable << " runnable, " << s.suspended
           << " suspended (tasks, not thread-blocked), " << s.spawned
           << " spawned, " << s.completed << " completed, " << s.steals
           << " steals, " << s.parks << " worker parks\n";
  }
  Registry::instance().counter("watchdog.stalls").add();
  note_stall_locked(report.str());
  // A stall is exactly the moment the flight recorder exists for: dump the
  // recent past before the operator even asks.  Auto-dumps are rate-
  // limited: the dump overwrites <prefix>.* in place, so a flapping stall
  // re-dumping every episode would destroy the evidence of the first one
  // and churn disk for as long as the flap lasts.
  if (last_auto_dump_ns_ == 0 ||
      now >= last_auto_dump_ns_ + kAutoDumpCooldownNs) {
    last_auto_dump_ns_ = now;
    request_flight_dump();
  } else {
    Registry::instance().counter("watchdog.dumps_suppressed").add();
  }
  return report.str();
}

std::string Telemetry::describe_blocked_locked(std::uint64_t now) const {
  std::ostringstream out;
  for (const VpTrack& t : vps_) {
    const VpWaitState& st = *t.state;
    const std::uint64_t since =
        st.blocked_since_ns.load(std::memory_order_relaxed);
    if (since == 0) continue;
    const std::int32_t cls = st.wait_cls.load(std::memory_order_relaxed);
    const std::int32_t src_proc = st.wait_src.load(std::memory_order_relaxed);
    const std::int32_t sleepers =
        st.blocked_waiters.load(std::memory_order_relaxed);
    const std::int32_t suspended =
        st.suspended_waiters.load(std::memory_order_relaxed);
    out << "  vp" << t.vp << ": "
        << (suspended >= sleepers ? "suspended (task, not thread-blocked)"
                                  : "blocked")
        << " in selective receive for "
        << (now > since ? (now - since) / kNsPerMs : 0) << " ms";
    if (sleepers > 1) {
      out << " (" << sleepers << " receivers";
      if (suspended > 0 && suspended < sleepers) {
        out << ", " << suspended << " suspended tasks";
      }
      out << ")";
    }
    out << " waiting for ";
    if (cls < 0) {
      out << "(opaque predicate)";
    } else {
      out << "(cls=" << cls_name(cls)
          << ", comm=" << st.wait_comm.load(std::memory_order_relaxed)
          << ", tag=" << st.wait_tag.load(std::memory_order_relaxed)
          << ", src="
          << (src_proc < 0 ? std::string("any") : std::to_string(src_proc))
          << ")";
    }
    out << "; ";
    if (t.describe) {
      out << t.describe();
    } else {
      out << st.queue_depth.load(std::memory_order_relaxed) << " pending";
    }
    out << "\n";
  }
  return out.str();
}

Telemetry::Snapshot Telemetry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

std::string Telemetry::render_prometheus() const {
  std::ostringstream os;
  os << "tdp_up 1\n";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    os << "tdp_telemetry_samples " << samples_ << "\n";
    os << "tdp_telemetry_period_ms " << period_ms_ << "\n";
    os << "tdp_watchdog_stall_episodes " << stalls_ << "\n";
    for (const auto& [name, point] : snapshot_.counters) {
      const std::string base = "tdp_" + sanitize_metric_name(name);
      os << base << "_total " << static_cast<std::uint64_t>(point.value)
         << "\n";
      os << base << "_rate " << fmt_double(point.rate) << "\n";
    }
    // The slowest retained exemplar annotates the call-latency p99 line in
    // OpenMetrics exemplar syntax, so a dashboard's tail-latency panel
    // links straight to a concrete call id `tdp_trace why` can explain.
    const std::vector<ExemplarSummary> slow =
        CallTable::instance().exemplar_summaries();
    for (const Snapshot::HistRow& row : snapshot_.histograms) {
      const std::string base = "tdp_" + sanitize_metric_name(row.name);
      os << base << "_count " << row.lifetime_count << "\n";
      os << base << "_max " << row.lifetime_max << "\n";
      os << base << "{quantile=\"0.5\"} " << row.latest.p50 << "\n";
      os << base << "{quantile=\"0.99\"} " << row.latest.p99;
      if (row.name == "call.latency_ns" && !slow.empty()) {
        os << " # {call_id=\"" << slow.front().call.id << "\"} "
           << slow.front().call.latency_ns();
      }
      os << "\n";
    }
    // Cardinality bound: individual rows for the first kMaxVpSeries VPs,
    // one folded {vp="64+"} row for the rest.  The folded row has no
    // message rate — vp.messages shards alias at vp mod 64, so folded VPs'
    // deltas would double-count the low VPs they share a shard with.
    std::size_t folded = 0;
    double fold_min_run = 1.0;
    std::uint64_t fold_depth = 0;
    std::size_t fold_blocked = 0;
    for (const Snapshot::VpRow& row : snapshot_.vps) {
      if (row.vp >= 0 && static_cast<std::size_t>(row.vp) >= kMaxVpSeries) {
        ++folded;
        fold_min_run = std::min(fold_min_run, row.latest.run_frac);
        fold_depth += row.latest.depth;
        if (row.latest.blocked) ++fold_blocked;
        continue;
      }
      const std::string label = "{vp=\"" + std::to_string(row.vp) + "\"}";
      os << "tdp_vp_run_fraction" << label << " "
         << fmt_double(row.latest.run_frac) << "\n";
      os << "tdp_vp_queue_depth" << label << " " << row.latest.depth << "\n";
      os << "tdp_vp_message_rate" << label << " "
         << fmt_double(row.latest.msg_rate) << "\n";
      os << "tdp_vp_blocked" << label << " " << (row.latest.blocked ? 1 : 0)
         << "\n";
    }
    if (folded != 0) {
      const std::string label =
          "{vp=\"" + std::to_string(kMaxVpSeries) + "+\"}";
      os << "tdp_vp_folded " << folded << "\n";
      os << "tdp_vp_run_fraction" << label << " " << fmt_double(fold_min_run)
         << "\n";
      os << "tdp_vp_queue_depth" << label << " " << fold_depth << "\n";
      os << "tdp_vp_blocked" << label << " " << fold_blocked << "\n";
    }
    if (snapshot_.sched.present) {
      os << "tdp_sched_runnable " << snapshot_.sched.runnable << "\n";
      os << "tdp_sched_suspended " << snapshot_.sched.suspended << "\n";
      for (std::size_t i = 0; i < snapshot_.sched.worker_run_frac.size();
           ++i) {
        os << "tdp_sched_worker_run_frac{worker=\"" << i << "\"} "
           << fmt_double(snapshot_.sched.worker_run_frac[i]) << "\n";
      }
    }
    if (snapshot_.dist.present) {
      os << "tdp_dist_shard_migrations " << snapshot_.dist.migrations << "\n";
      os << "tdp_dist_rebalances " << snapshot_.dist.rebalances << "\n";
      os << "tdp_dist_shard_forwards " << snapshot_.dist.forwards << "\n";
    }
    os << "tdp_calls_started " << CallTable::instance().started() << "\n";
    os << "tdp_calls_completed " << CallTable::instance().completed() << "\n";
    os << "tdp_call_exemplars_captured " << CallTable::instance().captured()
       << "\n";
    os << "tdp_trace_recorded " << snapshot_.trace_recorded << "\n";
    os << "tdp_trace_overwritten " << snapshot_.trace_overwritten << "\n";
  }
  return os.str();
}

std::string Telemetry::render_json() const {
  std::ostringstream os;
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"ts_ms\":" << snapshot_.ts_ms << ",\"period_ms\":" << period_ms_
     << ",\"samples\":" << samples_;
  os << ",\"trace\":{\"recorded\":" << snapshot_.trace_recorded
     << ",\"overwritten\":" << snapshot_.trace_overwritten << "}";
  os << ",\"stalls\":{\"count\":" << stalls_ << ",\"last\":\""
     << json::escape(last_stall_) << "\"}";

  os << ",\"counters\":[";
  bool first = true;
  for (const auto& [name, track] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json::escape(name) << "\",\"points\":[";
    bool p_first = true;
    for (const Point& p : track.ring.points) {
      if (!p_first) os << ",";
      p_first = false;
      os << "{\"t\":" << p.ts_ms << ",\"v\":" << fmt_double(p.value)
         << ",\"rate\":" << fmt_double(p.rate) << "}";
    }
    os << "]}";
  }
  os << "]";

  os << ",\"histograms\":[";
  first = true;
  for (const auto& [name, track] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json::escape(name)
       << "\",\"count\":" << track.lifetime_count
       << ",\"max\":" << track.lifetime_max << ",\"points\":[";
    bool p_first = true;
    for (const HistPoint& p : track.ring.points) {
      if (!p_first) os << ",";
      p_first = false;
      os << "{\"t\":" << p.ts_ms << ",\"n\":" << p.count
         << ",\"rate\":" << fmt_double(p.rate) << ",\"p50\":" << p.p50
         << ",\"p99\":" << p.p99 << "}";
    }
    os << "]}";
  }
  os << "]";

  os << ",\"vps\":[";
  first = true;
  for (const VpTrack& t : vps_) {
    if (!first) os << ",";
    first = false;
    os << "{\"vp\":" << t.vp << ",\"points\":[";
    bool p_first = true;
    for (const VpPoint& p : t.ring.points) {
      if (!p_first) os << ",";
      p_first = false;
      os << "{\"t\":" << p.ts_ms << ",\"depth\":" << p.depth
         << ",\"run\":" << fmt_double(p.run_frac)
         << ",\"rate\":" << fmt_double(p.msg_rate)
         << ",\"prog\":" << fmt_double(p.progress_rate)
         << ",\"blocked\":" << (p.blocked ? 1 : 0)
         << ",\"blocked_ms\":" << p.blocked_ms << "}";
    }
    os << "]}";
  }
  os << "]";

  if (snapshot_.sched.present) {
    os << ",\"sched\":{\"workers\":" << snapshot_.sched.worker_run_frac.size()
       << ",\"runnable\":" << snapshot_.sched.runnable
       << ",\"suspended\":" << snapshot_.sched.suspended << ",\"run_frac\":[";
    first = true;
    for (const double f : snapshot_.sched.worker_run_frac) {
      if (!first) os << ",";
      first = false;
      os << fmt_double(f);
    }
    os << "]}";
  }

  if (snapshot_.dist.present) {
    os << ",\"dist\":{\"migrations\":" << snapshot_.dist.migrations
       << ",\"rebalances\":" << snapshot_.dist.rebalances
       << ",\"forwards\":" << snapshot_.dist.forwards << ",\"hot\":[";
    first = true;
    for (const DistSample::ShardRow& r : snapshot_.dist.hottest) {
      if (!first) os << ",";
      first = false;
      os << "{\"array\":\"" << r.creator << ":" << r.seq
         << "\",\"shard\":" << r.shard << ",\"owner\":" << r.owner
         << ",\"bytes\":" << r.bytes << "}";
    }
    os << "]}";
  }

  // Slow-call attribution: retained exemplar summaries (no event payloads
  // here — the full subtrees come from the `slow` verb / .slow.json).
  {
    CallTable& table = CallTable::instance();
    os << ",\"slow\":{\"threshold_ms\":" << table.slow_threshold_ms()
       << ",\"started\":" << table.started()
       << ",\"completed\":" << table.completed()
       << ",\"captured\":" << table.captured() << ",\"calls\":[";
    first = true;
    for (const ExemplarSummary& ex : table.exemplar_summaries()) {
      if (!first) os << ",";
      first = false;
      os << "{\"call_id\":" << ex.call.id << ",\"kind\":\""
         << call_kind_name(ex.call.kind) << "\",\"copies\":" << ex.call.copies
         << ",\"over_threshold\":" << (ex.over_threshold ? 1 : 0)
         << ",\"latency_ns\":" << ex.call.latency_ns()
         << ",\"marshal_ns\":" << ex.call.phases.marshal_ns
         << ",\"queue_ns\":" << ex.call.phases.queue_ns
         << ",\"blocked_ns\":" << ex.call.phases.blocked_ns
         << ",\"compute_ns\":" << ex.call.phases.compute_ns()
         << ",\"copy_bytes\":" << ex.call.phases.copy_bytes
         << ",\"messages\":" << ex.call.phases.messages
         << ",\"dp_statements\":" << ex.call.phases.dp_statements
         << ",\"captured_events\":" << ex.captured_events << "}";
    }
    os << "]}";
  }
  os << "}";
  return os.str();
}

void Telemetry::reset_for_test() {
  std::lock_guard<std::mutex> lock(mutex_);
  last_tick_ns_ = 0;
  samples_ = 0;
  counters_.clear();
  histograms_.clear();
  for (VpTrack& t : vps_) {
    t.primed = false;
    t.last_blocked_ns = 0;
    t.last_progress = 0;
    t.last_msgs = 0;
    t.ring.points.clear();
  }
  sched_track_ = SchedTrack{};
  stalls_ = 0;
  last_stall_.clear();
  stall_since_ns_ = 0;
  stall_reported_ = false;
  last_auto_dump_ns_ = 0;
  snapshot_ = Snapshot{};
}

// ---------------------------------------------------------------------------
// Flight-recorder dump plumbing.

void request_flight_dump() {
  g_dump_requested.store(1, std::memory_order_relaxed);
}

bool service_flight_dump_request() {
  if (g_dump_requested.exchange(0, std::memory_order_relaxed) == 0) {
    return false;
  }
  dump_flight_data("dump requested");
  return true;
}

std::string dump_flight_data(const char* reason) {
  // The sampler's dump and the socket's `dump` verb may overlap; two
  // truncating writers on one file would interleave.
  static std::mutex dump_mutex;
  std::lock_guard<std::mutex> lock(dump_mutex);
  const std::string prefix = dump_prefix();
  const std::string trace_path = prefix + ".trace.json";
  const std::string telemetry_path = prefix + ".telemetry.json";
  const std::string slow_path = prefix + ".slow.json";
  const bool trace_ok = dump_flight_recorder(trace_path);
  bool telemetry_ok = false;
  {
    std::ofstream out(telemetry_path, std::ios::trunc);
    if (out) {
      out << Telemetry::instance().render_json() << "\n";
      telemetry_ok = out.good();
    }
  }
  bool slow_ok = false;
  {
    std::ofstream out(slow_path, std::ios::trunc);
    if (out) {
      out << CallTable::instance().render_exemplars_json() << "\n";
      slow_ok = out.good();
    }
  }
  std::ostringstream line;
  line << "tdp::obs: flight dump (" << reason << "): ";
  if (trace_ok) {
    line << trace_path << " (" << Tracer::instance().recorded()
         << " events recorded";
    if (const std::uint64_t ow = Tracer::instance().overwritten(); ow != 0) {
      line << ", oldest " << ow << " overwritten";
    }
    line << ")";
  } else {
    line << "trace NOT written to " << trace_path;
  }
  line << (telemetry_ok ? ", " : ", telemetry NOT written to ")
       << telemetry_path;
  line << (slow_ok ? ", " : ", slow calls NOT written to ") << slow_path;
  util::atomic_print_err(line.str());
  return trace_ok ? trace_path : std::string();
}

#ifdef SIGUSR1
namespace {

// install/uninstall run from ordinary threads (never from the handler
// itself), so a mutex is fine here; the handler touches only the atomic
// request flag.
std::mutex g_handler_mutex;
bool g_handler_installed = false;      // guarded by g_handler_mutex
struct sigaction g_previous_action;    // valid iff g_handler_installed

extern "C" void tdp_dump_signal_handler(int) { request_flight_dump(); }

}  // namespace
#endif

void install_dump_signal_handler() {
#ifdef SIGUSR1
  std::lock_guard<std::mutex> lock(g_handler_mutex);
  if (g_handler_installed) return;
  // Never clobber a handler the host application registered: a library
  // must not silently repurpose a signal its embedder already uses.
  // SIG_IGN counts as registered — ignoring SIGUSR1 is a deliberate
  // setting too.  (SIG_DFL for SIGUSR1 terminates the process, so taking
  // it over strictly improves matters.)
  struct sigaction current {};
  if (sigaction(SIGUSR1, nullptr, &current) != 0) return;
  const bool user_registered =
      (current.sa_flags & SA_SIGINFO) != 0 || current.sa_handler != SIG_DFL;
  if (user_registered) {
    util::atomic_print_err(
        "tdp::obs: SIGUSR1 already has a handler; flight-dump-on-signal "
        "disabled (use obs::request_flight_dump() or the exposition "
        "server's `dump` command instead)");
    return;
  }
  struct sigaction ours {};
  ours.sa_handler = &tdp_dump_signal_handler;
  sigemptyset(&ours.sa_mask);
  ours.sa_flags = SA_RESTART;
  if (sigaction(SIGUSR1, &ours, &g_previous_action) == 0) {
    g_handler_installed = true;
  }
#endif
}

void uninstall_dump_signal_handler() {
#ifdef SIGUSR1
  std::lock_guard<std::mutex> lock(g_handler_mutex);
  if (!g_handler_installed) return;
  g_handler_installed = false;
  // Restore the saved disposition only if ours is still current — if the
  // application installed its own handler after us, leave it in place.
  struct sigaction current {};
  if (sigaction(SIGUSR1, nullptr, &current) != 0) return;
  if ((current.sa_flags & SA_SIGINFO) == 0 &&
      current.sa_handler == &tdp_dump_signal_handler) {
    sigaction(SIGUSR1, &g_previous_action, nullptr);
  }
#endif
}

bool dump_signal_handler_installed() {
#ifdef SIGUSR1
  std::lock_guard<std::mutex> lock(g_handler_mutex);
  return g_handler_installed;
#else
  return false;
#endif
}

void telemetry_start_from_env() {
  const char* socket_env = std::getenv("TDP_OBS_SOCKET");
  const bool want_socket = socket_env != nullptr && socket_env[0] != '\0';
  std::uint64_t period = env_ms("TDP_OBS_SAMPLE_MS");
  if (period == 0 && want_socket) period = 250;  // socket implies sampling
  Telemetry::instance().start(period, env_ms("TDP_OBS_WATCHDOG_MS"));
  if (period != 0) install_dump_signal_handler();
  if (want_socket) {
    ExpositionServer::instance().start(socket_env);
  }
}

}  // namespace tdp::obs
