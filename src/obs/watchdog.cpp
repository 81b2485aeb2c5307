#include "obs/watchdog.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/env.hpp"

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/atomic_print.hpp"

namespace tdp::obs {

namespace {

const char* cls_name(std::int32_t cls) {
  switch (cls) {
    case 0: return "task";
    case 1: return "data";
    default: return "any";
  }
}

}  // namespace

Watchdog& Watchdog::instance() {
  // Construction is ordered after Tracer/Registry (start() touches both
  // before spawning the thread), so the sampling thread never outlives the
  // singletons it emits into.
  static Watchdog watchdog;
  return watchdog;
}

Watchdog::~Watchdog() { stop(); }

std::uint64_t Watchdog::env_period_ms() {
  return static_cast<std::uint64_t>(
      util::env_int("TDP_OBS_WATCHDOG_MS", 0, 0,
                    std::numeric_limits<long long>::max()));
}

void Watchdog::reset_auto_dump_cooldown() {
  std::lock_guard<std::mutex> lock(mutex_);
  last_auto_dump_ns_ = 0;
}

int Watchdog::add_source(int vp, const VpWaitState* state,
                         Describe describe) {
  std::lock_guard<std::mutex> lock(mutex_);
  Source src;
  src.token = next_token_++;
  src.vp = vp;
  src.state = state;
  src.describe = std::move(describe);
  sources_.push_back(std::move(src));
  return sources_.back().token;
}

void Watchdog::remove_source(int token) {
  bool stop_thread = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = sources_.begin(); it != sources_.end(); ++it) {
      if (it->token == token) {
        sources_.erase(it);
        break;
      }
    }
    stop_thread = sources_.empty() && thread_.joinable();
  }
  if (stop_thread) stop();
}

void Watchdog::start(std::uint64_t period_ms) {
  if (period_ms == 0) return;
  // Force singleton construction order: the sampling thread emits into
  // both, so both must be destroyed after the watchdog.
  Tracer::instance();
  Registry::instance();
  std::lock_guard<std::mutex> lock(mutex_);
  period_ms_ = period_ms;
  if (!thread_.joinable()) {
    stopping_ = false;
    seen_progress_ = false;
    reported_ = false;
    thread_ = std::thread([this] { run(); });
  }
}

void Watchdog::stop() {
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

bool Watchdog::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_.joinable();
}

void Watchdog::set_report_sink(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

void Watchdog::set_aux_report(AuxReport aux) {
  std::lock_guard<std::mutex> lock(mutex_);
  aux_report_ = std::move(aux);
}

void Watchdog::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    const auto period = std::chrono::milliseconds(period_ms_);
    if (cv_.wait_for(lock, period, [this] { return stopping_; })) break;
    sample(now_ns());
    // The watchdog doubles as a servicer of the flight-dump flag: a
    // SIGUSR1 must produce a dump even when the telemetry sampler and the
    // exposition server are both off.  Outside our lock — the dump renders
    // through Telemetry, which has its own.
    lock.unlock();
    service_flight_dump_request();
    lock.lock();
  }
}

void Watchdog::sample(std::uint64_t now) {
  std::uint64_t progress = 0;
  std::uint64_t queued = 0;
  std::uint64_t blocked = 0;
  for (const Source& src : sources_) {
    progress += src.state->progress.load(std::memory_order_relaxed);
    queued += src.state->queue_depth.load(std::memory_order_relaxed);
    const std::uint64_t since =
        src.state->blocked_since_ns.load(std::memory_order_relaxed);
    if (since != 0 && since <= now) ++blocked;
  }
  counter_sample(Op::WdQueued, queued, -1);
  counter_sample(Op::WdBlocked, blocked, -1);

  const bool stalled =
      seen_progress_ && progress == last_progress_ && blocked > 0;
  if (!stalled) {
    reported_ = false;
  } else if (!reported_) {
    reported_ = true;
    std::ostringstream report;
    report << "== tdp::obs watchdog: no progress for " << period_ms_
           << " ms (" << blocked << " of " << sources_.size()
           << " VPs blocked in receive) ==\n"
           << describe_blocked_locked();
    if (aux_report_) {
      report << "  " << aux_report_() << "\n";
    }
    static ShardedCounter& stall_counter =
        Registry::instance().counter("watchdog.stalls");
    stall_counter.add();
    Telemetry::instance().note_stall(report.str());
    if (sink_) {
      sink_(report.str());
    } else {
      util::atomic_print_err(report.str());
    }
    // A stall is exactly the moment the flight recorder exists for: dump
    // the recent past before the operator even asks.  Auto-dumps are
    // rate-limited: the dump overwrites <prefix>.* in place, so a flapping
    // stall re-dumping every episode would destroy the evidence of the
    // first one and churn disk for as long as the flap lasts.
    if (last_auto_dump_ns_ == 0 ||
        now >= last_auto_dump_ns_ + kAutoDumpCooldownNs) {
      last_auto_dump_ns_ = now;
      request_flight_dump();
    } else {
      static ShardedCounter& suppressed =
          Registry::instance().counter("watchdog.dumps_suppressed");
      suppressed.add();
    }
  }
  last_progress_ = progress;
  seen_progress_ = true;
}

std::string Watchdog::describe_blocked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return describe_blocked_locked();
}

std::string Watchdog::describe_blocked_locked() const {
  const std::uint64_t now = now_ns();
  std::ostringstream out;
  for (const Source& src : sources_) {
    const std::uint64_t since =
        src.state->blocked_since_ns.load(std::memory_order_relaxed);
    if (since == 0) continue;
    const std::int32_t cls =
        src.state->wait_cls.load(std::memory_order_relaxed);
    const std::int32_t src_proc =
        src.state->wait_src.load(std::memory_order_relaxed);
    const std::int32_t sleepers =
        src.state->blocked_waiters.load(std::memory_order_relaxed);
    const std::int32_t suspended =
        src.state->suspended_waiters.load(std::memory_order_relaxed);
    out << "  vp" << src.vp << ": "
        << (suspended >= sleepers ? "suspended (task, not thread-blocked)"
                                  : "blocked")
        << " in selective receive for "
        << (now > since ? (now - since) / 1000000 : 0) << " ms";
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
      out << "(cls=" << cls_name(cls) << ", comm="
          << src.state->wait_comm.load(std::memory_order_relaxed)
          << ", tag=" << src.state->wait_tag.load(std::memory_order_relaxed)
          << ", src=";
      if (src_proc < 0) {
        out << "any";
      } else {
        out << src_proc;
      }
      out << ")";
    }
    out << "; ";
    if (src.describe) {
      out << src.describe();
    } else {
      out << src.state->queue_depth.load(std::memory_order_relaxed)
          << " pending";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace tdp::obs
