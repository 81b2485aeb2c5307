// tdp::obs stall watchdog — turns silent selective-receive deadlocks into
// actionable reports.
//
// The integration model's characteristic failure is a virtual processor
// blocked forever in a selective receive whose matching send never happens
// (§3.4.1: typed selective receive makes this *possible to bound*, not
// impossible to write).  Such a program simply hangs, with no output.  The
// watchdog is a sampling thread that
//
//  * snapshots, on a configurable period (TDP_OBS_WATCHDOG_MS), every
//    registered mailbox's queue depth and its owner's "blocked in receive
//    since" timestamp;
//  * records the totals as counter tracks in the trace (queued messages,
//    blocked VPs), giving Perfetto a time series alongside the spans; and
//  * when NO virtual processor makes progress (posts + completed receives)
//    for a full period while at least one is blocked, prints a diagnosis:
//    who is blocked, for how long, on what (class/comm/tag/src), and which
//    pending messages its mailbox is holding — i.e. what was available but
//    did not match.
//
// Layering: the obs layer must not depend on vp, so the mailbox publishes
// its state through the POD VpWaitState below (all relaxed atomics —
// statistical, not synchronising) and registers a describe callback that
// renders its pending queue on demand.  vp::Machine registers one source
// per mailbox when observability is enabled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tdp::obs {

/// State one mailbox publishes for the watchdog.  Written by the owning
/// mailbox with relaxed stores; read by the watchdog thread.
struct alignas(64) VpWaitState {
  /// Posts + completed receives; the watchdog declares a stall only when
  /// the sum over all sources stops advancing.
  std::atomic<std::uint64_t> progress{0};
  /// now_ns() when the owner blocked in receive; 0 while it is runnable.
  std::atomic<std::uint64_t> blocked_since_ns{0};
  /// Cumulative nanoseconds spent blocked in receive over the process
  /// lifetime (closed blocks only; add the current block's age from
  /// blocked_since_ns for an instantaneous figure).  The telemetry
  /// sampler differences this per window to derive each VP's run
  /// fraction.
  std::atomic<std::uint64_t> blocked_ns_total{0};
  /// What the blocked receive is waiting for; meaningful only while
  /// blocked_since_ns != 0.  cls/src are -1 and comm/tag 0 when the wait
  /// uses an opaque predicate.
  std::atomic<std::int32_t> wait_cls{-1};
  std::atomic<std::uint64_t> wait_comm{0};
  std::atomic<std::int32_t> wait_tag{0};
  std::atomic<std::int32_t> wait_src{-1};
  /// Queued (undelivered) messages in the mailbox.
  std::atomic<std::uint64_t> queue_depth{0};
  /// Receivers currently asleep inside a receive on this mailbox.  The
  /// indexed mailbox supports many concurrent selective receivers; the
  /// tuple fields above describe only the most recent blocker, so a stall
  /// report uses this count to say how many more are waiting (the mailbox's
  /// describe callback renders each one's tuple).
  std::atomic<std::int32_t> blocked_waiters{0};
  /// Of blocked_waiters, how many are suspended scheduler tasks
  /// (TDP_SCHED=steal) rather than blocked OS threads.  A stall report
  /// must say which: a suspended task costs a record and its worker keeps
  /// running other tasks, so "blocked" there means "no matching message",
  /// never "thread wedged".
  std::atomic<std::int32_t> suspended_waiters{0};
};

class Watchdog {
 public:
  /// Renders the source's pending messages for a stall diagnosis.  Called
  /// from the watchdog thread; may take the mailbox lock (the mailbox
  /// never calls into the watchdog while holding it).
  using Describe = std::function<std::string()>;

  static Watchdog& instance();

  /// Registers a monitored mailbox; `state` must outlive the registration.
  /// Returns a token for remove_source.
  int add_source(int vp, const VpWaitState* state, Describe describe);

  /// Unregisters; stops the sampling thread when no sources remain (so no
  /// state pointer ever dangles — vp::Machine removes its sources before
  /// destroying its mailboxes).
  void remove_source(int token);

  /// Starts the sampling thread with the given period (idempotent; a later
  /// call adjusts the period).  No-op when period_ms is 0.
  void start(std::uint64_t period_ms);

  /// Stops and joins the sampling thread.
  void stop();

  bool running() const;

  /// Diverts stall reports from stderr (tests); nullptr restores stderr.
  void set_report_sink(std::function<void(const std::string&)> sink);

  /// Extra context appended to every stall report — the scheduler installs
  /// one rendering its runnable/suspended/steal counts so a TDP_SCHED=steal
  /// stall reads as "tasks suspended awaiting messages", not "threads
  /// deadlocked".  Called from the watchdog thread; nullptr clears (the
  /// scheduler clears it before tearing down its workers).
  using AuxReport = std::function<std::string()>;
  void set_aux_report(AuxReport aux);

  /// The current diagnosis text for blocked sources ("" when none are
  /// blocked) — what a stall report contains, without the stall detection.
  std::string describe_blocked() const;

  /// TDP_OBS_WATCHDOG_MS from the environment, 0 when unset/invalid.
  static std::uint64_t env_period_ms();

  /// Forgets the last stall auto-dump time, so the next stall dumps
  /// regardless of the cooldown.  Tests only.
  void reset_auto_dump_cooldown();

 private:
  Watchdog() = default;
  ~Watchdog();

  struct Source {
    int token = 0;
    int vp = -1;
    const VpWaitState* state = nullptr;
    Describe describe;
  };

  void run();
  void sample(std::uint64_t now);
  std::string describe_blocked_locked() const;
  void stop_locked(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Source> sources_;
  std::function<void(const std::string&)> sink_;
  AuxReport aux_report_;
  std::thread thread_;
  std::uint64_t period_ms_ = 0;
  std::uint64_t last_progress_ = 0;
  /// Minimum spacing of stall auto-dumps (30 s).
  static constexpr std::uint64_t kAutoDumpCooldownNs = 30'000'000'000ull;

  /// now_ns() of the last stall auto-dump; stall episodes inside the
  /// kAutoDumpCooldownNs window after it report but do not dump
  /// (counted in watchdog.dumps_suppressed) — a flapping stall must not
  /// rewrite the flight dump every period, destroying the evidence of the
  /// first episode.
  std::uint64_t last_auto_dump_ns_ = 0;
  bool seen_progress_ = false;  // last_progress_ holds a real sample
  bool reported_ = false;       // one report per stall episode
  bool stopping_ = false;
  int next_token_ = 1;
};

}  // namespace tdp::obs
