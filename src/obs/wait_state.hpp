// tdp::obs VpWaitState — the state one mailbox publishes for the sampler.
//
// Layering: the obs layer must not depend on vp, so the mailbox publishes
// its state through this POD (all relaxed atomics — statistical, not
// synchronising) and vp::Machine registers it, with a describe callback
// that renders the pending queue, through Telemetry::add_vp_source.  The
// header is kept apart from telemetry.hpp so the mailbox does not pull in
// the telemetry plane.
#pragma once

#include <atomic>
#include <cstdint>

namespace tdp::obs {

/// State one mailbox publishes for the telemetry sampler.  Written by the
/// owning mailbox with relaxed stores; read by the sampler thread.
struct alignas(64) VpWaitState {
  /// Posts + completed receives; the sampler declares a stall only when
  /// the sum over all sources stops advancing.
  std::atomic<std::uint64_t> progress{0};
  /// now_ns() when the owner blocked in receive; 0 while it is runnable.
  std::atomic<std::uint64_t> blocked_since_ns{0};
  /// Cumulative nanoseconds spent blocked in receive over the process
  /// lifetime (closed blocks only; add the current block's age from
  /// blocked_since_ns for an instantaneous figure).  The sampler
  /// differences this per window to derive each VP's run fraction.
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

}  // namespace tdp::obs
