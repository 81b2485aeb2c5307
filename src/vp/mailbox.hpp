// Typed point-to-point messages with selective receive.
//
// The thesis (§3.4.1, §5.3) requires that, when both the task-parallel
// notation and called data-parallel programs communicate via point-to-point
// message passing, messages be *typed* and receives be *selective*, with the
// task-parallel traffic and each data-parallel program's traffic using
// disjoint type sets.  Our simulated multicomputer enforces exactly that:
//
//  * every message carries a `MessageClass` (task-parallel vs data-parallel
//    traffic, the "PCN type" vs "data-parallel-program type" of §5.3),
//  * data-parallel messages additionally carry the communicator id of the
//    distributed call they belong to, so concurrent distributed calls can
//    never intercept each other's messages (fig. 3.4), and
//  * receive() is selective: it delivers the first queued message matching
//    a caller-supplied predicate and leaves non-matching traffic queued.
//
// Selective receive is *indexed*: messages hash into per-(class, comm, tag)
// buckets (FIFO within a bucket via a global arrival sequence number), each
// blocked receiver registers a waiter record with a private condition-variable
// slot, and post() wakes only waiters whose match tuple admits the new
// message.  A waiter keeps a scan cursor so it never re-examines messages it
// already rejected.  Opaque-predicate receives fall back to an any-message
// lane that scans the whole queue in arrival order.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/wait_state.hpp"
#include "sched/sched.hpp"
#include "vp/payload.hpp"

namespace tdp::vp {

/// The disjoint message "type" classes of §5.3.
enum class MessageClass : int {
  TaskParallel = 0,  ///< traffic of the task-parallel runtime ("PCN type")
  DataParallel = 1,  ///< traffic of called SPMD programs
};

/// A typed message.  `comm` scopes data-parallel traffic to one distributed
/// call; `tag` and `src` support MPI-style selective receive inside a call.
struct Message {
  MessageClass cls = MessageClass::TaskParallel;
  std::uint64_t comm = 0;  ///< communicator (distributed-call) id; 0 = none
  int tag = 0;             ///< user message type within the class
  int src = -1;            ///< sending processor number
  /// Poison marker for collective failure propagation: when >= 0, this
  /// message carries no data — it tells the receiver that the copy with
  /// this group index stalled upstream, so the receiver should fail fast
  /// instead of timing out itself (spmd::coll::Poisoned).
  int poison_origin = -1;
  /// Causal trace context, stamped by Machine::send when observability is
  /// on (obs::next_flow_id: sender VP shard + monotonic per-VP sequence)
  /// and recovered by Mailbox::receive — the id that links the send instant
  /// to the receive span as a Chrome flow arrow.  0 when tracing is off or
  /// the message bypassed Machine::send.
  std::uint64_t flow = 0;
  /// obs::now_ns() at enqueue, stamped by Mailbox::post when observability
  /// is on; 0 otherwise.  Delivery differences it into the owning call's
  /// queue-wait ledger (obs::CallTable) — the "how long did this message
  /// sit before anyone wanted it" phase of per-call attribution.
  std::uint64_t enq_ns = 0;
  /// The message body: an immutable refcounted buffer (see vp/payload.hpp).
  /// Senders that fan one buffer out to many destinations share it; the
  /// substrate never copies it again once wrapped.
  Payload payload;
};

/// Thrown by receive() when the mailbox is closed while a receiver waits
/// (machine teardown); pcn::ProcessGroup treats it as a clean shutdown
/// signal, so a process blocked in receive when its machine is torn down
/// exits quietly instead of crashing through std::terminate.
class MailboxClosed : public std::runtime_error {
 public:
  MailboxClosed() : std::runtime_error("tdp::vp::Mailbox closed") {}
};

/// Thrown by receive_for() when no matching message arrives before the
/// deadline.  Carries exactly what the receiver was awaiting — the (class,
/// comm, tag, src) tuple of a selective receive, or has_detail = false for
/// an opaque predicate — plus a snapshot of the pending queue, so a timeout
/// reads like a stall report: what was wanted AND what was
/// available but did not match.
class ReceiveTimeout : public std::runtime_error {
 public:
  ReceiveTimeout(std::string what, int owner, bool has_detail,
                 MessageClass cls, std::uint64_t comm, int tag, int src)
      : std::runtime_error(std::move(what)),
        owner(owner),
        has_detail(has_detail),
        cls(cls),
        comm(comm),
        tag(tag),
        src(src) {}

  int owner;        ///< processor whose mailbox timed out (-1 free-standing)
  bool has_detail;  ///< false when the wait used an opaque predicate
  MessageClass cls;
  std::uint64_t comm;
  int tag;
  int src;
};

/// One processor's incoming message queue.  Many senders, selective
/// receivers.  All operations are thread-safe.
class Mailbox {
 public:
  using Predicate = std::function<bool(const Message&)>;

  /// `owner` is the processor number this mailbox belongs to (-1 when the
  /// mailbox is free-standing, e.g. in tests); used only to attribute
  /// observability events to the owning virtual processor.
  explicit Mailbox(int owner = -1) : owner_(owner) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Closes the mailbox and waits for every blocked receiver to leave
  /// the receive path before the queue and waiter lists are destroyed —
  /// without this drain, a receiver woken by close() could still touch the
  /// mailbox while the owning Machine frees it.
  ~Mailbox();

  /// Enqueues a message and wakes waiting receivers whose match tuple
  /// admits it (plus every opaque-predicate waiter, whose match is
  /// unknowable).  Posting into a closed mailbox drops the message (the
  /// send raced machine teardown), bumps mailbox.post_after_close, and
  /// emits a trace instant.
  void post(Message m);

  /// Blocks until a queued message satisfies `match`, removes and returns
  /// it.  Messages that do not match stay queued in arrival order.  Opaque
  /// predicates always use the scan lane: every post must wake them
  /// because no index can prove a message uninteresting to them.
  Message receive(const Predicate& match);

  /// Convenience selective receive on (class, comm, tag, src); a negative
  /// src matches any sender.  Unlike the predicate form, this one is served
  /// from the (class, comm, tag) bucket index with targeted wakeups, and
  /// can tell a stall report exactly what the owner is waiting for.
  Message receive(MessageClass cls, std::uint64_t comm, int tag, int src);

  /// Deadline-aware receive: like receive(match), but throws ReceiveTimeout
  /// if no matching message arrives within `timeout_ms` milliseconds.
  /// `timeout_ms` == 0 means wait forever (identical to receive).
  Message receive_for(const Predicate& match, std::uint64_t timeout_ms);

  /// Deadline-aware selective receive on (class, comm, tag, src).  On
  /// timeout the thrown ReceiveTimeout names the awaited tuple and carries
  /// a pending-queue snapshot in its what() string.
  Message receive_for(MessageClass cls, std::uint64_t comm, int tag, int src,
                      std::uint64_t timeout_ms);

  /// Number of queued (undelivered) messages; for tests and diagnostics.
  std::size_t pending() const;

  /// One-line rendering of the queued messages ("3 pending: [cls=data
  /// comm=7 tag=1 src=0 flow=... 16B] ..."), capped at a few entries; the
  /// stall report's "what was available but did not match" line.  The
  /// messages are listed in arrival order via the global sequence number.
  /// The flow id lets a stall report be cross-referenced with the exported
  /// trace's send→receive arrows.
  std::string describe_pending() const;

  /// describe_pending() plus the registered waiter records ("2 waiting:
  /// (cls=data, comm=7, tag=1, src=any) (opaque)"): both sides of a stall —
  /// what is queued AND what every blocked receiver wants.  vp::Machine
  /// registers this as the mailbox's stall-report describe callback.
  std::string describe_wait() const;

  /// The sampler-visible state of this mailbox (progress counter, blocked
  /// owner, queue depth); vp::Machine registers it with obs::Telemetry.
  obs::VpWaitState& wait_state() { return wait_state_; }

  /// Wakes all waiting receivers with MailboxClosed; used at teardown.
  void close();

 private:
  /// What a blocked selective receive is waiting for, published to the
  /// stall check; nullptr for opaque predicates.
  struct WaitDetail {
    MessageClass cls;
    std::uint64_t comm;
    int tag;
    int src;
  };

  /// Bucket key: the indexable part of the match tuple.  src is filtered
  /// inside the bucket (it may be a wildcard), everything else is exact.
  struct BucketKey {
    MessageClass cls;
    std::uint64_t comm;
    int tag;
    bool operator==(const BucketKey& o) const {
      return cls == o.cls && comm == o.comm && tag == o.tag;
    }
  };
  struct BucketKeyHash {
    std::size_t operator()(const BucketKey& k) const {
      // splitmix64-style scramble of the three fields; buckets are few and
      // short-lived, so quality matters more than speed here.
      std::uint64_t x = k.comm + 0x9e3779b97f4a7c15ULL +
                        (static_cast<std::uint64_t>(k.tag) << 32) +
                        static_cast<std::uint64_t>(k.cls);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(x ^ (x >> 31));
    }
  };

  /// One blocked receiver: its match tuple (or "opaque"), a private condvar
  /// slot so post() can wake exactly this receiver, and a scan cursor (the
  /// highest arrival seq it has examined and rejected) so a woken waiter
  /// only looks at messages it has never seen.  Lives on the receiver's
  /// stack (fiber or thread); registered/deregistered under mutex_.  When
  /// the receiver is a scheduler fiber (TDP_SCHED=steal), `task` holds its
  /// handle while suspended and a wakeup is sched::ready instead of a
  /// condvar notify — the waiter record becomes a wakeup edge.
  struct Waiter {
    bool has_tuple = false;
    MessageClass cls = MessageClass::TaskParallel;
    std::uint64_t comm = 0;
    int tag = 0;
    int src = -1;
    std::uint64_t cursor = 0;
    std::condition_variable cv;
    sched::TaskRef task = nullptr;
    bool notified = false;
    bool registered = false;
  };

  struct Bucket {
    std::deque<std::uint64_t> seqs;  ///< arrival seqs, ascending
    std::vector<Waiter*> waiters;    ///< registration order
  };

  using BucketMap = std::unordered_map<BucketKey, Bucket, BucketKeyHash>;

  Message receive_indexed(const WaitDetail& detail, std::uint64_t timeout_ms);
  Message receive_scan(const Predicate& match, std::uint64_t timeout_ms);
  /// Removes `seq` (holding message `m`) from its bucket and the arrival
  /// map; caller holds mutex_ and has already located the message.
  void unlink_from_bucket_locked(const Message& m, std::uint64_t seq);
  void maybe_gc_bucket_locked(BucketMap::iterator it);
  void deregister_locked(Waiter& w);
  /// Marks `w` notified and delivers the wakeup on whichever lane the
  /// waiter sleeps: sched::ready for a suspended fiber, cv.notify_one for
  /// a blocked thread.  Caller holds mutex_ (the lifetime rule ready()
  /// requires — the fiber parked with this same mutex).
  void wake_waiter_locked(Waiter& w);
  /// The cv.wait/park dispatch shared by both receive lanes: suspends the
  /// calling fiber (steal lane) or blocks the calling thread until
  /// notified or `deadline`; sets `timed_out` when the deadline passed.
  void wait_waiter_locked(std::unique_lock<std::mutex>& lock, Waiter& w,
                          std::uint64_t timeout_ms,
                          std::chrono::steady_clock::time_point deadline,
                          bool& timed_out);
  void wake_all_locked();
  /// Publishes the delivery to the wait state and the receive span; caller
  /// holds mutex_.
  void note_delivery_locked(const Message& out, bool obs_on);
  /// Publishes "about to block" state: wait tuple, blocked-since, miss
  /// instant; caller holds mutex_.
  void note_block_locked(const WaitDetail* detail, bool obs_on);
  /// Closes the current block interval, if any: folds its duration into
  /// wait_state_.blocked_ns_total and clears blocked_since_ns.  Every exit
  /// from a blocked receive (delivery, close, timeout) funnels through
  /// here so the telemetry sampler's run-fraction accounting never leaks a
  /// block.  Caller holds mutex_.
  void note_unblock_locked();
  std::string describe_pending_locked() const;  // caller holds mutex_
  [[noreturn]] void throw_timeout(const WaitDetail* detail,
                                  std::uint64_t timeout_ms);

  const int owner_;
  mutable std::mutex mutex_;
  std::condition_variable drain_cv_;  ///< ~Mailbox waits for waiters_ == 0
  /// All undelivered messages keyed by arrival sequence number — the
  /// canonical arrival-order view (describe_pending, the opaque scan lane).
  std::map<std::uint64_t, Message> queue_;
  /// Per-(class, comm, tag) index into queue_; seqs mirror membership.
  BucketMap buckets_;
  std::vector<Waiter*> scan_waiters_;  ///< opaque-predicate receivers
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
  int waiters_ = 0;  ///< receivers inside a receive path; drained by ~Mailbox
  // Last: cache-line aligned and only touched on the obs-enabled path, so
  // it cannot push the hot fields above onto separate lines.
  obs::VpWaitState wait_state_;
};

}  // namespace tdp::vp
