#include "vp/mailbox.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>

#include "obs/attr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tdp::vp {

namespace {

obs::ShardedCounter& wakeup_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("mailbox.wakeups");
  return c;
}

}  // namespace

Mailbox::~Mailbox() {
  close();
  // Hold the door until every receiver woken by close() has finished
  // unwinding out of the receive path; otherwise a woken thread could touch
  // the queue, waiter lists, or condition variables after this destructor
  // frees them.
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return waiters_ == 0; });
}

void Mailbox::post(Message m) {
  const bool obs_on = obs::enabled();
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) {
    // The send raced machine teardown: nobody can ever receive this, so
    // enqueueing it would only pin its refcounted payload until the mailbox
    // is freed.  Drop it, visibly.
    static obs::ShardedCounter& after_close =
        obs::Registry::instance().counter("mailbox.post_after_close");
    after_close.add_at(owner_);
    if (obs_on) {
      obs::instant(obs::Op::PostAfterClose, m.comm,
                   static_cast<std::uint64_t>(static_cast<unsigned>(owner_)),
                   static_cast<std::uint64_t>(static_cast<unsigned>(m.tag)));
    }
    return;
  }
  const std::uint64_t seq = ++next_seq_;
  const int src = m.src;
  if (obs_on) m.enq_ns = obs::now_ns();
  Bucket& bucket = buckets_[BucketKey{m.cls, m.comm, m.tag}];
  bucket.seqs.push_back(seq);
  queue_.emplace(seq, std::move(m));
  const std::size_t depth = queue_.size();

  // Targeted wakeup: the first registered waiter in this bucket whose src
  // filter admits the message, if any is still asleep.  Waiters already
  // notified will rescan anyway; waking a second one for the same message
  // would just bounce it off an empty scan.
  for (Waiter* w : bucket.waiters) {
    if (!w->notified && (w->src < 0 || w->src == src)) {
      wake_waiter_locked(*w);
      break;
    }
  }
  // Opaque predicates are unknowable to the index: every one of them might
  // match this message, so all of them get woken (the scan lane).
  for (Waiter* w : scan_waiters_) {
    if (!w->notified) {
      wake_waiter_locked(*w);
    }
  }
  if (obs_on) {
    // Published under mutex_ (and from the captured depth) so the gauge and
    // the histogram can never observe a stale or backwards depth relative
    // to the queue they describe.
    wait_state_.progress.fetch_add(1, std::memory_order_relaxed);
    wait_state_.queue_depth.store(depth, std::memory_order_relaxed);
    obs::counter_sample(obs::Op::QueueDepth, depth, owner_);
    static obs::Histogram& depth_hist =
        obs::Registry::instance().histogram("mailbox.queue_depth");
    depth_hist.record(depth);
    static obs::MaxGauge& peak_depth =
        obs::Registry::instance().gauge("mailbox.peak_depth");
    peak_depth.record_at(owner_, depth);
  }
}

Message Mailbox::receive(const Predicate& match) {
  return receive_scan(match, 0);
}

Message Mailbox::receive(MessageClass cls, std::uint64_t comm, int tag,
                         int src) {
  return receive_indexed(WaitDetail{cls, comm, tag, src}, 0);
}

Message Mailbox::receive_for(const Predicate& match,
                             std::uint64_t timeout_ms) {
  return receive_scan(match, timeout_ms);
}

Message Mailbox::receive_for(MessageClass cls, std::uint64_t comm, int tag,
                             int src, std::uint64_t timeout_ms) {
  return receive_indexed(WaitDetail{cls, comm, tag, src}, timeout_ms);
}

void Mailbox::throw_timeout(const WaitDetail* detail,
                            std::uint64_t timeout_ms) {
  // Caller holds mutex_.  Build a stall-report-shaped message: what was
  // awaited and what was available but did not match.
  std::ostringstream what;
  what << "tdp::vp receive timeout after " << timeout_ms << " ms on vp"
       << owner_ << " awaiting ";
  if (detail != nullptr) {
    what << "(cls="
         << (detail->cls == MessageClass::DataParallel ? "data" : "task")
         << ", comm=" << detail->comm << ", tag=" << detail->tag << ", src=";
    if (detail->src < 0) {
      what << "any";
    } else {
      what << detail->src;
    }
    what << ")";
  } else {
    what << "(opaque predicate)";
  }
  what << "; " << describe_pending_locked();
  // A plain deadline expiry is a mailbox event, not an injected fault:
  // fault.* metrics are reserved for the injector, so counting expiries
  // there would make every slow peer look like a fault plan.
  static obs::ShardedCounter& timeout_count =
      obs::Registry::instance().counter("mailbox.recv_timeouts");
  timeout_count.add_at(owner_);
  if (obs::enabled()) {
    obs::instant(
        obs::Op::FaultTimeout, detail != nullptr ? detail->comm : 0,
        static_cast<std::uint64_t>(static_cast<unsigned>(owner_)),
        detail != nullptr
            ? static_cast<std::uint64_t>(static_cast<unsigned>(detail->tag))
            : 0);
  }
  if (detail != nullptr) {
    throw ReceiveTimeout(what.str(), owner_, true, detail->cls, detail->comm,
                         detail->tag, detail->src);
  }
  throw ReceiveTimeout(what.str(), owner_, false, MessageClass::TaskParallel,
                       0, 0, -1);
}

void Mailbox::unlink_from_bucket_locked(const Message& m, std::uint64_t seq) {
  auto it = buckets_.find(BucketKey{m.cls, m.comm, m.tag});
  Bucket& bucket = it->second;
  auto sit = std::lower_bound(bucket.seqs.begin(), bucket.seqs.end(), seq);
  bucket.seqs.erase(sit);
  maybe_gc_bucket_locked(it);
}

void Mailbox::maybe_gc_bucket_locked(BucketMap::iterator it) {
  if (it->second.seqs.empty() && it->second.waiters.empty()) {
    buckets_.erase(it);
  }
}

void Mailbox::deregister_locked(Waiter& w) {
  if (!w.registered) return;
  w.registered = false;
  if (w.has_tuple) {
    auto it = buckets_.find(BucketKey{w.cls, w.comm, w.tag});
    auto& waiters = it->second.waiters;
    waiters.erase(std::find(waiters.begin(), waiters.end(), &w));
    maybe_gc_bucket_locked(it);
    return;
  }
  scan_waiters_.erase(
      std::find(scan_waiters_.begin(), scan_waiters_.end(), &w));
}

void Mailbox::wake_waiter_locked(Waiter& w) {
  w.notified = true;
  if (w.task != nullptr) {
    // The receiver is a suspended scheduler fiber.  We hold mutex_ — the
    // mutex it parked with — so ready() cannot race its teardown (the
    // fiber re-acquires mutex_ before its waiter record leaves scope).
    sched::ready(w.task);
  } else {
    w.cv.notify_one();
  }
}

void Mailbox::wait_waiter_locked(std::unique_lock<std::mutex>& lock,
                                 Waiter& w, std::uint64_t timeout_ms,
                                 std::chrono::steady_clock::time_point deadline,
                                 bool& timed_out) {
  w.notified = false;
  if (sched::on_worker_fiber()) {
    // Steal lane: the receiver suspends as a task record (both the indexed
    // and the opaque lane — a thread-blocking fiber would wedge its worker
    // for as long as the message takes to arrive).
    w.task = sched::current_task();
    wait_state_.suspended_waiters.fetch_add(1, std::memory_order_relaxed);
    if (timeout_ms == 0) {
      sched::park(lock);
    } else {
      sched::park_until(lock, deadline);
      if (!w.notified && std::chrono::steady_clock::now() >= deadline) {
        timed_out = true;
      }
    }
    wait_state_.suspended_waiters.fetch_sub(1, std::memory_order_relaxed);
    w.task = nullptr;
    return;
  }
  if (timeout_ms == 0) {
    w.cv.wait(lock);
  } else if (w.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
    timed_out = true;
  }
}

void Mailbox::wake_all_locked() {
  for (auto& [key, bucket] : buckets_) {
    for (Waiter* w : bucket.waiters) {
      wake_waiter_locked(*w);
    }
  }
  for (Waiter* w : scan_waiters_) {
    wake_waiter_locked(*w);
  }
}

void Mailbox::note_delivery_locked(const Message& out, bool obs_on) {
  if (!obs_on) return;
  note_unblock_locked();
  wait_state_.progress.fetch_add(1, std::memory_order_relaxed);
  wait_state_.queue_depth.store(queue_.size(), std::memory_order_relaxed);
  (void)out;
}

void Mailbox::note_unblock_locked() {
  const std::uint64_t since =
      wait_state_.blocked_since_ns.load(std::memory_order_relaxed);
  if (since == 0) return;
  const std::uint64_t now = obs::now_ns();
  if (now > since) {
    wait_state_.blocked_ns_total.fetch_add(now - since,
                                           std::memory_order_relaxed);
  }
  wait_state_.blocked_since_ns.store(0, std::memory_order_relaxed);
}

void Mailbox::note_block_locked(const WaitDetail* detail, bool obs_on) {
  if (!obs_on) return;
  static obs::ShardedCounter& miss_count =
      obs::Registry::instance().counter("mailbox.recv_miss");
  obs::instant(obs::Op::RecvMiss, 0,
               static_cast<std::uint64_t>(static_cast<unsigned>(owner_)),
               queue_.size());
  miss_count.add();
  // Publish what we are waiting for; keep the first block timestamp so
  // a stall report shows time-since-block, not time-since-last-wake.
  if (detail != nullptr) {
    wait_state_.wait_cls.store(static_cast<std::int32_t>(detail->cls),
                               std::memory_order_relaxed);
    wait_state_.wait_comm.store(detail->comm, std::memory_order_relaxed);
    wait_state_.wait_tag.store(detail->tag, std::memory_order_relaxed);
    wait_state_.wait_src.store(detail->src, std::memory_order_relaxed);
  } else {
    // Opaque predicate: publish an explicit "opaque" detail and clear
    // the tuple fields so a stall report never shows leftovers from an
    // earlier detailed wait on the same mailbox.
    wait_state_.wait_cls.store(-1, std::memory_order_relaxed);
    wait_state_.wait_comm.store(0, std::memory_order_relaxed);
    wait_state_.wait_tag.store(0, std::memory_order_relaxed);
    wait_state_.wait_src.store(-1, std::memory_order_relaxed);
  }
  if (wait_state_.blocked_since_ns.load(std::memory_order_relaxed) == 0) {
    wait_state_.blocked_since_ns.store(obs::now_ns(),
                                       std::memory_order_relaxed);
  }
}

namespace {

/// Shared unwind bookkeeping for both receive lanes.  Declared after the
/// unique_lock at each use site, so it runs first during unwinding while
/// the mutex is still held; the last waiter out wakes a draining ~Mailbox.
struct WaiterGuard {
  Mailbox& box;
  std::unique_lock<std::mutex>& lock;
  const std::function<void()> on_exit;
  ~WaiterGuard() {
    if (!lock.owns_lock()) lock.lock();
    on_exit();
  }
};

/// Folds one delivery into the owning call's attribution ledger: the
/// message's queue wait (delivery minus enqueue), its payload bytes, and
/// the receiver's wall time inside this receive.  Caller holds the mailbox
/// lock; the CallTable shard mutex is a leaf, so the order is safe.  No-op
/// for traffic outside any tracked call (comm 0, foreign comms).
void attribute_delivery(const Message& out, std::uint64_t recv_t0) {
  if (out.comm == 0) return;
  const std::uint64_t now = obs::now_ns();
  obs::CallTable::instance().on_delivery(
      out.comm, out.enq_ns != 0 && now > out.enq_ns ? now - out.enq_ns : 0,
      out.payload.size(),
      recv_t0 != 0 && now > recv_t0 ? now - recv_t0 : 0);
}

}  // namespace

Message Mailbox::receive_indexed(const WaitDetail& detail,
                                 std::uint64_t timeout_ms) {
  static obs::Histogram& wait_hist =
      obs::Registry::instance().histogram("mailbox.recv_wait_ns");
  obs::Span span(obs::Op::MsgRecv, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(owner_)),
                 &wait_hist);
  // One kill-switch load per receive; the hot match path below then costs
  // a single predicted branch on a register-cached bool when tracing is
  // off, exactly like the un-instrumented baseline.
  const bool obs_on = obs::enabled();
  const std::uint64_t recv_t0 = obs_on ? obs::now_ns() : 0;
  const auto deadline =
      timeout_ms > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::milliseconds(timeout_ms)
          : std::chrono::steady_clock::time_point{};
  const BucketKey key{detail.cls, detail.comm, detail.tag};

  std::unique_lock<std::mutex> lock(mutex_);
  ++waiters_;
  Waiter w;
  w.has_tuple = true;
  w.cls = detail.cls;
  w.comm = detail.comm;
  w.tag = detail.tag;
  w.src = detail.src;
  WaiterGuard guard{*this, lock, [this, &w] {
                      deregister_locked(w);
                      if (--waiters_ == 0 && closed_) drain_cv_.notify_all();
                    }};

  bool timed_out = false;
  for (;;) {
    if (auto bit = buckets_.find(key); bit != buckets_.end()) {
      Bucket& bucket = bit->second;
      // The cursor skips every message this waiter already rejected: only
      // arrivals newer than the last examined seq are scanned, so a waiter
      // behind N unmatching messages pays for each exactly once.
      auto sit = std::lower_bound(bucket.seqs.begin(), bucket.seqs.end(),
                                  w.cursor + 1);
      for (; sit != bucket.seqs.end(); ++sit) {
        const std::uint64_t seq = *sit;
        auto qit = queue_.find(seq);
        if (detail.src >= 0 && qit->second.src != detail.src) {
          w.cursor = seq;
          continue;
        }
        Message out = std::move(qit->second);
        queue_.erase(qit);
        bucket.seqs.erase(sit);
        maybe_gc_bucket_locked(bit);
        note_delivery_locked(out, obs_on);
        if (obs_on) {
          span.set_comm(out.comm);
          span.set_arg1(out.payload.size());
          // Recover the trace context stamped at Machine::send: the span's
          // flow id pairs this receive with its send in the exported trace.
          span.set_flow(out.flow);
          attribute_delivery(out, recv_t0);
        }
        return out;
      }
    }
    if (closed_) {
      if (obs_on) note_unblock_locked();
      throw MailboxClosed();
    }
    if (timed_out) {
      // The deadline passed and a final scan (above) still found nothing.
      if (obs_on) note_unblock_locked();
      throw_timeout(&detail, timeout_ms);
    }
    if (!w.registered) {
      buckets_[key].waiters.push_back(&w);
      w.registered = true;
    }
    note_block_locked(&detail, obs_on);
    wait_state_.blocked_waiters.fetch_add(1, std::memory_order_relaxed);
    // On a timeout, one more scan at the top of the loop before giving up:
    // a message posted right at the deadline must still be delivered, not
    // lost to a spurious timeout.
    wait_waiter_locked(lock, w, timeout_ms, deadline, timed_out);
    wait_state_.blocked_waiters.fetch_sub(1, std::memory_order_relaxed);
    wakeup_counter().add_at(owner_);
  }
}

Message Mailbox::receive_scan(const Predicate& match,
                              std::uint64_t timeout_ms) {
  static obs::Histogram& wait_hist =
      obs::Registry::instance().histogram("mailbox.recv_wait_ns");
  obs::Span span(obs::Op::MsgRecv, 0,
                 static_cast<std::uint64_t>(static_cast<unsigned>(owner_)),
                 &wait_hist);
  const bool obs_on = obs::enabled();
  const std::uint64_t recv_t0 = obs_on ? obs::now_ns() : 0;
  const auto deadline =
      timeout_ms > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::milliseconds(timeout_ms)
          : std::chrono::steady_clock::time_point{};

  std::unique_lock<std::mutex> lock(mutex_);
  ++waiters_;
  Waiter w;  // has_tuple = false: lives in the any-message lane
  WaiterGuard guard{*this, lock, [this, &w] {
                      deregister_locked(w);
                      if (--waiters_ == 0 && closed_) drain_cv_.notify_all();
                    }};

  bool timed_out = false;
  for (;;) {
    // The scan lane examines every queued message in arrival order — the
    // map is keyed by the arrival seq, so iteration order IS arrival order.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (match(it->second)) {
        Message out = std::move(it->second);
        const std::uint64_t seq = it->first;
        queue_.erase(it);
        unlink_from_bucket_locked(out, seq);
        note_delivery_locked(out, obs_on);
        if (obs_on) {
          span.set_comm(out.comm);
          span.set_arg1(out.payload.size());
          span.set_flow(out.flow);
          attribute_delivery(out, recv_t0);
        }
        return out;
      }
    }
    if (closed_) {
      if (obs_on) note_unblock_locked();
      throw MailboxClosed();
    }
    if (timed_out) {
      if (obs_on) note_unblock_locked();
      throw_timeout(nullptr, timeout_ms);
    }
    if (!w.registered) {
      scan_waiters_.push_back(&w);
      w.registered = true;
    }
    note_block_locked(nullptr, obs_on);
    wait_state_.blocked_waiters.fetch_add(1, std::memory_order_relaxed);
    wait_waiter_locked(lock, w, timeout_ms, deadline, timed_out);
    wait_state_.blocked_waiters.fetch_sub(1, std::memory_order_relaxed);
    wakeup_counter().add_at(owner_);
  }
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::string Mailbox::describe_pending_locked() const {
  constexpr std::size_t kMaxShown = 8;
  std::ostringstream out;
  out << queue_.size() << " pending";
  if (!queue_.empty()) {
    out << ": ";
    std::size_t shown = 0;
    for (const auto& [seq, m] : queue_) {
      if (shown == kMaxShown) {
        out << " ...";
        break;
      }
      if (shown != 0) out << " ";
      out << "[cls=" << (m.cls == MessageClass::DataParallel ? "data" : "task")
          << " comm=" << m.comm << " tag=" << m.tag << " src=" << m.src
          << " flow=" << m.flow << " " << m.payload.size() << "B]";
      ++shown;
    }
  }
  return out.str();
}

std::string Mailbox::describe_pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return describe_pending_locked();
}

std::string Mailbox::describe_wait() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << describe_pending_locked();
  std::size_t waiting = scan_waiters_.size();
  for (const auto& [key, bucket] : buckets_) waiting += bucket.waiters.size();
  if (waiting == 0) return out.str();
  out << "; " << waiting << " waiting:";
  for (const auto& [key, bucket] : buckets_) {
    for (const Waiter* w : bucket.waiters) {
      out << " (cls="
          << (w->cls == MessageClass::DataParallel ? "data" : "task")
          << ", comm=" << w->comm << ", tag=" << w->tag << ", src=";
      if (w->src < 0) {
        out << "any";
      } else {
        out << w->src;
      }
      out << ")";
    }
  }
  for (std::size_t i = 0; i < scan_waiters_.size(); ++i) out << " (opaque)";
  return out.str();
}

void Mailbox::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  wake_all_locked();
}

}  // namespace tdp::vp
