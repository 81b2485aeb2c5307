#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

namespace tdp::obs {

namespace detail {

thread_local int t_current_vp = -1;
std::atomic<int> g_enabled{-1};

bool init_enabled() {
  const char* env = std::getenv("TDP_OBS");
  const bool on =
      env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, on ? 1 : 0,
                                    std::memory_order_relaxed);
  const bool enabled = g_enabled.load(std::memory_order_relaxed) != 0;
  if (enabled) register_atexit_flush();
  return enabled;
}

void emit_event(Op op, EventKind kind, std::uint64_t comm, std::uint64_t flow,
                std::uint64_t arg0, std::uint64_t arg1, int vp) {
  EventRecord rec;
  rec.ts_ns = now_ns();
  rec.dur_ns = 0;
  rec.comm = comm;
  rec.flow = flow;
  rec.arg0 = arg0;
  rec.arg1 = arg1;
  rec.vp = vp;
  rec.op = op;
  rec.kind = kind;
  Tracer::instance().emit(rec);
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  if (on) register_atexit_flush();
}

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::uint64_t next_flow_id() {
  // One monotonic sequence per tracer shard; sharding by the sending VP
  // keeps concurrent senders off each other's cache line, exactly like the
  // event buffer itself.
  struct alignas(64) Seq {
    std::atomic<std::uint64_t> v{0};
  };
  static Seq seqs[Tracer::kShards];
  const int vp = current_vp();
  const std::size_t shard =
      vp >= 0 ? static_cast<std::size_t>(vp) % Tracer::kShards
              : Tracer::kShards - 1;
  const std::uint64_t seq =
      seqs[shard].v.fetch_add(1, std::memory_order_relaxed) + 1;
  // Under a multi-process launch (TDP_TRANSPORT=uds) every rank runs this
  // same generator, so process-uniqueness is not enough: a flow id must be
  // unique across the launched set or merged per-rank traces would pair
  // the wrong send/receive arrows.  Fold the rank into bits 47..52 — six
  // bits keeps ids below 2^53 (exact in JSON doubles); launches wider than
  // 62 ranks alias rank bits, which degrades cross-rank pairing but never
  // breaks within-rank ids.
  static const std::uint64_t rank_bits = [] {
    const long long rank = util::env_int("TDP_RANK", -1, 0, 1 << 20);
    return rank >= 0 ? ((static_cast<std::uint64_t>(rank) + 1) & 0x3F) << 47
                     : std::uint64_t{0};
  }();
  return rank_bits | ((static_cast<std::uint64_t>(shard) + 1) << 40) | seq;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::None: return "none";
    case Op::MsgSend: return "vp.send";
    case Op::MsgRecv: return "vp.recv";
    case Op::RecvMiss: return "vp.recv_miss";
    case Op::QueueDepth: return "vp.queue_depth";
    case Op::PostAfterClose: return "vp.post_after_close";
    case Op::CallMarshal: return "call.marshal";
    case Op::CallExecute: return "call.execute";
    case Op::CallCombine: return "call.combine";
    case Op::CallSlow: return "call.slow";
    case Op::AmCreate: return "am.create_array";
    case Op::AmFree: return "am.free_array";
    case Op::AmRead: return "am.read_element";
    case Op::AmWrite: return "am.write_element";
    case Op::AmFindLocal: return "am.find_local";
    case Op::AmFindInfo: return "am.find_info";
    case Op::AmVerify: return "am.verify_array";
    case Op::AmReadSection: return "am.read_shard";
    case Op::AmWriteSection: return "am.write_shard";
    case Op::AmMigrate: return "am.migrate_shard";
    case Op::AmRebalance: return "am.rebalance";
    case Op::AmShardForward: return "am.shard_forward";
    case Op::DoAllCopy: return "do_all.copy";
    case Op::DpAssign: return "dp.multiple_assign";
    case Op::DpParallelFor: return "dp.parallel_for";
    case Op::MsgFlow: return "vp.msg";
    case Op::WdQueued: return "watchdog.queued_msgs";
    case Op::WdBlocked: return "watchdog.blocked_vps";
    case Op::CollBarrier: return "coll.barrier";
    case Op::CollBcast: return "coll.broadcast";
    case Op::CollReduce: return "coll.reduce";
    case Op::CollAllreduce: return "coll.allreduce";
    case Op::CollGather: return "coll.gather";
    case Op::CollAllgather: return "coll.allgather";
    case Op::CollScan: return "coll.scan";
    case Op::CollAlltoall: return "coll.alltoall";
    case Op::FaultDrop: return "fault.drop";
    case Op::FaultDelay: return "fault.delay";
    case Op::FaultDup: return "fault.dup";
    case Op::FaultReorder: return "fault.reorder";
    case Op::FaultTimeout: return "fault.timeout";
    case Op::FaultRetry: return "fault.retry";
    case Op::kCount_: break;
  }
  return "unknown";
}

const char* op_category(Op op) {
  switch (op) {
    case Op::MsgSend:
    case Op::MsgRecv:
    case Op::RecvMiss:
    case Op::QueueDepth:
    case Op::PostAfterClose:
      return "vp";
    case Op::CallMarshal:
    case Op::CallExecute:
    case Op::CallCombine:
    case Op::CallSlow:
      return "call";
    case Op::AmCreate:
    case Op::AmFree:
    case Op::AmRead:
    case Op::AmWrite:
    case Op::AmFindLocal:
    case Op::AmFindInfo:
    case Op::AmVerify:
    case Op::AmReadSection:
    case Op::AmWriteSection:
    case Op::AmMigrate:
    case Op::AmRebalance:
    case Op::AmShardForward:
      return "am";
    case Op::DoAllCopy:
      return "do_all";
    case Op::DpAssign:
    case Op::DpParallelFor:
      return "dp";
    case Op::MsgFlow:
      return "flow";
    case Op::WdQueued:
    case Op::WdBlocked:
      return "watchdog";
    case Op::CollBarrier:
    case Op::CollBcast:
    case Op::CollReduce:
    case Op::CollAllreduce:
    case Op::CollGather:
    case Op::CollAllgather:
    case Op::CollScan:
    case Op::CollAlltoall:
      return "coll";
    case Op::FaultDrop:
    case Op::FaultDelay:
    case Op::FaultDup:
    case Op::FaultReorder:
    case Op::FaultTimeout:
    case Op::FaultRetry:
      return "fault";
    default:
      return "misc";
  }
}

namespace {

std::size_t default_shard_capacity() {
  // TDP_OBS_CAPACITY is the total record budget across all shards.
  // Checked parse: garbage and non-positive budgets warn and keep the
  // default instead of silently reading as 0.
  const std::size_t total = static_cast<std::size_t>(
      util::env_int("TDP_OBS_CAPACITY", std::int64_t{1} << 19, 1,
                    std::int64_t{1} << 32));
  const std::size_t per_shard = total / Tracer::kShards;
  return per_shard < 1024 ? 1024 : per_shard;
}

}  // namespace

Tracer::Tracer() : shard_capacity_(default_shard_capacity()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::emit(const EventRecord& rec) {
  Shard& s = shards_[shard_index(rec.vp)];
  // Overwrite the oldest slot.  The shard mutex is held only for the
  // 56-byte copy and one store; each shard is effectively owned by one VP's
  // thread, so this is uncontended.  Lazy allocation keeps the
  // disabled/unused footprint at zero.
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.slots == nullptr) s.slots = new EventRecord[shard_capacity_]();
  const std::uint64_t claim = s.head.load(std::memory_order_relaxed);
  s.slots[claim % shard_capacity_] = rec;
  s.head.store(claim + 1, std::memory_order_relaxed);
}

std::vector<EventRecord> Tracer::snapshot() const {
  std::vector<EventRecord> out;
  for (Shard& s : shards_) {
    // Under the shard mutex the ring is consistent even against live
    // emitters; copy oldest-first.
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.slots == nullptr) continue;
    const std::uint64_t head = s.head.load(std::memory_order_relaxed);
    const std::uint64_t n = std::min<std::uint64_t>(head, shard_capacity_);
    for (std::uint64_t i = head - n; i < head; ++i) {
      const EventRecord& rec = s.slots[i % shard_capacity_];
      if (rec.op != Op::None) out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.ts_ns < b.ts_ns;
            });
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.head.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Tracer::overwritten() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    const std::uint64_t head = s.head.load(std::memory_order_relaxed);
    if (head > shard_capacity_) total += head - shard_capacity_;
  }
  return total;
}

void Tracer::reset(std::size_t capacity_per_shard) {
  if (capacity_per_shard > 0) shard_capacity_ = capacity_per_shard;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    delete[] s.slots;
    s.slots = nullptr;
    s.head.store(0, std::memory_order_relaxed);
  }
}

void Span::finish_impl() {
  armed_ = false;
  const std::uint64_t end = now_ns();
  EventRecord rec;
  rec.ts_ns = start_;
  rec.dur_ns = end - start_;
  rec.comm = comm_;
  rec.flow = flow_;
  rec.arg0 = arg0_;
  rec.arg1 = arg1_;
  rec.vp = current_vp();
  rec.op = op_;
  rec.kind = EventKind::Span;
  Tracer::instance().emit(rec);
  if (latency_ != nullptr) latency_->record(rec.dur_ns);
}

}  // namespace tdp::obs
