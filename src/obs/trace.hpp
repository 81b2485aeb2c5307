// tdp::obs — low-overhead event tracing for the whole runtime.
//
// The thesis's performance chapters (distributed-call overhead, array-manager
// cost, reduction trees) attribute cost to a virtual processor, a
// communicator, and a phase of a distributed call.  This module is the
// substrate for that attribution: a sharded buffer of fixed-size POD event
// records plus RAII span helpers, designed so that
//
//  * the *disabled* path is a single relaxed atomic load and branch
//    (TDP_OBS unset), and can be compiled out entirely (-DTDP_OBS_DISABLED,
//    CMake -DTDP_OBS_ENABLE=OFF);
//  * the *enabled* path copies one record into its shard under a tiny
//    per-shard mutex.  The mutex is a leaf (nothing else is locked under
//    it), so instrumentation may run inside the mailbox monitor without
//    lock-order concerns.
//
// Shards are selected by the emitting thread's virtual-processor placement
// (obs::current_vp — the canonical thread-local behind vp::current_proc),
// so concurrent virtual processors do not contend on one buffer head: one VP
// per shard up to 64 VPs, i.e. the shard mutex is effectively uncontended.
//
// Each shard is a flight-recorder ring that keeps the *last* N events, so a
// long-running service always has recent history to dump on demand
// (SIGUSR1, a watchdog stall, or obs::dump_flight_recorder) instead of
// going blind after the first TDP_OBS_CAPACITY events.  Displaced events are
// counted as overwritten — the trace's single truncation signal.  Because
// the shard mutex also guards snapshot reads, a snapshot of a live service
// is consistent per shard and TSan-clean by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace tdp::obs {

class Histogram;  // metrics.hpp; spans can feed a latency histogram

#ifdef TDP_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Every traced operation in the runtime; keep in sync with op_name().
enum class Op : std::uint16_t {
  None = 0,        ///< zero-initialised (unwritten) slot; never exported
  MsgSend,         ///< vp::Machine::send delivered a message
  MsgRecv,         ///< vp::Mailbox::receive span (duration = wait + match)
  RecvMiss,        ///< selective receive scanned the queue and had to block
  QueueDepth,      ///< mailbox queue-depth gauge sample (counter event)
  PostAfterClose,  ///< a send raced teardown: posted into a closed mailbox
  CallMarshal,     ///< distributed call: argument marshal phase
  CallExecute,     ///< distributed call: one copy's SPMD execute phase
  CallCombine,     ///< distributed call: status/reduction combine phase
  CallSlow,        ///< slow-call exemplar captured (arg0 latency ns, arg1
                   ///< subtree size); comm = the call-root id
  AmCreate,        ///< array manager: create_array
  AmFree,          ///< array manager: free_array
  AmRead,          ///< array manager: read_element
  AmWrite,         ///< array manager: write_element
  AmFindLocal,     ///< array manager: find_local
  AmFindInfo,      ///< array manager: find_info
  AmVerify,        ///< array manager: verify_array
  AmReadSection,   ///< array manager: read_shard (bulk interior snapshot)
  AmWriteSection,  ///< array manager: write_shard (bulk interior overwrite)
  AmMigrate,       ///< array manager: migrate_shard (arg1 = payload bytes)
  AmRebalance,     ///< array manager: rebalance (arg1 = shards moved)
  AmShardForward,  ///< a stale owner table re-routed a shard request
  DoAllCopy,       ///< core::do_all: one fanned-out copy
  DpAssign,        ///< dp::multiple_assign statement
  DpParallelFor,   ///< dp::parallel_for statement
  MsgFlow,         ///< causal send→receive link (Chrome flow event pair)
  WdQueued,        ///< watchdog: total queued messages across VPs (counter)
  WdBlocked,       ///< watchdog: VPs blocked in receive (counter)
  CollBarrier,     ///< spmd collective: barrier
  CollBcast,       ///< spmd collective: broadcast
  CollReduce,      ///< spmd collective: reduce
  CollAllreduce,   ///< spmd collective: allreduce
  CollGather,      ///< spmd collective: gather
  CollAllgather,   ///< spmd collective: allgather
  CollScan,        ///< spmd collective: scan
  CollAlltoall,    ///< spmd collective: all-to-all exchange
  FaultDrop,       ///< fault injector: message or request dropped
  FaultDelay,      ///< fault injector: message delayed before delivery
  FaultDup,        ///< fault injector: message duplicated
  FaultReorder,    ///< fault injector: message stashed for a pairwise swap
  FaultTimeout,    ///< a deadline-aware receive or request reply timed out
  FaultRetry,      ///< bounded-retry path re-issued a server request
  kCount_
};

const char* op_name(Op op);      ///< e.g. "call.execute"
const char* op_category(Op op);  ///< e.g. "call" (Chrome trace "cat")

enum class EventKind : std::uint8_t {
  Instant = 0,    ///< point event ("ph":"i")
  Span = 1,       ///< complete event with duration ("ph":"X")
  Counter = 2,    ///< gauge sample ("ph":"C")
  FlowStart = 3,  ///< causal flow origin ("ph":"s"); flow holds the id
  FlowEnd = 4,    ///< causal flow target ("ph":"f"); flow holds the id
};

/// Fixed-size POD trace record.  56 bytes; written exactly once per slot.
struct EventRecord {
  std::uint64_t ts_ns = 0;   ///< start time, ns since trace epoch
  std::uint64_t dur_ns = 0;  ///< span duration; 0 for instants/counters
  std::uint64_t comm = 0;    ///< communicator (distributed-call) id; 0 = none
  std::uint64_t flow = 0;    ///< causal flow id (send→receive link); 0 = none
  std::uint64_t arg0 = 0;    ///< op-specific payload (dst proc, bytes, ...)
  std::uint64_t arg1 = 0;    ///< op-specific payload (tag, depth, ...)
  std::int32_t vp = -1;      ///< emitting virtual processor; -1 = external
  Op op = Op::None;
  EventKind kind = EventKind::Instant;
};

namespace detail {
extern thread_local int t_current_vp;
bool init_enabled();
extern std::atomic<int> g_enabled;  // -1 = uninitialised, else 0/1
}  // namespace detail

/// The virtual processor the calling thread is placed on (-1 = none).  This
/// is the canonical placement thread-local; vp::current_proc() forwards here
/// so tracing needs no dependency on the vp layer.
inline int current_vp() { return detail::t_current_vp; }

/// Sets the calling thread's placement; returns the previous value
/// (vp::ProcScope uses this pair).
inline int set_current_vp(int vp) {
  const int old = detail::t_current_vp;
  detail::t_current_vp = vp;
  return old;
}

/// True when observability is on: TDP_OBS=1 in the environment (cached on
/// first call) or set_enabled(true).  Always false when compiled out.
inline bool enabled() {
  if constexpr (!kCompiledIn) return false;
  const int v = detail::g_enabled.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return detail::init_enabled();
}

/// Programmatic override of the TDP_OBS kill switch (tests, embedders).
void set_enabled(bool on);

/// Nanoseconds since the process's trace epoch (steady clock).
std::uint64_t now_ns();

/// A fresh causal flow id, never 0.  Composed of the process's launch
/// rank (when TDP_RANK is set), the calling thread's virtual-processor
/// shard, and that shard's monotonic send sequence
/// ((rank+1) << 47 | (shard+1) << 40 | seq), so ids are unique across a
/// multi-process launch, stay below 2^53 (exact in JSON doubles), and
/// encode per-VP send order — the trace context vp::Machine::send stamps
/// into the message envelope.
std::uint64_t next_flow_id();

/// The process-wide trace buffer: kShards independent fixed-capacity rings.
/// Emitting and reading (snapshot) are both safe on a live service.
class Tracer {
 public:
  static constexpr std::size_t kShards = 64;

  static Tracer& instance();

  /// Records one event (caller has already checked enabled()).
  void emit(const EventRecord& rec);

  /// All retained records, merged across shards and sorted by timestamp.
  /// The per-shard mutex makes a concurrent snapshot safe (each shard is
  /// internally consistent; cross-shard skew is bounded by the copy time),
  /// which is what lets the flight recorder dump a *live* service.
  std::vector<EventRecord> snapshot() const;

  std::uint64_t recorded() const;     ///< events stored (ever)
  std::uint64_t overwritten() const;  ///< events displaced by newer ones

  /// Total record capacity across shards.
  std::size_t capacity() const { return shard_capacity_ * kShards; }

  /// Clears all shards; `capacity_per_shard` > 0 also resizes them.  NOT
  /// thread-safe versus concurrent emitters — tests and startup only.
  void reset(std::size_t capacity_per_shard = 0);

 private:
  Tracer();

  struct alignas(64) Shard {
    /// Serialises slot writes (overwrites make slots multi-writer) and
    /// snapshot reads against them.
    std::mutex mutex;
    EventRecord* slots = nullptr;        // lazily allocated under mutex
    std::atomic<std::uint64_t> head{0};  // events ever emitted here
  };

  static std::size_t shard_index(int vp) {
    return vp >= 0 ? static_cast<std::size_t>(vp) % kShards : kShards - 1;
  }

  std::size_t shard_capacity_;
  mutable Shard shards_[kShards];
};

namespace detail {
void emit_event(Op op, EventKind kind, std::uint64_t comm, std::uint64_t flow,
                std::uint64_t arg0, std::uint64_t arg1, int vp);
}  // namespace detail

/// Point event on the calling thread's virtual processor.
inline void instant(Op op, std::uint64_t comm = 0, std::uint64_t arg0 = 0,
                    std::uint64_t arg1 = 0) {
  if (!kCompiledIn || !enabled()) return;
  detail::emit_event(op, EventKind::Instant, comm, 0, arg0, arg1,
                     current_vp());
}

/// Point event carrying a causal flow id (the send side of a message: the
/// exporter pairs it with the receive span sharing `flow` and draws the
/// arrow).
inline void instant_flow(Op op, std::uint64_t flow, std::uint64_t comm = 0,
                         std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
  if (!kCompiledIn || !enabled()) return;
  detail::emit_event(op, EventKind::Instant, comm, flow, arg0, arg1,
                     current_vp());
}

/// Explicit Chrome flow endpoints for causal links that are not messages
/// (distributed-call spawn → execute, execute → combine).  Each id must
/// appear in exactly one flow_start and one flow_end.
inline void flow_start(Op op, std::uint64_t flow, std::uint64_t comm = 0) {
  if (!kCompiledIn || !enabled()) return;
  detail::emit_event(op, EventKind::FlowStart, comm, flow, 0, 0,
                     current_vp());
}
inline void flow_end(Op op, std::uint64_t flow, std::uint64_t comm = 0) {
  if (!kCompiledIn || !enabled()) return;
  detail::emit_event(op, EventKind::FlowEnd, comm, flow, 0, 0, current_vp());
}

/// Gauge sample attributed to an explicit virtual processor (e.g. a mailbox
/// owner, regardless of which thread posted).
inline void counter_sample(Op op, std::uint64_t value, int vp) {
  if (!kCompiledIn || !enabled()) return;
  detail::emit_event(op, EventKind::Counter, 0, 0, value, 0, vp);
}

/// RAII span: captures the start time on construction and emits one complete
/// event (and optionally a latency histogram sample) on destruction.  When
/// observability is off, construction is one branch and destruction another.
class Span {
 public:
  explicit Span(Op op, std::uint64_t comm = 0, std::uint64_t arg0 = 0,
                Histogram* latency = nullptr)
      : op_(op),
        comm_(comm),
        arg0_(arg0),
        latency_(latency),
        armed_(kCompiledIn && enabled()) {
    if (armed_) start_ = now_ns();
  }
  ~Span() {
    if (armed_) finish_impl();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Late-bound payload (e.g. the communicator of the matched message).
  void set_comm(std::uint64_t comm) { comm_ = comm; }
  void set_arg0(std::uint64_t v) { arg0_ = v; }
  void set_arg1(std::uint64_t v) { arg1_ = v; }

  /// Late-bound causal flow id (the matched message's trace context); the
  /// exporter emits the flow target at this span's end timestamp.
  void set_flow(std::uint64_t flow) { flow_ = flow; }

  /// Ends the span now (idempotent; the destructor then does nothing).
  void finish() {
    if (armed_) finish_impl();
  }

 private:
  void finish_impl();  // out-of-line: touches Tracer and Histogram

  Op op_;
  std::uint64_t comm_;
  std::uint64_t arg0_;
  std::uint64_t arg1_ = 0;
  std::uint64_t flow_ = 0;
  std::uint64_t start_ = 0;
  Histogram* latency_;
  bool armed_;
};

}  // namespace tdp::obs
