// Execution context for one copy of an SPMD data-parallel program
// (§3.1.4, §3.5).
//
// A distributed call runs one copy of the called program on each processor
// of a group.  Each copy receives an SpmdContext giving it
//   * its index within the group and the processor array (the thesis makes
//     relocatability a requirement: processor numbers must come from the
//     array passed with the call, never be hard-wired);
//   * point-to-point typed send/receive *within the group*, scoped by the
//     call's communicator id so that concurrent distributed calls can never
//     intercept each other's messages (§3.4.1, fig. 3.4);
//   * the collective operations (barrier, broadcast, reduce, allreduce,
//     gather, allgather, exchange) an adapted SPMD library needs (§D).
//
// Payload ownership: message bodies are immutable refcounted buffers
// (vp::Payload).  The span-based send/recv entry points copy exactly once
// at each user-facing boundary (caller span -> payload on send, payload ->
// caller span on receive); the payload-based entry points (send_payload,
// recv_payload, broadcast_payload) move only a handle.  The tree
// collectives in spmd/coll.hpp exploit this to fan one buffer out to P-1
// peers with zero substrate copies.
#pragma once

#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "spmd/coll.hpp"
#include "vp/machine.hpp"

namespace tdp::spmd {

/// The default receive deadline applied by SpmdContext::recv (and thus
/// every collective), in milliseconds: the TDP_RECV_TIMEOUT_MS environment
/// variable (cached on first read), unless overridden programmatically.
/// 0 means wait forever — the pre-deadline behaviour.
long long recv_timeout_ms();

/// Programmatic override of the default receive deadline (tests,
/// embedders).  Negative restores the environment value.
void set_recv_timeout_ms(long long ms);

// --- Multi-process bootstrap (TDP_TRANSPORT=uds). ---------------------------
//
// tools/tdp_launch forks one OS process per rank with TDP_RANK, TDP_SIZE,
// TDP_UDS_DIR and TDP_TRANSPORT=uds in the environment.  A program that
// wants to run both ways (threads in one process, or one process per rank
// under the launcher) branches on launched_from_env():
//
//   vp::Machine machine(spmd::launched_from_env() ? spmd::env_size() : P);
//   if (spmd::launched_from_env()) {
//     spmd::SpmdContext ctx = spmd::context_from_env(machine);
//     run(ctx);                       // this process is one rank
//   } else {
//     ...spawn P threads, each with its own SpmdContext...
//   }

/// True when this process was launched as one rank of a multi-process set
/// (TDP_TRANSPORT=uds with a valid TDP_RANK/TDP_SIZE pair).
bool launched_from_env();

/// This process's rank per TDP_RANK, or -1 when not launched.
int env_rank();

/// The launched world size per TDP_SIZE, or -1 when not launched.
int env_size();

/// The communicator id the launched group agrees on: TDP_COMM, default 1.
/// Machine::next_comm() cannot serve here — each rank process has its own
/// counter, and a communicator must be identical across the group.
std::uint64_t env_comm();

class SpmdContext;

/// The context of this rank within the launched group: index = TDP_RANK,
/// processors = [0, TDP_SIZE), comm = env_comm().  `machine` must have
/// been constructed with env_size() processors (so its transport attached
/// to the launched set).  Throws std::runtime_error when not launched.
SpmdContext context_from_env(vp::Machine& machine);

class SpmdContext {
 public:
  /// Constructs the context of copy `index` of a call distributed over
  /// `processors` with communicator id `comm`.
  SpmdContext(vp::Machine& machine, std::uint64_t comm,
              std::vector<int> processors, int index);

  int index() const { return index_; }
  int nprocs() const { return static_cast<int>(processors_.size()); }
  int proc() const { return processors_[static_cast<std::size_t>(index_)]; }
  const std::vector<int>& processors() const { return processors_; }
  std::uint64_t comm() const { return comm_; }
  vp::Machine& machine() { return machine_; }

  // --- Point-to-point (group indices, not raw processor numbers). ---------

  /// Copies `bytes` into a fresh payload and sends it (the caller may
  /// reuse its buffer immediately).
  void send_bytes(int dst_index, int tag, std::span<const std::byte> bytes);

  /// Sends an already-wrapped payload without any copy; senders fanning one
  /// buffer out to many destinations pass the same payload repeatedly.
  void send_payload(int dst_index, int tag, vp::Payload payload);

  /// Receives into caller-owned storage (one delivery copy).
  std::vector<std::byte> recv_bytes(int src_index, int tag);

  /// Borrow-style receive: hands back the sender's buffer without a copy.
  /// When a receive deadline is configured (recv_timeout_ms() > 0) and no
  /// matching message arrives in time, throws vp::ReceiveTimeout naming the
  /// awaited (class, comm, tag, src) — a lost message surfaces as a typed
  /// error at the abstraction boundary instead of an eternal hang.
  vp::Payload recv_payload(int src_index, int tag);

  /// Receives into `out`, which must match the received size exactly;
  /// throws std::runtime_error naming tag, source and both sizes otherwise
  /// (a silent truncation here is always a protocol bug).
  void recv_bytes_into(int src_index, int tag, std::span<std::byte> out);

  /// Sends a poison marker instead of data: the receiver's recv_payload
  /// will throw coll::Poisoned naming `origin_index` (the group index of
  /// the originally stalled copy).  Used by the tree collectives so a copy
  /// whose own receive timed out still discharges its forwarding duty —
  /// its subtree fails fast blaming the right peer instead of timing out
  /// one level at a time blaming each forwarder.
  void send_poison(int dst_index, int tag, int origin_index);

  template <typename T>
  void send(int dst_index, int tag, std::span<const T> data) {
    send_bytes(dst_index, tag,
               std::as_bytes(std::span<const T>(data.data(), data.size())));
  }

  template <typename T>
  void send_value(int dst_index, int tag, const T& v) {
    send(dst_index, tag, std::span<const T>(&v, 1));
  }

  template <typename T>
  void recv(int src_index, int tag, std::span<T> out) {
    recv_bytes_into(src_index, tag, std::as_writable_bytes(out));
  }

  template <typename T>
  T recv_value(int src_index, int tag) {
    T v{};
    recv(src_index, tag, std::span<T>(&v, 1));
    return v;
  }

  // --- Collectives over the group. -----------------------------------------
  //
  // Algorithms live in spmd/coll.hpp: logarithmic-depth trees by default,
  // the original linear loops under TDP_COLL=linear.  All variants use only
  // the reserved tags below and this context's communicator id, preserving
  // the §3.4.1 isolation of concurrent distributed calls.

  /// All copies must arrive before any proceeds.
  void barrier() { coll::barrier(*this); }

  /// Root's buffer is copied to every copy's buffer.
  template <typename T>
  void broadcast(std::span<T> data, int root) {
    coll::broadcast(*this, std::as_writable_bytes(data), root);
  }

  /// Payload-level broadcast: the root publishes `mine`; every copy (root
  /// included) returns a handle to that one buffer — zero payload copies
  /// regardless of group size.  `mine` is ignored on non-roots.
  vp::Payload broadcast_payload(vp::Payload mine, int root) {
    return coll::broadcast_payload(*this, std::move(mine), root);
  }

  /// Element-wise reduction of every copy's buffer into root's buffer
  /// (non-root buffers are left unchanged).  `op` must be associative;
  /// operands are kept in index order, so non-commutative associative
  /// operators give the same result in both algorithm families up to
  /// re-association.
  template <typename T>
  void reduce(std::span<T> data, int root,
              const std::function<T(const T&, const T&)>& op) {
    coll::reduce(*this, std::as_writable_bytes(data), root,
                 byte_combine<T>(op));
  }

  /// Element-wise reduction into every copy's buffer.
  template <typename T>
  void allreduce(std::span<T> data,
                 const std::function<T(const T&, const T&)>& op) {
    coll::allreduce(*this, std::as_writable_bytes(data), byte_combine<T>(op));
  }

  /// Scalar allreduce convenience.
  template <typename T>
  T allreduce_value(T v, const std::function<T(const T&, const T&)>& op) {
    allreduce(std::span<T>(&v, 1), op);
    return v;
  }

  double allreduce_sum(double v);
  double allreduce_max(double v);
  int allreduce_max_int(int v);

  /// Gathers equal-sized contributions to root, concatenated in index
  /// order.  Deliberately linear in every algorithm family: the P-1 blocks
  /// must land at the root either way, and the linear form receives each
  /// straight into its destination slot with no staging.
  template <typename T>
  std::vector<T> gather(std::span<const T> mine, int root) {
    obs::Span span(obs::Op::CollGather, comm_,
                   mine.size() * sizeof(T), nullptr);
    if (index_ == root) {
      std::vector<T> out(mine.size() * static_cast<std::size_t>(nprocs()));
      for (int i = 0; i < nprocs(); ++i) {
        std::span<T> slot(out.data() + mine.size() * static_cast<std::size_t>(i),
                          mine.size());
        if (i == root) {
          std::copy(mine.begin(), mine.end(), slot.begin());
        } else {
          recv(i, kGatherTag, slot);
        }
      }
      return out;
    }
    send(root, kGatherTag, mine);
    return {};
  }

  /// Equal-sized contributions concatenated in index order on every copy.
  template <typename T>
  std::vector<T> allgather(std::span<const T> mine) {
    std::vector<T> all(mine.size() * static_cast<std::size_t>(nprocs()));
    coll::allgather(*this, std::as_bytes(mine),
                    std::as_writable_bytes(std::span<T>(all)));
    return all;
  }

  /// Inclusive prefix reduction in index order: copy i's buffer becomes
  /// op(data_0, ..., data_i) elementwise.  A genuine dependence chain;
  /// linear in every algorithm family.
  template <typename T>
  void scan(std::span<T> data, const std::function<T(const T&, const T&)>& op) {
    obs::Span span(obs::Op::CollScan, comm_, data.size() * sizeof(T), nullptr);
    if (index_ > 0) {
      vp::Payload incoming = recv_payload(index_ - 1, kScanTag);
      const T* in = reinterpret_cast<const T*>(incoming.data());
      for (std::size_t k = 0; k < data.size(); ++k) {
        data[k] = op(in[k], data[k]);
      }
    }
    if (index_ + 1 < nprocs()) {
      send(index_ + 1, kScanTag, std::span<const T>(data));
    }
  }

  /// Full personalised exchange: `mine` holds nprocs() blocks of
  /// `block` elements, block j destined for copy j; the result holds the
  /// blocks received from every copy, in index order.  Fully pairwise
  /// already; identical in every algorithm family.
  template <typename T>
  std::vector<T> alltoall(std::span<const T> mine, std::size_t block) {
    obs::Span span(obs::Op::CollAlltoall, comm_, block * sizeof(T), nullptr);
    std::vector<T> out(block * static_cast<std::size_t>(nprocs()));
    for (int j = 0; j < nprocs(); ++j) {
      if (j == index_) continue;
      send(j, kAllToAllTag,
           std::span<const T>(mine.data() + block * static_cast<std::size_t>(j),
                              block));
    }
    std::copy(mine.begin() + static_cast<std::ptrdiff_t>(
                                 block * static_cast<std::size_t>(index_)),
              mine.begin() + static_cast<std::ptrdiff_t>(
                                 block * static_cast<std::size_t>(index_ + 1)),
              out.begin() + static_cast<std::ptrdiff_t>(
                                block * static_cast<std::size_t>(index_)));
    for (int j = 0; j < nprocs(); ++j) {
      if (j == index_) continue;
      recv(j, kAllToAllTag,
           std::span<T>(out.data() + block * static_cast<std::size_t>(j),
                        block));
    }
    return out;
  }

  /// Pairwise full exchange: sends `mine` to `partner_index` and receives
  /// the partner's buffer of equal size (the FFT's butterfly exchange).
  template <typename T>
  void exchange(int partner_index, int tag, std::span<const T> mine,
                std::span<T> theirs) {
    exchange_bytes(partner_index, tag, std::as_bytes(mine),
                   std::as_writable_bytes(theirs));
  }

  /// The exchange without the delivery copy: sends `mine` and hands back
  /// the partner's payload, which must be `bytes` long, to be read where it
  /// lies.  The lower index sends first, so message interleavings stay
  /// reproducible (mailboxes are unbounded, so either order would work).
  vp::Payload exchange_payload(int partner_index, int tag,
                               std::span<const std::byte> mine,
                               std::size_t bytes);

  /// Count of point-to-point messages this copy has sent (diagnostics).
  std::uint64_t sent_count() const { return sent_count_; }

  // Reserved tags for collectives; user tags must be non-negative.  Shared
  // with spmd/coll.cpp — the two files together own the reserved-tag
  // discipline that keeps collective traffic disjoint from user traffic
  // within one communicator.
  static constexpr int kBcastTag = -1;
  static constexpr int kReduceTag = -2;
  static constexpr int kGatherTag = -3;
  static constexpr int kBarrierUpTag = -4;
  static constexpr int kBarrierDownTag = -5;
  static constexpr int kScanTag = -6;
  static constexpr int kAllToAllTag = -7;
  static constexpr int kBarrierDissemTag = -8;
  static constexpr int kAllreduceTag = -9;
  static constexpr int kAllreduceFoldTag = -10;
  static constexpr int kAllgatherTag = -11;

 private:
  /// recv_payload that insists on a `bytes`-long payload, throwing the
  /// recv_bytes_into size-mismatch error otherwise.
  vp::Payload recv_payload_sized(int src_index, int tag, std::size_t bytes);

  /// exchange<T> on raw bytes; `theirs` sets the size the partner must send.
  void exchange_bytes(int partner_index, int tag,
                      std::span<const std::byte> mine,
                      std::span<std::byte> theirs);

  /// Wraps a typed binary operator as the byte-level combine the coll layer
  /// uses.  The operator reference must outlive the collective call (it
  /// does: the combine is only invoked inside it).
  template <typename T>
  static coll::ByteCombine byte_combine(
      const std::function<T(const T&, const T&)>& op) {
    return [&op](std::span<const std::byte> incoming, std::span<std::byte> acc,
                 bool incoming_first) {
      const T* in = reinterpret_cast<const T*>(incoming.data());
      T* a = reinterpret_cast<T*>(acc.data());
      const std::size_t n = acc.size() / sizeof(T);
      if (incoming_first) {
        for (std::size_t k = 0; k < n; ++k) a[k] = op(in[k], a[k]);
      } else {
        for (std::size_t k = 0; k < n; ++k) a[k] = op(a[k], in[k]);
      }
    };
  }

  vp::Machine& machine_;
  std::uint64_t comm_;
  std::vector<int> processors_;
  int index_;
  std::uint64_t sent_count_ = 0;
};

}  // namespace tdp::spmd
