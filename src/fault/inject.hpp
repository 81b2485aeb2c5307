// tdp::fault — the injector that executes a Plan at the substrate's send
// boundary.
//
// One Injector belongs to one vp::Machine.  Machine::send routes every
// message through on_send(), which may deliver it zero, one, or two times
// (drop / normal or delayed / duplicate) and may hold a message back to
// swap its order with the next one bound for the same destination.  It is
// the only fault point: array-manager requests and their replies are
// messages too (dist/array_server.hpp), so a "failed" virtual processor
// loses them like any other traffic.
//
// Determinism: every decision is a pure function of (plan.seed, destination,
// per-destination sequence number).  The sequence number counts messages
// accepted for a destination in arrival order at the injector, so a program
// whose per-destination traffic is deterministic (single-threaded sends, or
// any fixed communication pattern — collectives, rings, trees) sees the
// *identical* injected-fault sequence on every run with the same seed.
// Under racy multi-sender interleavings the mapping of decisions to
// individual messages can vary, but the multiset of decisions per
// destination cannot — so per-destination drop/dup/reorder counts are still
// reproducible.
//
// Every injected fault is visible: a fault.* obs counter is bumped and a
// fault.* instant event (carrying the message's causal flow id, when
// stamped) lands in the trace, so a dropped send shows up as a send with no
// matching receive PLUS an explicit fault.drop marker explaining why.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "fault/plan.hpp"
#include "vp/mailbox.hpp"

namespace tdp::fault {

/// Counts of injected faults so far (diagnostics and tests; the same values
/// feed the fault.* metrics registry).
struct InjectionCounts {
  std::uint64_t drops = 0;
  std::uint64_t delays = 0;
  std::uint64_t dups = 0;
  std::uint64_t reorders = 0;
};

class Injector {
 public:
  /// Delivery callback: posts one message to the destination mailbox.
  using Deliver = std::function<void(vp::Message&&)>;

  Injector(Plan plan, int nprocs);

  const Plan& plan() const { return plan_; }
  bool active() const { return plan_.active(); }

  /// Applies the plan to one message from `src_vp` (the sending thread's
  /// placement, -1 when unplaced) to `dst`.  Calls `deliver` zero times
  /// (dropped, or stashed for reorder), once (normal, possibly after a
  /// delay), or twice (duplicated).  A stashed message is delivered right
  /// after the next message bound for the same destination — or by the
  /// stash flusher once the hold deadline passes, if a flusher is running.
  void on_send(int src_vp, int dst, vp::Message&& m, const Deliver& deliver);

  /// Delivery callback for stash-deadline flushes (needs the destination:
  /// no originating on_send call is on the stack).
  using LateSink = std::function<void(int dst, vp::Message&&)>;

  /// Bounds how long a reorder stash can hold a message: a background
  /// thread delivers any stash older than ~25 ms through `sink`.  Without
  /// this, the LAST message a sender directs at some destination stays
  /// stashed until teardown — an unplanned drop.  In-process that is
  /// masked by other senders' traffic flushing the shared per-destination
  /// stash, but with one injector per process (multi-process transport)
  /// each injector sees only its own sends, so collectives would lose
  /// their final hop and deadlock.  No-op unless the plan reorders.
  void start_stash_flusher(LateSink sink);

  /// Stops the stash flusher thread (idempotent; called by drain and the
  /// destructor).  Any still-held stash stays for drain() to deliver.
  void stop_stash_flusher();

  ~Injector();

  /// Delivers any messages still stashed for reordering (machine teardown;
  /// an unflushed stash would otherwise act as an unplanned drop).
  void drain(const LateSink& deliver);

  /// True when `vp` is marked failed by the plan.
  bool vp_failed(int vp) const;

  InjectionCounts counts() const;

 private:
  struct alignas(64) DstState {
    std::atomic<std::uint64_t> msg_seq{0};
    std::mutex stash_mutex;
    std::optional<vp::Message> stash;
    std::chrono::steady_clock::time_point stash_since{};
  };

  void flusher_loop();
  /// Delivers through `sink` every stash held for at least `min_age`.
  void flush_stashes(std::chrono::steady_clock::duration min_age,
                     const LateSink& sink);

  DstState& dst_state(int dst) {
    return *dsts_[static_cast<std::size_t>(dst)];
  }

  const Plan plan_;
  std::vector<std::unique_ptr<DstState>> dsts_;
  std::vector<bool> failed_;  // indexed by vp

  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> dups_{0};
  std::atomic<std::uint64_t> reorders_{0};

  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  bool flusher_stop_ = false;
  LateSink late_sink_;
  std::thread flusher_;
};

}  // namespace tdp::fault
