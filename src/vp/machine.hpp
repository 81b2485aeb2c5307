// The simulated multicomputer: a fixed set of virtual processors.
//
// The thesis maps processes and data to *virtual processors* — persistent
// entities with distinct address spaces, identified by a processor number
// (Preface, "Processes, processors, and virtual processors").  Machine
// models that substrate on one host:
//
//  * `nprocs()` virtual processors, numbered 0..nprocs()-1;
//  * each with its own Mailbox (distinct address spaces communicate only by
//    typed messages);
//  * a per-process "current processor" annotation (the `@p` placement of
//    PCN), maintained as a thread-local so library code can tell on which
//    virtual processor the calling process runs;
//  * a monotonically-increasing communicator-id source used to give every
//    distributed call a disjoint message-type set (§3.4.1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/inject.hpp"
#include "obs/metrics.hpp"
#include "vp/mailbox.hpp"
#include "vp/transport.hpp"

namespace tdp::vp {

class Machine {
 public:
  /// Creates a machine with `nprocs` virtual processors.  When
  /// observability is enabled, every mailbox is registered with the
  /// telemetry sampler, whose thread starts if TDP_OBS_SAMPLE_MS,
  /// TDP_OBS_WATCHDOG_MS or TDP_OBS_SOCKET is set (see obs/telemetry.hpp).
  explicit Machine(int nprocs);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int nprocs() const { return static_cast<int>(mailboxes_.size()); }

  /// True when p is a valid processor number of this machine.
  bool valid_proc(int p) const { return p >= 0 && p < nprocs(); }

  /// The incoming mailbox of processor `dst`.
  Mailbox& mailbox(int dst);

  /// Sends `m` to processor `dst`; `m.src` must already identify the sender.
  /// When observability is enabled, stamps the causal trace context
  /// (obs::next_flow_id) into the envelope so the exported trace links this
  /// send to its eventual receive.  When a fault plan is active the message
  /// passes through the injector, which may drop, delay, duplicate, or
  /// reorder it (every injected fault is traced as a fault.* event).
  void send(int dst, Message m);

  /// The delivery backend under send(): the in-process direct post by
  /// default, or the multi-process socket transport when TDP_TRANSPORT=uds
  /// (see vp/transport.hpp).
  Transport& transport() { return *transport_; }

  /// True when some processors of this machine live in other OS processes
  /// (i.e. the transport is remote).
  bool transport_remote() const { return transport_->remote(); }

  /// The transport's peer-health note, empty when healthy.  Receive
  /// timeouts append it so a deadline caused by a dead peer process names
  /// the dead rank.
  std::string transport_diagnostic() const { return transport_->diagnose(); }

  /// The active fault injector, or nullptr when no plan is in effect.
  /// send() is its only fault point; tests read its counts through this.
  fault::Injector* faults() { return injector_.get(); }

  /// Installs (or, with an inactive plan, removes) a programmatic fault
  /// plan, replacing whatever TDP_FAULT established at construction.  Not
  /// thread-safe versus concurrent send() — call before spawning processes.
  void set_fault_plan(const fault::Plan& plan);

  /// A fresh communicator id (never 0); each distributed call draws one so
  /// its data-parallel messages form a disjoint type set.  The source is
  /// process-global so communicator ids stay unique across Machine
  /// instances — trace records from different runtimes never alias.
  static std::uint64_t next_comm() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1) + 1;
  }

  /// Number of messages delivered through this machine (diagnostics).  The
  /// canonical message counter is the obs metrics primitive: per-VP sharded
  /// by destination, merged here with relaxed loads.
  std::uint64_t messages_sent() const { return messages_sent_.value(); }

  /// Messages delivered per destination virtual processor; entries sum to
  /// messages_sent().  (Exact per-VP attribution for machines of up to
  /// obs::kMetricShards processors; larger machines fold modulo the shard
  /// count, which preserves the sum.)
  std::vector<std::uint64_t> messages_by_vp() const {
    return messages_sent_.per_shard(
        std::min<std::size_t>(static_cast<std::size_t>(nprocs()),
                              obs::kMetricShards));
  }

 private:
  void count_delivery(int dst);

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  obs::ShardedCounter messages_sent_;
  std::vector<int> telemetry_tokens_;
  std::unique_ptr<fault::Injector> injector_;  // nullptr = no active plan
  // Declared last: the transport's reader threads post into mailboxes_
  // through the LocalDeliver closure, so it must be torn down first.  The
  // destructor also shuts it down explicitly before closing mailboxes.
  std::unique_ptr<Transport> transport_;
};

/// The virtual processor the calling process is placed on, or -1 when the
/// calling thread has no placement (e.g. the program main thread).
int current_proc();

/// RAII placement annotation: while alive, current_proc() on this thread
/// returns `proc` (the `@p` annotation of the task-parallel notation).
class ProcScope {
 public:
  explicit ProcScope(int proc);
  ~ProcScope();
  ProcScope(const ProcScope&) = delete;
  ProcScope& operator=(const ProcScope&) = delete;

 private:
  int saved_;
};

}  // namespace tdp::vp
