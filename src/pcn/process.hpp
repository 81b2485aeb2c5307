// Process creation and program composition (thesis §3.1.1.1, §A.1).
//
// PCN programs are compositions of statements executed in sequence (`;`),
// in parallel (`||`), or by guarded choice (`?`).  Execution of a parallel
// composition is equivalent to creating one concurrently-executing process
// per statement and waiting for all of them to terminate.  Processes may be
// placed on a particular virtual processor with the `@p` annotation.
//
// We reproduce those constructs as library combinators:
//
//   par(f, g, h);                  // parallel composition, fork/join;
//                                  // h runs in the caller (see par)
//   seq(f, g, h);                  // sequential composition
//   choose({{guard, body}, ...});  // choice composition (first true guard)
//   ProcessGroup pg;
//   pg.spawn(f);                   // dynamic process creation
//   pg.spawn_on(machine, 3, f);    // ... with @3 placement
//   pg.join();
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sched/sched.hpp"
#include "vp/machine.hpp"

namespace tdp::pcn {

using Block = std::function<void()>;

/// A set of dynamically-created processes with a fork/join lifetime.  The
/// destructor joins any processes still running (a parallel composition
/// terminates only when all its statements have, §3.1.1.1).
///
/// Execution lane: under TDP_SCHED=steal (sched::sched_mode, snapshotted
/// per spawn) each process is a scheduler task — a fiber multiplexed onto
/// the work-stealing pool — instead of a dedicated std::thread, so a group
/// can hold tens of thousands of concurrently-blocked processes.  join()
/// then waits on a completion count: a fiber joiner suspends as a task
/// record, a thread joiner blocks on a condvar.  Both lanes preserve the
/// exception policy below, and a group may mix lanes (spawns before and
/// after a mode switch).
///
/// Exception policy: a body that throws no longer takes the whole OS
/// process down with std::terminate.  The group records the first
/// exception and join() rethrows it on the joining thread — the same
/// propagation a sequential composition would give.  Two exceptions are
/// special-cased: vp::MailboxClosed means the machine is being torn down
/// while this process was blocked in a receive, which is a *clean*
/// shutdown, not an error; further exceptions after the first are dropped
/// (first-wins, like nested exceptions in a sequential program).
class ProcessGroup {
 public:
  ProcessGroup() = default;
  ~ProcessGroup();
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  /// Creates a process executing `body` with no particular placement.
  void spawn(Block body);

  /// Creates a process executing `body` placed on virtual processor `proc`
  /// of `machine` (the `@proc` annotation); library code run by the process
  /// sees vp::current_proc() == proc.
  void spawn_on(vp::Machine& machine, int proc, Block body);

  /// Runs `body` on the calling thread (or fiber) under the same policy as
  /// a spawned body: vp::MailboxClosed ends it cleanly, and any other
  /// exception is recorded first-wins and rethrown by join().  It is not a
  /// process of the group and does not count in spawned().  A composition
  /// that is about to wait for the group runs its last statement here
  /// instead of creating a process for it.
  void run_here(const Block& body);

  /// Waits for every spawned process to terminate, then rethrows the first
  /// exception any of them threw (if any).  The destructor joins WITHOUT
  /// rethrowing; call join() explicitly to observe failures.
  void join();

  /// The first exception thrown by a body, or nullptr; meaningful once all
  /// processes have terminated.  join() consumes it.
  std::exception_ptr first_exception() const;

  /// Number of processes ever spawned in this group (both lanes).
  std::size_t spawned() const;

 private:
  void run_guarded(const Block& body) noexcept;
  void spawn_task(int proc, Block body);
  void task_finished();
  void join_all();

  std::vector<std::thread> threads_;
  mutable std::mutex mutex_;
  std::exception_ptr first_exception_;
  /// Steal-lane bookkeeping, all under mutex_: spawned/active task counts
  /// and the joiners suspended until the active count drains to zero.
  std::size_t tasks_spawned_ = 0;
  std::size_t tasks_active_ = 0;
  std::vector<sched::TaskRef> join_waiters_;
  std::condition_variable done_cv_;
};

/// Parallel composition: runs every block concurrently and waits for all to
/// terminate before returning.  Blocks 0..n-2 are spawned; the last block
/// runs in the caller, which would otherwise only wait.  The inline block
/// keeps the caller's placement (vp::current_proc()), PCN's rule for an
/// unannotated process, while spawned blocks start unplaced, as
/// ProcessGroup::spawn does.  An exception from any block, an inline one
/// included, surfaces only after every block has ended.
void par(std::vector<Block> blocks);

template <typename... Fs>
void par(Fs&&... blocks) {
  par(std::vector<Block>{Block(std::forward<Fs>(blocks))...});
}

/// Sequential composition; trivial, provided for symmetry with the notation.
void seq(std::vector<Block> blocks);

template <typename... Fs>
void seq(Fs&&... blocks) {
  seq(std::vector<Block>{Block(std::forward<Fs>(blocks))...});
}

/// One guarded alternative of a choice composition.
struct Guarded {
  std::function<bool()> guard;
  Block body;
};

/// Choice composition (§A.1): executes the body of the first alternative
/// whose guard holds; executes `otherwise` (the `default ->` branch) when no
/// guard holds and `otherwise` is non-null.  Returns whether any body ran.
bool choose(std::vector<Guarded> alternatives, Block otherwise = nullptr);

}  // namespace tdp::pcn
