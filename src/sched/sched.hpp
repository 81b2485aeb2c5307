// tdp::sched — a work-stealing M:N scheduler for pcn processes.
//
// The paper's PCN layer assumes processes are cheap and abundant; the
// thread-per-VP lane caps realistic runs at a few thousand processes
// because every Def<T> wait and selective receive parks a whole OS thread.
// This scheduler multiplexes logical processes — stackful fibers, see
// sched/fiber.hpp — onto a fixed pool of workers:
//
//  * each worker owns a Chase-Lev deque (owner pushes/pops the bottom,
//    thieves CAS the top), with a mutex-protected inject queue for spawns
//    and wakeups arriving from non-worker threads;
//  * a blocked process costs a suspended-task record, not a thread: the
//    blocking layers (mailbox, Def, ProcessGroup::join) call park() with
//    their own lock held, and the matching event (post, define, last task
//    done) calls ready() to requeue the task;
//  * a dedicated timer thread services deadline waits (receive_for,
//    Def::read_for) for suspended tasks.
//
// Mode selection: TDP_SCHED=steal|thread, snapshotted per spawn, with
// force/unforce overrides for tests and benches.  The default is the legacy
// thread lane — steal is opted into per run (CI exercises the full suite
// under both).
//
// Park/unpark protocol (the core of the rewire): each task carries an
// atomic state {Running, Parking, Parked, Notified}.  park() flags
// Parking, unlocks the caller's mutex on the fiber, and switches out; the
// scheduler then commits Parking→Parked.  ready() either requeues a
// Parked task or leaves a sticky Notified permit — consumed by a park()
// still on the fiber, or by the commit, which requeues instead of
// parking — so a wakeup racing the suspension is never lost.  Wakers must
// hold the mutex the task parked with (that keeps the task handle they
// read from the waiter record alive: the task must re-acquire that mutex
// to deregister).  park() may return spuriously; callers re-check their
// predicate in a loop, exactly as they would around a condition variable.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace tdp::sched {

/// Execution lane for pcn process bodies.
enum class SchedMode : int {
  Thread = 0,  ///< legacy: one OS thread per spawned process
  Steal = 1,   ///< M:N: fibers multiplexed onto a fixed worker pool
};

/// The lane new spawns take: a force_sched_mode() override if one is in
/// effect, else TDP_SCHED from the environment ("steal"/"thread", cached on
/// first read; unknown values warn and fall back to thread).
SchedMode sched_mode();

/// Programmatic override of TDP_SCHED (benches, tests).  Affects only
/// spawns issued afterwards — a live process never switches lane.
void force_sched_mode(SchedMode m);

/// Removes the override; sched_mode() reads the environment again.
void unforce_sched_mode();

/// Worker pool size for steal mode: TDP_SCHED_WORKERS when set, else
/// max(2, hardware_concurrency).  The floor of 2 matters on small hosts:
/// a fiber that thread-blocks a worker (opaque receive racing teardown,
/// a mixed-lane join) must never wedge the whole pool.
std::size_t worker_count();

/// Opaque handle to a scheduler task; valid while the task is alive.  A
/// blocking layer stores the current task's handle in its waiter record
/// while suspended, and its waker passes the handle back to ready().
using TaskRef = void*;

/// True when the calling code is running on a scheduler fiber — i.e. when
/// park() is the correct way to wait.  False on the legacy thread lane,
/// on non-worker threads, and inside scheduler callbacks.
bool on_worker_fiber();

/// The running task's handle (nullptr when !on_worker_fiber()).
TaskRef current_task();

/// Submits a new task.  `proc` is the virtual-processor placement seen via
/// vp::current_proc() (-1 for none); it travels with the fiber across
/// workers.  `on_complete` runs on a worker's scheduler stack after the
/// task's body returns and its fiber has fully switched out — the hook
/// ProcessGroup uses to resolve join().  A body that throws terminates the
/// process, exactly like an exception escaping a std::thread; wrap bodies
/// that may throw (ProcessGroup::run_guarded does).
void spawn(int proc, std::function<void()> fn,
           std::function<void()> on_complete);

/// Makes a parked task runnable, or leaves a sticky wake permit if the
/// task is currently running or mid-park.  Delivery is exactly-once per
/// park.  Lifetime rule: the caller must hold the mutex the task parked
/// with (post/define/task-done all naturally do), or otherwise guarantee
/// the task cannot finish its wait and terminate before ready() returns.
void ready(TaskRef task);

/// Suspends the current fiber.  `lock` must own a std::mutex; it is
/// released before the fiber switches out and re-acquired before park
/// returns.  Spurious returns are possible — re-check the predicate in a
/// loop.
void park(std::unique_lock<std::mutex>& lock);

/// park() with a deadline serviced by the timer thread.  Returns (with the
/// lock re-acquired) on wakeup, deadline expiry, or spuriously; the caller
/// distinguishes timeout by re-checking the clock, mirroring the
/// cv_status::timeout re-scan idiom in the mailbox.
void park_until(std::unique_lock<std::mutex>& lock,
                std::chrono::steady_clock::time_point deadline);

/// Holds the caller for `d`: a task on a steal worker parks until the
/// deadline, so the other tasks on its worker keep running; any other
/// caller sleeps its thread.
void sleep_for(std::chrono::steady_clock::duration d);

/// Scheduler-state snapshot for diagnostics (the telemetry probe, whose
/// counts also render as a stall report's "sched:" line, so "suspended
/// task" never reads as "deadlocked thread"; tests).  All zeros until the
/// first steal-lane spawn starts the pool.
struct Stats {
  std::size_t workers = 0;
  std::uint64_t runnable = 0;   ///< tasks queued, not yet running
  std::uint64_t suspended = 0;  ///< tasks parked in a blocking layer
  std::uint64_t spawned = 0;
  std::uint64_t completed = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;  ///< worker idle-sleeps
  std::vector<std::uint64_t> worker_busy_ns;  ///< cumulative, per worker
};
Stats stats();

}  // namespace tdp::sched
