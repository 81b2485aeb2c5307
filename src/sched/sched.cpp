#include "sched/sched.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sched/fiber.hpp"
#include "util/env.hpp"

// Sanitizer fiber annotations: without them TSan sees one thread's history
// teleport onto another when a fiber migrates between workers, and ASan's
// fake-stack bookkeeping corrupts across swapcontext.  Both interfaces ship
// with GCC's libsanitizer; detect via the GCC macros and, for clang,
// __has_feature.
#if defined(__SANITIZE_THREAD__)
#define TDP_SCHED_TSAN 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define TDP_SCHED_ASAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(TDP_SCHED_TSAN)
#define TDP_SCHED_TSAN 1
#endif
#if __has_feature(address_sanitizer) && !defined(TDP_SCHED_ASAN)
#define TDP_SCHED_ASAN 1
#endif
#endif

#ifdef TDP_SCHED_TSAN
#include <sanitizer/tsan_interface.h>
#endif
#ifdef TDP_SCHED_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace tdp::sched {

namespace {

// -1 = no force() override; else the SchedMode value.
std::atomic<int> g_forced_mode{-1};

SchedMode env_sched_mode() {
  static const SchedMode parsed = [] {
    const char* env = std::getenv("TDP_SCHED");
    if (env == nullptr || env[0] == '\0') return SchedMode::Thread;
    if (std::strcmp(env, "thread") == 0) return SchedMode::Thread;
    if (std::strcmp(env, "steal") == 0) return SchedMode::Steal;
    // Mirror the guarded env parsing in coll.cpp: a typo must be
    // reported, never silently remapped.
    std::fprintf(stderr,
                 "tdp::sched: ignoring unknown TDP_SCHED \"%s\"; valid "
                 "values are \"steal\" and \"thread\" (using thread)\n",
                 env);
    return SchedMode::Thread;
  }();
  return parsed;
}

obs::ShardedCounter& steals_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("sched.steals");
  return c;
}

obs::ShardedCounter& parks_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("sched.parks");
  return c;
}

obs::ShardedCounter& spawned_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("sched.spawned");
  return c;
}

obs::ShardedCounter& completed_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("sched.completed");
  return c;
}

obs::ShardedCounter& suspend_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("sched.suspends");
  return c;
}

obs::ShardedCounter& wakeup_counter() {
  static obs::ShardedCounter& c =
      obs::Registry::instance().counter("sched.wakeups");
  return c;
}

/// Task park protocol states; see the header comment.
enum : int { kRunning = 0, kParking = 1, kParked = 2, kNotified = 3 };

struct Worker;

struct Task {
  ucontext_t ctx{};
  FiberStack stack;
  std::function<void()> fn;
  std::function<void()> on_complete;
  std::atomic<int> state{kRunning};
  /// The obs::current_vp thread-local is part of the fiber's context: saved
  /// when the fiber switches out, restored wherever it resumes, so @proc
  /// placement survives migration between workers.
  int saved_vp = -1;
  bool done = false;
#ifdef TDP_SCHED_TSAN
  void* tsan_fiber = nullptr;
#endif
#ifdef TDP_SCHED_ASAN
  void* asan_fake_stack = nullptr;
#endif
};

/// Chase-Lev work-stealing deque (Lê et al., "Correct and efficient
/// work-stealing for weak memory models"): the owner pushes and pops the
/// bottom without synchronisation on the fast path; thieves race a CAS on
/// the top.  Fixed capacity — a full deque overflows to the inject queue,
/// which is correctness-neutral (just a slower enqueue).
class WsDeque {
 public:
  static constexpr std::size_t kCapacity = 8192;  // power of two
  WsDeque() : cells_(kCapacity) {}

  /// Owner only.  False when full (caller falls back to the inject queue).
  bool push(Task* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
    cells_[static_cast<std::size_t>(b) & kMask].store(
        task, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  /// Owner only.
  Task* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Task* task =
        cells_[static_cast<std::size_t>(b) & kMask].load(
            std::memory_order_relaxed);
    if (t == b) {
      // Last element: race the thieves for it.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        task = nullptr;  // a thief got there first
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return task;
  }

  /// Any thread.
  Task* steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    Task* task =
        cells_[static_cast<std::size_t>(t) & kMask].load(
            std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race; caller tries the next victim
    }
    return task;
  }

 private:
  static constexpr std::size_t kMask = kCapacity - 1;
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::vector<std::atomic<Task*>> cells_;
};

struct Worker {
  int id = 0;
  WsDeque deque;
  ucontext_t sched_ctx{};
  Task* current = nullptr;
  std::atomic<std::uint64_t> busy_ns{0};
  std::uint64_t rng = 0;
  std::thread thread;
#ifdef TDP_SCHED_TSAN
  void* tsan_fiber = nullptr;  ///< the worker thread's own TSan context
#endif
#ifdef TDP_SCHED_ASAN
  void* asan_fake_stack = nullptr;
  const void* asan_stack_bottom = nullptr;
  std::size_t asan_stack_size = 0;
#endif
};

thread_local Worker* t_worker = nullptr;

// --- sanitizer switch glue --------------------------------------------------
// ASan protocol: __sanitizer_start_switch_fiber BEFORE swapcontext (saving
// the departing context's fake stack, naming the arriving stack's bounds),
// __sanitizer_finish_switch_fiber as the FIRST thing after arrival.  A
// dying fiber passes nullptr as the save slot so its fake stack is freed.
// TSan protocol: __tsan_switch_to_fiber immediately before swapcontext.

void sanitizer_enter_task(Worker& w, Task& t) {
#ifdef TDP_SCHED_ASAN
  __sanitizer_start_switch_fiber(&w.asan_fake_stack, t.stack.limit(),
                                 t.stack.usable());
#endif
#ifdef TDP_SCHED_TSAN
  __tsan_switch_to_fiber(t.tsan_fiber, 0);
#endif
  (void)w;
  (void)t;
}

void sanitizer_back_on_worker(Worker& w) {
#ifdef TDP_SCHED_ASAN
  __sanitizer_finish_switch_fiber(w.asan_fake_stack, nullptr, nullptr);
#endif
  (void)w;
}

void sanitizer_leave_task(Task& t, Worker& w, bool dying) {
#ifdef TDP_SCHED_ASAN
  __sanitizer_start_switch_fiber(dying ? nullptr : &t.asan_fake_stack,
                                 w.asan_stack_bottom, w.asan_stack_size);
#endif
#ifdef TDP_SCHED_TSAN
  __tsan_switch_to_fiber(w.tsan_fiber, 0);
#endif
  (void)t;
  (void)w;
  (void)dying;
}

void sanitizer_arrive_on_task(Task& t) {
  // After a resume the fiber may be on a different worker than it left;
  // record the arrival thread's native stack bounds for the next leave.
  Worker& w = *t_worker;
#ifdef TDP_SCHED_ASAN
  __sanitizer_finish_switch_fiber(t.asan_fake_stack, &w.asan_stack_bottom,
                                  &w.asan_stack_size);
#endif
  (void)t;
  (void)w;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Scheduler {
 public:
  static Scheduler& instance();

  ~Scheduler() {
    if (started_.load(std::memory_order_acquire)) {
      // Detach the diagnostics probes first: both invoke stats() under
      // their own locks, and must never do so while workers are torn down.
      obs::Watchdog::instance().set_aux_report(nullptr);
      obs::Telemetry::instance().set_sched_probe(nullptr);
      stopping_.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(inject_mutex_);
      }
      inject_cv_.notify_all();
      {
        std::lock_guard<std::mutex> lock(timer_mutex_);
      }
      timer_cv_.notify_all();
      for (auto& w : workers_) w->thread.join();
      timer_thread_.join();
    }
    for (FiberStack& s : stack_pool_) fiber_stack_free(s);
  }

  void spawn(int proc, std::function<void()> fn,
             std::function<void()> on_complete) {
    start();
    Task* t = new Task;
    t->fn = std::move(fn);
    t->on_complete = std::move(on_complete);
    t->saved_vp = proc;
    t->stack = acquire_stack();
    getcontext(&t->ctx);
    t->ctx.uc_stack.ss_sp = t->stack.limit();
    t->ctx.uc_stack.ss_size = t->stack.usable();
    t->ctx.uc_link = nullptr;
    // makecontext only passes ints; split the Task* across two.
    const std::uintptr_t p = reinterpret_cast<std::uintptr_t>(t);
    makecontext(&t->ctx, reinterpret_cast<void (*)()>(&Scheduler::trampoline),
                2, static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
#ifdef TDP_SCHED_TSAN
    t->tsan_fiber = __tsan_create_fiber(0);
#endif
    spawned_.fetch_add(1, std::memory_order_relaxed);
    spawned_counter().add();
    enqueue(t);
  }

  void ready(Task* t) {
    for (;;) {
      int s = t->state.load(std::memory_order_acquire);
      if (s == kParked) {
        if (t->state.compare_exchange_weak(s, kRunning,
                                           std::memory_order_acq_rel)) {
          suspended_.fetch_sub(1, std::memory_order_relaxed);
          wakeup_counter().add();
          enqueue(t);
          return;
        }
      } else if (s == kNotified) {
        return;  // a permit is already pending
      } else {  // kRunning or kParking: leave a sticky permit
        if (t->state.compare_exchange_weak(s, kNotified,
                                           std::memory_order_acq_rel)) {
          return;
        }
      }
    }
  }

  void park(std::unique_lock<std::mutex>& lock) {
    Worker* w = t_worker;
    Task* t = w->current;
    const int prev = t->state.exchange(kParking, std::memory_order_acq_rel);
    if (prev == kNotified) {
      // A wakeup arrived while we were running: consume the permit and
      // return without switching (the caller's loop re-checks).
      t->state.store(kRunning, std::memory_order_release);
      return;
    }
    // Unlock on the fiber itself, before switching out, so the mutex is
    // locked and unlocked in the same (fiber) context — a waker that slips
    // in between this unlock and the scheduler's Parking→Parked commit
    // finds state kParking and leaves a sticky kNotified permit, which
    // makes commit_park requeue the task instead of parking it.  The
    // waker's task handle stays valid through the window: it read the
    // handle under the caller's mutex, and every wait site re-acquires
    // that mutex to deregister before its task can complete.
    lock.unlock();
    sanitizer_leave_task(*t, *w, /*dying=*/false);
    swapcontext(&t->ctx, &w->sched_ctx);
    // Resumed — possibly on a different worker; w is stale from here.
    sanitizer_arrive_on_task(*t);
    lock.lock();
  }

  void park_until(std::unique_lock<std::mutex>& lock,
                  std::chrono::steady_clock::time_point deadline) {
    Task* t = t_worker->current;
    const std::uint64_t id = arm_timer(deadline, t);
    park(lock);
    cancel_timer(deadline, id);
  }

  Stats snapshot() {
    Stats s;
    if (!started_.load(std::memory_order_acquire)) return s;
    s.workers = workers_.size();
    const std::int64_t runnable = runnable_.load(std::memory_order_relaxed);
    const std::int64_t suspended = suspended_.load(std::memory_order_relaxed);
    s.runnable = runnable > 0 ? static_cast<std::uint64_t>(runnable) : 0;
    s.suspended = suspended > 0 ? static_cast<std::uint64_t>(suspended) : 0;
    s.spawned = spawned_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    s.parks = parks_.load(std::memory_order_relaxed);
    s.worker_busy_ns.reserve(workers_.size());
    for (const auto& w : workers_) {
      s.worker_busy_ns.push_back(w->busy_ns.load(std::memory_order_relaxed));
    }
    return s;
  }

 private:
  Scheduler() = default;

  void start() {
    if (started_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(start_mutex_);
    if (started_.load(std::memory_order_relaxed)) return;
    const std::size_t n = worker_count();
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto w = std::make_unique<Worker>();
      w->id = static_cast<int>(i);
      w->rng = 0x9e3779b97f4a7c15ULL ^ (i + 1);
      workers_.push_back(std::move(w));
    }
    for (auto& w : workers_) {
      Worker* raw = w.get();
      raw->thread = std::thread([this, raw] { worker_main(*raw); });
    }
    timer_thread_ = std::thread([this] { timer_main(); });
    obs::Watchdog::instance().set_aux_report([] { return describe(); });
    obs::Telemetry::instance().set_sched_probe([this] {
      obs::Telemetry::SchedSample sample;
      const Stats s = snapshot();
      sample.runnable = s.runnable;
      sample.suspended = s.suspended;
      sample.worker_busy_ns = s.worker_busy_ns;
      return sample;
    });
    started_.store(true, std::memory_order_release);
  }

  // --- queues ---------------------------------------------------------------

  void enqueue(Task* t) {
    runnable_.fetch_add(1, std::memory_order_relaxed);
    if (Worker* w = t_worker; w != nullptr && w->deque.push(t)) {
      // Work landed in a deque only thieves can reach: kick a sleeper if
      // any.  The racing window (sleeper counted after our load) is closed
      // by the bounded idle wait in worker_main.
      if (sleepers_.load(std::memory_order_seq_cst) > 0) {
        inject_cv_.notify_one();
      }
      return;
    }
    {
      std::lock_guard<std::mutex> lock(inject_mutex_);
      inject_.push_back(t);
    }
    inject_cv_.notify_one();
  }

  Task* take_injected() {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    if (inject_.empty()) return nullptr;
    Task* t = inject_.front();
    inject_.pop_front();
    return t;
  }

  Task* try_steal(Worker& w) {
    const std::size_t n = workers_.size();
    if (n <= 1) return nullptr;
    // xorshift64 start offset: thieves fan out instead of convoying on
    // worker 0.
    w.rng ^= w.rng << 13;
    w.rng ^= w.rng >> 7;
    w.rng ^= w.rng << 17;
    const std::size_t start = static_cast<std::size_t>(w.rng) % n;
    for (std::size_t i = 0; i < n; ++i) {
      Worker& victim = *workers_[(start + i) % n];
      if (&victim == &w) continue;
      if (Task* t = victim.deque.steal()) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        steals_counter().add_at(w.id);
        return t;
      }
    }
    return nullptr;
  }

  Task* find_task(Worker& w) {
    if (Task* t = w.deque.pop()) return t;
    if (Task* t = take_injected()) return t;
    return try_steal(w);
  }

  // --- worker loop ----------------------------------------------------------

  void worker_main(Worker& w) {
    t_worker = &w;
#ifdef TDP_SCHED_TSAN
    w.tsan_fiber = __tsan_get_current_fiber();
#endif
    while (!stopping_.load(std::memory_order_acquire)) {
      if (Task* t = find_task(w)) {
        runnable_.fetch_sub(1, std::memory_order_relaxed);
        run_task(w, t);
        continue;
      }
      // Publish sleeper status, then look once more: an enqueue that
      // missed our increment is caught by this sweep, one that missed the
      // sweep sees the increment and notifies.  The bounded wait backstops
      // the residual weak-memory window (worst case: 10 ms extra latency,
      // never a lost task).
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      if (Task* t = find_task(w)) {
        sleepers_.fetch_sub(1, std::memory_order_seq_cst);
        runnable_.fetch_sub(1, std::memory_order_relaxed);
        run_task(w, t);
        continue;
      }
      {
        std::unique_lock<std::mutex> lock(inject_mutex_);
        if (inject_.empty() && !stopping_.load(std::memory_order_acquire)) {
          parks_.fetch_add(1, std::memory_order_relaxed);
          parks_counter().add_at(w.id);
          inject_cv_.wait_for(lock, std::chrono::milliseconds(10));
        }
      }
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    }
    t_worker = nullptr;
  }

  void run_task(Worker& w, Task* t) {
    const std::uint64_t t0 = steady_ns();
    w.current = t;
    const int worker_vp = obs::set_current_vp(t->saved_vp);
    sanitizer_enter_task(w, *t);
    swapcontext(&w.sched_ctx, &t->ctx);
    sanitizer_back_on_worker(w);
    // The fiber either finished or parked; either way the thread-local VP
    // it was running under belongs to the fiber, not this worker.
    t->saved_vp = obs::set_current_vp(worker_vp);
    w.current = nullptr;
    if (t->done) {
      finalize(w, t);
    } else {
      commit_park(w, t);
    }
    w.busy_ns.fetch_add(steady_ns() - t0, std::memory_order_relaxed);
  }

  void commit_park(Worker& w, Task* t) {
    int expected = kParking;
    if (t->state.compare_exchange_strong(expected, kParked,
                                         std::memory_order_acq_rel)) {
      suspended_.fetch_add(1, std::memory_order_relaxed);
      suspend_counter().add_at(w.id);
      return;
    }
    // A permit landed mid-switch (state is kNotified): the park is void.
    t->state.store(kRunning, std::memory_order_release);
    enqueue(t);
  }

  void finalize(Worker& w, Task* t) {
#ifdef TDP_SCHED_TSAN
    __tsan_destroy_fiber(t->tsan_fiber);
#endif
    // Count the completion before the hook: the hook may release a joiner
    // whose next act is to read stats(), and the joiner must see every
    // joined task as completed.
    completed_.fetch_add(1, std::memory_order_relaxed);
    completed_counter().add_at(w.id);
    // The completion hook runs on the scheduler stack, after the fiber has
    // fully switched out: it may ready() joiners that go on to destroy the
    // structures the hook's owner (e.g. a ProcessGroup) holds, but never
    // this Task, which the scheduler owns.
    if (t->on_complete) t->on_complete();
    release_stack(t->stack);
    delete t;
  }

  static void trampoline(unsigned hi, unsigned lo) {
    Task* t = reinterpret_cast<Task*>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo));
    sanitizer_arrive_on_task(*t);
    try {
      t->fn();
    } catch (...) {
      // Same contract as an exception escaping a std::thread.
      std::fprintf(stderr,
                   "tdp::sched: exception escaped a task body; terminating\n");
      std::terminate();
    }
    t->done = true;
    Worker* w = t_worker;
    sanitizer_leave_task(*t, *w, /*dying=*/true);
    swapcontext(&t->ctx, &w->sched_ctx);
    // Unreachable: the scheduler never resumes a done fiber.
  }

  // --- deadline timers ------------------------------------------------------

  std::uint64_t arm_timer(std::chrono::steady_clock::time_point deadline,
                          Task* t) {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    const std::uint64_t id = next_timer_id_++;
    const bool new_front =
        timers_.empty() || deadline < timers_.begin()->first;
    timers_.emplace(deadline, std::make_pair(id, t));
    if (new_front) timer_cv_.notify_one();
    return id;
  }

  void cancel_timer(std::chrono::steady_clock::time_point deadline,
                    std::uint64_t id) {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    auto [begin, end] = timers_.equal_range(deadline);
    for (auto it = begin; it != end; ++it) {
      if (it->second.first == id) {
        timers_.erase(it);
        return;
      }
    }
    // Not found: the timer thread already fired it (and its ready() has
    // completed — firing happens under timer_mutex_, which we now hold).
  }

  void timer_main() {
    std::unique_lock<std::mutex> lock(timer_mutex_);
    while (!stopping_.load(std::memory_order_acquire)) {
      if (timers_.empty()) {
        timer_cv_.wait(lock);
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      auto it = timers_.begin();
      if (it->first <= now) {
        Task* t = it->second.second;
        timers_.erase(it);
        // ready() under timer_mutex_: a task leaving its timed wait must
        // cancel_timer() before its waiter record dies, and that cancel
        // blocks on this mutex — so `t` cannot be freed mid-ready().
        ready(t);
        continue;
      }
      timer_cv_.wait_until(lock, it->first);
    }
  }

  // --- stack pool -----------------------------------------------------------

  FiberStack acquire_stack() {
    {
      std::lock_guard<std::mutex> lock(stack_mutex_);
      if (!stack_pool_.empty()) {
        FiberStack s = stack_pool_.back();
        stack_pool_.pop_back();
        return s;
      }
    }
    return fiber_stack_alloc(fiber_stack_bytes());
  }

  void release_stack(FiberStack s) {
#ifdef TDP_SCHED_ASAN
    // A recycled stack must not inherit the dead fiber's redzone poison.
    __asan_unpoison_memory_region(s.limit(), s.usable());
#endif
    constexpr std::size_t kPoolCap = 128;
    {
      std::lock_guard<std::mutex> lock(stack_mutex_);
      if (stack_pool_.size() < kPoolCap) {
        stack_pool_.push_back(s);
        return;
      }
    }
    fiber_stack_free(s);
  }

  std::mutex start_mutex_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex inject_mutex_;
  std::condition_variable inject_cv_;
  std::deque<Task*> inject_;
  std::atomic<int> sleepers_{0};

  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::multimap<std::chrono::steady_clock::time_point,
                std::pair<std::uint64_t, Task*>>
      timers_;
  std::uint64_t next_timer_id_ = 1;
  std::thread timer_thread_;

  std::mutex stack_mutex_;
  std::vector<FiberStack> stack_pool_;

  std::atomic<std::int64_t> runnable_{0};
  std::atomic<std::int64_t> suspended_{0};
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> parks_{0};
};

Scheduler& Scheduler::instance() {
  // Construction is ordered after the obs singletons: workers emit into
  // the registry and the probes hook the watchdog/telemetry, so all of
  // them must be destroyed after the scheduler joins its threads.
  obs::Registry::instance();
  obs::Tracer::instance();
  obs::Watchdog::instance();
  obs::Telemetry::instance();
  static Scheduler scheduler;
  return scheduler;
}

}  // namespace

SchedMode sched_mode() {
  const int forced = g_forced_mode.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SchedMode>(forced);
  return env_sched_mode();
}

void force_sched_mode(SchedMode m) {
  g_forced_mode.store(static_cast<int>(m), std::memory_order_relaxed);
}

void unforce_sched_mode() {
  g_forced_mode.store(-1, std::memory_order_relaxed);
}

std::size_t worker_count() {
  static const std::size_t count = [] {
    // Checked parse (util::env_int): garbage or non-positive values warn
    // loudly and fall back to the hardware default instead of reading as 0.
    const long long v = util::env_int("TDP_SCHED_WORKERS", 0, 1, 1 << 16);
    if (v > 0) return static_cast<std::size_t>(v);
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw > 2 ? hw : 2);
  }();
  return count;
}

bool on_worker_fiber() {
  const Worker* w = t_worker;
  return w != nullptr && w->current != nullptr;
}

TaskRef current_task() {
  const Worker* w = t_worker;
  return w != nullptr ? static_cast<TaskRef>(w->current) : nullptr;
}

void spawn(int proc, std::function<void()> fn,
           std::function<void()> on_complete) {
  Scheduler::instance().spawn(proc, std::move(fn), std::move(on_complete));
}

void ready(TaskRef task) {
  Scheduler::instance().ready(static_cast<Task*>(task));
}

void park(std::unique_lock<std::mutex>& lock) {
  Scheduler::instance().park(lock);
}

void park_until(std::unique_lock<std::mutex>& lock,
                std::chrono::steady_clock::time_point deadline) {
  Scheduler::instance().park_until(lock, deadline);
}

Stats stats() { return Scheduler::instance().snapshot(); }

std::string describe() {
  const Stats s = stats();
  std::ostringstream out;
  if (s.workers == 0) {
    out << "sched: steal pool not started (all processes on the thread lane)";
    return out.str();
  }
  out << "sched: " << s.workers << " workers, " << s.runnable
      << " runnable, " << s.suspended
      << " suspended (tasks, not thread-blocked), " << s.spawned
      << " spawned, " << s.completed << " completed, " << s.steals
      << " steals, " << s.parks << " worker parks";
  return out.str();
}

}  // namespace tdp::sched
