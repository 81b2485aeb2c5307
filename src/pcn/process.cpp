#include "pcn/process.hpp"

#include <algorithm>

namespace tdp::pcn {

ProcessGroup::~ProcessGroup() { join_all(); }

void ProcessGroup::run_guarded(const Block& body) noexcept {
  try {
    body();
  } catch (const vp::MailboxClosed&) {
    // Machine teardown closed the mailbox this process was blocked on:
    // clean shutdown, not a failure (the §3.1.1.1 composition simply ends).
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_exception_) first_exception_ = std::current_exception();
  }
}

void ProcessGroup::run_here(const Block& body) { run_guarded(body); }

void ProcessGroup::spawn(Block body) {
  if (sched::sched_mode() == sched::SchedMode::Steal) {
    spawn_task(-1, std::move(body));
    return;
  }
  threads_.emplace_back(
      [this, body = std::move(body)] { run_guarded(body); });
}

void ProcessGroup::spawn_on(vp::Machine& machine, int proc, Block body) {
  if (!machine.valid_proc(proc)) {
    throw std::out_of_range("ProcessGroup::spawn_on: bad processor number");
  }
  if (sched::sched_mode() == sched::SchedMode::Steal) {
    // The @proc placement travels with the fiber: the scheduler restores
    // it into the current-vp thread-local wherever the task runs or
    // resumes, doing what vp::ProcScope does on the thread lane.
    spawn_task(proc, std::move(body));
    return;
  }
  threads_.emplace_back([this, proc, body = std::move(body)] {
    vp::ProcScope scope(proc);
    run_guarded(body);
  });
}

void ProcessGroup::spawn_task(int proc, Block body) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++tasks_spawned_;
    ++tasks_active_;
  }
  sched::spawn(
      proc, [this, body = std::move(body)] { run_guarded(body); },
      [this] { task_finished(); });
}

void ProcessGroup::task_finished() {
  // Runs on a worker's scheduler stack after the task's fiber has fully
  // switched out.  ready() is called under mutex_ — the mutex the joiners
  // parked with — per the sched::ready lifetime rule.
  std::lock_guard<std::mutex> lock(mutex_);
  if (--tasks_active_ == 0) {
    for (sched::TaskRef t : join_waiters_) sched::ready(t);
    join_waiters_.clear();
    done_cv_.notify_all();
  }
}

void ProcessGroup::join_all() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  while (tasks_active_ > 0) {
    if (sched::on_worker_fiber()) {
      // A fiber joining a group suspends instead of wedging its worker
      // (nested par compositions would otherwise exhaust the pool).
      const sched::TaskRef self = sched::current_task();
      if (std::find(join_waiters_.begin(), join_waiters_.end(), self) ==
          join_waiters_.end()) {
        join_waiters_.push_back(self);
      }
      sched::park(lock);
    } else {
      done_cv_.wait(lock);
    }
  }
}

void ProcessGroup::join() {
  join_all();
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    e = std::exchange(first_exception_, nullptr);
  }
  if (e) std::rethrow_exception(e);
}

std::exception_ptr ProcessGroup::first_exception() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return first_exception_;
}

std::size_t ProcessGroup::spawned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return threads_.size() + tasks_spawned_;
}

void par(std::vector<Block> blocks) {
  if (blocks.empty()) return;
  // The caller, which would otherwise only wait, runs the last block.
  ProcessGroup group;
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    group.spawn(std::move(blocks[i]));
  }
  group.run_here(blocks.back());
  group.join();
}

void seq(std::vector<Block> blocks) {
  for (auto& b : blocks) b();
}

bool choose(std::vector<Guarded> alternatives, Block otherwise) {
  for (auto& alt : alternatives) {
    if (alt.guard()) {
      alt.body();
      return true;
    }
  }
  if (otherwise) {
    otherwise();
    return true;
  }
  return false;
}

}  // namespace tdp::pcn
