// Scheduler/runtime interaction tests for the TDP_SCHED=steal lane: the
// park/ready protocol as seen through the blocking layers (mailbox waiter
// wakeups, Def dependency edges, ProcessGroup join), exception propagation
// from fiber bodies, and teardown while fibers are suspended in receives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "pcn/def.hpp"
#include "pcn/process.hpp"
#include "sched/sched.hpp"
#include "vp/machine.hpp"
#include "vp/mailbox.hpp"

namespace tdp {
namespace {

// Restores the TDP_SCHED selection even when an assertion fails mid-test.
struct SchedGuard {
  explicit SchedGuard(sched::SchedMode m) { sched::force_sched_mode(m); }
  ~SchedGuard() { sched::unforce_sched_mode(); }
};

std::uint64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

vp::Message make(vp::MessageClass cls, std::uint64_t comm, int tag, int src) {
  vp::Message m;
  m.cls = cls;
  m.comm = comm;
  m.tag = tag;
  m.src = src;
  return m;
}

// Polls until `pred` holds, so tests can wait for fibers to actually
// suspend without sleeping blind.
template <typename Pred>
bool wait_until(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(SchedMode, DefaultIsThreadAndForceOverrides) {
  // No TDP_SCHED in the test environment unless CI sets it; the force API
  // must win either way, and unforce must restore the environment's choice.
  const sched::SchedMode env_mode = sched::sched_mode();
  sched::force_sched_mode(sched::SchedMode::Steal);
  EXPECT_EQ(sched::sched_mode(), sched::SchedMode::Steal);
  sched::force_sched_mode(sched::SchedMode::Thread);
  EXPECT_EQ(sched::sched_mode(), sched::SchedMode::Thread);
  sched::unforce_sched_mode();
  EXPECT_EQ(sched::sched_mode(), env_mode);
}

TEST(SchedSteal, JoinRethrowsWorkerException) {
  SchedGuard guard(sched::SchedMode::Steal);
  pcn::ProcessGroup group;
  group.spawn([] { throw std::runtime_error("task body failed"); });
  EXPECT_THROW(group.join(), std::runtime_error);
  // join() consumed the exception; a second join is clean.
  group.join();
}

TEST(SchedSteal, SpawnedCountsTasks) {
  SchedGuard guard(sched::SchedMode::Steal);
  pcn::ProcessGroup group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    group.spawn([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(group.spawned(), 8u);
  group.join();
  EXPECT_EQ(ran.load(), 8);
}

TEST(SchedSteal, PostReschedulesExactlyOneSuspendedReceiver) {
  SchedGuard sched_guard(sched::SchedMode::Steal);
  vp::Mailbox mb;
  std::atomic<bool> got_tag1{false};
  std::atomic<bool> got_tag2{false};
  pcn::ProcessGroup a;
  pcn::ProcessGroup b;
  a.spawn([&] {
    (void)mb.receive(vp::MessageClass::DataParallel, 1, 1, -1);
    got_tag1.store(true);
  });
  b.spawn([&] {
    (void)mb.receive(vp::MessageClass::DataParallel, 1, 2, -1);
    got_tag2.store(true);
  });
  // Both receivers must be *suspended tasks*, not blocked threads: the
  // watchdog-visible suspended count is the proof.
  ASSERT_TRUE(wait_until([&] {
    return mb.wait_state().suspended_waiters.load(std::memory_order_relaxed) ==
           2;
  }));
  ASSERT_NE(mb.describe_wait().find("2 waiting"), std::string::npos);

  const std::uint64_t wakes_before = counter_value("mailbox.wakeups");
  const std::uint64_t readies_before = counter_value("sched.wakeups");
  mb.post(make(vp::MessageClass::DataParallel, 1, 2, 0));
  b.join();
  EXPECT_TRUE(got_tag2.load());
  // The tag-1 fiber must not have been disturbed: no delivery, no
  // reschedule.  One post, one mailbox wakeup, one task readied.
  EXPECT_FALSE(got_tag1.load());
  EXPECT_EQ(counter_value("mailbox.wakeups"), wakes_before + 1);
  EXPECT_EQ(counter_value("sched.wakeups"), readies_before + 1);
  EXPECT_EQ(mb.wait_state().suspended_waiters.load(std::memory_order_relaxed),
            1);

  mb.post(make(vp::MessageClass::DataParallel, 1, 1, 0));
  a.join();
  EXPECT_TRUE(got_tag1.load());
}

TEST(SchedSteal, ReceiveTimeoutFiresForSuspendedTask) {
  SchedGuard guard(sched::SchedMode::Steal);
  vp::Mailbox mb;
  pcn::ProcessGroup group;
  group.spawn([&mb] {
    (void)mb.receive_for(vp::MessageClass::TaskParallel, 0, 9, -1, 50);
  });
  // The fiber suspends (a task record, serviced by the timer thread) and
  // must still observe its deadline — the group join rethrows the
  // ReceiveTimeout its body threw.
  ASSERT_TRUE(wait_until([&] {
    return mb.wait_state().suspended_waiters.load(std::memory_order_relaxed) ==
           1;
  }));
  EXPECT_THROW(group.join(), vp::ReceiveTimeout);
  EXPECT_EQ(mb.wait_state().suspended_waiters.load(std::memory_order_relaxed),
            0);
}

TEST(SchedSteal, DefDefineRequeuesSuspendedReaders) {
  SchedGuard guard(sched::SchedMode::Steal);
  // A chain of dependency edges: fiber i suspends reading link[i] and
  // defines link[i+1]; defining link[0] must ripple the whole chain.
  constexpr int kChain = 64;
  std::vector<pcn::Def<int>> links(kChain + 1);
  pcn::ProcessGroup group;
  for (int i = 0; i < kChain; ++i) {
    group.spawn([&links, i] { links[i + 1].define(links[i].read() + 1); });
  }
  links[0].define(0);
  group.join();
  EXPECT_EQ(links[kChain].read(), kChain);
}

TEST(SchedSteal, DefReadForTimesOutOnFiber) {
  SchedGuard guard(sched::SchedMode::Steal);
  pcn::Def<int> never;
  std::atomic<bool> timed_out{false};
  pcn::ProcessGroup group;
  group.spawn([&] {
    timed_out.store(never.read_for(std::chrono::milliseconds(50)) == nullptr);
  });
  group.join();
  EXPECT_TRUE(timed_out.load());
  // And a defined value is still delivered to a later fiber read.
  never.define(7);
  group.spawn([&] { EXPECT_EQ(never.read(), 7); });
  group.join();
}

TEST(SchedSteal, NestedParDoesNotWedgeThePool) {
  SchedGuard guard(sched::SchedMode::Steal);
  // Joining fibers suspend instead of blocking their worker, so nesting
  // deeper than the worker count must still complete.
  std::atomic<int> leaves{0};
  pcn::par(
      [&] {
        pcn::par([&] { pcn::par([&] { leaves.fetch_add(1); },
                                [&] { leaves.fetch_add(1); }); },
                 [&] { leaves.fetch_add(1); });
      },
      [&] { pcn::par([&] { leaves.fetch_add(1); },
                     [&] { leaves.fetch_add(1); }); });
  EXPECT_EQ(leaves.load(), 5);
}

TEST(SchedSteal, TeardownWithSuspendedReceiversIsClean) {
  SchedGuard guard(sched::SchedMode::Steal);
  pcn::ProcessGroup group;
  {
    vp::Machine machine(4);
    for (int p = 0; p < machine.nprocs(); ++p) {
      group.spawn_on(machine, p, [&machine, p] {
        // Blocks forever: only machine teardown ends this process, and
        // that must read as a clean shutdown (MailboxClosed is swallowed
        // by the group), not an error.
        (void)machine.mailbox(p).receive(vp::MessageClass::TaskParallel, 0,
                                         99, -1);
      });
    }
    ASSERT_TRUE(wait_until([&] {
      const sched::Stats s = sched::stats();
      return s.suspended >= 4;
    }));
  }  // ~Machine closes every mailbox and drains the waiters
  group.join();
  EXPECT_EQ(group.first_exception(), nullptr);
}

TEST(SchedSteal, ThousandsOfTasksMultiplexOnFixedPool) {
  SchedGuard guard(sched::SchedMode::Steal);
  // Far more concurrently-suspended processes than any thread-per-VP pool
  // could carry comfortably: each waits on its own Def, then the chain is
  // released.  Verifies spawn/park/ready at depth, not just throughput.
  constexpr int kTasks = 2048;
  std::vector<pcn::Def<int>> gates(kTasks);
  std::atomic<int> done{0};
  pcn::ProcessGroup group;
  for (int i = 0; i < kTasks; ++i) {
    group.spawn([&gates, &done, i] {
      (void)gates[i].read();
      done.fetch_add(1);
      if (i + 1 < kTasks) gates[i + 1].define(1);
    });
  }
  const sched::Stats mid = sched::stats();
  EXPECT_GE(mid.workers, 2u);
  gates[0].define(1);
  group.join();
  EXPECT_EQ(done.load(), kTasks);
  const sched::Stats after = sched::stats();
  EXPECT_GE(after.completed, static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(after.spawned, static_cast<std::uint64_t>(kTasks));
}

TEST(SchedThread, ThreadLaneIsUnchanged) {
  SchedGuard guard(sched::SchedMode::Thread);
  pcn::ProcessGroup group;
  std::atomic<bool> on_fiber{true};
  group.spawn([&] { on_fiber.store(sched::on_worker_fiber()); });
  group.join();
  // Legacy lane: the body ran on a dedicated thread, not a worker fiber.
  EXPECT_FALSE(on_fiber.load());
  EXPECT_EQ(group.spawned(), 1u);
}

}  // namespace
}  // namespace tdp
