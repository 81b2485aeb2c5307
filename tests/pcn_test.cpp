// Unit tests for the task-parallel (PCN-like) layer: definitional
// variables (§3.1.1.2), streams (§A.3) and composition (§A.1).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "pcn/def.hpp"
#include "pcn/process.hpp"
#include "pcn/pseudo_def.hpp"
#include "pcn/stream.hpp"
#include "sched/sched.hpp"
#include "vp/machine.hpp"
#include "vp/mailbox.hpp"

namespace tdp::pcn {
namespace {

TEST(Def, StartsUndefined) {
  Def<int> d;
  EXPECT_FALSE(d.is_defined());
}

TEST(Def, DefineThenRead) {
  Def<int> d;
  d.define(42);
  EXPECT_TRUE(d.is_defined());
  EXPECT_EQ(d.read(), 42);
  EXPECT_EQ(d.read(), 42);  // reads are repeatable
}

TEST(Def, SecondDefineThrows) {
  Def<int> d;
  d.define(1);
  EXPECT_THROW(d.define(2), DoubleDefinition);
  EXPECT_EQ(d.read(), 1);
}

TEST(Def, TryDefineReportsLoser) {
  Def<int> d;
  EXPECT_TRUE(d.try_define(1));
  EXPECT_FALSE(d.try_define(2));
  EXPECT_EQ(d.read(), 1);
}

TEST(Def, ReaderSuspendsUntilDefined) {
  Def<int> d;
  std::atomic<int> seen{-1};
  std::thread reader([&] { seen = d.read(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(seen.load(), -1);
  d.define(7);
  reader.join();
  EXPECT_EQ(seen.load(), 7);
}

TEST(Def, AllReadersObserveSameValue) {
  // §3.1.1.4: all programs that read the variable's value obtain the same
  // value — the foundation of conflict-free shared variables.
  Def<int> d;
  std::vector<std::thread> readers;
  std::vector<int> results(8, -1);
  for (int i = 0; i < 8; ++i) {
    readers.emplace_back([&, i] { results[static_cast<std::size_t>(i)] = d.read(); });
  }
  d.define(99);
  for (auto& t : readers) t.join();
  for (int v : results) EXPECT_EQ(v, 99);
}

TEST(Def, HandlesAreSharedState) {
  Def<int> a;
  Def<int> b = a;  // same variable
  EXPECT_TRUE(a.same_variable(b));
  b.define(5);
  EXPECT_EQ(a.read(), 5);
  Def<int> c;
  EXPECT_FALSE(a.same_variable(c));
}

TEST(Def, ReadForTimesOutWhenUndefined) {
  Def<int> d;
  EXPECT_EQ(d.read_for(std::chrono::milliseconds(10)), nullptr);
  d.define(3);
  const int* v = d.read_for(std::chrono::milliseconds(10));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 3);
}

TEST(Stream, ProduceConsume) {
  Stream<int> s;
  Stream<int> tail = s.put(1).put(2).put(3);
  tail.close();
  EXPECT_EQ(s.collect(), (std::vector<int>{1, 2, 3}));
}

TEST(Stream, NextAdvances) {
  Stream<int> s;
  s.put(10).put(20).close();
  Stream<int> cursor = s;
  EXPECT_EQ(cursor.next(), std::optional<int>(10));
  EXPECT_EQ(cursor.next(), std::optional<int>(20));
  EXPECT_EQ(cursor.next(), std::nullopt);
  EXPECT_EQ(cursor.next(), std::nullopt);  // stays closed
}

TEST(Stream, HeadPeeksWithoutAdvancing) {
  Stream<int> s;
  s.put(5).close();
  EXPECT_EQ(s.head(), std::optional<int>(5));
  EXPECT_EQ(s.head(), std::optional<int>(5));
}

TEST(Stream, DoubleProduceThrows) {
  Stream<int> s;
  s.put(1);
  EXPECT_THROW(s.put(2), DoubleDefinition);
  EXPECT_THROW(s.close(), DoubleDefinition);
}

TEST(Stream, ConsumerSuspendsOnUndefinedTail) {
  Stream<int> s;
  std::vector<int> got;
  // The consumer advances its own cursor copy; stream *handles* are plain
  // values and, like any C++ object, must not be mutated from two threads.
  std::thread consumer([cursor = s, &got]() mutable {
    got = cursor.collect();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Stream<int> t = s.put(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  t.put(2).close();
  consumer.join();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Stream, PutAll) {
  Stream<double> s;
  s.put_all({1.5, 2.5}).close();
  EXPECT_EQ(s.collect(), (std::vector<double>{1.5, 2.5}));
}

TEST(Stream, MultipleConsumersSeeSameElements) {
  // A stream is a definitional list: any number of readers may traverse it.
  Stream<int> s;
  s.put(1).put(2).close();
  Stream<int> c1 = s;
  Stream<int> c2 = s;
  EXPECT_EQ(c1.collect(), (std::vector<int>{1, 2}));
  EXPECT_EQ(c2.collect(), (std::vector<int>{1, 2}));
}

TEST(Compose, ParRunsAllBlocksAndJoins) {
  std::atomic<int> count{0};
  par([&] { ++count; }, [&] { ++count; }, [&] { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(Compose, ParBlocksAreConcurrent) {
  // Two blocks that each need the other's value can only finish if they
  // genuinely run concurrently.
  Def<int> a;
  Def<int> b;
  par([&] { a.define(1); EXPECT_EQ(b.read(), 2); },
      [&] { b.define(2); EXPECT_EQ(a.read(), 1); });
}

// par() spawns all blocks but the last, which runs in the caller under the
// group's own policy: the caller's placement, the same exception and
// MailboxClosed handling as a spawned block, and nothing surfaces before
// every block has ended.

/// Runs `body` as a process (a thread, or a task on the steal lane) and
/// waits for it.
void in_a_process(const Block& body) {
  ProcessGroup group;
  group.spawn(body);
  group.join();
}

/// Who is running: the thread and, on the steal lane, the task (tasks
/// share worker threads).
std::pair<std::thread::id, sched::TaskRef> runner() {
  return {std::this_thread::get_id(), sched::current_task()};
}

TEST(ParInline, LastBlockRunsInTheCallerWithItsPlacement) {
  vp::Machine machine(4);
  std::pair<std::thread::id, sched::TaskRef> caller;
  std::pair<std::thread::id, sched::TaskRef> spawned;
  std::pair<std::thread::id, sched::TaskRef> inlined;
  int spawned_proc = -2;
  int inline_proc = -2;
  ProcessGroup group;
  group.spawn_on(machine, 2, [&] {
    caller = runner();
    par(
        [&] {
          spawned = runner();
          spawned_proc = vp::current_proc();
        },
        [&] {
          inlined = runner();
          inline_proc = vp::current_proc();
        });
  });
  group.join();
  EXPECT_EQ(inlined, caller);
  EXPECT_EQ(inline_proc, 2);  // the caller's placement
  EXPECT_NE(spawned, caller);
  EXPECT_EQ(spawned_proc, -1);  // unplaced, as ProcessGroup::spawn
}

TEST(ParInline, InlineExceptionSurfacesOnlyAfterEveryBlockEnds) {
  in_a_process([] {
    Def<int> started;
    std::atomic<bool> spawned_done{false};
    EXPECT_THROW(par(
                     [&] {
                       started.read();
                       sched::sleep_for(std::chrono::milliseconds(20));
                       spawned_done = true;
                     },
                     [&] {
                       started.define(1);
                       throw std::runtime_error("inline");
                     }),
                 std::runtime_error);
    EXPECT_TRUE(spawned_done.load());
  });
}

TEST(ParInline, InlineMailboxClosedIsACleanEnd) {
  in_a_process([] {
    std::atomic<bool> spawned_ran{false};
    EXPECT_NO_THROW(par([&] { spawned_ran = true; },
                        [] { throw vp::MailboxClosed(); }));
    EXPECT_TRUE(spawned_ran.load());
  });
}

TEST(ParInline, FirstExceptionWinsAcrossSpawnedAndInlineBlocks) {
  ProcessGroup group;
  group.spawn([] { throw std::logic_error("spawned first"); });
  while (group.first_exception() == nullptr) std::this_thread::yield();
  group.run_here([] { throw std::runtime_error("inline second"); });
  EXPECT_THROW(group.join(), std::logic_error);
  EXPECT_EQ(group.spawned(), 1u);  // the inline block is not a process
}

TEST(ParInline, StealLaneSpawnsAllButTheLastBlock) {
  sched::force_sched_mode(sched::SchedMode::Steal);
  std::atomic<int> ran{0};
  const auto three = [&] {
    par([&] { ++ran; }, [&] { ++ran; }, [&] { ++ran; });
  };
  std::uint64_t from_task = 0;
  in_a_process([&] {
    const std::uint64_t before = sched::stats().spawned;
    three();
    from_task = sched::stats().spawned - before;
  });
  EXPECT_EQ(from_task, 2u);
  // A plain thread composes the same way as a task.
  const std::uint64_t before = sched::stats().spawned;
  three();
  EXPECT_EQ(sched::stats().spawned - before, 2u);
  sched::unforce_sched_mode();
  EXPECT_EQ(ran.load(), 6);
}

TEST(Compose, SeqRunsInOrder) {
  std::vector<int> order;
  seq([&] { order.push_back(1); }, [&] { order.push_back(2); },
      [&] { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Compose, ChoiceRunsFirstTrueGuard) {
  int ran = 0;
  bool any = choose({{[] { return false; }, [&] { ran = 1; }},
                     {[] { return true; }, [&] { ran = 2; }},
                     {[] { return true; }, [&] { ran = 3; }}});
  EXPECT_TRUE(any);
  EXPECT_EQ(ran, 2);
}

TEST(Compose, ChoiceDefaultBranch) {
  int ran = 0;
  bool any = choose({{[] { return false; }, [&] { ran = 1; }}},
                    [&] { ran = 99; });
  EXPECT_TRUE(any);
  EXPECT_EQ(ran, 99);
  ran = 0;
  any = choose({{[] { return false; }, [&] { ran = 1; }}});
  EXPECT_FALSE(any);
  EXPECT_EQ(ran, 0);
}

TEST(ProcessGroup, SpawnOnSetsPlacement) {
  vp::Machine machine(4);
  std::vector<int> seen(4, -2);
  ProcessGroup group;
  for (int p = 0; p < 4; ++p) {
    group.spawn_on(machine, p,
                   [&seen, p] { seen[static_cast<std::size_t>(p)] = vp::current_proc(); });
  }
  group.join();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ProcessGroup, SpawnOnRejectsBadProcessor) {
  vp::Machine machine(2);
  ProcessGroup group;
  EXPECT_THROW(group.spawn_on(machine, 9, [] {}), std::out_of_range);
}

TEST(PseudoDef, BindingIsSingleAssignmentStorageIsMutable) {
  // §5.1.5: "definitional" binding (created without declaration, bound at
  // most once) but multiple-assignment contents.
  pcn::PseudoDefArray a;
  EXPECT_FALSE(a.guard());
  a.build(4);
  EXPECT_TRUE(a.guard());
  EXPECT_THROW(a.build(4), DoubleDefinition);
  a.data()[0] = 1.0;
  a.data()[0] = 2.0;  // mutable contents
  EXPECT_DOUBLE_EQ(a.data()[0], 2.0);
  EXPECT_EQ(a.size(), 4u);
}

TEST(PseudoDef, DataGuardSuspendsUntilBuilt) {
  // §5.1.5: concurrently-executing processes may share a pseudo-definitional
  // array only if at most one writes; the write below is ordered before the
  // read by a definitional handshake, as a correct PCN program would do.
  pcn::PseudoDefArray a;
  Def<int> written;
  std::atomic<double> seen{-1.0};
  std::thread reader([&] {
    written.read();       // happens-after the writer's definition
    seen = a.data()[1];   // data guard: also waits for build()
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(seen.load(), -1.0);
  a.build(2);
  a.data()[1] = 9.0;
  written.define(1);
  reader.join();
  EXPECT_DOUBLE_EQ(seen.load(), 9.0);
}

TEST(PseudoDef, SharedHandlesAliasStorage) {
  // Like local sections in the array manager's record tuples: many handles,
  // one storage.
  pcn::PseudoDefArray a;
  pcn::PseudoDefArray b = a;
  EXPECT_TRUE(a.same_variable(b));
  b.build(3);
  a.data()[2] = 7.0;
  EXPECT_DOUBLE_EQ(b.data()[2], 7.0);
}

TEST(PseudoDef, ExplicitFreeSemantics) {
  pcn::PseudoDefArray a;
  a.build(8);
  EXPECT_TRUE(a.wait_guard());
  a.free();
  EXPECT_FALSE(a.wait_guard());
  EXPECT_THROW(a.data(), std::logic_error);   // use after free
  EXPECT_THROW(a.free(), std::logic_error);   // double free
}

TEST(ProcessGroup, DestructorJoins) {
  std::atomic<bool> done{false};
  {
    ProcessGroup group;
    group.spawn([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      done = true;
    });
  }
  EXPECT_TRUE(done.load());
}

}  // namespace
}  // namespace tdp::pcn
