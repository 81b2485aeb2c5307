// Unit tests for the virtual-processor substrate: typed mailboxes with
// selective receive (§3.4.1) and the machine / placement model.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "pcn/process.hpp"
#include "vp/machine.hpp"
#include "vp/mailbox.hpp"

namespace tdp::vp {
namespace {

Message make(MessageClass cls, std::uint64_t comm, int tag, int src,
             std::vector<std::byte> payload = {}) {
  Message m;
  m.cls = cls;
  m.comm = comm;
  m.tag = tag;
  m.src = src;
  m.payload = Payload::take(std::move(payload));
  return m;
}

TEST(Mailbox, DeliversInFifoOrderForMatchingMessages) {
  Mailbox mb;
  mb.post(make(MessageClass::DataParallel, 1, 7, 0, {std::byte{1}}));
  mb.post(make(MessageClass::DataParallel, 1, 7, 0, {std::byte{2}}));
  Message a = mb.receive(MessageClass::DataParallel, 1, 7, 0);
  Message b = mb.receive(MessageClass::DataParallel, 1, 7, 0);
  EXPECT_EQ(a.payload.bytes()[0], std::byte{1});
  EXPECT_EQ(b.payload.bytes()[0], std::byte{2});
}

TEST(Mailbox, SelectiveReceiveSkipsNonMatching) {
  Mailbox mb;
  mb.post(make(MessageClass::TaskParallel, 0, 1, 0));
  mb.post(make(MessageClass::DataParallel, 5, 2, 3));
  // A receive for the data-parallel message must not consume the
  // task-parallel one (disjoint type sets, §3.4.1).
  Message m = mb.receive(MessageClass::DataParallel, 5, 2, 3);
  EXPECT_EQ(m.tag, 2);
  EXPECT_EQ(mb.pending(), 1u);
  Message t = mb.receive(MessageClass::TaskParallel, 0, 1, -1);
  EXPECT_EQ(t.tag, 1);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, CommScopingSeparatesConcurrentCalls) {
  Mailbox mb;
  mb.post(make(MessageClass::DataParallel, 10, 0, 0, {std::byte{10}}));
  mb.post(make(MessageClass::DataParallel, 11, 0, 0, {std::byte{11}}));
  // Receiving on comm 11 first must not steal comm 10's message.
  Message m11 = mb.receive(MessageClass::DataParallel, 11, 0, 0);
  EXPECT_EQ(m11.payload.bytes()[0], std::byte{11});
  Message m10 = mb.receive(MessageClass::DataParallel, 10, 0, 0);
  EXPECT_EQ(m10.payload.bytes()[0], std::byte{10});
}

TEST(Mailbox, DescribePendingReportsPayloadSizeAndFlow) {
  Mailbox mb;
  Message m = make(MessageClass::DataParallel, 3, 8, 2,
                   std::vector<std::byte>(5, std::byte{1}));
  m.flow = 77;
  mb.post(std::move(m));
  const std::string desc = mb.describe_pending();
  EXPECT_NE(desc.find("1 pending"), std::string::npos) << desc;
  EXPECT_NE(desc.find("cls=data"), std::string::npos) << desc;
  EXPECT_NE(desc.find("comm=3"), std::string::npos) << desc;
  EXPECT_NE(desc.find("tag=8"), std::string::npos) << desc;
  EXPECT_NE(desc.find("src=2"), std::string::npos) << desc;
  EXPECT_NE(desc.find("flow=77"), std::string::npos) << desc;
  EXPECT_NE(desc.find("5B"), std::string::npos) << desc;
}

TEST(Mailbox, WildcardSourceMatchesAnySender) {
  Mailbox mb;
  mb.post(make(MessageClass::DataParallel, 1, 0, 4));
  Message m = mb.receive(MessageClass::DataParallel, 1, 0, -1);
  EXPECT_EQ(m.src, 4);
}

TEST(Mailbox, ReceiveBlocksUntilPost) {
  Mailbox mb;
  std::atomic<bool> got{false};
  std::thread receiver([&] {
    Message m = mb.receive(MessageClass::DataParallel, 1, 0, 0);
    EXPECT_EQ(m.tag, 0);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  mb.post(make(MessageClass::DataParallel, 1, 0, 0));
  receiver.join();
  EXPECT_TRUE(got.load());
}

TEST(Mailbox, CloseWakesBlockedReceivers) {
  Mailbox mb;
  std::thread receiver([&] {
    EXPECT_THROW(mb.receive(MessageClass::DataParallel, 1, 0, 0),
                 MailboxClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mb.close();
  receiver.join();
}

TEST(Machine, HasOneMailboxPerProcessor) {
  Machine m(4);
  EXPECT_EQ(m.nprocs(), 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(m.valid_proc(p));
    EXPECT_EQ(m.mailbox(p).pending(), 0u);
  }
  EXPECT_FALSE(m.valid_proc(-1));
  EXPECT_FALSE(m.valid_proc(4));
}

TEST(Machine, SendRoutesToDestinationMailbox) {
  Machine m(3);
  m.send(2, make(MessageClass::TaskParallel, 0, 9, 0));
  EXPECT_EQ(m.mailbox(0).pending(), 0u);
  EXPECT_EQ(m.mailbox(1).pending(), 0u);
  EXPECT_EQ(m.mailbox(2).pending(), 1u);
  EXPECT_EQ(m.messages_sent(), 1u);
}

// The delivery counters witness delivery: a message is counted before it
// is posted, so a receiver that has taken its k-th message reads at least
// k deliveries to its processor.  The receiver is a process, so it runs as
// a task on the steal lane and as a thread on the thread lane.
TEST(Machine, DeliveryCountersWitnessEveryTakenMessage) {
  Machine m(2);
  constexpr int kMessages = 20000;
  int behind = 0;
  pcn::ProcessGroup group;
  group.spawn_on(m, 1, [&] {
    for (int k = 1; k <= kMessages; ++k) {
      m.mailbox(1).receive(MessageClass::TaskParallel, 0, 3, 0);
      if (m.messages_by_vp()[1] < static_cast<std::uint64_t>(k)) ++behind;
    }
  });
  std::thread sender([&] {
    for (int k = 0; k < kMessages; ++k) {
      m.send(1, make(MessageClass::TaskParallel, 0, 3, 0));
    }
  });
  sender.join();
  group.join();
  EXPECT_EQ(behind, 0);
  EXPECT_EQ(m.messages_by_vp()[1], static_cast<std::uint64_t>(kMessages));
}

TEST(Machine, SendToBadProcessorThrows) {
  Machine m(2);
  EXPECT_THROW(m.send(5, Message{}), std::out_of_range);
}

TEST(Machine, CommIdsAreUniqueAndNonZero) {
  Machine m(1);
  auto a = m.next_comm();
  auto b = m.next_comm();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(Machine, RejectsNonPositiveSize) {
  EXPECT_THROW(Machine m(0), std::invalid_argument);
  EXPECT_THROW(Machine m(-2), std::invalid_argument);
}

TEST(Placement, CurrentProcFollowsProcScope) {
  EXPECT_EQ(current_proc(), -1);
  {
    ProcScope outer(3);
    EXPECT_EQ(current_proc(), 3);
    {
      ProcScope inner(5);
      EXPECT_EQ(current_proc(), 5);
    }
    EXPECT_EQ(current_proc(), 3);
  }
  EXPECT_EQ(current_proc(), -1);
}

TEST(Placement, IsPerThread) {
  ProcScope scope(7);
  std::thread t([] { EXPECT_EQ(current_proc(), -1); });
  t.join();
  EXPECT_EQ(current_proc(), 7);
}

}  // namespace
}  // namespace tdp::vp
