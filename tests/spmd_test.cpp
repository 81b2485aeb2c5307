// Tests for the SPMD execution context: group-scoped point-to-point
// messaging and the collective operations (§3.1.4, §D).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

#include "pcn/process.hpp"
#include "spmd/context.hpp"
#include "util/node_array.hpp"
#include "vp/machine.hpp"

namespace tdp::spmd {
namespace {

/// Runs `body` as one SPMD program over the first `p` processors.
void run_group(vp::Machine& machine, int p,
               const std::function<void(SpmdContext&)>& body) {
  const std::uint64_t comm = machine.next_comm();
  const std::vector<int> procs = util::iota_nodes(p);
  pcn::ProcessGroup group;
  for (int i = 0; i < p; ++i) {
    group.spawn_on(machine, procs[static_cast<std::size_t>(i)], [&, i] {
      SpmdContext ctx(machine, comm, procs, i);
      body(ctx);
    });
  }
  group.join();
}

TEST(SpmdContext, IdentityAccessors) {
  vp::Machine machine(4);
  run_group(machine, 4, [](SpmdContext& ctx) {
    EXPECT_EQ(ctx.nprocs(), 4);
    EXPECT_GE(ctx.index(), 0);
    EXPECT_LT(ctx.index(), 4);
    EXPECT_EQ(ctx.proc(), ctx.processors()[static_cast<std::size_t>(ctx.index())]);
    EXPECT_EQ(vp::current_proc(), ctx.proc());
  });
}

TEST(SpmdContext, PointToPointRing) {
  vp::Machine machine(4);
  run_group(machine, 4, [](SpmdContext& ctx) {
    const int next = (ctx.index() + 1) % ctx.nprocs();
    const int prev = (ctx.index() + ctx.nprocs() - 1) % ctx.nprocs();
    ctx.send_value<int>(next, 1, ctx.index() * 10);
    const int got = ctx.recv_value<int>(prev, 1);
    EXPECT_EQ(got, prev * 10);
  });
}

TEST(SpmdContext, MessagesFromSameSenderArriveInOrder) {
  vp::Machine machine(2);
  run_group(machine, 2, [](SpmdContext& ctx) {
    if (ctx.index() == 0) {
      for (int k = 0; k < 10; ++k) ctx.send_value<int>(1, 3, k);
    } else {
      for (int k = 0; k < 10; ++k) {
        EXPECT_EQ(ctx.recv_value<int>(0, 3), k);
      }
    }
  });
}

TEST(SpmdContext, Barrier) {
  vp::Machine machine(6);
  std::atomic<int> arrived{0};
  std::atomic<bool> violated{false};
  run_group(machine, 6, [&](SpmdContext& ctx) {
    ++arrived;
    ctx.barrier();
    if (arrived.load() != 6) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(SpmdContext, Broadcast) {
  vp::Machine machine(5);
  run_group(machine, 5, [](SpmdContext& ctx) {
    std::vector<double> data(3, 0.0);
    if (ctx.index() == 2) data = {1.0, 2.0, 3.0};
    ctx.broadcast(std::span<double>(data), 2);
    EXPECT_EQ(data, (std::vector<double>{1.0, 2.0, 3.0}));
  });
}

TEST(SpmdContext, ReduceToRoot) {
  vp::Machine machine(4);
  run_group(machine, 4, [](SpmdContext& ctx) {
    std::vector<int> data{ctx.index() + 1, 10 * (ctx.index() + 1)};
    ctx.reduce<int>(std::span<int>(data), 0,
                    [](const int& a, const int& b) { return a + b; });
    if (ctx.index() == 0) {
      EXPECT_EQ(data[0], 1 + 2 + 3 + 4);
      EXPECT_EQ(data[1], 10 + 20 + 30 + 40);
    }
  });
}

TEST(SpmdContext, AllreduceSumAndMax) {
  vp::Machine machine(8);
  run_group(machine, 8, [](SpmdContext& ctx) {
    const double sum = ctx.allreduce_sum(static_cast<double>(ctx.index()));
    EXPECT_DOUBLE_EQ(sum, 28.0);
    const double mx = ctx.allreduce_max(static_cast<double>(ctx.index()));
    EXPECT_DOUBLE_EQ(mx, 7.0);
    EXPECT_EQ(ctx.allreduce_max_int(-ctx.index()), 0);
  });
}

TEST(SpmdContext, GatherConcatenatesInIndexOrder) {
  vp::Machine machine(4);
  run_group(machine, 4, [](SpmdContext& ctx) {
    std::vector<int> mine{ctx.index() * 2, ctx.index() * 2 + 1};
    std::vector<int> all = ctx.gather<int>(mine, 1);
    if (ctx.index() == 1) {
      std::vector<int> expect(8);
      std::iota(expect.begin(), expect.end(), 0);
      EXPECT_EQ(all, expect);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(SpmdContext, AllgatherGivesEveryoneEverything) {
  vp::Machine machine(3);
  run_group(machine, 3, [](SpmdContext& ctx) {
    std::vector<double> mine{static_cast<double>(ctx.index())};
    std::vector<double> all = ctx.allgather<double>(mine);
    EXPECT_EQ(all, (std::vector<double>{0.0, 1.0, 2.0}));
  });
}

TEST(SpmdContext, ScanComputesInclusivePrefix) {
  vp::Machine machine(5);
  run_group(machine, 5, [](SpmdContext& ctx) {
    std::vector<int> data{ctx.index() + 1};
    ctx.scan<int>(std::span<int>(data),
                  [](const int& a, const int& b) { return a + b; });
    int expect = 0;
    for (int i = 0; i <= ctx.index(); ++i) expect += i + 1;
    EXPECT_EQ(data[0], expect);
  });
}

TEST(SpmdContext, ScanWorksOnSingleton) {
  vp::Machine machine(1);
  run_group(machine, 1, [](SpmdContext& ctx) {
    std::vector<double> data{3.5};
    ctx.scan<double>(std::span<double>(data),
                     [](const double& a, const double& b) { return a + b; });
    EXPECT_DOUBLE_EQ(data[0], 3.5);
  });
}

TEST(SpmdContext, AllToAllTransposesBlocks) {
  vp::Machine machine(4);
  run_group(machine, 4, [](SpmdContext& ctx) {
    // Block j of copy i carries value 10*i + j.
    std::vector<int> mine(4);
    for (int j = 0; j < 4; ++j) mine[static_cast<std::size_t>(j)] = 10 * ctx.index() + j;
    std::vector<int> got = ctx.alltoall<int>(mine, 1);
    // Block j of the result came from copy j and carries 10*j + my index.
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(got[static_cast<std::size_t>(j)], 10 * j + ctx.index());
    }
  });
}

TEST(SpmdContext, AllToAllWithWiderBlocks) {
  vp::Machine machine(3);
  run_group(machine, 3, [](SpmdContext& ctx) {
    std::vector<double> mine(6);
    for (int j = 0; j < 3; ++j) {
      mine[static_cast<std::size_t>(2 * j)] = ctx.index();
      mine[static_cast<std::size_t>(2 * j) + 1] = j;
    }
    std::vector<double> got = ctx.alltoall<double>(mine, 2);
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(2 * j)], j);
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(2 * j) + 1], ctx.index());
    }
  });
}

TEST(SpmdContext, ExchangeSwapsBuffers) {
  vp::Machine machine(4);
  run_group(machine, 4, [](SpmdContext& ctx) {
    const int partner = ctx.index() ^ 1;
    std::vector<double> mine{static_cast<double>(ctx.index()), 7.0};
    std::vector<double> theirs(2);
    ctx.exchange<double>(partner, 5, mine, theirs);
    EXPECT_DOUBLE_EQ(theirs[0], partner);
    EXPECT_DOUBLE_EQ(theirs[1], 7.0);
  });
}

TEST(SpmdContext, ExchangePayloadHandsBackThePartnersBuffer) {
  vp::Machine machine(4);
  run_group(machine, 4, [](SpmdContext& ctx) {
    const int partner = ctx.index() ^ 1;
    const std::vector<double> mine{static_cast<double>(ctx.index()), 7.0};
    const auto bytes = std::as_bytes(std::span<const double>(mine));
    const vp::Payload got =
        ctx.exchange_payload(partner, 5, bytes, bytes.size());
    ASSERT_EQ(got.size(), bytes.size());
    double v[2];
    std::memcpy(v, got.data(), sizeof v);
    EXPECT_DOUBLE_EQ(v[0], partner);
    EXPECT_DOUBLE_EQ(v[1], 7.0);
  });
}

TEST(SpmdContext, ExchangePayloadRejectsAPartnerBufferOfAnotherSize) {
  // Copy 0 sends first, then receives 8 bytes where it expects 16.  Copy 1
  // plays its side by hand, so nobody is left waiting after the throw.
  vp::Machine machine(2);
  run_group(machine, 2, [](SpmdContext& ctx) {
    const std::vector<double> mine(2, 1.0);
    const auto bytes = std::as_bytes(std::span<const double>(mine));
    if (ctx.index() == 0) {
      try {
        (void)ctx.exchange_payload(1, 5, bytes, bytes.size());
        ADD_FAILURE() << "an 8-byte block where 16 are expected must throw";
      } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("size mismatch on tag 5"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("8 bytes into a 16-byte"), std::string::npos)
            << msg;
      }
    } else {
      ctx.send_bytes(0, 5, bytes.first(8));
      EXPECT_EQ(ctx.recv_payload(0, 5).size(), bytes.size());
    }
  });
}

TEST(SpmdContext, ConcurrentGroupsDoNotInterfere) {
  // Figure 3.4: two data-parallel programs on disjoint processor groups
  // communicate internally but never with each other.  Both groups run the
  // same tag pattern concurrently; comm scoping keeps them apart.
  vp::Machine machine(8);
  auto run_subgroup = [&](std::vector<int> procs, int salt,
                          std::atomic<bool>& ok_flag) {
    const std::uint64_t comm = machine.next_comm();
    pcn::ProcessGroup group;
    const int p = static_cast<int>(procs.size());
    for (int i = 0; i < p; ++i) {
      group.spawn_on(machine, procs[static_cast<std::size_t>(i)], [&, i] {
        SpmdContext ctx(machine, comm, procs, i);
        for (int round = 0; round < 50; ++round) {
          const int next = (ctx.index() + 1) % ctx.nprocs();
          const int prev = (ctx.index() + ctx.nprocs() - 1) % ctx.nprocs();
          ctx.send_value<int>(next, 0, salt + round);
          if (ctx.recv_value<int>(prev, 0) != salt + round) ok_flag = false;
        }
      });
    }
    group.join();
  };
  std::atomic<bool> a_ok{true};
  std::atomic<bool> b_ok{true};
  pcn::par([&] { run_subgroup(util::node_array(0, 1, 4), 1000, a_ok); },
           [&] { run_subgroup(util::node_array(4, 1, 4), 2000, b_ok); });
  EXPECT_TRUE(a_ok.load());
  EXPECT_TRUE(b_ok.load());
}

TEST(SpmdContext, OverlappingGroupsWithDistinctCommsDoNotInterfere) {
  // Even two calls over the *same* processors are isolated by comm ids.
  vp::Machine machine(4);
  std::atomic<bool> ok_flag{true};
  auto ring = [&](int salt) {
    const std::uint64_t comm = machine.next_comm();
    const std::vector<int> procs = util::iota_nodes(4);
    pcn::ProcessGroup group;
    for (int i = 0; i < 4; ++i) {
      group.spawn_on(machine, i, [&, i, comm] {
        SpmdContext ctx(machine, comm, procs, i);
        const int next = (ctx.index() + 1) % 4;
        const int prev = (ctx.index() + 3) % 4;
        for (int round = 0; round < 30; ++round) {
          ctx.send_value<int>(next, 0, salt);
          if (ctx.recv_value<int>(prev, 0) != salt) ok_flag = false;
        }
      });
    }
    group.join();
  };
  pcn::par([&] { ring(111); }, [&] { ring(222); });
  EXPECT_TRUE(ok_flag.load());
}

TEST(SpmdContext, RejectsBadConstruction) {
  vp::Machine machine(2);
  EXPECT_THROW(SpmdContext(machine, 1, {}, 0), std::invalid_argument);
  EXPECT_THROW(SpmdContext(machine, 1, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(SpmdContext(machine, 1, {0, 1}, -1), std::invalid_argument);
}

TEST(SpmdContext, SendRecvIndexBoundsChecked) {
  vp::Machine machine(2);
  const std::vector<int> procs{0, 1};
  SpmdContext ctx(machine, machine.next_comm(), procs, 0);
  EXPECT_THROW(ctx.send_value<int>(5, 0, 1), std::out_of_range);
  EXPECT_THROW(ctx.recv_value<int>(-1, 0), std::out_of_range);
}

}  // namespace
}  // namespace tdp::spmd
