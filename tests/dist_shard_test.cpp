// Tests for the sharded owner-table layer of the array manager: the
// power-of-two shard map, uneven (ceil-div) blocks, shard migration with
// epoch bumps, stale-owner forwarding through the server, the load-driven
// repartitioner, the pin barrier, and the executable retry-backoff
// contract of dist::RetryPolicy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "dist/array_manager.hpp"
#include "dist/array_server.hpp"
#include "dist/layout.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "util/node_array.hpp"
#include "vp/machine.hpp"

namespace tdp {
namespace {

// ------------------------------------------------------- Retry backoff ----

TEST(RetryBackoff, ExponentialFromBaseMatchesDocContract) {
  dist::RetryPolicy policy;
  policy.backoff_ms = 10;
  policy.max_backoff_ms = 100000;
  policy.jitter_seed = 0;
  // Retry k (1-based) sleeps backoff_ms << (k - 1): 10, 20, 40, 80...
  EXPECT_EQ(dist::retry_backoff_ms(policy, 0, 1), 10u);
  EXPECT_EQ(dist::retry_backoff_ms(policy, 0, 2), 20u);
  EXPECT_EQ(dist::retry_backoff_ms(policy, 0, 3), 40u);
  EXPECT_EQ(dist::retry_backoff_ms(policy, 0, 4), 80u);
}

TEST(RetryBackoff, CapsAtMaxBackoff) {
  dist::RetryPolicy policy;
  policy.backoff_ms = 10;
  policy.max_backoff_ms = 25;
  EXPECT_EQ(dist::retry_backoff_ms(policy, 0, 1), 10u);
  EXPECT_EQ(dist::retry_backoff_ms(policy, 0, 2), 20u);
  EXPECT_EQ(dist::retry_backoff_ms(policy, 0, 3), 25u);   // 40 -> cap
  EXPECT_EQ(dist::retry_backoff_ms(policy, 0, 10), 25u);  // stays capped
}

TEST(RetryBackoff, DeepAttemptsCannotOverflowTheShift) {
  dist::RetryPolicy policy;
  policy.backoff_ms = 1000;
  policy.max_backoff_ms = 2000;
  // attempt numbers whose shift would overflow 64 bits must land on the
  // cap, never on a wrapped-around tiny (or huge) delay.
  for (int attempt : {60, 63, 64, 65, 100, 1000}) {
    EXPECT_EQ(dist::retry_backoff_ms(policy, 0, attempt), 2000u)
        << "attempt " << attempt;
  }
}

TEST(RetryBackoff, ShiftClampSaturatesWhenTheCapIsDisabled) {
  dist::RetryPolicy policy;
  policy.backoff_ms = 1000;
  policy.max_backoff_ms = 0;  // cap disabled
  // A clamped shift must saturate to a huge delay, not fall to 0: with the
  // cap disabled a zero delay would turn the deepest retries — the ones
  // backoff exists to pace — into a hot spin.
  for (int attempt : {63, 64, 100, 1000}) {
    const std::uint64_t d = dist::retry_backoff_ms(policy, 0, attempt);
    EXPECT_GT(d, dist::retry_backoff_ms(policy, 0, 10)) << "attempt "
                                                        << attempt;
  }
}

TEST(RetryBackoff, JitterStaysInUpperHalfAndIsDeterministic) {
  dist::RetryPolicy policy;
  policy.backoff_ms = 64;
  policy.max_backoff_ms = 100000;
  policy.jitter_seed = 7;
  bool saw_non_full = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    for (int proc = 0; proc < 8; ++proc) {
      const std::uint64_t full = std::uint64_t{64} << (attempt - 1);
      const std::uint64_t d = dist::retry_backoff_ms(policy, proc, attempt);
      EXPECT_GE(d, full / 2);
      EXPECT_LE(d, full);
      if (d != full) saw_non_full = true;
      // Deterministic: the same (seed, proc, attempt) gives the same delay
      // on every call — colliding requesters desynchronise identically on
      // every run.
      EXPECT_EQ(d, dist::retry_backoff_ms(policy, proc, attempt));
    }
  }
  EXPECT_TRUE(saw_non_full);  // jitter actually engaged somewhere
  // Different procs draw different delays somewhere in the sweep.
  bool differs = false;
  for (int attempt = 1; attempt <= 6 && !differs; ++attempt) {
    differs = dist::retry_backoff_ms(policy, 0, attempt) !=
              dist::retry_backoff_ms(policy, 1, attempt);
  }
  EXPECT_TRUE(differs);
}

TEST(RetryBackoff, ZeroSeedIsFullDeterministicDelay) {
  dist::RetryPolicy policy;
  policy.backoff_ms = 8;
  policy.jitter_seed = 0;
  EXPECT_EQ(dist::retry_backoff_ms(policy, 3, 4), 64u);
}

// ----------------------------------------------------------- Shard map ----

TEST(ShardMap, PrefixPlacementWhenCellsFitThePool) {
  const dist::ShardMap m = dist::ShardMap::initial(3, {4, 1, 7, 2});
  EXPECT_EQ(m.cells, 3);
  EXPECT_EQ(m.epoch, 0u);
  EXPECT_EQ(m.owners.size(), 4u);  // next power of two >= 3
  EXPECT_EQ(m.owner_of(0), 4);
  EXPECT_EQ(m.owner_of(1), 1);
  EXPECT_EQ(m.owner_of(2), 7);
}

TEST(ShardMap, RoundRobinWhenOversharded) {
  const dist::ShardMap m = dist::ShardMap::initial(6, {0, 1});
  EXPECT_EQ(m.owners.size(), 8u);  // next power of two >= 6
  for (long long s = 0; s < 6; ++s) {
    EXPECT_EQ(m.owner_of(s), static_cast<int>(s % 2)) << "shard " << s;
  }
}

// -------------------------------------------------------- Uneven blocks ----

// 10 elements over 3 processors: ceil(10/3) = 4 gives cells {4, 4, 2}.
// Every element must round-trip and match a dense reference.
TEST(UnevenBlocks, OneDimRoundTripMatchesDenseReference) {
  vp::Machine machine(3);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  ASSERT_EQ(am.create_array(0, dist::ElemType::Float64, {10},
                            util::iota_nodes(3), {dist::DimSpec::block()},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id),
            Status::Ok);

  std::vector<double> dense(10);
  for (int i = 0; i < 10; ++i) {
    dense[static_cast<std::size_t>(i)] = 3.0 * i - 7.5;
    ASSERT_EQ(am.write_element(i % 3, id, std::vector<int>{i},
                               dist::Scalar{3.0 * i - 7.5}),
              Status::Ok);
  }
  for (int i = 0; i < 10; ++i) {
    dist::Scalar v;
    ASSERT_EQ(am.read_element((i + 1) % 3, id, std::vector<int>{i}, v),
              Status::Ok);
    EXPECT_DOUBLE_EQ(std::get<double>(v), dense[static_cast<std::size_t>(i)]);
  }

  // Shard payload sizes equal each cell's actual interior: 4, 4, then the
  // clipped trailing cell of 2.
  const std::vector<int> grid{3};
  for (long long s = 0; s < 3; ++s) {
    const std::vector<int> pos = dist::delinearize(
        s, grid, dist::Indexing::RowMajor);
    const std::vector<int> cell =
        dist::cell_dims(std::vector<int>{10}, grid, pos);
    vp::Payload p;
    ASSERT_EQ(am.read_shard(0, id, s, p), Status::Ok);
    EXPECT_EQ(p.size(), static_cast<std::size_t>(
                            dist::element_count(cell) * sizeof(double)))
        << "shard " << s;
  }
  EXPECT_EQ(am.free_array(2, id), Status::Ok);
}

TEST(UnevenBlocks, TwoDimUnevenGridRoundTrips) {
  // {5, 7} over a 2x2 grid: blocks ceil(5/2)=3, ceil(7/2)=4; trailing cells
  // clip to 2 and 3.
  vp::Machine machine(4);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  ASSERT_EQ(am.create_array(0, dist::ElemType::Int32, {5, 7},
                            util::iota_nodes(4),
                            {dist::DimSpec::block_n(2),
                             dist::DimSpec::block_n(2)},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id),
            Status::Ok);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 7; ++c) {
      ASSERT_EQ(am.write_element(0, id, std::vector<int>{r, c},
                                 dist::Scalar{r * 100 + c}),
                Status::Ok);
    }
  }
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 7; ++c) {
      dist::Scalar v;
      ASSERT_EQ(am.read_element(3, id, std::vector<int>{r, c}, v),
                Status::Ok);
      EXPECT_EQ(std::get<int>(v), r * 100 + c) << r << "," << c;
    }
  }
  // The trailing-corner shard (grid pos {1,1}) holds a 2x3 interior.
  vp::Payload corner;
  ASSERT_EQ(am.read_shard(0, id, 3, corner), Status::Ok);
  EXPECT_EQ(corner.size(), 2u * 3u * sizeof(int));
  EXPECT_EQ(am.free_array(0, id), Status::Ok);
}

// ------------------------------------------------------------ Migration ----

class ShardMigrationTest : public ::testing::Test {
 protected:
  ShardMigrationTest() : machine_(4), am_(machine_), servers_(machine_) {
    dist::install_array_manager(servers_, am_);
    // 16 elements in 8 shards of 2 over 4 processors: oversharded, so every
    // processor starts with two shards.
    EXPECT_EQ(am_.create_array(0, dist::ElemType::Float64, {16},
                               util::iota_nodes(4),
                               {dist::DimSpec::block_n(8)},
                               dist::BorderSpec::none(),
                               dist::Indexing::RowMajor, id_),
              Status::Ok);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(am_.write_element(0, id_, std::vector<int>{i},
                                  dist::Scalar{i + 0.25}),
                Status::Ok);
    }
  }

  void expect_all_elements_readable(int on_proc) {
    for (int i = 0; i < 16; ++i) {
      dist::Scalar v;
      ASSERT_EQ(am_.read_element(on_proc, id_, std::vector<int>{i}, v),
                Status::Ok)
          << "element " << i;
      EXPECT_DOUBLE_EQ(std::get<double>(v), i + 0.25) << "element " << i;
    }
  }

  std::uint64_t owner_epoch(int on_proc) {
    dist::InfoValue v;
    EXPECT_EQ(am_.find_info(on_proc, id_, dist::InfoKind::OwnerEpoch, v),
              Status::Ok);
    return std::get<std::uint64_t>(v);
  }

  std::vector<int> shard_owners(int on_proc) {
    dist::InfoValue v;
    EXPECT_EQ(am_.find_info(on_proc, id_, dist::InfoKind::ShardOwners, v),
              Status::Ok);
    return std::get<std::vector<int>>(v);
  }

  vp::Machine machine_;
  dist::ArrayManager am_;
  vp::ServerSystem servers_;
  dist::ArrayId id_;
};

TEST_F(ShardMigrationTest, MigrationMovesDataAndBumpsEveryReplicaEpoch) {
  ASSERT_EQ(owner_epoch(0), 0u);
  // Shard 1 (elements 2..3) starts on processor 1; move it to processor 3.
  ASSERT_EQ(am_.migrate_shard(0, id_, 1, 3), Status::Ok);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(owner_epoch(p), 1u) << "replica on " << p;
    EXPECT_EQ(shard_owners(p)[1], 3) << "replica on " << p;
  }
  // Data survives the move and reads route to the new owner from anywhere.
  expect_all_elements_readable(1);
  dist::LocalSectionView view;
  EXPECT_EQ(am_.find_local_shard(3, id_, 1, view), Status::Ok);
  EXPECT_EQ(am_.find_local_shard(1, id_, 1, view), Status::NotFound);
  // Writes through the new owner stick.
  ASSERT_EQ(am_.write_element(2, id_, std::vector<int>{2},
                              dist::Scalar{99.5}),
            Status::Ok);
  dist::Scalar v;
  ASSERT_EQ(am_.read_element(0, id_, std::vector<int>{2}, v), Status::Ok);
  EXPECT_DOUBLE_EQ(std::get<double>(v), 99.5);
}

TEST_F(ShardMigrationTest, MigrationToCurrentOwnerIsIdempotentNoop) {
  const std::uint64_t before = owner_epoch(0);
  ASSERT_EQ(am_.migrate_shard(0, id_, 2, 2), Status::Ok);  // 2 lives on 2
  EXPECT_EQ(owner_epoch(0), before);  // no epoch bump for a no-op
  expect_all_elements_readable(0);
}

TEST_F(ShardMigrationTest, MigrationValidatesItsParameters) {
  EXPECT_EQ(am_.migrate_shard(0, id_, 99, 1), Status::Invalid);
  EXPECT_EQ(am_.migrate_shard(0, id_, -1, 1), Status::Invalid);
  EXPECT_EQ(am_.migrate_shard(0, id_, 1, 99), Status::Invalid);
  dist::ArrayId bogus{2, 12345};
  EXPECT_EQ(am_.migrate_shard(0, bogus, 0, 1), Status::NotFound);
}

// Readers racing a shard that migrates back and forth: every read must
// return Status::Ok with the correct value — a reader that catches a
// quiesced shard or a stale owner table retries against the new owner.
TEST_F(ShardMigrationTest, ReadsRetryAcrossConcurrentMigrations) {
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([this, t, &stop, &failures] {
      int i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        dist::Scalar v;
        if (am_.read_element(t, id_, std::vector<int>{i % 16}, v) !=
                Status::Ok ||
            std::get<double>(v) != (i % 16) + 0.25) {
          failures.fetch_add(1);
        }
        ++i;
      }
    });
  }
  // Bounce shard 5 between processors while the readers hammer the array.
  for (int round = 0; round < 40; ++round) {
    ASSERT_EQ(am_.migrate_shard(0, id_, 5, round % 2 == 0 ? 3 : 1),
              Status::Ok);
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(owner_epoch(2), 40u);
  expect_all_elements_readable(0);
}

TEST_F(ShardMigrationTest, ServerForwardsShardRequestsToTheCurrentOwner) {
  obs::set_enabled(true);
  obs::ShardedCounter& forwards =
      obs::Registry::instance().counter("am.shard_forwards");
  const std::uint64_t before = forwards.value();

  ASSERT_EQ(am_.migrate_shard(0, id_, 0, 2), Status::Ok);
  // Ask processor 1's server for shard 0, which lives on processor 2: the
  // reply names the owner and the requester re-issues there.
  vp::Payload p;
  ASSERT_EQ(dist::read_shard_request(servers_, 1, id_, 0, p), Status::Ok);
  ASSERT_EQ(p.size(), 2 * sizeof(double));
  const double* d = reinterpret_cast<const double*>(p.data());
  EXPECT_DOUBLE_EQ(d[0], 0.25);
  EXPECT_DOUBLE_EQ(d[1], 1.25);
  if (obs::kCompiledIn) {
    EXPECT_GT(forwards.value(), before);
  }

  // write_shard follows the same forward pointer.
  std::vector<double> repl{-1.0, -2.0};
  ASSERT_EQ(dist::write_shard_request(
                servers_, 3, id_, 0,
                vp::Payload::copy_of(
                    std::as_bytes(std::span<const double>(repl)))),
            Status::Ok);
  dist::Scalar v;
  ASSERT_EQ(am_.read_element(0, id_, std::vector<int>{1}, v), Status::Ok);
  EXPECT_DOUBLE_EQ(std::get<double>(v), -2.0);
  obs::set_enabled(false);
}

TEST_F(ShardMigrationTest, MigrationUnderFullDropFailsBoundedNotStalled) {
  fault::Plan plan;
  plan.drop = 1.0;
  machine_.set_fault_plan(plan);
  dist::RetryPolicy policy;
  policy.timeout_ms = 20;
  policy.max_attempts = 3;
  policy.backoff_ms = 1;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(dist::migrate_shard_request(servers_, 0, id_, 1, 3, policy),
            Status::Error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));  // bounded, not a stall
  machine_.set_fault_plan(fault::Plan{});

  // Nothing moved; the shard map is intact and a clean retry completes.
  EXPECT_EQ(shard_owners(0)[1], 1);
  EXPECT_EQ(dist::migrate_shard_request(servers_, 0, id_, 1, 3), Status::Ok);
  EXPECT_EQ(shard_owners(0)[1], 3);
  expect_all_elements_readable(0);
}

TEST_F(ShardMigrationTest, MigrationUnderPartialDropEventuallyCompletes) {
  fault::Plan plan;
  plan.drop = 0.5;
  plan.seed = 11;
  machine_.set_fault_plan(plan);
  dist::RetryPolicy policy;
  policy.timeout_ms = 50;
  policy.max_attempts = 4;
  policy.backoff_ms = 1;
  policy.jitter_seed = 3;
  // Migration is idempotent, so re-issuing after a lost reply is safe;
  // under 50% drop a handful of rounds always lands one.
  Status status = Status::Error;
  for (int round = 0; round < 20 && status != Status::Ok; ++round) {
    status = dist::migrate_shard_request(servers_, 0, id_, 6, 0, policy);
  }
  machine_.set_fault_plan(fault::Plan{});
  ASSERT_EQ(status, Status::Ok);
  EXPECT_EQ(shard_owners(2)[6], 0);
  expect_all_elements_readable(1);
}

TEST_F(ShardMigrationTest, PinBlocksMigrationUntilUnpinned) {
  am_.pin_layout(id_);
  std::atomic<bool> migrated{false};
  std::thread mover([this, &migrated] {
    EXPECT_EQ(am_.migrate_shard(0, id_, 4, 1), Status::Ok);  // 4 lives on 0
    migrated.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(migrated.load());  // pinned layout holds the migration
  am_.unpin_layout(id_);
  mover.join();
  EXPECT_TRUE(migrated.load());
  EXPECT_EQ(shard_owners(0)[4], 1);
  expect_all_elements_readable(0);
}

// A migration requested while the caller itself holds a pin on the array
// can never be satisfied; it must fail once the pin-drain wait times out
// rather than self-deadlock (and must not wedge later migrations).
TEST_F(ShardMigrationTest, MigrationUnderALivePinFailsBoundedNotDeadlocked) {
  am_.pin_layout(id_);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(am_.migrate_shard(0, id_, 4, 1), Status::Error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(8));  // bounded, not a stall
  am_.unpin_layout(id_);
  // The failed attempt left no residue: pins work and a retry completes.
  am_.pin_layout(id_);
  am_.unpin_layout(id_);
  EXPECT_EQ(am_.migrate_shard(0, id_, 4, 1), Status::Ok);
  EXPECT_EQ(shard_owners(0)[4], 1);
  expect_all_elements_readable(0);
}

// Shard-addressed bulk traffic racing a migration of the same shard: a
// write that lands must stick (never silently swallowed by the source
// teardown) and a read must never observe a torn payload — writers and
// readers wait out the quiesce instead of touching the borrowed storage,
// then follow the shard to its new owner.
TEST_F(ShardMigrationTest, ShardTrafficWaitsOutMigration) {
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([this, &stop, &bad] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Both halves carry the same value, so any torn copy is visible.
      const double val = static_cast<double>(++i);
      const double w[2] = {val, val};
      // Shard requests follow the shard wherever it lives, so anything but
      // Ok (a timeout, a lost route) is a failure.
      const vp::Payload data =
          vp::Payload::copy_of(std::as_bytes(std::span<const double>(w)));
      if (am_.write_shard(1, id_, 0, data) != Status::Ok) bad.fetch_add(1);
      vp::Payload snap;
      if (am_.read_shard(1, id_, 0, snap) != Status::Ok) {
        bad.fetch_add(1);
        continue;
      }
      double halves[2];
      std::memcpy(halves, snap.data(), sizeof(halves));
      if (halves[0] != halves[1]) bad.fetch_add(1);
    }
  });
  for (int round = 0; round < 40; ++round) {
    ASSERT_EQ(am_.migrate_shard(0, id_, 0, round % 2 == 0 ? 2 : 0),
              Status::Ok);
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(bad.load(), 0);

  // A final write round-trips intact through element reads.
  std::vector<double> fin{41.5, 42.5};
  ASSERT_EQ(am_.write_shard(
                0, id_, 0,
                vp::Payload::copy_of(
                    std::as_bytes(std::span<const double>(fin)))),
            Status::Ok);
  dist::Scalar v;
  ASSERT_EQ(am_.read_element(3, id_, std::vector<int>{0}, v), Status::Ok);
  EXPECT_DOUBLE_EQ(std::get<double>(v), 41.5);
  ASSERT_EQ(am_.read_element(3, id_, std::vector<int>{1}, v), Status::Ok);
  EXPECT_DOUBLE_EQ(std::get<double>(v), 42.5);
}

// ---------------------------------------------------------- Rebalancer ----

class RebalanceTest : public ::testing::Test {
 protected:
  RebalanceTest() : machine_(4), am_(machine_) {
    // 8 shards of 4 doubles over 2 of the 4 processors.
    EXPECT_EQ(am_.create_array(0, dist::ElemType::Float64, {32}, {0, 1},
                               {dist::DimSpec::block_n(8)},
                               dist::BorderSpec::none(),
                               dist::Indexing::RowMajor, id_),
              Status::Ok);
  }

  // Drives `n` shard reads at `shard`, accruing per-shard traffic.
  void touch(long long shard, int n) {
    for (int i = 0; i < n; ++i) {
      vp::Payload p;
      EXPECT_EQ(am_.read_shard(0, id_, shard, p), Status::Ok);
    }
  }

  vp::Machine machine_;
  dist::ArrayManager am_;
  dist::ArrayId id_;
};

TEST_F(RebalanceTest, ProposesMovesOffTheOverloadedProcessor) {
  // All traffic lands on processor 0's shards (even ranks).
  touch(0, 32);
  touch(2, 32);
  touch(4, 32);
  std::vector<dist::ShardMove> moves;
  ASSERT_EQ(am_.propose_rebalance(0, id_, 1.5, moves), Status::Ok);
  ASSERT_FALSE(moves.empty());
  for (const dist::ShardMove& m : moves) {
    EXPECT_EQ(m.from, 0);  // only the hot processor sheds shards
    EXPECT_EQ(m.to, 1);    // onto the idle pool member
    EXPECT_EQ(m.shard % 2, 0);
  }
}

TEST_F(RebalanceTest, BalancedTrafficProposesNothing) {
  for (long long s = 0; s < 8; ++s) touch(s, 8);
  std::vector<dist::ShardMove> moves;
  ASSERT_EQ(am_.propose_rebalance(0, id_, 1.5, moves), Status::Ok);
  EXPECT_TRUE(moves.empty());
}

TEST_F(RebalanceTest, RebalanceMovesShardsAndResetsTheWindow) {
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(am_.write_element(0, id_, std::vector<int>{i},
                                dist::Scalar{i * 1.0}),
              Status::Ok);
  }
  touch(0, 64);
  touch(2, 64);
  int moved = 0;
  ASSERT_EQ(am_.rebalance(0, id_, 1.5, &moved), Status::Ok);
  EXPECT_GT(moved, 0);
  // The traffic window was reset: an immediate second pass has nothing to
  // say about the old skew.
  std::vector<dist::ShardMove> moves;
  ASSERT_EQ(am_.propose_rebalance(0, id_, 1.5, moves), Status::Ok);
  EXPECT_TRUE(moves.empty());
  // Data is intact wherever the shards went.
  for (int i = 0; i < 32; ++i) {
    dist::Scalar v;
    ASSERT_EQ(am_.read_element(1, id_, std::vector<int>{i}, v), Status::Ok);
    EXPECT_DOUBLE_EQ(std::get<double>(v), i * 1.0);
  }
}

TEST_F(RebalanceTest, DisabledRatioIsANoop) {
  touch(0, 64);
  // max_ratio <= 0 defers to TDP_DIST_REBALANCE, which this test expects
  // unset: rebalancing stays opt-in.
  if (am_.env_rebalance_ratio() > 0.0) {
    GTEST_SKIP() << "TDP_DIST_REBALANCE set in the environment";
  }
  int moved = -1;
  ASSERT_EQ(am_.rebalance(0, id_, 0.0, &moved), Status::Ok);
  EXPECT_EQ(moved, 0);
}

// ------------------------------------------------------ Oversharding env ----

TEST(OvershardEnv, DefaultBlockSpecHonoursTdpDistShards) {
  ::setenv("TDP_DIST_SHARDS", "8", 1);
  vp::Machine machine(2);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  ASSERT_EQ(am.create_array(0, dist::ElemType::Float64, {32},
                            util::iota_nodes(2), {dist::DimSpec::block()},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id),
            Status::Ok);
  dist::InfoValue v;
  ASSERT_EQ(am.find_info(0, id, dist::InfoKind::ShardCount, v), Status::Ok);
  EXPECT_EQ(std::get<std::uint64_t>(v), 8u);
  ASSERT_EQ(am.find_info(0, id, dist::InfoKind::ShardOwners, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v),
            (std::vector<int>{0, 1, 0, 1, 0, 1, 0, 1}));
  // The §3.2.1.5 user-visible surface is unchanged: the processor list a
  // query reports is still the distinct owners.
  ASSERT_EQ(am.find_info(0, id, dist::InfoKind::Processors, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{0, 1}));
  ::unsetenv("TDP_DIST_SHARDS");

  // An explicit spec is never rewritten.
  dist::ArrayId id2;
  ::setenv("TDP_DIST_SHARDS", "8", 1);
  ASSERT_EQ(am.create_array(0, dist::ElemType::Float64, {32},
                            util::iota_nodes(2),
                            {dist::DimSpec::block_n(2)},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id2),
            Status::Ok);
  ASSERT_EQ(am.find_info(0, id2, dist::InfoKind::ShardCount, v), Status::Ok);
  EXPECT_EQ(std::get<std::uint64_t>(v), 2u);
  ::unsetenv("TDP_DIST_SHARDS");
}

}  // namespace
}  // namespace tdp
