// Tests for the sharded owner-table layer of the array manager: the
// power-of-two shard map, uneven (ceil-div) blocks, shard migration with
// epoch bumps, stale-owner forwarding through the server, the lock-free
// element path racing moves, border changes and frees, waits that park on
// the steal lane, the load-driven repartitioner, the pin barrier and its
// fairness to pinning calls, and the executable retry-backoff contract of
// dist::RetryPolicy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "dist/array_manager.hpp"
#include "dist/array_server.hpp"
#include "dist/layout.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "pcn/def.hpp"
#include "pcn/process.hpp"
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
  ShardMigrationTest()
      : machine_(4), am_(machine_), service_(machine_, am_) {
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
  dist::ArrayService service_;
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
  ASSERT_EQ(dist::read_shard_request(service_, 0, 1, id_, 0, p), Status::Ok);
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
                service_, 0, 3, id_, 0,
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
  EXPECT_EQ(dist::migrate_shard_request(service_, 0, 0, id_, 1, 3, policy),
            Status::Error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));  // bounded, not a stall
  machine_.set_fault_plan(fault::Plan{});

  // Nothing moved; the shard map is intact and a clean retry completes.
  EXPECT_EQ(shard_owners(0)[1], 1);
  EXPECT_EQ(dist::migrate_shard_request(service_, 0, 0, id_, 1, 3), Status::Ok);
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
    status = dist::migrate_shard_request(service_, 0, 0, id_, 6, 0, policy);
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

// ------------------------------------------------- Lock-free element path ----

// Element reads take no lock: they route through the array's route block and
// check the shard's sequence around the load.  Readers on processors that
// own the shard at times (1, 3) and on one that never does (0) race a writer
// storing increasing values from processor 2, a mover bouncing the shard
// between 1 and 3, and border changes that reallocate every section; every
// read is Ok, holds a value the writer stored, and never goes backwards.
// free_array then lands under the running readers: a reader's read after
// its first NotFound is NotFound too, and so is every processor's.
TEST(ShardRace, ReadsSeeStoredValuesInOrderAcrossMovesBorderChangesAndFree) {
  vp::Machine machine(4);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  // 16 doubles in 4 shards of 4; element 5 lives in shard 1, on processor 1.
  ASSERT_EQ(am.create_array(0, dist::ElemType::Float64, {16},
                            util::iota_nodes(4), {dist::DimSpec::block()},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id),
            Status::Ok);
  // The writer runs until the mover and the border changer have each done
  // kRounds rounds, so the three always overlap.
  constexpr int kWrites = 20000;
  constexpr int kRounds = 50;
  const int idx[1] = {5};

  std::atomic<int> moves{0};
  std::atomic<int> border_changes{0};
  std::atomic<int> last_write{0};
  std::atomic<bool> writes_done{false};
  std::atomic<bool> freeing{false};
  std::atomic<int> bad{0};
  std::atomic<int> backwards{0};
  std::atomic<long> ok_reads{0};
  std::vector<std::thread> readers;
  for (const int on_proc : {0, 1, 3}) {
    readers.emplace_back([&, on_proc] {
      double last = 0.0;
      bool gone = false;
      while (!gone) {
        dist::Scalar v;
        const Status st = am.read_element(on_proc, id, idx, v);
        if (st == Status::NotFound && freeing.load()) {
          gone = true;
          continue;
        }
        if (st != Status::Ok) {
          bad.fetch_add(1);
          continue;
        }
        const double x = std::get<double>(v);
        if (x < 0.0 || x != static_cast<int>(x)) bad.fetch_add(1);
        if (x < last) backwards.fetch_add(1);
        last = x;
        ok_reads.fetch_add(1, std::memory_order_relaxed);
      }
      // Once freed, the array is gone everywhere for good.
      dist::Scalar v;
      if (am.read_element(on_proc, id, idx, v) != Status::NotFound) {
        bad.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    int k = 0;
    while (k < kWrites || moves.load() < kRounds ||
           border_changes.load() < kRounds) {
      ++k;
      if (am.write_element(2, id, idx, dist::Scalar{static_cast<double>(k)}) !=
          Status::Ok) {
        bad.fetch_add(1);
      }
    }
    last_write.store(k);
    writes_done.store(true);
  });
  std::thread mover([&] {
    for (int round = 0; !writes_done.load(); ++round) {
      if (am.migrate_shard(0, id, 1, round % 2 == 0 ? 3 : 1) != Status::Ok) {
        bad.fetch_add(1);
      }
      moves.fetch_add(1);
    }
  });
  std::thread borders([&] {
    for (int round = 0; !writes_done.load(); ++round) {
      const int b = round % 2 == 0 ? 1 : 0;
      if (am.verify_array(1, id, 1, dist::BorderSpec::exact({b, b + 1}),
                          dist::Indexing::RowMajor) != Status::Ok) {
        bad.fetch_add(1);
      }
      border_changes.fetch_add(1);
    }
  });
  writer.join();
  mover.join();
  borders.join();

  // The last stored value is what every processor reads.
  for (int p = 0; p < 4; ++p) {
    dist::Scalar v;
    ASSERT_EQ(am.read_element(p, id, idx, v), Status::Ok) << p;
    EXPECT_EQ(std::get<double>(v), last_write.load()) << p;
  }
  freeing.store(true);
  EXPECT_EQ(am.free_array(3, id), Status::Ok);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(backwards.load(), 0);
  EXPECT_GT(ok_reads.load(), 0);
  for (int p = 0; p < 4; ++p) {
    dist::Scalar v;
    EXPECT_EQ(am.read_element(p, id, idx, v), Status::NotFound) << p;
    EXPECT_EQ(am.write_element(p, id, idx, dist::Scalar{1.0}),
              Status::NotFound)
        << p;
    EXPECT_EQ(am.records_on(p), 0u) << p;
  }
}

// Writes made on any processor, owner or not, take no lock and must stay
// exact while the shard moves and its borders change: every
// processor writes its own element of one shard and reads it straight back
// (a write that landed in a quiesced or retired section would read back
// stale), and each element ends at its writer's last value.
TEST(ShardRace, WritesFromEveryProcessorSurviveMovesAndBorderChanges) {
  vp::Machine machine(4);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  // Shards of 16,384 ints: a migration's copy takes long enough for a
  // write into the quiesced source to be caught.
  constexpr int kShard = 1 << 14;
  ASSERT_EQ(am.create_array(0, dist::ElemType::Int32, {4 * kShard},
                            util::iota_nodes(4), {dist::DimSpec::block()},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id),
            Status::Ok);
  // The writers run until the mover has done kRounds rounds, so writes
  // always overlap moves and border changes.
  constexpr int kWrites = 5000;
  constexpr int kRounds = 40;
  std::atomic<int> rounds{0};
  std::atomic<int> writers_left{4};
  std::atomic<int> bad{0};
  int last[4] = {};
  std::vector<std::thread> writers;
  for (int p = 0; p < 4; ++p) {
    writers.emplace_back([&, p] {
      const int idx[1] = {kShard + p};  // shard 1
      int k = 0;
      while (k < kWrites || rounds.load() < kRounds) {
        ++k;
        dist::Scalar v;
        if (am.write_element(p, id, idx, dist::Scalar{k}) != Status::Ok ||
            am.read_element(p, id, idx, v) != Status::Ok ||
            std::get<int>(v) != k) {
          bad.fetch_add(1);
        }
      }
      last[p] = k;
      writers_left.fetch_sub(1);
    });
  }
  do {
    const int r = rounds.load();
    ASSERT_EQ(am.migrate_shard(0, id, 1, r % 2 == 0 ? 2 : 1), Status::Ok);
    ASSERT_EQ(am.verify_array(0, id, 1, dist::BorderSpec::exact({r % 3, 1}),
                              dist::Indexing::RowMajor),
              Status::Ok);
    rounds.fetch_add(1);
  } while (writers_left.load() > 0);
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(bad.load(), 0);
  for (int p = 0; p < 4; ++p) {
    const int idx[1] = {kShard + p};
    dist::Scalar v;
    ASSERT_EQ(am.read_element(3, id, idx, v), Status::Ok);
    EXPECT_EQ(std::get<int>(v), last[p]) << "element " << kShard + p;
  }
}

// A section snapshot is one state of the section, although element writes
// take no lock: read_shard opens the shard's slot and issues the process
// barrier before it copies, so a lock-free write either lands before the
// snapshot or redoes itself after it.  One writer stores its pass number
// into elements 0..n-1 of shard 1, in order, pass after pass; in any one
// state the elements read k..k, k-1..k-1, so no snapshot may show a later
// element newer than an earlier one.
TEST(ShardRace, SectionSnapshotsStayAtomicUnderLockFreeWrites) {
  vp::Machine machine(4);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  constexpr int kShard = 1024;
  ASSERT_EQ(am.create_array(0, dist::ElemType::Float64, {4 * kShard},
                            util::iota_nodes(4), {dist::DimSpec::block()},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id),
            Status::Ok);
  constexpr int kSnapshots = 400;
  std::atomic<int> snapshots_left{2};
  std::atomic<int> bad{0};
  std::atomic<int> torn{0};
  std::atomic<int> passes{0};
  std::thread writer([&] {
    for (int pass = 1; snapshots_left.load() > 0; ++pass) {
      for (int i = 0; i < kShard; ++i) {
        const int idx[1] = {kShard + i};
        if (am.write_element(0, id, idx, dist::Scalar{double(pass)}) !=
            Status::Ok) {
          bad.fetch_add(1);
        }
      }
      passes.store(pass);
    }
  });
  std::vector<std::thread> readers;
  for (const int on_proc : {1, 3}) {
    readers.emplace_back([&, on_proc] {
      for (int n = 0; n < kSnapshots; ++n) {
        vp::Payload p;
        if (am.read_shard(on_proc, id, 1, p) != Status::Ok ||
            p.size() != kShard * sizeof(double)) {
          bad.fetch_add(1);
          continue;
        }
        std::vector<double> v(kShard);
        std::memcpy(v.data(), p.data(), p.size());
        for (int i = 1; i < kShard; ++i) {
          if (v[static_cast<std::size_t>(i)] >
              v[static_cast<std::size_t>(i - 1)]) {
            torn.fetch_add(1);
            break;
          }
        }
      }
      snapshots_left.fetch_sub(1);
    });
  }
  for (std::thread& r : readers) r.join();
  writer.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(passes.load(), 0);
}

// No lock-free write is lost to a shard move, a section overwrite or a
// border change, each of which copies or replaces the storage the write
// may be landing in.  More writers than a small host has cores (so some
// are preempted between routing and storing) run on processors 0 and 3,
// which never own the shard, each storing increasing values into its own
// element and reading each straight back: until the section writer has
// finished, the read holds the value just written or the section writer's
// marker; after, exactly the value just written.  At the end every
// processor reads each writer's last value.
TEST(ShardRace, NoLockFreeWriteIsLostToMovesSectionWritesOrBorderChanges) {
  vp::Machine machine(4);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  constexpr int kShard = 1 << 12;
  ASSERT_EQ(am.create_array(0, dist::ElemType::Int32, {4 * kShard},
                            util::iota_nodes(4), {dist::DimSpec::block()},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id),
            Status::Ok);
  // Each phase lasts until the mover and the border changer have done
  // kRounds rounds in it, so the writes always overlap all three.
  constexpr int kRounds = 30;
  constexpr int kWriters = 6;
  constexpr int kMarker = -1;
  std::atomic<int> moves{0};
  std::atomic<int> border_changes{0};
  const auto rounds_since = [&](int m0, int b0) {
    return moves.load() >= m0 + kRounds &&
           border_changes.load() >= b0 + kRounds;
  };
  std::atomic<bool> sections_done{false};
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> bad{0};
  int last[kWriters] = {};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const int idx[1] = {kShard + w};  // shard 1
      const int on_proc = w % 2 == 0 ? 0 : 3;
      int k = 0;
      int m0 = -1;
      int b0 = -1;
      while (m0 < 0 || !rounds_since(m0, b0)) {
        const bool exact = sections_done.load();
        if (exact && m0 < 0) {
          m0 = moves.load();
          b0 = border_changes.load();
        }
        ++k;
        dist::Scalar v;
        if (am.write_element(on_proc, id, idx, dist::Scalar{k}) !=
                Status::Ok ||
            am.read_element(on_proc, id, idx, v) != Status::Ok) {
          bad.fetch_add(1);
          continue;
        }
        const int got = std::get<int>(v);
        if (got != k && (exact || got != kMarker)) bad.fetch_add(1);
      }
      last[w] = k;
      writers_left.fetch_sub(1);
    });
  }
  std::thread sections([&] {
    std::vector<int> marker(kShard, kMarker);
    std::vector<std::byte> bytes(marker.size() * sizeof(int));
    std::memcpy(bytes.data(), marker.data(), bytes.size());
    const vp::Payload data = vp::Payload::take(std::move(bytes));
    // Paced, so that the node locks it takes do not starve the mover and
    // the border changer.
    for (int round = 0; round < kRounds || !rounds_since(0, 0); ++round) {
      if (am.write_shard(3, id, 1, data) != Status::Ok) bad.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    sections_done.store(true);
  });
  std::thread mover([&] {
    for (int round = 0; writers_left.load() > 0; ++round) {
      if (am.migrate_shard(3, id, 1, round % 2 == 0 ? 2 : 1) != Status::Ok) {
        bad.fetch_add(1);
      }
      moves.fetch_add(1);
    }
  });
  std::thread borders([&] {
    for (int round = 0; writers_left.load() > 0; ++round) {
      if (am.verify_array(1, id, 1, dist::BorderSpec::exact({round % 2, 1}),
                          dist::Indexing::RowMajor) != Status::Ok) {
        bad.fetch_add(1);
      }
      border_changes.fetch_add(1);
    }
  });
  sections.join();
  for (std::thread& w : writers) w.join();
  mover.join();
  borders.join();
  EXPECT_EQ(bad.load(), 0);
  for (int w = 0; w < kWriters; ++w) {
    const int idx[1] = {kShard + w};
    for (int p = 0; p < 4; ++p) {
      dist::Scalar v;
      ASSERT_EQ(am.read_element(p, id, idx, v), Status::Ok) << p;
      EXPECT_EQ(std::get<int>(v), last[w]) << "writer " << w << " on " << p;
    }
  }
}

// Shard traffic is exact however many threads charge it: more threads than
// there are tally slots, all alive at once, each read one element N times
// (the threads without a slot share one counted row), and a second wave
// does the same on the slots the first wave handed back.  A rebalance then
// starts the next traffic window at 0.
TEST(ShardRace, TrafficTalliesAreExactBeyondTheSlotCount) {
  vp::Machine machine(4);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  ASSERT_EQ(am.create_array(0, dist::ElemType::Float64, {64},
                            util::iota_nodes(4), {dist::DimSpec::block()},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id),
            Status::Ok);
  constexpr int kThreads = static_cast<int>(dist::ShardStats::kSlots) + 4;
  constexpr int kReads = 2000;
  const int idx[1] = {20};  // shard 1
  std::atomic<int> bad{0};
  const auto wave = [&] {
    std::atomic<int> started{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int n = 0; n < kReads; ++n) {
          dist::Scalar v;
          if (am.read_element(t % 4, id, idx, v) != Status::Ok) {
            bad.fetch_add(1);
          }
          // Hold every thread's slot at once before the rest of the reads.
          if (n == 0) {
            started.fetch_add(1);
            while (started.load() < kThreads) std::this_thread::yield();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };
  const auto traffic = [&] {
    std::uint64_t bytes = 0;
    for (const auto& row : am.hottest_shards(16)) {
      if (row.id == id && row.shard == 1) bytes = row.bytes;
    }
    return bytes;
  };
  wave();
  EXPECT_EQ(traffic(), std::uint64_t{kReads} * kThreads * sizeof(double));
  wave();
  EXPECT_EQ(traffic(), std::uint64_t{2 * kReads} * kThreads * sizeof(double));
  EXPECT_EQ(bad.load(), 0);
  int moved = -1;
  ASSERT_EQ(am.rebalance(0, id, 1.5, &moved), Status::Ok);
  EXPECT_EQ(traffic(), 0u);
  dist::Scalar v;
  ASSERT_EQ(am.read_element(0, id, idx, v), Status::Ok);
  EXPECT_EQ(traffic(), sizeof(double));
}

// ---------------------------------------------- Waits on a steal worker ----

// Every wait in the array manager parks its task on the steal lane instead
// of blocking the worker thread.  With one worker (the
// Dist.ParkedWaitsOnOneStealWorker ctest), a task holds a pin on array A
// until a reader releases it; a migration of A waits out that pin, and a
// second pinned call waits out the migration.  Blocking the worker in
// either wait would starve the task that ends it.  Meanwhile a thread
// outside the scheduler bounces a shard of array B, so the reader's reads
// of it catch the shard quiesced and park until the move lands.  On the
// thread lane the same program runs on threads.
TEST(ParkedWaits, PinnedCallsAndReadsFinishWhileAMigrationRunsOnTheSameWorker) {
  vp::Machine machine(4);
  dist::ArrayManager am(machine);
  // 16 doubles in 8 shards of 2, two per processor; element i holds i+0.25.
  const auto make = [&] {
    dist::ArrayId id;
    EXPECT_EQ(am.create_array(0, dist::ElemType::Float64, {16},
                              util::iota_nodes(4),
                              {dist::DimSpec::block_n(8)},
                              dist::BorderSpec::none(),
                              dist::Indexing::RowMajor, id),
              Status::Ok);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(am.write_element(0, id, std::vector<int>{i},
                                 dist::Scalar{i + 0.25}),
                Status::Ok);
    }
    return id;
  };
  const dist::ArrayId a = make();
  const dist::ArrayId b = make();
  pcn::Def<int> pinned;
  pcn::Def<int> migrating;
  pcn::Def<int> release;
  std::atomic<int> migrated{-1};
  std::atomic<int> bad{0};
  std::atomic<bool> reads_done{false};
  std::atomic<int> bounces{0};

  // Bounces B's shard 6 (elements 12, 13) between processors 2 and 0 for
  // as long as the reader reads.
  std::thread bouncer([&] {
    for (int round = 0; !reads_done.load(); ++round) {
      if (am.migrate_shard(3, b, 6, round % 2 == 0 ? 0 : 2) != Status::Ok) {
        bad.fetch_add(1);
      }
      bounces.fetch_add(1);
    }
  });
  {
    pcn::ProcessGroup group;
    group.spawn_on(machine, 0, [&] {  // the pinned call
      am.pin_layout(a);
      pinned.define(1);
      release.read();
      am.unpin_layout(a);
    });
    group.spawn_on(machine, 1, [&] {  // the migration, behind the pin
      pinned.read();
      migrating.define(1);
      migrated.store(static_cast<int>(am.migrate_shard(1, a, 2, 3)));
    });
    group.spawn_on(machine, 2, [&] {  // reads, then a pin behind the move
      migrating.read();
      for (int i = 0; i < 400 || bounces.load() < 20; ++i) {
        const bool of_b = i % 2 == 0;
        const int e = (of_b ? 12 : 4) + i / 2 % 2;
        dist::Scalar v;
        if (am.read_element(2, of_b ? b : a, std::vector<int>{e}, v) !=
                Status::Ok ||
            std::get<double>(v) != e + 0.25) {
          bad.fetch_add(1);
        }
      }
      reads_done.store(true);
      release.define(1);
      am.pin_layout(a);
      am.unpin_layout(a);
    });
    group.join();
  }
  bouncer.join();
  EXPECT_EQ(migrated.load(), static_cast<int>(Status::Ok));
  EXPECT_EQ(bad.load(), 0);
  dist::InfoValue owners;
  ASSERT_EQ(am.find_info(0, a, dist::InfoKind::ShardOwners, owners),
            Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(owners)[2], 3);
}

// Array-manager requests park their task while they wait for a reply or
// back off.  With one steal worker (the Dist.ArrayRequestsOnOneStealWorker
// ctest) the requester, the four server tasks and the retries share that
// worker: a requester asks its own processor's server, follows a forward
// pointer, then exhausts its retries under drop:1.0 within the policy's
// bound.  A wait that blocked the worker would starve the server tasks.
TEST(ParkedRequests, OwnForwardedAndExhaustedRequestsFinishOnOneWorker) {
  vp::Machine machine(4);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  // 16 doubles in 8 shards of 2: shard s starts on processor s % 4.
  ASSERT_EQ(am.create_array(0, dist::ElemType::Float64, {16},
                            util::iota_nodes(4), {dist::DimSpec::block_n(8)},
                            dist::BorderSpec::none(),
                            dist::Indexing::RowMajor, id),
            Status::Ok);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(am.write_element(0, id, std::vector<int>{i},
                               dist::Scalar{i + 0.25}),
              Status::Ok);
  }
  ASSERT_EQ(am.migrate_shard(0, id, 0, 2), Status::Ok);
  dist::ArrayService service(machine, am);
  dist::RetryPolicy policy;
  policy.timeout_ms = 50;
  policy.max_attempts = 3;
  policy.backoff_ms = 5;
  const auto bound = std::chrono::milliseconds(
      3 * policy.timeout_ms + dist::retry_backoff_ms(policy, 0, 1) +
      dist::retry_backoff_ms(policy, 0, 2));
  Status own = Status::Error;
  Status forwarded = Status::Error;
  Status exhausted = Status::Ok;
  std::vector<double> own_data(2);
  std::vector<double> forwarded_data(2);
  std::chrono::steady_clock::duration took{};
  {
    pcn::ProcessGroup group;
    group.spawn_on(machine, 0, [&] {
      vp::Payload p;
      own = dist::read_shard_request(service, 0, 0, id, 4, p);
      if (p.size() == 16) std::memcpy(own_data.data(), p.data(), 16);
      // Processor 1's server no longer owns shard 0: it names processor 2.
      forwarded = dist::read_shard_request(service, 0, 1, id, 0, p);
      if (p.size() == 16) std::memcpy(forwarded_data.data(), p.data(), 16);
      fault::Plan drop;
      drop.drop = 1.0;
      machine.set_fault_plan(drop);
      const auto start = std::chrono::steady_clock::now();
      exhausted = dist::read_shard_request(service, 0, 1, id, 1, p, policy);
      took = std::chrono::steady_clock::now() - start;
      machine.set_fault_plan(fault::Plan{});
    });
    group.join();
  }
  EXPECT_EQ(own, Status::Ok);
  EXPECT_EQ(own_data, (std::vector<double>{8.25, 9.25}));
  EXPECT_EQ(forwarded, Status::Ok);
  EXPECT_EQ(forwarded_data, (std::vector<double>{0.25, 1.25}));
  EXPECT_EQ(exhausted, Status::Error);
  EXPECT_GE(took, bound);
  EXPECT_LT(took, bound + std::chrono::seconds(2)) << "retries overran";
}

// A distributed call pins the arrays it passes as local() for as long as
// it runs.  Back-to-back migrations of one of them must not starve that
// pin: a migration that finds the pinner waiting lets it in first.  Here
// the test holds a pin of its own, so each migration of the array waits
// out kPinDrainTimeout (2 s) at the barrier and fails.  Two threads start
// such migrations in a loop, a second apart, so one is always in flight
// and an unfair barrier never lets the call's pin in (they stop after
// 15 s).  With the hand-over, the call pins once the migrations already in
// flight end, and must finish within 5 s.
TEST(PinBarrier, PinnedCallFinishesWhileMigrationsRunBackToBack) {
  core::Runtime rt(4);
  rt.programs().add("touch", [](spmd::SpmdContext&, core::CallArgs& args) {
    args.local(0).f64()[0] += 1.0;
  });
  dist::ArrayId id;
  ASSERT_EQ(rt.arrays().create_array(0, dist::ElemType::Float64, {16},
                                     rt.all_procs(),
                                     {dist::DimSpec::block_n(8)},
                                     dist::BorderSpec::none(),
                                     dist::Indexing::RowMajor, id),
            Status::Ok);
  rt.arrays().pin_layout(id);
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<int> bad{0};
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  const auto migrate = [&](int to) {
    while (!stop.load() && std::chrono::steady_clock::now() < give_up) {
      started.fetch_add(1);
      const Status st = rt.arrays().migrate_shard(0, id, 6, to);
      if (st != Status::Ok && st != Status::Error) bad.fetch_add(1);
    }
  };
  std::thread first(migrate, 0);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  std::thread second(migrate, 2);
  while (started.load() < 2) std::this_thread::yield();

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(rt.call(rt.all_procs(), "touch").local(id).run(), kStatusOk);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop.store(true);
  rt.arrays().unpin_layout(id);
  first.join();
  second.join();
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(bad.load(), 0);
}

// A migration that arrives while an earlier one is in flight and a pinner
// waits lets the pinner in first, and only then starts its own 2 s pin
// drain.  Here the earlier migration waits out a pin the test holds until
// 0.8 s after the later one arrives; the pinner then holds its pin until
// 2.4 s after that arrival.  Counted from the arrival, the drain would run
// out before the pinner lets go; counted from the hand-over, it does not,
// so both migrations must succeed.
TEST(PinBarrier, MigrationBehindAWaitingPinnerGetsItsWholeDrainBound) {
  vp::Machine machine(4);
  dist::ArrayManager am(machine);
  dist::ArrayId id;
  ASSERT_EQ(am.create_array(0, dist::ElemType::Float64, {16},
                            util::iota_nodes(4), {dist::DimSpec::block_n(8)},
                            dist::BorderSpec::none(), dist::Indexing::RowMajor,
                            id),
            Status::Ok);
  am.pin_layout(id);
  std::atomic<int> first{-1};
  std::atomic<int> second{-1};
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread earlier(
      [&] { first.store(static_cast<int>(am.migrate_shard(1, id, 2, 3))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::thread pinner([&] {
    am.pin_layout(id);
    pinned.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    am.unpin_layout(id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto arrival = std::chrono::steady_clock::now();
  std::thread later(
      [&] { second.store(static_cast<int>(am.migrate_shard(0, id, 6, 1))); });
  std::this_thread::sleep_until(arrival + std::chrono::milliseconds(800));
  am.unpin_layout(id);
  while (!pinned.load()) std::this_thread::yield();
  std::this_thread::sleep_until(arrival + std::chrono::milliseconds(2400));
  release.store(true);
  earlier.join();
  pinner.join();
  later.join();
  EXPECT_EQ(first.load(), static_cast<int>(Status::Ok));
  EXPECT_EQ(second.load(), static_cast<int>(Status::Ok));
  dist::InfoValue owners;
  ASSERT_EQ(am.find_info(0, id, dist::InfoKind::ShardOwners, owners),
            Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(owners)[2], 3);
  EXPECT_EQ(std::get<std::vector<int>>(owners)[6], 1);
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
