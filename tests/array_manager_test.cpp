// Tests for the array manager: the distributed-array library procedures of
// §4.2 and the runtime behaviour of §5.1.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <ostream>
#include <set>
#include <string>

#include "dist/array_manager.hpp"
#include "pcn/process.hpp"
#include "util/node_array.hpp"
#include "vp/machine.hpp"

namespace tdp::dist {
namespace {

class ArrayManagerTest : public ::testing::Test {
 protected:
  ArrayManagerTest() : machine_(8), am_(machine_) {}

  ArrayId make_vector(int n, const std::vector<int>& procs,
                      ElemType type = ElemType::Float64) {
    ArrayId id;
    EXPECT_EQ(am_.create_array(0, type, {n}, procs,
                               {DimSpec::block()}, BorderSpec::none(),
                               Indexing::RowMajor, id),
              Status::Ok);
    return id;
  }

  vp::Machine machine_;
  ArrayManager am_;
};

TEST_F(ArrayManagerTest, CreateAssignsUniqueGlobalIds) {
  // §4.1.3: the ID is {creating processor, per-processor counter}.
  ArrayId a = make_vector(8, util::iota_nodes(4));
  ArrayId b = make_vector(8, util::iota_nodes(4));
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a, b);
  EXPECT_EQ(a.creator, 0);
  EXPECT_EQ(b.creator, 0);

  ArrayId c;
  ASSERT_EQ(am_.create_array(3, ElemType::Float64, {8}, util::iota_nodes(4),
                             {DimSpec::block()}, BorderSpec::none(),
                             Indexing::RowMajor, c),
            Status::Ok);
  EXPECT_EQ(c.creator, 3);
}

TEST_F(ArrayManagerTest, WriteThenReadRoundTrips) {
  ArrayId id = make_vector(16, util::iota_nodes(4));
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(am_.write_element(0, id, std::vector<int>{i},
                                Scalar{static_cast<double>(i) * 1.5}),
              Status::Ok);
  }
  for (int i = 0; i < 16; ++i) {
    Scalar v;
    ASSERT_EQ(am_.read_element(0, id, std::vector<int>{i}, v), Status::Ok);
    EXPECT_DOUBLE_EQ(std::get<double>(v), i * 1.5);
  }
}

TEST_F(ArrayManagerTest, ReadsAreIdenticalOnEveryEligibleProcessor) {
  // §3.2.1.5: a request to read the first element returns the same value no
  // matter where it is executed (owner processors or the creator).
  ArrayId id = make_vector(8, util::node_array(2, 1, 4));  // owners 2..5
  ASSERT_EQ(am_.write_element(2, id, std::vector<int>{0}, Scalar{3.25}),
            Status::Ok);
  for (int on : {0 /* creator */, 2, 3, 4, 5}) {
    Scalar v;
    ASSERT_EQ(am_.read_element(on, id, std::vector<int>{0}, v), Status::Ok)
        << "on processor " << on;
    EXPECT_DOUBLE_EQ(std::get<double>(v), 3.25);
  }
}

TEST_F(ArrayManagerTest, NonParticipantProcessorGetsNotFound) {
  ArrayId id = make_vector(8, util::node_array(2, 1, 4));
  Scalar v;
  EXPECT_EQ(am_.read_element(7, id, std::vector<int>{0}, v),
            Status::NotFound);
}

TEST_F(ArrayManagerTest, IntArraysCoerceValues) {
  ArrayId id = make_vector(8, util::iota_nodes(4), ElemType::Int32);
  ASSERT_EQ(am_.write_element(0, id, std::vector<int>{3}, Scalar{7.9}),
            Status::Ok);
  Scalar v;
  ASSERT_EQ(am_.read_element(0, id, std::vector<int>{3}, v), Status::Ok);
  EXPECT_EQ(std::get<int>(v), 7);
}

TEST_F(ArrayManagerTest, OutOfRangeIndicesAreInvalid) {
  ArrayId id = make_vector(8, util::iota_nodes(4));
  Scalar v;
  EXPECT_EQ(am_.read_element(0, id, std::vector<int>{8}, v), Status::Invalid);
  EXPECT_EQ(am_.read_element(0, id, std::vector<int>{-1}, v),
            Status::Invalid);
  EXPECT_EQ(am_.read_element(0, id, std::vector<int>{0, 0}, v),
            Status::Invalid);
}

TEST_F(ArrayManagerTest, FreeInvalidatesEverywhere) {
  ArrayId id = make_vector(8, util::iota_nodes(4));
  ASSERT_EQ(am_.free_array(0, id), Status::Ok);
  Scalar v;
  EXPECT_EQ(am_.read_element(0, id, std::vector<int>{0}, v),
            Status::NotFound);
  EXPECT_EQ(am_.write_element(1, id, std::vector<int>{0}, Scalar{1.0}),
            Status::NotFound);
  EXPECT_EQ(am_.free_array(0, id), Status::NotFound);
  LocalSectionView view;
  EXPECT_EQ(am_.find_local(1, id, view), Status::NotFound);
}

TEST_F(ArrayManagerTest, FreeReleasesStorage) {
  const std::size_t before = am_.local_bytes_on(1);
  ArrayId id = make_vector(1024, util::iota_nodes(4));
  EXPECT_GT(am_.local_bytes_on(1), before);
  ASSERT_EQ(am_.free_array(0, id), Status::Ok);
  EXPECT_EQ(am_.local_bytes_on(1), before);
}

TEST_F(ArrayManagerTest, FindLocalOnlyOnOwners) {
  ArrayId id = make_vector(8, util::node_array(4, 1, 4));  // owners 4..7
  LocalSectionView view;
  EXPECT_EQ(am_.find_local(4, id, view), Status::Ok);
  EXPECT_TRUE(view.valid());
  EXPECT_EQ(view.interior_dims, (std::vector<int>{2}));
  // The creator holds metadata but no section (§5.1.4).
  EXPECT_EQ(am_.find_local(0, id, view), Status::NotFound);
}

TEST_F(ArrayManagerTest, LocalSectionsSeeElementWrites) {
  // The local section handed to a data-parallel program is the same storage
  // the global write_element path updates (fig 3.9).
  ArrayId id = make_vector(8, util::iota_nodes(4));
  ASSERT_EQ(am_.write_element(0, id, std::vector<int>{5}, Scalar{42.0}),
            Status::Ok);
  // Element 5 lives on owner rank 2 (local sections of 2), local index 1.
  LocalSectionView view;
  ASSERT_EQ(am_.find_local(2, id, view), Status::Ok);
  EXPECT_DOUBLE_EQ(view.f64()[1], 42.0);
  view.f64()[1] = 43.0;
  Scalar v;
  ASSERT_EQ(am_.read_element(0, id, std::vector<int>{5}, v), Status::Ok);
  EXPECT_DOUBLE_EQ(std::get<double>(v), 43.0);
}

TEST_F(ArrayManagerTest, FindInfoReportsAllFields) {
  ArrayId id;
  ASSERT_EQ(am_.create_array(0, ElemType::Float64, {8, 4},
                             util::iota_nodes(8),
                             {DimSpec::block_n(4), DimSpec::block_n(2)},
                             BorderSpec::exact({1, 1, 0, 0}),
                             Indexing::RowMajor, id),
            Status::Ok);
  InfoValue v;
  ASSERT_EQ(am_.find_info(0, id, InfoKind::Type, v), Status::Ok);
  EXPECT_EQ(std::get<ElemType>(v), ElemType::Float64);
  ASSERT_EQ(am_.find_info(0, id, InfoKind::Dimensions, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{8, 4}));
  ASSERT_EQ(am_.find_info(0, id, InfoKind::Processors, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), util::iota_nodes(8));
  ASSERT_EQ(am_.find_info(0, id, InfoKind::GridDimensions, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{4, 2}));
  ASSERT_EQ(am_.find_info(0, id, InfoKind::LocalDimensions, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{2, 2}));
  ASSERT_EQ(am_.find_info(0, id, InfoKind::Borders, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{1, 1, 0, 0}));
  ASSERT_EQ(am_.find_info(0, id, InfoKind::LocalDimensionsPlus, v),
            Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{4, 2}));
  ASSERT_EQ(am_.find_info(0, id, InfoKind::IndexingType, v), Status::Ok);
  EXPECT_EQ(std::get<Indexing>(v), Indexing::RowMajor);
  ASSERT_EQ(am_.find_info(0, id, InfoKind::GridIndexingType, v), Status::Ok);
  EXPECT_EQ(std::get<Indexing>(v), Indexing::RowMajor);
}

TEST_F(ArrayManagerTest, Figure38RowMajorDistribution) {
  // Figure 3.8: 4x4 array over processors (0,2,4,6).  Row-major: global
  // (0,2) goes to processor 2; column-major: to processor 4.
  for (auto [indexing, expected_owner] :
       {std::pair{Indexing::RowMajor, 2}, std::pair{Indexing::ColumnMajor, 4}}) {
    ArrayId id;
    ASSERT_EQ(am_.create_array(0, ElemType::Float64, {4, 4},
                               util::node_array(0, 2, 4),
                               {DimSpec::block(), DimSpec::block()},
                               BorderSpec::none(), indexing, id),
              Status::Ok);
    ASSERT_EQ(
        am_.write_element(0, id, std::vector<int>{0, 2}, Scalar{6.5}),
        Status::Ok);
    // Exactly one owner's local section holds the value.
    int found_on = -1;
    for (int p : {0, 2, 4, 6}) {
      LocalSectionView view;
      ASSERT_EQ(am_.find_local(p, id, view), Status::Ok);
      for (long long i = 0; i < view.interior_count(); ++i) {
        if (view.f64()[i] == 6.5) {
          EXPECT_EQ(found_on, -1);
          found_on = p;
        }
      }
    }
    EXPECT_EQ(found_on, expected_owner)
        << "indexing " << to_string(indexing);
    am_.free_array(0, id);
  }
}

TEST_F(ArrayManagerTest, EveryGlobalElementLandsInExactlyOneSection) {
  ArrayId id;
  ASSERT_EQ(am_.create_array(1, ElemType::Float64, {8, 6},
                             util::iota_nodes(8),
                             {DimSpec::block_n(4), DimSpec::block_n(2)},
                             BorderSpec::none(), Indexing::ColumnMajor, id),
            Status::Ok);
  int counter = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 6; ++j) {
      ASSERT_EQ(am_.write_element(1, id, std::vector<int>{i, j},
                                  Scalar{static_cast<double>(++counter)}),
                Status::Ok);
    }
  }
  std::multiset<double> values;
  for (int p = 0; p < 8; ++p) {
    LocalSectionView view;
    ASSERT_EQ(am_.find_local(p, id, view), Status::Ok);
    for (long long i = 0; i < view.interior_count(); ++i) {
      values.insert(view.f64()[i]);
    }
  }
  EXPECT_EQ(values.size(), 48u);
  for (int v = 1; v <= 48; ++v) {
    EXPECT_EQ(values.count(static_cast<double>(v)), 1u) << v;
  }
}

TEST_F(ArrayManagerTest, BordersAreInvisibleToElementAccess) {
  // §3.2.1.3: task-parallel programs access only the interior; borders are
  // for the data-parallel notation.
  ArrayId id;
  ASSERT_EQ(am_.create_array(0, ElemType::Float64, {8}, util::iota_nodes(4),
                             {DimSpec::block()}, BorderSpec::exact({2, 2}),
                             Indexing::RowMajor, id),
            Status::Ok);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(am_.write_element(0, id, std::vector<int>{i},
                                Scalar{static_cast<double>(i)}),
              Status::Ok);
  }
  LocalSectionView view;
  ASSERT_EQ(am_.find_local(1, id, view), Status::Ok);
  EXPECT_EQ(view.dims_plus, (std::vector<int>{6}));
  // Interior of owner 1 holds globals 2,3 at storage offsets 2,3.
  EXPECT_DOUBLE_EQ(view.f64()[2], 2.0);
  EXPECT_DOUBLE_EQ(view.f64()[3], 3.0);
  // Border cells stay zero-initialised.
  EXPECT_DOUBLE_EQ(view.f64()[0], 0.0);
  EXPECT_DOUBLE_EQ(view.f64()[5], 0.0);
}

TEST_F(ArrayManagerTest, VerifyMatchingBordersIsANoOp) {
  ArrayId id;
  ASSERT_EQ(am_.create_array(0, ElemType::Float64, {8}, util::iota_nodes(4),
                             {DimSpec::block()}, BorderSpec::exact({2, 2}),
                             Indexing::RowMajor, id),
            Status::Ok);
  EXPECT_EQ(am_.verify_array(0, id, 1, BorderSpec::exact({2, 2}),
                             Indexing::RowMajor),
            Status::Ok);
  InfoValue v;
  ASSERT_EQ(am_.find_info(0, id, InfoKind::Borders, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{2, 2}));
}

TEST_F(ArrayManagerTest, VerifyReallocatesAndPreservesInterior) {
  // §4.2.7: mismatching borders cause reallocation + interior copy.
  ArrayId id;
  ASSERT_EQ(am_.create_array(0, ElemType::Float64, {8}, util::iota_nodes(4),
                             {DimSpec::block()}, BorderSpec::exact({2, 2}),
                             Indexing::RowMajor, id),
            Status::Ok);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(am_.write_element(0, id, std::vector<int>{i},
                                Scalar{i + 0.5}),
              Status::Ok);
  }
  ASSERT_EQ(am_.verify_array(0, id, 1, BorderSpec::exact({1, 1}),
                             Indexing::RowMajor),
            Status::Ok);
  InfoValue v;
  ASSERT_EQ(am_.find_info(0, id, InfoKind::Borders, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{1, 1}));
  ASSERT_EQ(am_.find_info(0, id, InfoKind::LocalDimensionsPlus, v),
            Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{4}));
  for (int i = 0; i < 8; ++i) {
    Scalar s;
    ASSERT_EQ(am_.read_element(0, id, std::vector<int>{i}, s), Status::Ok);
    EXPECT_DOUBLE_EQ(std::get<double>(s), i + 0.5) << i;
  }
}

TEST_F(ArrayManagerTest, VerifyRejectsIndexingMismatch) {
  // §4.2.7 example: a verify with the wrong indexing type is
  // STATUS_INVALID.
  ArrayId id;
  ASSERT_EQ(am_.create_array(0, ElemType::Float64, {8, 8},
                             util::iota_nodes(4),
                             {DimSpec::block(), DimSpec::block()},
                             BorderSpec::exact({2, 2, 2, 2}),
                             Indexing::RowMajor, id),
            Status::Ok);
  EXPECT_EQ(am_.verify_array(0, id, 2, BorderSpec::exact({2, 2, 2, 2}),
                             Indexing::ColumnMajor),
            Status::Invalid);
  EXPECT_EQ(am_.verify_array(0, id, 1, BorderSpec::exact({2, 2}),
                             Indexing::RowMajor),
            Status::Invalid);
}

TEST_F(ArrayManagerTest, ForeignBordersConsultTheProvider) {
  // §3.2.1.3 / §4.2.1: border sizes supplied at runtime by the program the
  // array will be passed to.
  int asked_parm = -1;
  am_.set_border_lookup([&](const std::string& program, int parm_num,
                            int ndims, std::vector<int>& out) {
    EXPECT_EQ(program, "fpgm");
    asked_parm = parm_num;
    out.assign(static_cast<std::size_t>(2 * ndims), parm_num);
    return Status::Ok;
  });
  ArrayId id;
  ASSERT_EQ(am_.create_array(0, ElemType::Float64, {8}, util::iota_nodes(4),
                             {DimSpec::block()},
                             BorderSpec::foreign("fpgm", 2),
                             Indexing::RowMajor, id),
            Status::Ok);
  EXPECT_EQ(asked_parm, 2);
  InfoValue v;
  ASSERT_EQ(am_.find_info(0, id, InfoKind::Borders, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{2, 2}));
}

TEST_F(ArrayManagerTest, ForeignBordersWithoutProviderIsInvalid) {
  ArrayId id;
  EXPECT_EQ(am_.create_array(0, ElemType::Float64, {8}, util::iota_nodes(4),
                             {DimSpec::block()},
                             BorderSpec::foreign("nobody", 1),
                             Indexing::RowMajor, id),
            Status::Invalid);
}

TEST_F(ArrayManagerTest, ReadSectionSnapshotsInteriorAsPayload) {
  // 16 elements blocked over 4 owners: each shard (local section) holds 4
  // doubles, and shard k starts on processor k.
  ArrayId id = make_vector(16, util::iota_nodes(4));
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(am_.write_element(0, id, std::vector<int>{i},
                                Scalar{static_cast<double>(i)}),
              Status::Ok);
  }
  for (int owner = 0; owner < 4; ++owner) {
    vp::Payload snap;
    ASSERT_EQ(am_.read_shard(owner, id, owner, snap), Status::Ok);
    ASSERT_EQ(snap.size(), 4 * sizeof(double));
    const double* vals = reinterpret_cast<const double*>(snap.data());
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(vals[k], static_cast<double>(owner * 4 + k));
    }
    // The snapshot is a refcounted handle: shipping it to more consumers
    // bumps the count, never copies the buffer.
    const vp::Payload shared = snap;
    EXPECT_EQ(shared.use_count(), 2);
    EXPECT_EQ(shared.data(), snap.data());
  }
}

TEST_F(ArrayManagerTest, WriteSectionOverwritesInteriorAndValidatesSize) {
  ArrayId id = make_vector(16, util::iota_nodes(4));
  std::vector<std::byte> bytes(4 * sizeof(double));
  double vals[4] = {1.5, 2.5, 3.5, 4.5};
  std::memcpy(bytes.data(), vals, sizeof(vals));
  ASSERT_EQ(am_.write_shard(2, id, 2, vp::Payload::take(std::move(bytes))),
            Status::Ok);
  for (int k = 0; k < 4; ++k) {
    Scalar out;
    ASSERT_EQ(am_.read_element(0, id, std::vector<int>{8 + k}, out),
              Status::Ok);
    EXPECT_EQ(scalar_to_double(out), vals[k]);
  }
  // Wrong size: rejected, nothing written.
  EXPECT_EQ(am_.write_shard(2, id, 2, vp::Payload::zeros(7)),
            Status::Invalid);
  for (int k = 0; k < 4; ++k) {
    Scalar out;
    ASSERT_EQ(am_.read_element(0, id, std::vector<int>{8 + k}, out),
              Status::Ok);
    EXPECT_EQ(scalar_to_double(out), vals[k]);
  }
  // A shard outside the grid is Invalid; a processor holding no replica of
  // the array gets NotFound.
  vp::Payload snap;
  EXPECT_EQ(am_.read_shard(2, id, 4, snap), Status::Invalid);
  EXPECT_EQ(am_.read_shard(5, id, 2, snap), Status::NotFound);
  EXPECT_EQ(am_.write_shard(5, id, 2, vp::Payload::zeros(4 * sizeof(double))),
            Status::NotFound);
}

TEST_F(ArrayManagerTest, SectionRoundTripStripsBorders) {
  // Borders of one element on each side: the section's storage is larger
  // than its interior, so read/write_shard must walk the interior only.
  ArrayId id;
  ASSERT_EQ(am_.create_array(0, ElemType::Int32, {8}, util::iota_nodes(2),
                             {DimSpec::block()}, BorderSpec::exact({1, 1}),
                             Indexing::RowMajor, id),
            Status::Ok);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(am_.write_element(0, id, std::vector<int>{i}, Scalar{i * 11}),
              Status::Ok);
  }
  vp::Payload snap;
  ASSERT_EQ(am_.read_shard(1, id, 1, snap), Status::Ok);
  ASSERT_EQ(snap.size(), 4 * sizeof(int));
  const int* vals = reinterpret_cast<const int*>(snap.data());
  for (int k = 0; k < 4; ++k) EXPECT_EQ(vals[k], (4 + k) * 11);

  // Round-trip: write shard 1's snapshot into shard 0.
  ASSERT_EQ(am_.write_shard(0, id, 0, snap), Status::Ok);
  for (int k = 0; k < 4; ++k) {
    Scalar out;
    ASSERT_EQ(am_.read_element(0, id, std::vector<int>{k}, out), Status::Ok);
    EXPECT_EQ(scalar_to_int(out), (4 + k) * 11);
  }
}

TEST_F(ArrayManagerTest, CreateValidatesItsParameters) {
  ArrayId id;
  // Bad processor number.
  EXPECT_EQ(am_.create_array(0, ElemType::Float64, {8}, {0, 99},
                             {DimSpec::block()}, BorderSpec::none(),
                             Indexing::RowMajor, id),
            Status::Invalid);
  // Duplicate owners.
  EXPECT_EQ(am_.create_array(0, ElemType::Float64, {8}, {1, 1},
                             {DimSpec::block()}, BorderSpec::none(),
                             Indexing::RowMajor, id),
            Status::Invalid);
  // Distribution arity mismatch.
  EXPECT_EQ(am_.create_array(0, ElemType::Float64, {8, 8},
                             util::iota_nodes(4), {DimSpec::block()},
                             BorderSpec::none(), Indexing::RowMajor, id),
            Status::Invalid);
  // Bad border vector length.
  EXPECT_EQ(am_.create_array(0, ElemType::Float64, {8}, util::iota_nodes(4),
                             {DimSpec::block()}, BorderSpec::exact({1}),
                             Indexing::RowMajor, id),
            Status::Invalid);
  // Negative border.
  EXPECT_EQ(am_.create_array(0, ElemType::Float64, {8}, util::iota_nodes(4),
                             {DimSpec::block()}, BorderSpec::exact({-1, 0}),
                             Indexing::RowMajor, id),
            Status::Invalid);
}

TEST_F(ArrayManagerTest, GridSmallerThanProcessorListUsesPrefix) {
  // §3.2.1.1: grid product may be less than the processor count; sections
  // go to the first grid-product processors of the list.
  ArrayId id;
  ASSERT_EQ(am_.create_array(0, ElemType::Float64, {4},
                             util::node_array(5, -1, 4),  // 5,4,3,2
                             {DimSpec::block_n(2)}, BorderSpec::none(),
                             Indexing::RowMajor, id),
            Status::Ok);
  InfoValue v;
  ASSERT_EQ(am_.find_info(0, id, InfoKind::Processors, v), Status::Ok);
  EXPECT_EQ(std::get<std::vector<int>>(v), (std::vector<int>{5, 4}));
  LocalSectionView view;
  EXPECT_EQ(am_.find_local(5, id, view), Status::Ok);
  EXPECT_EQ(am_.find_local(3, id, view), Status::NotFound);
}

TEST_F(ArrayManagerTest, TraceHookReportsEveryOperation) {
  // §B.3: the am_debug version produces a trace message per operation.
  std::vector<std::string> ops;
  std::vector<Status> stats;
  am_.set_trace([&](std::string_view op, int on_proc, ArrayId id, Status st) {
    (void)on_proc;
    (void)id;
    ops.emplace_back(op);
    stats.push_back(st);
  });
  ArrayId id = make_vector(8, util::iota_nodes(4));
  Scalar v;
  am_.write_element(0, id, std::vector<int>{0}, Scalar{1.0});
  am_.read_element(0, id, std::vector<int>{0}, v);
  LocalSectionView view;
  am_.find_local(1, id, view);
  InfoValue info;
  am_.find_info(0, id, InfoKind::Type, info);
  am_.verify_array(0, id, 1, BorderSpec::none(), Indexing::RowMajor);
  am_.free_array(0, id);
  am_.free_array(0, id);  // NotFound, still traced

  EXPECT_EQ(ops, (std::vector<std::string>{
                     "create_array", "write_element", "read_element",
                     "find_local", "find_info", "verify_array", "free_array",
                     "free_array"}));
  EXPECT_EQ(stats.back(), Status::NotFound);
  for (std::size_t i = 0; i + 1 < stats.size(); ++i) {
    EXPECT_EQ(stats[i], Status::Ok) << ops[i];
  }
  // Returning to the silent version stops tracing.
  am_.set_trace(nullptr);
  ArrayId id2 = make_vector(8, util::iota_nodes(4));
  (void)id2;
  EXPECT_EQ(ops.size(), 8u);
}

TEST_F(ArrayManagerTest, ConcurrentCreateFreeFromManyProcessors) {
  // Thread-safety of the manager under concurrent global requests issued
  // from different processors (each array-manager process serves its own
  // node, §5.1.1).
  pcn::ProcessGroup group;
  std::atomic<int> failures{0};
  for (int p = 0; p < 8; ++p) {
    group.spawn_on(machine_, p, [&, p] {
      for (int round = 0; round < 20; ++round) {
        ArrayId id;
        if (!ok(am_.create_array(p, ElemType::Float64, {16},
                                 util::iota_nodes(4), {DimSpec::block()},
                                 BorderSpec::none(), Indexing::RowMajor,
                                 id))) {
          ++failures;
          continue;
        }
        Scalar v;
        if (!ok(am_.write_element(p, id, std::vector<int>{round % 16},
                                  Scalar{1.0 * round}))) {
          ++failures;
        }
        if (!ok(am_.read_element(p, id, std::vector<int>{round % 16}, v)) ||
            std::get<double>(v) != 1.0 * round) {
          ++failures;
        }
        if (!ok(am_.free_array(p, id))) ++failures;
      }
    });
  }
  group.join();
  EXPECT_EQ(failures.load(), 0);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(am_.records_on(p), 0u) << p;
  }
}

struct SweepCase {
  std::vector<int> dims;
  std::vector<DimSpec> distrib;
  Indexing indexing;
  int nprocs;
};

/// Prints "d12x8_b3b2_col_p6" — dims, one letter per DimSpec (b = block,
/// bN = block_n(N), s = star), indexing, processors — so gtest lists the
/// case by this text (its ctest name), not by raw bytes.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "d";
  for (std::size_t i = 0; i < c.dims.size(); ++i) {
    *os << (i != 0 ? "x" : "") << c.dims[i];
  }
  *os << "_";
  for (const DimSpec& d : c.distrib) {
    *os << (d.kind == DimSpec::Kind::Star ? "s" : "b");
    if (d.kind == DimSpec::Kind::BlockN) *os << d.n;
  }
  *os << (c.indexing == Indexing::RowMajor ? "_row" : "_col") << "_p"
      << c.nprocs;
}

class ElementSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ElementSweep, WriteReadRoundTripsEverywhere) {
  const SweepCase& c = GetParam();
  vp::Machine machine(c.nprocs);
  ArrayManager am(machine);
  ArrayId id;
  ASSERT_EQ(am.create_array(0, ElemType::Float64, c.dims,
                            util::iota_nodes(c.nprocs), c.distrib,
                            BorderSpec::none(), c.indexing, id),
            Status::Ok);
  const long long n = element_count(c.dims);
  for (long long lin = 0; lin < n; ++lin) {
    std::vector<int> idx = delinearize(lin, c.dims, c.indexing);
    ASSERT_EQ(am.write_element(0, id, idx,
                               Scalar{static_cast<double>(lin) + 0.25}),
              Status::Ok);
  }
  for (long long lin = 0; lin < n; ++lin) {
    std::vector<int> idx = delinearize(lin, c.dims, c.indexing);
    Scalar v;
    ASSERT_EQ(am.read_element(0, id, idx, v), Status::Ok);
    EXPECT_DOUBLE_EQ(std::get<double>(v), static_cast<double>(lin) + 0.25);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, ElementSweep,
    ::testing::Values(
        SweepCase{{16}, {DimSpec::block()}, Indexing::RowMajor, 4},
        SweepCase{{12, 8},
                  {DimSpec::block_n(3), DimSpec::block_n(2)},
                  Indexing::RowMajor,
                  6},
        SweepCase{{12, 8},
                  {DimSpec::block_n(3), DimSpec::block_n(2)},
                  Indexing::ColumnMajor,
                  6},
        SweepCase{{8, 6}, {DimSpec::block(), DimSpec::star()},
                  Indexing::RowMajor, 4},
        SweepCase{{4, 4, 4},
                  {DimSpec::block(), DimSpec::block(), DimSpec::block()},
                  Indexing::ColumnMajor,
                  8}));

}  // namespace
}  // namespace tdp::dist
