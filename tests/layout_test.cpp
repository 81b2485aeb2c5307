// Unit and property tests for decomposition / index arithmetic (§3.2.1),
// including the worked examples of the thesis text.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "dist/layout.hpp"

namespace tdp::dist {
namespace {

std::vector<DimSpec> blocks(std::size_t n) {
  return std::vector<DimSpec>(n, DimSpec::block());
}

TEST(Grid, DefaultSquareGrid) {
  // §3.2.1.2: a 2-D array over 16 processors defaults to a 4x4 grid.
  std::vector<int> grid;
  ASSERT_EQ(compute_grid({400, 200}, 16, blocks(2), grid), Status::Ok);
  EXPECT_EQ(grid, (std::vector<int>{4, 4}));
  EXPECT_EQ(local_dims({400, 200}, grid), (std::vector<int>{100, 50}));
}

TEST(Grid, PartiallySpecifiedThesisExample) {
  // §3.2.1.2: 3-D array over 32 processors, second grid dim pinned to 2
  // => 4 x 2 x 4.
  std::vector<int> grid;
  std::vector<DimSpec> spec{DimSpec::block(), DimSpec::block_n(2),
                            DimSpec::block()};
  ASSERT_EQ(compute_grid({64, 32, 64}, 32, spec, grid), Status::Ok);
  EXPECT_EQ(grid, (std::vector<int>{4, 2, 4}));
}

TEST(Grid, FullySpecifiedDecomposition) {
  // §3.2.1.2 figure 3.6: (block(2), block(8)) over 16 => 2x8 grid,
  // 200x25 local sections.
  std::vector<int> grid;
  std::vector<DimSpec> spec{DimSpec::block_n(2), DimSpec::block_n(8)};
  ASSERT_EQ(compute_grid({400, 200}, 16, spec, grid), Status::Ok);
  EXPECT_EQ(grid, (std::vector<int>{2, 8}));
  EXPECT_EQ(local_dims({400, 200}, grid), (std::vector<int>{200, 25}));
}

TEST(Grid, StarMeansNoDecomposition) {
  // §3.2.1.2 figure 3.6: (block, *) over 16 => 16x1 grid, 25x200 sections.
  std::vector<int> grid;
  std::vector<DimSpec> spec{DimSpec::block(), DimSpec::star()};
  ASSERT_EQ(compute_grid({400, 200}, 16, spec, grid), Status::Ok);
  EXPECT_EQ(grid, (std::vector<int>{16, 1}));
  EXPECT_EQ(local_dims({400, 200}, grid), (std::vector<int>{25, 200}));
}

TEST(Grid, MixedSpecifiedAndDefault) {
  // block(2), block over 16: Q=2, remaining dim = 16/2 = 8.
  std::vector<int> grid;
  std::vector<DimSpec> spec{DimSpec::block_n(2), DimSpec::block()};
  ASSERT_EQ(compute_grid({400, 200}, 16, spec, grid), Status::Ok);
  EXPECT_EQ(grid, (std::vector<int>{2, 8}));
}

TEST(Grid, RejectsNonSquareDefault) {
  // 2-D over 8 processors: sqrt(8) is not an integer.
  std::vector<int> grid;
  EXPECT_EQ(compute_grid({16, 16}, 8, blocks(2), grid), Status::Invalid);
}

TEST(Grid, AcceptsNonDividingGridDimension) {
  // Uneven trailing blocks: 16 elements over 3 cells is blocks {6, 6, 4} —
  // the uniform block is ceil(16/3) = 6 and the trailing cell is clipped.
  std::vector<int> grid;
  std::vector<DimSpec> spec{DimSpec::block_n(3)};
  ASSERT_EQ(compute_grid({16}, 4, spec, grid), Status::Ok);
  EXPECT_EQ(grid, (std::vector<int>{3}));
  EXPECT_EQ(local_dims({16}, grid), (std::vector<int>{6}));
  EXPECT_EQ(cell_dims(std::vector<int>{16}, grid, std::vector<int>{0}),
            (std::vector<int>{6}));
  EXPECT_EQ(cell_dims(std::vector<int>{16}, grid, std::vector<int>{2}),
            (std::vector<int>{4}));
}

TEST(Grid, RejectsGridWithEmptyTrailingCell) {
  // 5 cells of ceil(16/5) = 4 would cover 16 elements in the first four
  // cells and leave the fifth empty — that grid is rejected.
  std::vector<int> grid;
  std::vector<DimSpec> spec{DimSpec::block_n(5)};
  EXPECT_EQ(compute_grid({16}, 8, spec, grid), Status::Invalid);
}

TEST(Grid, AcceptsOversizedGridAsOversharding) {
  // A 3x3 grid over 8 processors used to be rejected; with sharded
  // placement the ninth cell wraps round-robin onto the processor list.
  std::vector<int> grid;
  std::vector<DimSpec> spec{DimSpec::block_n(3), DimSpec::block_n(3)};
  ASSERT_EQ(compute_grid({9, 9}, 8, spec, grid), Status::Ok);
  EXPECT_EQ(grid_cells(grid), 9);
}

TEST(Grid, AcceptsGridSmallerThanProcessorCount) {
  // §3.2.1.1: any grid whose product is <= P is acceptable.
  std::vector<int> grid;
  std::vector<DimSpec> spec{DimSpec::block_n(2), DimSpec::block_n(4)};
  ASSERT_EQ(compute_grid({8, 8}, 16, spec, grid), Status::Ok);
  EXPECT_EQ(grid_cells(grid), 8);
}

TEST(Grid, RejectsMalformedInput) {
  std::vector<int> grid;
  EXPECT_EQ(compute_grid({}, 4, {}, grid), Status::Invalid);
  EXPECT_EQ(compute_grid({8}, 0, blocks(1), grid), Status::Invalid);
  EXPECT_EQ(compute_grid({8, 8}, 4, blocks(1), grid), Status::Invalid);
  EXPECT_EQ(compute_grid({-8}, 4, blocks(1), grid), Status::Invalid);
  std::vector<DimSpec> bad{DimSpec::block_n(0)};
  EXPECT_EQ(compute_grid({8}, 4, bad, grid), Status::Invalid);
}

TEST(Linearize, RowMajorVariesLastIndexFastest) {
  std::vector<int> dims{2, 3};
  EXPECT_EQ(linearize(std::vector<int>{0, 0}, dims, Indexing::RowMajor), 0);
  EXPECT_EQ(linearize(std::vector<int>{0, 1}, dims, Indexing::RowMajor), 1);
  EXPECT_EQ(linearize(std::vector<int>{1, 0}, dims, Indexing::RowMajor), 3);
  EXPECT_EQ(linearize(std::vector<int>{1, 2}, dims, Indexing::RowMajor), 5);
}

TEST(Linearize, ColumnMajorVariesFirstIndexFastest) {
  std::vector<int> dims{2, 3};
  EXPECT_EQ(linearize(std::vector<int>{0, 0}, dims, Indexing::ColumnMajor), 0);
  EXPECT_EQ(linearize(std::vector<int>{1, 0}, dims, Indexing::ColumnMajor), 1);
  EXPECT_EQ(linearize(std::vector<int>{0, 1}, dims, Indexing::ColumnMajor), 2);
  EXPECT_EQ(linearize(std::vector<int>{1, 2}, dims, Indexing::ColumnMajor), 5);
}

struct ShapeCase {
  std::vector<int> dims;
  Indexing ordering;
};

/// Prints "4x5" for {4, 5}.
void print_dims(const std::vector<int>& dims, std::ostream* os) {
  for (std::size_t i = 0; i < dims.size(); ++i) {
    *os << (i != 0 ? "x" : "") << dims[i];
  }
}

/// Prints "d4x5_col": gtest lists the case by this text (its ctest name),
/// not by raw bytes.
void PrintTo(const ShapeCase& c, std::ostream* os) {
  *os << "d";
  print_dims(c.dims, os);
  *os << (c.ordering == Indexing::RowMajor ? "_row" : "_col");
}

class LinearizeRoundTrip : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(LinearizeRoundTrip, DelinearizeInvertsLinearize) {
  const auto& [dims, ordering] = GetParam();
  const long long n = element_count(dims);
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (long long lin = 0; lin < n; ++lin) {
    std::vector<int> idx = delinearize(lin, dims, ordering);
    EXPECT_TRUE(indices_in_range(idx, dims));
    const long long back = linearize(idx, dims, ordering);
    EXPECT_EQ(back, lin);
    seen[static_cast<std::size_t>(lin)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LinearizeRoundTrip,
    ::testing::Values(ShapeCase{{7}, Indexing::RowMajor},
                      ShapeCase{{4, 5}, Indexing::RowMajor},
                      ShapeCase{{4, 5}, Indexing::ColumnMajor},
                      ShapeCase{{2, 3, 4}, Indexing::RowMajor},
                      ShapeCase{{2, 3, 4}, Indexing::ColumnMajor},
                      ShapeCase{{3, 1, 2, 2}, Indexing::RowMajor}));

struct MapCase {
  std::vector<int> dims;
  std::vector<int> grid;
};

/// Prints "d16x16_g4x2" (array extents, processor grid).
void PrintTo(const MapCase& c, std::ostream* os) {
  *os << "d";
  print_dims(c.dims, os);
  *os << "_g";
  print_dims(c.grid, os);
}

class GlobalMapBijection : public ::testing::TestWithParam<MapCase> {};

TEST_P(GlobalMapBijection, EveryGlobalIndexMapsToExactlyOneLocalSlot) {
  // §3.2.1.1: each global N-tuple corresponds to exactly one
  // {grid position, local index} pair, and conversely.
  const auto& [dims, grid] = GetParam();
  const std::vector<int> loc = local_dims(dims, grid);
  const long long n = element_count(dims);
  std::set<std::pair<long long, long long>> slots;
  for (long long lin = 0; lin < n; ++lin) {
    std::vector<int> gidx = delinearize(lin, dims, Indexing::RowMajor);
    GlobalMap m = map_global(gidx, loc);
    EXPECT_TRUE(indices_in_range(m.grid_pos, grid));
    EXPECT_TRUE(indices_in_range(m.local_idx, loc));
    const long long rank = grid_rank(m.grid_pos, grid, Indexing::RowMajor);
    const long long off = linearize(m.local_idx, loc, Indexing::RowMajor);
    EXPECT_TRUE(slots.insert({rank, off}).second) << "collision at lin " << lin;
    EXPECT_EQ(unmap_global(m.grid_pos, m.local_idx, loc), gidx);
  }
  EXPECT_EQ(static_cast<long long>(slots.size()), n);
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, GlobalMapBijection,
    ::testing::Values(MapCase{{16}, {4}}, MapCase{{16, 16}, {4, 2}},
                      MapCase{{12, 10}, {3, 5}},
                      MapCase{{8, 8, 8}, {2, 2, 2}},
                      MapCase{{6, 4, 2}, {3, 1, 2}}));

TEST(Borders, OffsetSkipsLeadingBorder) {
  // Figure 3.7: a 4x2 local section with borders of 2 above/below and 1 on
  // either side of each row.  Storage is (4+4) x (2+2) row-major; interior
  // (0,0) sits at storage (2,1).
  std::vector<int> interior{4, 2};
  std::vector<int> borders{2, 2, 1, 1};
  EXPECT_EQ(dims_plus_borders(interior, borders), (std::vector<int>{8, 4}));
  EXPECT_EQ(local_offset(std::vector<int>{0, 0}, interior, borders,
                         Indexing::RowMajor),
            2 * 4 + 1);
  EXPECT_EQ(local_offset(std::vector<int>{3, 1}, interior, borders,
                         Indexing::RowMajor),
            5 * 4 + 2);
}

TEST(Borders, ZeroBordersIsPlainLinearize) {
  std::vector<int> interior{3, 5};
  std::vector<int> borders{0, 0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(local_offset(std::vector<int>{i, j}, interior, borders,
                             Indexing::RowMajor),
                linearize(std::vector<int>{i, j}, interior,
                          Indexing::RowMajor));
    }
  }
}

TEST(GridRank, Figure38RowVersusColumnMajor) {
  // Figure 3.8: 4x4 array over processors (0,2,4,6), 2x2 grid, local
  // sections 2x2.  Global element (0,2) lives at grid position (0,1):
  // row-major ordering assigns it processor 2; column-major processor 4.
  std::vector<int> grid{2, 2};
  std::vector<int> procs{0, 2, 4, 6};
  std::vector<int> pos{0, 1};
  EXPECT_EQ(procs[static_cast<std::size_t>(
                grid_rank(pos, grid, Indexing::RowMajor))],
            2);
  EXPECT_EQ(procs[static_cast<std::size_t>(
                grid_rank(pos, grid, Indexing::ColumnMajor))],
            4);
}

}  // namespace
}  // namespace tdp::dist
