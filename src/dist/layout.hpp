// Block decomposition, processor grids and index arithmetic (§3.2.1).
//
// An N-dimensional array is partitioned into N-dimensional contiguous
// subarrays (local sections) and distributed over an N-dimensional processor
// grid.  Each N-tuple of global indices corresponds to exactly one
// {processor-grid position, local-indices} pair and conversely (§3.2.1.1).
// All functions here are pure; they are the substrate for both the array
// manager and the tests' property sweeps.
#pragma once

#include <span>
#include <vector>

#include "dist/types.hpp"
#include "util/status.hpp"

namespace tdp::dist {

/// Computes the processor-grid dimensions for distributing an array with
/// the given global `dims` over `nprocs` processors under `spec`
/// (§3.2.1.2).  Rules:
///   * block(N) pins the grid dimension to N; * pins it to 1; both count as
///     "specified" dimensions with product Q.
///   * every unspecified (plain block) dimension becomes
///     (nprocs/Q)^(1/#unspecified), which must be a positive integer.
///   * block sizes are ceil(dims[d] / grid[d]); the trailing cell in each
///     dimension may be smaller (uneven blocks), but no grid dimension may
///     leave the trailing cell empty.
///   * the grid-cell count may exceed nprocs: cells beyond the processor
///     list wrap round-robin onto it (oversharding — more shards than
///     owners, the substrate for load-driven rebalancing).
/// Returns Status::Invalid on any violation.
Status compute_grid(const std::vector<int>& dims, int nprocs,
                    const std::vector<DimSpec>& spec,
                    std::vector<int>& grid_out);

/// Number of grid cells = number of local sections = number of shards.
long long grid_cells(const std::vector<int>& grid);

/// Uniform block dimensions: ceil(dims[d] / grid[d]) elementwise.  All
/// cells except the trailing one in each dimension have exactly this
/// interior; index arithmetic (map_global/unmap_global) uses it uniformly.
std::vector<int> local_dims(const std::vector<int>& dims,
                            const std::vector<int>& grid);

/// The actual interior of the cell at `grid_pos`: the uniform block size
/// clipped against the array bounds, min(block[d], dims[d] - pos*block[d]).
/// Equal to local_dims() everywhere when every grid dimension divides the
/// array dimension.
std::vector<int> cell_dims(std::span<const int> dims,
                           std::span<const int> grid,
                           std::span<const int> grid_pos);

/// Local-section dimensions including borders: interior[d] + borders[2d] +
/// borders[2d+1].
std::vector<int> dims_plus_borders(const std::vector<int>& interior,
                                   const std::vector<int>& borders);

/// Linearises a multi-index into `dims` under the given ordering.  Row-major
/// varies the last index fastest; column-major the first.
long long linearize(std::span<const int> idx, std::span<const int> dims,
                    Indexing ordering);

/// Inverse of linearize.
std::vector<int> delinearize(long long lin, std::span<const int> dims,
                             Indexing ordering);

/// Decomposes a global index into the owning grid position and the local
/// index within that owner's interior.
struct GlobalMap {
  std::vector<int> grid_pos;
  std::vector<int> local_idx;
};
GlobalMap map_global(std::span<const int> global_idx,
                     std::span<const int> local_dims);

/// Recomposes a global index from a grid position and local index.
std::vector<int> unmap_global(std::span<const int> grid_pos,
                              std::span<const int> local_idx,
                              std::span<const int> local_dims);

/// Storage offset (in elements) of an interior local index within a local
/// section that carries `borders`; the interior is shifted by the leading
/// border in each dimension.
long long local_offset(std::span<const int> local_idx,
                       std::span<const int> interior_dims,
                       std::span<const int> borders, Indexing ordering);

/// local_offset(map_global(global_idx, local_dims).local_idx, ...): the
/// storage offset of a global index within the section of the cell that
/// holds it, computed without building the GlobalMap.
long long element_offset(std::span<const int> global_idx,
                         std::span<const int> local_dims,
                         std::span<const int> interior_dims,
                         std::span<const int> borders, Indexing ordering);

/// grid_rank(map_global(global_idx, local_dims).grid_pos, ...): the rank of
/// the shard (grid cell) holding a global index, computed without building
/// the GlobalMap.
long long shard_rank(std::span<const int> global_idx,
                     std::span<const int> local_dims,
                     std::span<const int> grid_dims, Indexing grid_ordering);

/// Rank of a grid position in the 1-dimensional processors array, using the
/// grid's indexing type (§3.2.1.4).
long long grid_rank(std::span<const int> grid_pos,
                    std::span<const int> grid_dims, Indexing grid_ordering);

/// True when every index is within [0, dims[d]).
bool indices_in_range(std::span<const int> idx, std::span<const int> dims);

/// Total element count of a shape.
long long element_count(std::span<const int> dims);

}  // namespace tdp::dist
