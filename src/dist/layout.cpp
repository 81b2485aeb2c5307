#include "dist/layout.hpp"

#include "util/bits.hpp"

namespace tdp::dist {

const char* to_string(ElemType t) {
  return t == ElemType::Int32 ? "int" : "double";
}

const char* to_string(Indexing ix) {
  return ix == Indexing::RowMajor ? "row" : "column";
}

Status compute_grid(const std::vector<int>& dims, int nprocs,
                    const std::vector<DimSpec>& spec,
                    std::vector<int>& grid_out) {
  const std::size_t n = dims.size();
  if (n == 0 || spec.size() != n || nprocs <= 0) return Status::Invalid;
  for (int d : dims) {
    if (d <= 0) return Status::Invalid;
  }

  grid_out.assign(n, 0);
  long long specified_product = 1;
  int unspecified = 0;
  for (std::size_t d = 0; d < n; ++d) {
    switch (spec[d].kind) {
      case DimSpec::Kind::Star:
        grid_out[d] = 1;
        specified_product *= 1;
        break;
      case DimSpec::Kind::BlockN:
        if (spec[d].n <= 0) return Status::Invalid;
        grid_out[d] = spec[d].n;
        specified_product *= spec[d].n;
        break;
      case DimSpec::Kind::Block:
        ++unspecified;
        break;
    }
  }
  // A fully-specified grid may exceed nprocs (oversharding): the extra
  // cells wrap round-robin onto the processor list at placement time.
  if (unspecified > 0) {
    if (nprocs % specified_product != 0) return Status::Invalid;
    const long long quotient = nprocs / specified_product;
    std::int64_t root = 0;
    if (!util::exact_iroot(quotient, unspecified, &root) || root <= 0) {
      return Status::Invalid;
    }
    for (std::size_t d = 0; d < n; ++d) {
      if (spec[d].kind == DimSpec::Kind::Block) {
        grid_out[d] = static_cast<int>(root);
      }
    }
  }

  for (std::size_t d = 0; d < n; ++d) {
    if (grid_out[d] <= 0) return Status::Invalid;
    // Uneven trailing blocks are fine; an *empty* trailing cell is not —
    // with block = ceil(dims/grid), the first grid-1 cells must not already
    // cover the whole dimension.
    const long long block =
        (static_cast<long long>(dims[d]) + grid_out[d] - 1) / grid_out[d];
    if (static_cast<long long>(grid_out[d] - 1) * block >= dims[d]) {
      return Status::Invalid;
    }
  }
  return Status::Ok;
}

long long grid_cells(const std::vector<int>& grid) {
  long long cells = 1;
  for (int g : grid) cells *= g;
  return cells;
}

std::vector<int> local_dims(const std::vector<int>& dims,
                            const std::vector<int>& grid) {
  std::vector<int> out(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) {
    out[d] = static_cast<int>(
        (static_cast<long long>(dims[d]) + grid[d] - 1) / grid[d]);
  }
  return out;
}

std::vector<int> cell_dims(std::span<const int> dims,
                           std::span<const int> grid,
                           std::span<const int> grid_pos) {
  std::vector<int> out(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) {
    const long long block =
        (static_cast<long long>(dims[d]) + grid[d] - 1) / grid[d];
    const long long remaining =
        static_cast<long long>(dims[d]) - grid_pos[d] * block;
    out[d] = static_cast<int>(remaining < block ? remaining : block);
  }
  return out;
}

std::vector<int> dims_plus_borders(const std::vector<int>& interior,
                                   const std::vector<int>& borders) {
  std::vector<int> out(interior.size());
  for (std::size_t d = 0; d < interior.size(); ++d) {
    out[d] = interior[d] + borders[2 * d] + borders[2 * d + 1];
  }
  return out;
}

namespace {

/// linearize() over index and extent functions of the dimension, so callers
/// that derive either on the fly (borders, the global-to-local split) build
/// no temporary vectors.
template <class At, class Extent>
long long linearize_with(std::size_t n, At at, Extent extent,
                         Indexing ordering) {
  long long lin = 0;
  if (ordering == Indexing::RowMajor) {
    for (std::size_t d = 0; d < n; ++d) lin = lin * extent(d) + at(d);
  } else {
    for (std::size_t d = n; d-- > 0;) lin = lin * extent(d) + at(d);
  }
  return lin;
}

}  // namespace

long long linearize(std::span<const int> idx, std::span<const int> dims,
                    Indexing ordering) {
  return linearize_with(
      dims.size(), [&](std::size_t d) { return idx[d]; },
      [&](std::size_t d) { return dims[d]; }, ordering);
}

std::vector<int> delinearize(long long lin, std::span<const int> dims,
                             Indexing ordering) {
  std::vector<int> idx(dims.size(), 0);
  if (ordering == Indexing::RowMajor) {
    for (std::size_t d = dims.size(); d-- > 0;) {
      idx[d] = static_cast<int>(lin % dims[d]);
      lin /= dims[d];
    }
  } else {
    for (std::size_t d = 0; d < dims.size(); ++d) {
      idx[d] = static_cast<int>(lin % dims[d]);
      lin /= dims[d];
    }
  }
  return idx;
}

GlobalMap map_global(std::span<const int> global_idx,
                     std::span<const int> local_dims) {
  GlobalMap out;
  out.grid_pos.resize(global_idx.size());
  out.local_idx.resize(global_idx.size());
  for (std::size_t d = 0; d < global_idx.size(); ++d) {
    out.grid_pos[d] = global_idx[d] / local_dims[d];
    out.local_idx[d] = global_idx[d] % local_dims[d];
  }
  return out;
}

std::vector<int> unmap_global(std::span<const int> grid_pos,
                              std::span<const int> local_idx,
                              std::span<const int> local_dims) {
  std::vector<int> out(grid_pos.size());
  for (std::size_t d = 0; d < grid_pos.size(); ++d) {
    out[d] = grid_pos[d] * local_dims[d] + local_idx[d];
  }
  return out;
}

long long local_offset(std::span<const int> local_idx,
                       std::span<const int> interior_dims,
                       std::span<const int> borders, Indexing ordering) {
  return linearize_with(
      local_idx.size(),
      [&](std::size_t d) { return local_idx[d] + borders[2 * d]; },
      [&](std::size_t d) {
        return interior_dims[d] + borders[2 * d] + borders[2 * d + 1];
      },
      ordering);
}

long long element_offset(std::span<const int> global_idx,
                         std::span<const int> local_dims,
                         std::span<const int> interior_dims,
                         std::span<const int> borders, Indexing ordering) {
  return linearize_with(
      global_idx.size(),
      [&](std::size_t d) {
        return global_idx[d] % local_dims[d] + borders[2 * d];
      },
      [&](std::size_t d) {
        return interior_dims[d] + borders[2 * d] + borders[2 * d + 1];
      },
      ordering);
}

long long shard_rank(std::span<const int> global_idx,
                     std::span<const int> local_dims,
                     std::span<const int> grid_dims, Indexing grid_ordering) {
  return linearize_with(
      grid_dims.size(),
      [&](std::size_t d) { return global_idx[d] / local_dims[d]; },
      [&](std::size_t d) { return grid_dims[d]; }, grid_ordering);
}

long long grid_rank(std::span<const int> grid_pos,
                    std::span<const int> grid_dims, Indexing grid_ordering) {
  return linearize(grid_pos, grid_dims, grid_ordering);
}

bool indices_in_range(std::span<const int> idx, std::span<const int> dims) {
  if (idx.size() != dims.size()) return false;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    if (idx[d] < 0 || idx[d] >= dims[d]) return false;
  }
  return true;
}

long long element_count(std::span<const int> dims) {
  long long n = 1;
  for (int d : dims) n *= d;
  return n;
}

}  // namespace tdp::dist
