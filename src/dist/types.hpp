// Common types of the distributed-array subsystem (thesis §3.2, §4.2).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "util/status.hpp"

namespace tdp::dist {

/// Element types supported by the prototype ("int" or "double", §4.2.1).
enum class ElemType { Int32, Float64 };

inline constexpr std::size_t elem_size(ElemType t) {
  return t == ElemType::Int32 ? sizeof(int) : sizeof(double);
}

const char* to_string(ElemType t);

/// Row-major ("C") or column-major ("Fortran") indexing (§3.2.1.3).  The
/// choice applies to both the array and its processor grid (§3.2.1.4).
enum class Indexing { RowMajor, ColumnMajor };

const char* to_string(Indexing ix);

/// Globally-unique array identifier (§4.1.3): the processor number on which
/// the creation request was made plus a per-processor sequence number.
struct ArrayId {
  int creator = -1;
  std::uint64_t seq = 0;

  friend auto operator<=>(const ArrayId&, const ArrayId&) = default;
  bool valid() const { return creator >= 0; }
};

/// Per-dimension decomposition specification (§3.2.1.2):
///   block      — grid dimension takes the default ("square" grid) value
///   block(N)   — grid dimension is exactly N
///   *          — grid dimension is 1 (no decomposition along this axis)
struct DimSpec {
  enum class Kind { Block, BlockN, Star };
  Kind kind = Kind::Block;
  int n = 0;  ///< grid size for BlockN

  static DimSpec block() { return {Kind::Block, 0}; }
  static DimSpec block_n(int n) { return {Kind::BlockN, n}; }
  static DimSpec star() { return {Kind::Star, 0}; }
};

/// Callback resolving `foreign_borders` requests: given the program name and
/// the parameter number the array will be passed as, produce the 2*ndims
/// border sizes (the `Program_` routine of §3.2.1.3 / §4.2.1).
using BorderLookup = std::function<Status(
    const std::string& program, int parm_num, int ndims,
    std::vector<int>& borders_out)>;

/// Border specification for local sections (§4.2.1 Border_info):
///   none                  — local sections have no borders
///   explicit sizes        — 2*ndims sizes, elements 2i and 2i+1 giving the
///                           border on either side of dimension i
///   foreign(program,parm) — sizes are supplied at array-creation time by
///                           the named data-parallel program's border routine
struct BorderSpec {
  enum class Kind { None, Explicit, Foreign };
  Kind kind = Kind::None;
  std::vector<int> sizes;  ///< for Explicit
  std::string program;     ///< for Foreign
  int parm_num = 0;        ///< for Foreign

  static BorderSpec none() { return {}; }
  static BorderSpec exact(std::vector<int> sizes) {
    BorderSpec b;
    b.kind = Kind::Explicit;
    b.sizes = std::move(sizes);
    return b;
  }
  static BorderSpec foreign(std::string program, int parm_num) {
    BorderSpec b;
    b.kind = Kind::Foreign;
    b.program = std::move(program);
    b.parm_num = parm_num;
    return b;
  }
};

/// A single array element in transit (read_element / write_element).
using Scalar = std::variant<int, double>;

/// Numeric coercion helpers for Scalar.
inline double scalar_to_double(const Scalar& s) {
  if (const int* i = std::get_if<int>(&s)) return static_cast<double>(*i);
  return std::get<double>(s);
}
inline int scalar_to_int(const Scalar& s) {
  if (const double* d = std::get_if<double>(&s)) return static_cast<int>(*d);
  return std::get<int>(s);
}

/// Queries supported by find_info (§4.2.6).  The Shard* kinds extend the
/// thesis taxonomy for the power-of-two shard map: ShardCount is the number
/// of shards (= grid cells), ShardOwners the current owner of each shard in
/// shard-rank order, and OwnerEpoch the owner table's version — bumped on
/// every migration so stale replicas are detectable.
enum class InfoKind {
  Type,
  Dimensions,
  Processors,
  GridDimensions,
  LocalDimensions,
  Borders,
  LocalDimensionsPlus,
  IndexingType,
  GridIndexingType,
  ShardCount,
  ShardOwners,
  OwnerEpoch,
};

using InfoValue =
    std::variant<ElemType, std::vector<int>, Indexing, std::uint64_t>;

}  // namespace tdp::dist
