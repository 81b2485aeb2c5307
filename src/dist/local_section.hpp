// Local sections: flat, explicitly-allocated storage with borders
// (§3.2.1.3, §5.1.5–5.1.6).
//
// A local section is a flat piece of contiguous storage sized as the
// product of the local-section dimensions *including* any borders.  The
// thesis allocates this storage outside the PCN heap ("pseudo-definitional
// arrays") so that data-parallel programs can treat it as a plain C array;
// here plain heap allocation with shared ownership plays that role: the
// section can be stored in the array-manager record (a "tuple"), while raw
// pointers into it are handed to data-parallel programs as mutable arrays.
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "dist/layout.hpp"
#include "dist/types.hpp"

namespace tdp::dist {

class LocalSection {
  static_assert(std::atomic_ref<double>::is_always_lock_free &&
                std::atomic_ref<int>::is_always_lock_free);

 public:
  /// Allocates zero-initialised storage for a section whose dimensions,
  /// including borders, are `dims_plus`.
  LocalSection(ElemType type, std::vector<int> dims_plus)
      : type_(type),
        dims_plus_(std::move(dims_plus)),
        count_(static_cast<std::size_t>(element_count(dims_plus_))),
        bytes_(count_ * elem_size(type)),
        storage_(std::make_unique<std::byte[]>(bytes_)) {
    std::memset(storage_.get(), 0, bytes_);
  }

  ElemType type() const { return type_; }
  const std::vector<int>& dims_plus() const { return dims_plus_; }
  std::size_t count() const { return count_; }
  std::size_t bytes() const { return bytes_; }

  void* data() { return storage_.get(); }
  const void* data() const { return storage_.get(); }
  double* f64() { return reinterpret_cast<double*>(storage_.get()); }
  const double* f64() const {
    return reinterpret_cast<const double*>(storage_.get());
  }
  int* i32() { return reinterpret_cast<int*>(storage_.get()); }
  const int* i32() const {
    return reinterpret_cast<const int*>(storage_.get());
  }

  void write_f64(long long offset, double v) { f64()[offset] = v; }
  void write_i32(long long offset, int v) { i32()[offset] = v; }

  /// Element access shared with the array manager's lock-free requests:
  /// whole-element loads and stores through std::atomic_ref at `base`, the
  /// section's data().  A load is acquire so that a reader's re-check of
  /// the shard's sequence cannot move ahead of it; a store is release so
  /// that a reader that sees it also sees what the writer stored before.
  /// On x86-64 both are plain moves.
  static double load_f64(const void* base, long long offset) {
    return std::atomic_ref<double>(
               const_cast<double*>(static_cast<const double*>(base))[offset])
        .load(std::memory_order_acquire);
  }
  static int load_i32(const void* base, long long offset) {
    return std::atomic_ref<int>(
               const_cast<int*>(static_cast<const int*>(base))[offset])
        .load(std::memory_order_acquire);
  }
  static void store_f64(void* base, long long offset, double v) {
    std::atomic_ref<double>(static_cast<double*>(base)[offset])
        .store(v, std::memory_order_release);
  }
  static void store_i32(void* base, long long offset, int v) {
    std::atomic_ref<int>(static_cast<int*>(base)[offset])
        .store(v, std::memory_order_release);
  }
  double load_f64(long long offset) const { return load_f64(data(), offset); }
  int load_i32(long long offset) const { return load_i32(data(), offset); }
  void store_f64(long long offset, double v) { store_f64(data(), offset, v); }
  void store_i32(long long offset, int v) { store_i32(data(), offset, v); }

  /// Copies `count` elements from `offset` on to `dst`.  With `racing`, a
  /// lock-free element write may still land meanwhile (and redoes itself
  /// afterwards), so the copy goes element by element through relaxed
  /// atomic loads; otherwise it is one memcpy.
  void load_range(long long offset, std::size_t count, void* dst,
                  bool racing) const {
    const std::size_t esize = elem_size(type_);
    const std::byte* from = static_cast<const std::byte*>(data()) +
                            static_cast<std::size_t>(offset) * esize;
    if (!racing) {
      std::memcpy(dst, from, count * esize);
    } else if (type_ == ElemType::Float64) {
      double* out = static_cast<double*>(dst);
      double* in = reinterpret_cast<double*>(const_cast<std::byte*>(from));
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = std::atomic_ref<double>(in[i]).load(std::memory_order_relaxed);
      }
    } else {
      int* out = static_cast<int*>(dst);
      int* in = reinterpret_cast<int*>(const_cast<std::byte*>(from));
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = std::atomic_ref<int>(in[i]).load(std::memory_order_relaxed);
      }
    }
  }

  /// Fills this section, not yet visible to any request, from `src` of the
  /// same type and shape; `racing` as for load_range.
  void copy_from(const LocalSection& src, bool racing) {
    src.load_range(0, count_, data(), racing);
  }

 private:
  ElemType type_;
  std::vector<int> dims_plus_;
  std::size_t count_;
  std::size_t bytes_;
  std::unique_ptr<std::byte[]> storage_;
};

/// What find_local hands to a data-parallel program: a direct reference to
/// the local section's storage plus the geometry needed to index it.  The
/// interior (non-border) region starts at offset borders[2d] in dimension d.
struct LocalSectionView {
  ElemType type = ElemType::Float64;
  std::vector<int> interior_dims;
  std::vector<int> borders;
  std::vector<int> dims_plus;
  Indexing indexing = Indexing::RowMajor;
  std::shared_ptr<LocalSection> section;  ///< keeps the storage alive

  bool valid() const { return section != nullptr; }
  std::size_t count_plus() const { return section ? section->count() : 0; }
  double* f64() const { return section->f64(); }
  int* i32() const { return section->i32(); }

  /// Element count of the interior region.
  long long interior_count() const { return element_count(interior_dims); }

  /// Storage offset of an interior multi-index.
  long long offset(std::span<const int> local_idx) const {
    return local_offset(local_idx, interior_dims, borders, indexing);
  }
};

}  // namespace tdp::dist
