// FactorArena: cache-line-aligned blocked storage for latent factor rows.
//
// The pre-arena AmfModel kept three parallel std::vectors per entity kind
// (factors, error EMAs, seqlock versions), so one entity's state spanned
// scattered cache lines and adjacent rows shared lines: an SGD publish on
// row i dirtied the line holding row i+1's tail (factors) and up to 15
// neighboring version words. Under multi-threaded hogwild replay that
// false sharing turns neighboring shards' updates into cache-line
// ping-pong; the committed single-core bench could not show it, but it
// caps multi-core scaling exactly where the paper claims near-linearity
// (Fig. 14).
//
// This arena packs each row into a private, padded slab:
//
//   factors:  | row 0 ... pad | row 1 ... pad | ...   (64B stride multiple)
//   meta:     | v0 e0 ....pad | v1 e1 ....pad | ...   (one 64B line per row)
//
//   - Every factor row starts on a 64-byte boundary (base allocation via
//     AlignedAllocator, stride rounded up to 8 doubles), so the SIMD GEMV
//     over the service block may assume aligned loads, and a row write
//     never touches a line owned by a neighboring row.
//   - Each row's seqlock version word and error EMA are co-located in one
//     dedicated cache line (RowMeta, alignas(64)): the version bump +
//     error store of one row's publish invalidates exactly one meta line,
//     never a neighbor's.
//   - Pad lanes are kept at 0.0 forever (zero-filled on growth, never
//     written afterwards), so whole-stride vector loads are safe and a
//     dot over the padded width equals the dot over the logical rank.
//
// Growth preserves the pre-arena semantics exactly: geometric capacity
// doubling, one resize per Grow call, caller fills the new logical lanes
// (the model draws them from its RNG in registration order, keeping
// fixed-seed traces bit-identical to the vector layout). Growth is NOT
// safe against concurrent readers — same contract as before; the
// concurrent facade pre-registers entities under its exclusive lock.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/seqlock.h"

namespace amf::core {

class FactorArena {
 public:
  /// Doubles per cache line; row strides are multiples of this.
  static constexpr std::size_t kDoublesPerLine =
      common::kCacheLineBytes / sizeof(double);

  explicit FactorArena(std::size_t rank)
      : rank_(rank), stride_(common::RoundUp(rank, kDoublesPerLine)) {}

  std::size_t rank() const { return rank_; }
  /// Doubles between consecutive row starts (>= rank, 64B multiple).
  std::size_t stride() const { return stride_; }
  std::size_t size() const { return meta_.size(); }
  bool empty() const { return meta_.empty(); }

  /// Start of row i's factor lanes (64-byte aligned).
  double* row(std::size_t i) { return factors_.data() + i * stride_; }
  const double* row(std::size_t i) const {
    return factors_.data() + i * stride_;
  }

  /// Logical (rank-length) view of row i; excludes pad lanes.
  std::span<double> row_span(std::size_t i) {
    return std::span<double>(row(i), rank_);
  }
  std::span<const double> row_span(std::size_t i) const {
    return std::span<const double>(row(i), rank_);
  }

  common::SeqlockVersion& version(std::size_t i) { return meta_[i].version; }
  const common::SeqlockVersion& version(std::size_t i) const {
    return meta_[i].version;
  }
  double& error(std::size_t i) { return meta_[i].error; }
  const double& error(std::size_t i) const { return meta_[i].error; }

  /// Cache hint (for writing) on row i's factor lines and its meta line.
  void Prefetch(std::size_t i) const {
    const double* r = row(i);
    for (std::size_t k = 0; k < rank_; k += kDoublesPerLine) {
      __builtin_prefetch(r + k, 1);
    }
    __builtin_prefetch(&meta_[i], 1);
  }

  /// Base of the blocked factor slab (row 0; 64-byte aligned). The block
  /// spans size() * stride() doubles — pass stride() to the strided GEMV.
  const double* data() const { return factors_.data(); }

  /// Grows to `need` rows (no-op when already that large): geometric
  /// capacity reserve, then one resize. New rows have zeroed factor lanes
  /// (including pads), error = `initial_error`, version = 0. The caller
  /// fills the logical lanes of rows [old_size, need) afterwards.
  /// Returns the pre-growth row count.
  std::size_t Grow(std::size_t need, double initial_error) {
    const std::size_t old = meta_.size();
    if (need <= old) return old;
    if (meta_.capacity() < need) {
      const std::size_t cap = std::max(need, 2 * meta_.capacity());
      meta_.reserve(cap);
      factors_.reserve(cap * stride_);
    }
    meta_.resize(need, RowMeta{0, initial_error});
    factors_.resize(need * stride_, 0.0);
    return old;
  }

 private:
  /// One row's publish metadata, padded to a private cache line: the
  /// seqlock version and the entity error EMA move together through every
  /// publish, and neither write may invalidate a neighboring row's line.
  struct alignas(common::kCacheLineBytes) RowMeta {
    common::SeqlockVersion version = 0;
    double error = 0.0;
  };
  static_assert(sizeof(RowMeta) == common::kCacheLineBytes,
                "RowMeta must occupy exactly one cache line");

  std::size_t rank_;
  std::size_t stride_;
  std::vector<double, common::AlignedAllocator<double>> factors_;
  std::vector<RowMeta, common::AlignedAllocator<RowMeta>> meta_;
};

}  // namespace amf::core
