// Batched prediction kernels.
//
// These are the hot inner loops of the batched scoring path: one user's
// latent vector against a contiguous row-major block of service factors
// (a rank-d GEMV), and the fused simultaneous SGD pair update of one
// online step. Both are written branch-free with independent accumulators
// so the compiler can unroll/vectorize them; `reference::` holds the
// plain scalar formulations that serve as the correctness oracle in
// tests (tests/batch_predict_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace amf::linalg {

/// Row-major GEMV: out[i] = dot(x, block[i*d .. i*d+d)) where d = x.size().
/// `block` must hold at least out.size() * d values. Rows are processed in
/// blocks of four with independent accumulators (SIMD/ILP friendly).
void GemvRowMajor(std::span<const double> x, std::span<const double> block,
                  std::span<double> out);

/// Strided variant for the arena-backed factor layout: row i starts at
/// block + i * stride with only the first x.size() lanes meaningful
/// (stride >= x.size(); the pad lanes are not read). The inner reduction
/// visits lanes in the same order as GemvRowMajor, so for stride ==
/// x.size() the two produce bit-identical results.
///
/// Alignment contract: `block` points at a 64-byte-aligned base and
/// `stride` is a multiple of 8 doubles (both guaranteed by
/// core::FactorArena), so every row start is 64-byte aligned. Under
/// AMF_NATIVE builds the kernel asserts that to the compiler
/// (assume_aligned) and may issue aligned vector loads — passing an
/// unaligned base from a non-arena caller is undefined there.
void GemvRowMajorStrided(std::span<const double> x, const double* block,
                         std::size_t stride, std::span<double> out);

/// Mixed-precision variants of GemvRowMajorStrided for the compressed
/// read replicas (core/replica_arena.h): the service block holds fp32 or
/// bf16 (raw-bits uint16) lanes, each widened to double at load and
/// accumulated in fp64 — identical loop shape and k order to the fp64
/// kernel, so the only deviation from it is the per-lane quantization of
/// the stored block. `stride` is in elements of the block's type; the
/// 64-byte base/row alignment contract carries over (ReplicaArena rounds
/// strides to a whole cache line of elements).
void GemvRowMajorStridedFp32(std::span<const double> x, const float* block,
                             std::size_t stride, std::span<double> out);
void GemvRowMajorStridedBf16(std::span<const double> x,
                             const std::uint16_t* block, std::size_t stride,
                             std::span<double> out);

namespace reference {

/// Scalar one-row-at-a-time GEMV oracle.
void GemvRowMajor(std::span<const double> x, std::span<const double> block,
                  std::span<double> out);

/// Scalar strict-IEEE oracles for the mixed-precision strided kernels
/// (single ascending-k accumulator per row, widening at load).
void GemvRowMajorStridedFp32(std::span<const double> x, const float* block,
                             std::size_t stride, std::span<double> out);
void GemvRowMajorStridedBf16(std::span<const double> x,
                             const std::uint16_t* block, std::size_t stride,
                             std::span<double> out);

}  // namespace reference

}  // namespace amf::linalg
