#include "linalg/kernels.h"

#include "common/bf16.h"
#include "common/check.h"
#include "linalg/vector_ops.h"

// GemvRowMajor is defined in gemv.cpp, which is compiled with relaxed
// FP-reduction flags; this TU keeps strict IEEE evaluation order for the
// mixed-precision oracles.

namespace amf::linalg {

namespace reference {

void GemvRowMajor(std::span<const double> x, std::span<const double> block,
                  std::span<double> out) {
  const std::size_t d = x.size();
  AMF_DCHECK(block.size() >= out.size() * d);
  for (std::size_t i = 0; i < out.size(); ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < d; ++k) acc += x[k] * block[i * d + k];
    out[i] = acc;
  }
}

void GemvRowMajorStridedFp32(std::span<const double> x, const float* block,
                             std::size_t stride, std::span<double> out) {
  const std::size_t d = x.size();
  AMF_DCHECK(stride >= d);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float* row = block + i * stride;
    double acc = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      acc += x[k] * static_cast<double>(row[k]);
    }
    out[i] = acc;
  }
}

void GemvRowMajorStridedBf16(std::span<const double> x,
                             const std::uint16_t* block, std::size_t stride,
                             std::span<double> out) {
  const std::size_t d = x.size();
  AMF_DCHECK(stride >= d);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint16_t* row = block + i * stride;
    double acc = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      acc += x[k] * common::Bf16ToDouble(row[k]);
    }
    out[i] = acc;
  }
}

}  // namespace reference

}  // namespace amf::linalg
