#include "transform/qos_transform.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/multiversion.h"

namespace amf::transform {

double SigmoidDerivative(double x) {
  const double g = Sigmoid(x);
  return g * (1.0 - g);
}

double Logit(double y, double eps) {
  const double c = std::clamp(y, eps, 1.0 - eps);
  return std::log(c / (1.0 - c));
}

AMF_MULTIVERSION
void ExpRow(std::span<const double> x, std::span<double> out) {
  AMF_DCHECK(out.size() == x.size());
  // exp(v) = 2^k * exp(r),  k = round(v * log2(e)),  r = v - k ln2.
  // The rounding uses the 1.5*2^52 magic-shift trick (round-to-nearest
  // lands the integer in the low mantissa bits), the reduction is
  // Cody-Waite two-term so k*ln2_hi is exact, and 2^k is assembled by
  // writing k into the exponent field. Everything is straight-line
  // min/max/mul/add/integer ops, so the loop auto-vectorizes.
  constexpr double kLog2E = 1.44269504088896340736;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  const std::int64_t shift_bits = std::bit_cast<std::int64_t>(kShift);
  const double* __restrict xp = x.data();
  double* __restrict op = out.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    double v = xp[i];
    v = v < -708.0 ? -708.0 : v;
    v = v > 708.0 ? 708.0 : v;
    const double kd = v * kLog2E + kShift;
    const std::int64_t k = std::bit_cast<std::int64_t>(kd) - shift_bits;
    const double kf = kd - kShift;
    const double r = (v - kf * kLn2Hi) - kf * kLn2Lo;
    // Degree-13 Taylor polynomial of exp on |r| <= ln2/2 (max error ~4e-18
    // before rounding, a few ulp after).
    double p = 1.6059043836821614599e-10;   // 1/13!
    p = p * r + 2.0876756987868098979e-09;  // 1/12!
    p = p * r + 2.5052108385441718775e-08;  // 1/11!
    p = p * r + 2.7557319223985890653e-07;  // 1/10!
    p = p * r + 2.7557319223985892511e-06;  // 1/9!
    p = p * r + 2.4801587301587301566e-05;  // 1/8!
    p = p * r + 1.9841269841269841253e-04;  // 1/7!
    p = p * r + 1.3888888888888889419e-03;  // 1/6!
    p = p * r + 8.3333333333333332177e-03;  // 1/5!
    p = p * r + 4.1666666666666664354e-02;  // 1/4!
    p = p * r + 1.6666666666666665741e-01;  // 1/3!
    p = p * r + 5.0000000000000000000e-01;  // 1/2!
    p = p * r + 1.0;
    p = p * r + 1.0;
    const double scale = std::bit_cast<double>((k + 1023) << 52);
    op[i] = p * scale;
  }
}

AMF_MULTIVERSION
void SigmoidRow(std::span<const double> x, std::span<double> out) {
  AMF_DCHECK(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = -x[i];
  ExpRow(out, out);
  double* __restrict op = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) op[i] = 1.0 / (1.0 + op[i]);
}

AMF_MULTIVERSION
void LogRow(std::span<const double> x, std::span<double> out) {
  AMF_DCHECK(out.size() == x.size());
  // log(x) = k ln2 + log(m) with m = x * 2^-k reduced into
  // [sqrt(1/2), sqrt(2)). The reduction subtracts the exponent bits
  // relative to sqrt(1/2) so the split point lands at sqrt(2); log(m) is
  // then 2 atanh(s) with s = (m-1)/(m+1), an odd series in s that
  // converges fast because |s| <= 0.1716. Straight-line arithmetic only —
  // the loop vectorizes like ExpRow.
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  // Bit pattern of sqrt(1/2); subtracting it aligns the exponent split.
  constexpr std::int64_t kSqrtHalfBits = 0x3fe6a09e667f3bcd;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  const std::int64_t shift_bits = std::bit_cast<std::int64_t>(kShift);
  const double* __restrict xp = x.data();
  double* __restrict op = out.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t bits = std::bit_cast<std::int64_t>(xp[i]);
    // k = signed exponent offset. The +2^62 bias keeps the shifted value
    // nonnegative so a logical shift suffices (SSE2/AVX2 have no 64-bit
    // arithmetic right shift), and double(k) is recovered with the same
    // 1.5*2^52 magic-shift used in ExpRow (no int64->double conversion
    // instruction below AVX-512 either).
    constexpr std::int64_t kBias = std::int64_t{1} << 62;
    const std::int64_t k =
        static_cast<std::int64_t>(
            static_cast<std::uint64_t>(bits - kSqrtHalfBits + kBias) >> 52) -
        (kBias >> 52);
    const double m = std::bit_cast<double>(bits - (k << 52));
    const double kf = std::bit_cast<double>(k + shift_bits) - kShift;
    const double s = (m - 1.0) / (m + 1.0);
    const double z = s * s;
    // atanh series: log(m) = 2s (1 + z/3 + z^2/5 + ... + z^8/17); the
    // truncated tail is < 1e-16 over |s| <= 0.1716.
    double p = 1.0 / 17.0;
    p = p * z + 1.0 / 15.0;
    p = p * z + 1.0 / 13.0;
    p = p * z + 1.0 / 11.0;
    p = p * z + 1.0 / 9.0;
    p = p * z + 1.0 / 7.0;
    p = p * z + 1.0 / 5.0;
    p = p * z + 1.0 / 3.0;
    p = p * z + 1.0;
    op[i] = kf * kLn2Hi + ((2.0 * s) * p + kf * kLn2Lo);
  }
}

namespace {

QoSTransformConfig Validate(QoSTransformConfig c) {
  AMF_CHECK_MSG(c.r_max > c.r_min, "QoSTransform requires r_max > r_min");
  AMF_CHECK_MSG(c.value_floor > 0.0, "value_floor must be positive");
  AMF_CHECK_MSG(c.value_floor < c.r_max, "value_floor must be < r_max");
  return c;
}

}  // namespace

QoSTransform::QoSTransform(const QoSTransformConfig& config)
    : config_(Validate(config)),
      boxcox_min_(BoxCox(std::max(config_.r_min, config_.value_floor),
                         config_.alpha)),
      boxcox_max_(BoxCox(config_.r_max, config_.alpha)),
      normalizer_(boxcox_min_, boxcox_max_) {}

double QoSTransform::Forward(double raw) const {
  // BoxCoxClamped (rather than clamp + BoxCox) also absorbs NaN input:
  // a domain error here would unwind through trainer worker threads, so
  // Forward is total — garbage raw values map to the floor. The
  // ingestion validator is the layer that rejects them loudly.
  const double clamped =
      std::min(BoxCoxClamped(raw, config_.alpha,
                             std::max(config_.r_min, config_.value_floor)),
               boxcox_max_);
  const double r = normalizer_.Normalize(clamped);
  // Floor r away from 0 so the relative-error loss (r in the denominator)
  // stays finite; the ceiling keeps Inverse within BoxCox's domain.
  return std::clamp(r, config_.value_floor, 1.0);
}

double QoSTransform::Inverse(double normalized) const {
  const double r = std::clamp(normalized, 0.0, 1.0);
  return BoxCoxInverse(normalizer_.Denormalize(r), config_.alpha);
}

AMF_MULTIVERSION
void QoSTransform::InverseRow(std::span<double> inout) const {
  // Vectorized Inverse: the per-entry std::pow of BoxCoxInverse becomes
  // exp(log(base) / alpha) over the whole row. base = alpha * R~ + 1 =
  // x^alpha > 0 always holds because the input is clamped into [0, 1]
  // (the normalizer bounds come from BoxCox of positive raw bounds).
  const double lo = normalizer_.lo();
  const double span = normalizer_.hi() - lo;
  const double alpha = config_.alpha;
  double* __restrict p = inout.data();
  const std::size_t n = inout.size();
  if (alpha == 0.0) {
    // BoxCoxInverse degenerates to exp(R~).
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = std::clamp(p[i], 0.0, 1.0) * span + lo;
    }
    ExpRow(inout, inout);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double r = std::clamp(p[i], 0.0, 1.0);
    p[i] = alpha * (r * span + lo) + 1.0;
  }
  LogRow(inout, inout);
  const double inv_alpha = 1.0 / alpha;
  for (std::size_t i = 0; i < n; ++i) p[i] *= inv_alpha;
  ExpRow(inout, inout);
}

double QoSTransform::PredictRaw(double latent_inner_product) const {
  return Inverse(Sigmoid(latent_inner_product));
}

}  // namespace amf::transform
