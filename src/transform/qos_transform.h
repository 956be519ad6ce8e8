// The full AMF data-transformation pipeline (paper §IV-C-1):
//
//   raw QoS R  --clamp-->  [value_floor, r_max]
//              --BoxCox(alpha)-->  R~
//              --linear [0,1]-->   r
//
// plus the exact inverse used for prediction readout, and the sigmoid link
// g(x) = 1 / (1 + e^-x) that maps latent inner products into [0, 1].
//
// The paper states Rmin = 0, but BoxCox with alpha <= 0 is undefined at 0,
// so any faithful implementation must clamp raw values to a small positive
// floor first; `value_floor` (default 1e-3) plays that role and also floors
// the normalized value r away from 0 in the relative-error loss.
#pragma once

#include <cmath>
#include <limits>
#include <span>

#include "transform/boxcox.h"
#include "transform/normalizer.h"

namespace amf::transform {

/// Numerically safe sigmoid. Inline: it sits on every replay update.
inline double Sigmoid(double x) {
  // Split on sign to avoid overflow in exp().
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// Sigmoid derivative g'(x) = g(x) (1 - g(x)).
double SigmoidDerivative(double x);

/// Element-wise exp over a row, branch-free (Cody-Waite range reduction +
/// degree-13 polynomial + exponent-bit scaling) so the loop vectorizes and
/// pipelines; accurate to a few ulp of std::exp. Inputs are clamped to
/// [-708, 708] (results saturate instead of over/underflowing). `out` may
/// alias `x`; sizes must match.
void ExpRow(std::span<const double> x, std::span<double> out);

/// Element-wise sigmoid over a row via ExpRow: out[i] = 1/(1 + exp(-x[i])),
/// within a few ulp of the scalar Sigmoid. `out` may alias `x`.
void SigmoidRow(std::span<const double> x, std::span<double> out);

/// Element-wise natural log over a row, branch-free (exponent extraction +
/// atanh-series polynomial on the reduced mantissa), accurate to a few ulp
/// of std::log. Requires every x[i] > 0 (finite, non-denormal). `out` may
/// alias `x`.
void LogRow(std::span<const double> x, std::span<double> out);

/// Logit (inverse sigmoid); input is clamped into (eps, 1-eps).
double Logit(double y, double eps = 1e-12);

struct QoSTransformConfig {
  /// Box-Cox exponent (paper: -0.007 for RT, -0.05 for TP; 1 disables).
  double alpha = 1.0;
  /// Maximal raw QoS value (paper: 20 s for RT, 7000 kbps for TP).
  double r_max = 20.0;
  /// Minimal raw QoS value (paper: 0; must be < r_max).
  double r_min = 0.0;
  /// Positive floor applied before Box-Cox, and to normalized values.
  double value_floor = 1e-3;
};

/// Bidirectional raw-QoS <-> normalized-[0,1] mapping.
class QoSTransform {
 public:
  explicit QoSTransform(const QoSTransformConfig& config);

  const QoSTransformConfig& config() const { return config_; }

  /// raw -> normalized r in [0, 1] (floored at `value_floor`).
  double Forward(double raw) const;

  /// Training target of a raw observation: Forward(raw) when raw is
  /// finite, else NaN. Forward is total (garbage maps to the floor); the
  /// NaN lets the model refuse such a sample before touching any state.
  double Target(double raw) const {
    return std::isfinite(raw) ? Forward(raw)
                              : std::numeric_limits<double>::quiet_NaN();
  }

  /// normalized -> raw (exact inverse of Forward up to the clamps).
  double Inverse(double normalized) const;

  /// In-place Inverse over a whole row of normalized predictions (the
  /// batch readout of PredictRowRaw). Vectorized: the Box-Cox inverse
  /// power is computed as ExpRow(LogRow(base) / alpha) instead of a
  /// std::pow per entry, so results agree with the scalar Inverse to
  /// ~1e-14 relative rather than bit-for-bit.
  void InverseRow(std::span<double> inout) const;

  /// Convenience: predicted raw QoS from a latent inner product,
  /// Inverse(Sigmoid(inner)).
  double PredictRaw(double latent_inner_product) const;

 private:
  QoSTransformConfig config_;
  double boxcox_min_;  // BoxCox(clamped r_min)
  double boxcox_max_;  // BoxCox(r_max)
  LinearNormalizer normalizer_;
};

}  // namespace amf::transform
