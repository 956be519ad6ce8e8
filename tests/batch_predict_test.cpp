// Equivalence tests for the batched prediction path: every batch API must
// reproduce its scalar counterpart entry for entry (1e-12 relative), the
// SIMD-friendly kernels must match their scalar reference oracles, and
// the fused SGD pair step must be bit-identical to the pre-refactor
// update loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "adapt/prediction_service.h"
#include "common/rng.h"
#include "core/amf_model.h"
#include "eval/ranking.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "transform/qos_transform.h"

namespace amf {
namespace {

constexpr double kRelTol = 1e-12;

void ExpectClose(double got, double want, const char* what) {
  const double scale = std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, kRelTol * scale) << what;
}

/// A small model warmed with deterministic pseudo-random observations.
core::AmfModel TrainedModel(std::size_t users = 12, std::size_t services = 37,
                            std::uint64_t seed = 11) {
  core::AmfModel model(core::MakeResponseTimeConfig(seed));
  model.EnsureUser(static_cast<data::UserId>(users - 1));
  model.EnsureService(static_cast<data::ServiceId>(services - 1));
  common::Rng rng(seed);
  for (int i = 0; i < 800; ++i) {
    const auto u = static_cast<data::UserId>(rng.Index(users));
    const auto s = static_cast<data::ServiceId>(rng.Index(services));
    model.OnlineUpdate(u, s, rng.Uniform(0.05, 10.0));
  }
  return model;
}

TEST(BatchPredictTest, RowMatchesScalarNormalized) {
  const core::AmfModel model = TrainedModel();
  std::vector<double> row(model.num_services());
  for (data::UserId u = 0; u < model.num_users(); ++u) {
    model.PredictRowNormalized(u, row);
    for (data::ServiceId s = 0; s < model.num_services(); ++s) {
      ExpectClose(row[s], model.PredictNormalized(u, s), "normalized row");
    }
  }
}

TEST(BatchPredictTest, RowMatchesScalarRaw) {
  const core::AmfModel model = TrainedModel();
  std::vector<double> row(model.num_services());
  for (data::UserId u = 0; u < model.num_users(); ++u) {
    model.PredictRowRaw(u, row);
    for (data::ServiceId s = 0; s < model.num_services(); ++s) {
      ExpectClose(row[s], model.PredictRaw(u, s), "raw row");
    }
  }
}

TEST(BatchPredictTest, PartialRowAndGatherMatchScalar) {
  const core::AmfModel model = TrainedModel();
  // Prefix row.
  std::vector<double> prefix(model.num_services() / 2);
  model.PredictRowRaw(3, prefix);
  for (std::size_t s = 0; s < prefix.size(); ++s) {
    ExpectClose(prefix[s], model.PredictRaw(3, static_cast<data::ServiceId>(s)),
                "prefix row");
  }
  // Scattered gather with duplicates and reversed order.
  const std::vector<data::ServiceId> ids = {36, 0, 17, 17, 5, 36, 1};
  std::vector<double> got(ids.size());
  model.PredictManyRaw(3, ids, got);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ExpectClose(got[i], model.PredictRaw(3, ids[i]), "gather");
  }
}

TEST(BatchPredictTest, MatrixMatchesScalar) {
  const core::AmfModel model = TrainedModel();
  linalg::Matrix out;
  model.PredictMatrixRaw(&out);
  ASSERT_EQ(out.rows(), model.num_users());
  ASSERT_EQ(out.cols(), model.num_services());
  for (data::UserId u = 0; u < model.num_users(); ++u) {
    for (data::ServiceId s = 0; s < model.num_services(); ++s) {
      ExpectClose(out(u, s), model.PredictRaw(u, s), "matrix");
    }
  }
}

TEST(BatchPredictTest, PredictSamplesRawMatchesScalar) {
  const core::AmfModel model = TrainedModel();
  common::Rng rng(5);
  std::vector<data::QoSSample> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back(
        {0, static_cast<data::UserId>(rng.Index(model.num_users())),
         static_cast<data::ServiceId>(rng.Index(model.num_services())), 1.0,
         0.0});
  }
  const std::vector<double> got = core::PredictSamplesRaw(model, samples);
  ASSERT_EQ(got.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ExpectClose(got[i], model.PredictRaw(samples[i].user, samples[i].service),
                "samples");
  }
}

TEST(BatchPredictTest, GrowthPreservesExistingFactors) {
  core::AmfModel model = TrainedModel();
  std::vector<double> before(model.num_services());
  for (data::ServiceId s = 0; s < model.num_services(); ++s) {
    before[s] = model.PredictRaw(2, s);
  }
  // Grow both sides well past the geometric-reserve threshold.
  model.EnsureUser(200);
  model.EnsureService(900);
  for (std::size_t s = 0; s < before.size(); ++s) {
    EXPECT_EQ(before[s], model.PredictRaw(2, static_cast<data::ServiceId>(s)))
        << "growth must not disturb existing factors";
  }
}

// --- Kernel oracles --------------------------------------------------------

TEST(KernelTest, GemvMatchesReference) {
  common::Rng rng(9);
  for (const std::size_t rows : {0u, 1u, 3u, 4u, 7u, 64u, 101u}) {
    for (const std::size_t d : {1u, 2u, 10u, 32u, 33u}) {
      std::vector<double> x(d), block(rows * d), got(rows), want(rows);
      for (double& v : x) v = rng.Uniform(-1.0, 1.0);
      for (double& v : block) v = rng.Uniform(-1.0, 1.0);
      linalg::GemvRowMajor(x, block, got);
      linalg::reference::GemvRowMajor(x, block, want);
      for (std::size_t i = 0; i < rows; ++i) {
        ExpectClose(got[i], want[i], "gemv");
      }
    }
  }
}

TEST(KernelTest, DotAxpyMatchReference) {
  common::Rng rng(13);
  for (const std::size_t d : {0u, 1u, 3u, 4u, 10u, 65u}) {
    std::vector<double> a(d), b(d);
    for (std::size_t k = 0; k < d; ++k) {
      a[k] = rng.Uniform(-3.0, 3.0);
      b[k] = rng.Uniform(-3.0, 3.0);
    }
    ExpectClose(linalg::Dot(a, b), linalg::reference::Dot(a, b), "dot");
    std::vector<double> y = b, y_ref = b;
    linalg::Axpy(0.37, a, y);
    linalg::reference::Axpy(0.37, a, y_ref);
    for (std::size_t k = 0; k < d; ++k) ExpectClose(y[k], y_ref[k], "axpy");
  }
}

TEST(KernelTest, ExpRowMatchesStdExp) {
  std::vector<double> x;
  for (double v = -700.0; v <= 700.0; v += 0.37) x.push_back(v);
  x.insert(x.end(), {-0.0, 0.0, 1.0, -1.0, 1e-17, -1e-17});
  std::vector<double> out(x.size());
  transform::ExpRow(x, out);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double want = std::exp(x[i]);
    EXPECT_NEAR(out[i], want, kRelTol * std::max(want, 1e-300)) << x[i];
  }
  // Saturation instead of overflow/underflow outside [-708, 708].
  std::vector<double> extreme = {-1e9, 1e9};
  std::vector<double> eout(2);
  transform::ExpRow(extreme, eout);
  EXPECT_GT(eout[0], 0.0);
  EXPECT_TRUE(std::isfinite(eout[1]));
}

TEST(KernelTest, LogRowMatchesStdLog) {
  std::vector<double> x;
  for (double v = 1e-300; v < 1e300; v *= 3.7) x.push_back(v);
  for (double v = 0.5; v < 2.0; v += 1e-3) x.push_back(v);
  std::vector<double> out(x.size());
  transform::LogRow(x, out);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double want = std::log(x[i]);
    EXPECT_NEAR(out[i], want, kRelTol * std::max(1.0, std::abs(want))) << x[i];
  }
}

TEST(KernelTest, SigmoidRowMatchesScalarSigmoid) {
  std::vector<double> x;
  for (double v = -40.0; v <= 40.0; v += 0.013) x.push_back(v);
  std::vector<double> out(x.size());
  transform::SigmoidRow(x, out);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(out[i], transform::Sigmoid(x[i]), kRelTol) << x[i];
  }
}

TEST(KernelTest, InverseRowMatchesScalarInverse) {
  for (const double alpha : {-0.007, -0.05, 0.0, 1.0}) {
    transform::QoSTransformConfig cfg;
    cfg.alpha = alpha;
    cfg.r_max = alpha == -0.05 ? 7000.0 : 20.0;
    const transform::QoSTransform t(cfg);
    std::vector<double> r;
    for (double g = -0.2; g <= 1.2; g += 1e-3) r.push_back(g);  // incl. clamps
    std::vector<double> batch = r;
    t.InverseRow(batch);
    for (std::size_t i = 0; i < r.size(); ++i) {
      const double want = t.Inverse(r[i]);
      EXPECT_NEAR(batch[i], want, kRelTol * std::max(1.0, std::abs(want)))
          << "alpha " << alpha << " r " << r[i];
    }
  }
}

// --- Consumers -------------------------------------------------------------

TEST(BatchPredictTest, TopKMatchesFullRankingPrefix) {
  common::Rng rng(21);
  std::vector<double> values(300);
  for (double& v : values) v = rng.Uniform(0.0, 10.0);
  values[7] = values[31];  // force a tie
  for (const bool smaller : {true, false}) {
    const std::vector<std::size_t> full = eval::RankByValue(values, smaller);
    for (const std::size_t k : {0u, 1u, 10u, 299u, 300u, 1000u}) {
      const std::vector<std::size_t> top =
          eval::TopKByValue(values, k, smaller);
      ASSERT_EQ(top.size(), std::min<std::size_t>(k, values.size()));
      for (std::size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i], full[i]) << "k " << k << " i " << i;
      }
    }
  }
}

TEST(BatchPredictTest, PredictQoSRowHandlesUnknownEntities) {
  adapt::QoSPredictionService svc;
  const data::UserId u = svc.RegisterUser("u0");
  const data::ServiceId s0 = svc.RegisterService("s0");
  const data::ServiceId s1 = svc.RegisterService("s1");
  for (int i = 0; i < 30; ++i) {
    svc.ReportObservation({0, u, i % 2 == 0 ? s0 : s1, 0.5 + 0.01 * i,
                           static_cast<double>(i)});
  }
  svc.Tick(40.0);

  const data::ServiceId unknown = 999;
  const std::vector<data::ServiceId> cands = {s0, unknown, s1};
  std::vector<double> values(cands.size());
  std::vector<double> unc(cands.size());
  ASSERT_TRUE(svc.PredictQoSRow(u, cands, values, unc));
  ExpectClose(values[0], *svc.PredictQoS(u, s0), "row vs scalar service 0");
  ExpectClose(values[2], *svc.PredictQoS(u, s1), "row vs scalar service 1");
  EXPECT_TRUE(std::isnan(values[1]));
  EXPECT_TRUE(std::isnan(unc[1]));
  EXPECT_GE(unc[0], 0.0);

  // Unknown user: false, everything NaN.
  EXPECT_FALSE(svc.PredictQoSRow(77, cands, values, {}));
  for (const double v : values) EXPECT_TRUE(std::isnan(v));
}

}  // namespace
}  // namespace amf
