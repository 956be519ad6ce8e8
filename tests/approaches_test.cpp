#include "exp/approaches.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "tests/test_util.h"

namespace amf::exp {
namespace {

TEST(ApproachesTest, StandardListMatchesPaperOrder) {
  const auto names = StandardApproaches();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "UPCC");
  EXPECT_EQ(names[1], "IPCC");
  EXPECT_EQ(names[2], "UIPCC");
  EXPECT_EQ(names[3], "PMF");
  EXPECT_EQ(names[4], "AMF");
}

TEST(ApproachesTest, AmfConfigPerAttribute) {
  const auto rt = AmfConfigFor(data::QoSAttribute::kResponseTime, 1);
  EXPECT_DOUBLE_EQ(rt.transform.alpha, -0.007);
  EXPECT_DOUBLE_EQ(rt.transform.r_max, 20.0);
  const auto tp = AmfConfigFor(data::QoSAttribute::kThroughput, 1);
  EXPECT_DOUBLE_EQ(tp.transform.alpha, -0.05);
  EXPECT_DOUBLE_EQ(tp.transform.r_max, 7000.0);
}

TEST(ApproachesTest, FactoriesProduceCorrectlyNamedPredictors) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"UPCC", "UPCC"},       {"IPCC", "IPCC"},
      {"UIPCC", "UIPCC"},     {"PMF", "PMF"},
      {"AMF", "AMF"},         {"AMF(a=1)", "AMF(a=1)"},
      {"AMF(fixed-w)", "AMF(fixed-w)"}};
  for (const auto& [key, expected_name] : cases) {
    const auto factory = MakeFactory(key, data::QoSAttribute::kResponseTime);
    const auto predictor = factory(1);
    ASSERT_NE(predictor, nullptr) << key;
    EXPECT_EQ(predictor->name(), expected_name);
  }
}

TEST(ApproachesTest, ExtendedApproachesFitAndPredict) {
  const linalg::Matrix slice = testutil::SmallRtSlice(25, 60);
  const data::TrainTestSplit split = testutil::Split(slice, 0.3);
  for (const char* name : {"NIMF", "AMF(a=1)", "AMF(fixed-w)"}) {
    const auto factory =
        MakeFactory(name, data::QoSAttribute::kResponseTime);
    auto predictor = factory(7);
    predictor->Fit(split.train);
    const eval::Metrics m = eval::EvaluatePredictor(*predictor, split.test);
    EXPECT_GT(m.count, 0u) << name;
    EXPECT_TRUE(std::isfinite(m.mre)) << name;
    EXPECT_LT(m.mre, 1.5) << name;
  }
}

TEST(ApproachesTest, ProtocolWithAmfIsDeterministic) {
  const linalg::Matrix slice = testutil::SmallRtSlice(20, 50);
  eval::ProtocolConfig cfg;
  cfg.density = 0.3;
  cfg.rounds = 2;
  cfg.seed = 13;
  const auto factory = MakeFactory("AMF", data::QoSAttribute::kResponseTime);
  const auto a = eval::RunProtocol(slice, cfg, factory);
  const auto b = eval::RunProtocol(slice, cfg, factory);
  EXPECT_DOUBLE_EQ(a.average.mae, b.average.mae);
  EXPECT_DOUBLE_EQ(a.average.mre, b.average.mre);
  EXPECT_DOUBLE_EQ(a.average.npre, b.average.npre);
}

TEST(ApproachesTest, ThroughputFactoriesUseThroughputRange) {
  // A TP-configured AMF must be able to output values above 20 (RT's
  // ceiling) when trained on large throughput values.
  data::SparseMatrix train(4, 4);
  for (std::size_t u = 0; u < 4; ++u) {
    for (std::size_t s = 0; s < 4; ++s) {
      train.Set(u, s, 4000.0 + 100.0 * (u + s));
    }
  }
  auto amf = MakeFactory("AMF", data::QoSAttribute::kThroughput)(1);
  amf->Fit(train);
  EXPECT_GT(amf->Predict(0, 0), 100.0);
}

TEST(ApproachesTest, UnknownNameThrows) {
  EXPECT_THROW(MakeFactory("SVD++", data::QoSAttribute::kResponseTime),
               common::CheckError);
}

TEST(ApproachesTest, EveryStandardApproachFitsAndPredicts) {
  const linalg::Matrix slice = testutil::SmallRtSlice(25, 60);
  const data::TrainTestSplit split = testutil::Split(slice, 0.3);
  for (const std::string& name : StandardApproaches()) {
    const auto factory = MakeFactory(name, data::QoSAttribute::kResponseTime);
    auto predictor = factory(7);
    predictor->Fit(split.train);
    const eval::Metrics m = eval::EvaluatePredictor(*predictor, split.test);
    EXPECT_GT(m.count, 0u) << name;
    EXPECT_TRUE(std::isfinite(m.mae)) << name;
    EXPECT_TRUE(std::isfinite(m.mre)) << name;
  }
}

}  // namespace
}  // namespace amf::exp
