// Cross-module integration tests: the full pipelines the benches rely on,
// at reduced scale.
#include <gtest/gtest.h>

#include "adapt/simulation.h"
#include "common/statistics.h"
#include "core/amf_predictor.h"
#include "core/model_io.h"
#include "eval/protocol.h"
#include "exp/approaches.h"
#include "exp/scale.h"
#include "stream/sample_stream.h"
#include "tests/test_util.h"

namespace amf {
namespace {

TEST(IntegrationTest, TableOneShapeHolds) {
  // Miniature Table I: AMF must beat UIPCC and PMF on MRE and NPRE at a
  // sparse density (the paper's headline result).
  const linalg::Matrix slice = testutil::SmallRtSlice(50, 200, 77);
  eval::ProtocolConfig cfg;
  cfg.density = 0.15;
  cfg.rounds = 2;
  cfg.seed = 31;

  auto run = [&](const std::string& name) {
    return eval::RunProtocol(
               slice, cfg,
               exp::MakeFactory(name, data::QoSAttribute::kResponseTime))
        .average;
  };
  const eval::Metrics uipcc = run("UIPCC");
  const eval::Metrics pmf = run("PMF");
  const eval::Metrics amf = run("AMF");

  EXPECT_LT(amf.mre, uipcc.mre);
  EXPECT_LT(amf.mre, pmf.mre);
  EXPECT_LT(amf.npre, uipcc.npre);
  EXPECT_LT(amf.npre, pmf.npre);
}

TEST(IntegrationTest, DataTransformationImprovesMre) {
  // Miniature Fig. 11: AMF with tuned alpha beats AMF(alpha=1).
  const linalg::Matrix slice = testutil::SmallRtSlice(50, 200, 78);
  eval::ProtocolConfig cfg;
  cfg.density = 0.2;
  cfg.rounds = 2;
  cfg.seed = 32;
  const double amf = eval::RunProtocol(
                         slice, cfg,
                         exp::MakeFactory("AMF",
                                          data::QoSAttribute::kResponseTime))
                         .average.mre;
  const double linear =
      eval::RunProtocol(
          slice, cfg,
          exp::MakeFactory("AMF(a=1)", data::QoSAttribute::kResponseTime))
          .average.mre;
  EXPECT_LT(amf, linear);
}

TEST(IntegrationTest, OnlineWarmStartIsCheaperThanColdStart) {
  // Miniature Fig. 13: at the start of slice 1 the warm model is already
  // close (its first-epoch training error is a fraction of the cold
  // model's first-epoch error on slice 0), so far less work is needed.
  exp::ExperimentScale scale = exp::SmallScale();
  scale.users = 30;
  scale.services = 100;
  scale.slices = 3;
  const auto dataset = exp::MakeDataset(scale);

  stream::StreamConfig stream_cfg;
  stream_cfg.density = 0.2;
  stream_cfg.seed = 5;
  const stream::SampleStream stream(*dataset, stream_cfg);

  core::AmfModel model(core::MakeResponseTimeConfig(1));
  core::TrainerConfig trainer_cfg;
  trainer_cfg.expiry_seconds = 900.0;
  core::OnlineTrainer trainer(model, trainer_cfg);

  // Cold error: prediction MRE on slice 0's observations before any
  // training (random factors).
  model.EnsureUser(static_cast<data::UserId>(dataset->num_users() - 1));
  model.EnsureService(
      static_cast<data::ServiceId>(dataset->num_services() - 1));
  auto mre_on = [&](const std::vector<data::QoSSample>& samples) {
    std::vector<double> rel;
    for (const auto& s : samples) {
      rel.push_back(std::abs(model.PredictRaw(s.user, s.service) - s.value) /
                    s.value);
    }
    return common::Median(rel);
  };
  const std::vector<data::QoSSample> slice0 = stream.Slice(0);
  const double cold_mre = mre_on(slice0);

  // Train slice 0 to convergence.
  trainer.AdvanceTime(dataset->SliceTimestamp(0));
  for (const auto& s : slice0) trainer.Observe(s);
  trainer.RunUntilConverged();

  // Warm error: prediction MRE on slice 1's observations BEFORE they are
  // trained on. The warm model only has to track drift, not learn from
  // scratch, which is why its per-slice convergence time collapses.
  const std::vector<data::QoSSample> slice1 = stream.Slice(1);
  const double warm_mre = mre_on(slice1);
  EXPECT_LT(warm_mre, 0.5 * cold_mre);
}

TEST(IntegrationTest, ChurnScenarioNewEntitiesCatchUp) {
  // Miniature Fig. 14.
  const linalg::Matrix slice = testutil::SmallRtSlice(40, 120, 80);
  common::Rng rng(3);
  const data::TrainTestSplit split = data::SplitSlice(slice, 0.2, rng);
  const std::size_t old_users = 32, old_services = 96;  // 80%

  core::AmfModel model(core::MakeResponseTimeConfig(1));
  core::TrainerConfig cfg;
  cfg.expiry_seconds = 0.0;
  core::OnlineTrainer trainer(model, cfg);

  auto is_old = [&](const data::QoSSample& s) {
    return s.user < old_users && s.service < old_services;
  };
  for (const auto& s : split.train.ToSamples()) {
    if (is_old(s)) trainer.Observe(s);
  }
  trainer.RunUntilConverged();

  auto mre = [&](bool old_block) {
    std::vector<double> rel;
    for (const auto& s : split.test) {
      if (is_old(s) != old_block) continue;
      if (!model.HasUser(s.user) || !model.HasService(s.service)) continue;
      rel.push_back(std::abs(model.PredictRaw(s.user, s.service) - s.value) /
                    s.value);
    }
    return common::Median(rel);
  };
  const double existing_before = mre(true);

  for (const auto& s : split.train.ToSamples()) {
    if (!is_old(s)) trainer.Observe(s);
  }
  trainer.ProcessIncoming();
  const double new_at_join = mre(false);
  // Fixed replay budget (RunUntilConverged can stall early here: the mean
  // epoch error is dominated by the already-converged 80% block).
  for (int e = 0; e < 30; ++e) trainer.ReplayEpoch();
  const double new_after = mre(false);
  const double existing_after = mre(true);

  // New entities improve; existing stay roughly stable.
  EXPECT_LT(new_after, 0.95 * new_at_join);
  EXPECT_LT(existing_after, existing_before * 1.5 + 0.05);
}

TEST(IntegrationTest, ModelSurvivesSerializationMidStream) {
  const linalg::Matrix slice = testutil::SmallRtSlice(20, 60);
  const data::TrainTestSplit split = testutil::Split(slice, 0.3);
  core::AmfPredictor amf(core::MakeResponseTimeConfig(2));
  amf.Fit(split.train);

  std::stringstream ss;
  core::SaveModel(ss, amf.model());
  core::AmfModel restored = core::LoadModel(ss);

  // The restored model keeps training online and matches the original's
  // predictions initially.
  for (std::size_t i = 0; i < 10 && i < split.test.size(); ++i) {
    const auto& s = split.test[i];
    EXPECT_DOUBLE_EQ(restored.PredictRaw(s.user, s.service),
                     amf.Predict(s.user, s.service));
  }
  restored.OnlineUpdate(0, 0, 1.0);
}

TEST(IntegrationTest, AdaptationWithAmfBeatsNoAdaptation) {
  data::SyntheticConfig dcfg;
  dcfg.users = 10;
  dcfg.services = 12;
  dcfg.slices = 16;
  dcfg.seed = 9;
  const data::SyntheticQoSDataset dataset(dcfg);
  const double sla = 1.5;

  auto run = [&](bool use_amf) {
    adapt::Environment env(dataset, 900.0);
    env.AddOutage({0, 2 * 900.0, 9 * 900.0});
    adapt::QoSPredictionService service;
    for (int u = 0; u < 6; ++u) {
      service.RegisterUser(std::string("u").append(std::to_string(u)));
    }
    for (int s = 0; s < 12; ++s) {
      service.RegisterService(std::string("s").append(std::to_string(s)));
    }
    adapt::NoAdaptationPolicy none;
    adapt::PredictedBestPolicy predicted(service);
    adapt::AdaptationPolicy& policy =
        use_amf ? static_cast<adapt::AdaptationPolicy&>(predicted)
                : static_cast<adapt::AdaptationPolicy&>(none);
    adapt::SimulationConfig scfg;
    scfg.ticks = 16;
    adapt::AdaptationSimulation sim(env, &service, scfg);
    for (data::UserId u = 0; u < 6; ++u) {
      sim.AddApplication(u, adapt::Workflow({{"t1", {0, 1, 2, 3}},
                                             {"t2", {4, 5, 6, 7}}}),
                         policy, sla);
    }
    sim.Run();
    return sim.TotalStats();
  };

  const adapt::AppStats with_amf = run(true);
  const adapt::AppStats without = run(false);
  EXPECT_LT(with_amf.violations, without.violations);
  EXPECT_GT(with_amf.adaptations, 0u);
}

}  // namespace
}  // namespace amf
