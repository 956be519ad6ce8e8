#include "adapt/simulation.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "data/synthetic.h"

namespace amf::adapt {
namespace {

data::SyntheticQoSDataset MakeDataset() {
  data::SyntheticConfig cfg;
  cfg.users = 6;
  cfg.services = 9;
  cfg.slices = 8;
  cfg.seed = 12;
  return data::SyntheticQoSDataset(cfg);
}

Workflow MakeWorkflow() {
  return Workflow({{"a", {0, 1, 2}}, {"b", {3, 4, 5}}, {"c", {6, 7, 8}}});
}

TEST(SimulationTest, RunsConfiguredTicks) {
  const auto dataset = MakeDataset();
  Environment env(dataset, 900.0);
  NoAdaptationPolicy policy;
  SimulationConfig cfg;
  cfg.ticks = 5;
  cfg.tick_seconds = 900.0;
  AdaptationSimulation sim(env, nullptr, cfg);
  sim.AddApplication(0, MakeWorkflow(), policy, 2.0);
  sim.AddApplication(1, MakeWorkflow(), policy, 2.0);
  sim.Run();
  EXPECT_EQ(sim.ticks_run(), 5u);
  EXPECT_DOUBLE_EQ(sim.Now(), 5 * 900.0);
  EXPECT_EQ(sim.TotalStats().invocations, 2u * 3u * 5u);
}

TEST(SimulationTest, StepOnceAdvancesClock) {
  const auto dataset = MakeDataset();
  Environment env(dataset, 900.0);
  NoAdaptationPolicy policy;
  SimulationConfig cfg;
  cfg.ticks = 3;
  AdaptationSimulation sim(env, nullptr, cfg);
  sim.AddApplication(0, MakeWorkflow(), policy, 2.0);
  sim.StepOnce();
  EXPECT_EQ(sim.ticks_run(), 1u);
  sim.Run();  // completes the remaining 2
  EXPECT_EQ(sim.ticks_run(), 3u);
}

TEST(SimulationTest, PredictionServiceCollectsAllObservations) {
  const auto dataset = MakeDataset();
  Environment env(dataset, 900.0);
  QoSPredictionService service;
  for (int u = 0; u < 2; ++u) {
    service.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (int s = 0; s < 9; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }
  NoAdaptationPolicy policy;
  SimulationConfig cfg;
  cfg.ticks = 4;
  AdaptationSimulation sim(env, &service, cfg);
  sim.AddApplication(0, MakeWorkflow(), policy, 2.0);
  sim.AddApplication(1, MakeWorkflow(), policy, 2.0);
  sim.Run();
  EXPECT_EQ(service.observations(), 2u * 3u * 4u);
}

TEST(SimulationTest, OraclePolicyReducesViolationsVsNone) {
  const auto dataset = MakeDataset();
  const double sla = 1.5;
  SimulationConfig cfg;
  cfg.ticks = 8;

  Environment env1(dataset, 900.0);
  NoAdaptationPolicy none;
  AdaptationSimulation sim_none(env1, nullptr, cfg);
  for (data::UserId u = 0; u < 4; ++u) {
    sim_none.AddApplication(u, MakeWorkflow(), none, sla);
  }
  sim_none.Run();

  Environment env2(dataset, 900.0);
  OraclePolicy oracle(env2);
  AdaptationSimulation sim_oracle(env2, nullptr, cfg);
  for (data::UserId u = 0; u < 4; ++u) {
    sim_oracle.AddApplication(u, MakeWorkflow(), oracle, sla);
  }
  sim_oracle.Run();

  EXPECT_LE(sim_oracle.TotalStats().violations,
            sim_none.TotalStats().violations);
}

TEST(SimulationTest, InvalidConfigThrows) {
  const auto dataset = MakeDataset();
  Environment env(dataset, 900.0);
  SimulationConfig bad;
  bad.ticks = 0;
  EXPECT_THROW(AdaptationSimulation(env, nullptr, bad), common::CheckError);
}

}  // namespace
}  // namespace amf::adapt
