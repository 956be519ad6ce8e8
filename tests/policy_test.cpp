#include "adapt/policy.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace amf::adapt {
namespace {

data::SyntheticQoSDataset MakeDataset() {
  data::SyntheticConfig cfg;
  cfg.users = 4;
  cfg.services = 6;
  cfg.slices = 2;
  cfg.seed = 4;
  return data::SyntheticQoSDataset(cfg);
}

AbstractTask MakeTask() { return AbstractTask{"t", {0, 1, 2, 3}}; }

TaskContext ViolatedContext(const AbstractTask& task) {
  TaskContext ctx;
  ctx.task = &task;
  ctx.user = 0;
  ctx.current_binding = 0;
  ctx.observed_rt = 10.0;
  ctx.failed = false;
  ctx.sla_threshold = 2.0;
  ctx.now_seconds = 0.0;
  return ctx;
}

TEST(NoAdaptationPolicyTest, NeverRebinds) {
  const AbstractTask task = MakeTask();
  NoAdaptationPolicy policy;
  EXPECT_EQ(policy.name(), "none");
  EXPECT_FALSE(policy.SelectBinding(ViolatedContext(task)).has_value());
}

TEST(RandomPolicyTest, NoRebindWithoutViolation) {
  const AbstractTask task = MakeTask();
  RandomPolicy policy(1);
  TaskContext ctx = ViolatedContext(task);
  ctx.observed_rt = 1.0;  // under SLA
  EXPECT_FALSE(policy.SelectBinding(ctx).has_value());
}

TEST(RandomPolicyTest, RebindsToDifferentCandidateOnViolation) {
  const AbstractTask task = MakeTask();
  RandomPolicy policy(1);
  for (int i = 0; i < 20; ++i) {
    const auto pick = policy.SelectBinding(ViolatedContext(task));
    ASSERT_TRUE(pick.has_value());
    EXPECT_NE(*pick, 0u);
    EXPECT_LE(*pick, 3u);
  }
}

TEST(RandomPolicyTest, FailureTriggersRebind) {
  const AbstractTask task = MakeTask();
  RandomPolicy policy(2);
  TaskContext ctx = ViolatedContext(task);
  ctx.observed_rt = 1.0;
  ctx.failed = true;
  EXPECT_TRUE(policy.SelectBinding(ctx).has_value());
}

TEST(RandomPolicyTest, SingleCandidateKeepsBinding) {
  const AbstractTask task{"solo", {0}};
  RandomPolicy policy(3);
  EXPECT_FALSE(policy.SelectBinding(ViolatedContext(task)).has_value());
}

TEST(OraclePolicyTest, PicksTrulyBestCandidate) {
  const auto dataset = MakeDataset();
  Environment env(dataset, 900.0);
  OraclePolicy policy(env);
  const AbstractTask task = MakeTask();
  const auto pick = policy.SelectBinding(ViolatedContext(task));
  // Find the true best among candidates for user 0 at t=0.
  data::ServiceId best = 0;
  double best_rt = 1e300;
  for (data::ServiceId c : task.candidates) {
    const double rt = env.TrueResponseTime(0, c, 0.0);
    if (rt < best_rt) {
      best_rt = rt;
      best = c;
    }
  }
  if (best == 0) {
    EXPECT_FALSE(pick.has_value());  // current already best
  } else {
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, best);
  }
}

TEST(OraclePolicyTest, SkipsDownCandidates) {
  const auto dataset = MakeDataset();
  Environment env(dataset, 900.0);
  // Take every candidate down except 2.
  env.AddOutage({0, 0.0, 1e9});
  env.AddOutage({1, 0.0, 1e9});
  env.AddOutage({3, 0.0, 1e9});
  OraclePolicy policy(env);
  const AbstractTask task = MakeTask();
  const auto pick = policy.SelectBinding(ViolatedContext(task));
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);
}

TEST(PredictedBestPolicyTest, FollowsServicePredictions) {
  const auto dataset = MakeDataset();
  QoSPredictionService service;
  for (int u = 0; u < 4; ++u) {
    service.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (int s = 0; s < 6; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }
  // Teach the model strongly that service 2 is fast for user 0 and the
  // others are slow.
  for (int i = 0; i < 300; ++i) {
    service.ReportObservation({0, 0, 2, 0.05, 0.0});
    service.ReportObservation({0, 0, 0, 8.0, 0.0});
    service.ReportObservation({0, 0, 1, 9.0, 0.0});
    service.ReportObservation({0, 0, 3, 7.0, 0.0});
    service.Tick(0.0);
  }
  PredictedBestPolicy policy(service);
  const AbstractTask task = MakeTask();
  const auto pick = policy.SelectBinding(ViolatedContext(task));
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);
}

TEST(PredictedBestPolicyTest, RiskAversionFollowsUncertaintyPenalty) {
  // Train two candidates to different degrees, then verify that the
  // risk-averse policy's pick is exactly the argmin of
  // value * (1 + kappa * uncertainty) computed from the service's own
  // uncertainty-aware predictions (and risk-neutral the argmin of value).
  QoSPredictionService service;
  service.RegisterUser("u");
  for (int s = 0; s < 3; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }
  for (int i = 0; i < 300; ++i) {
    service.ReportObservation({0, 0, 2, 1.0, 0.0});
    service.Tick(0.0);
  }
  for (int i = 0; i < 2; ++i) {
    service.ReportObservation({0, 0, 1, 0.8, 0.0});
    service.Tick(0.0);
  }

  const AbstractTask task{"t", {1, 2}};
  const double kappa = 5.0;
  auto argmin = [&](auto score) {
    data::ServiceId best = task.candidates[0];
    double best_score = 1e300;
    for (data::ServiceId c : task.candidates) {
      const auto p = *service.PredictQoSWithUncertainty(0, c);
      if (score(p) < best_score) {
        best_score = score(p);
        best = c;
      }
    }
    return best;
  };
  using P = QoSPredictionService::Prediction;
  const data::ServiceId neutral_best =
      argmin([](const P& p) { return p.value; });
  const data::ServiceId averse_best = argmin(
      [&](const P& p) { return p.value * (1.0 + kappa * p.uncertainty); });

  // Make the currently-bound service never the winner so a rebind always
  // results (current = a third, untrained candidate is impossible here;
  // use whichever candidate did NOT win for each policy).
  PredictedBestPolicy neutral(service, /*skip_untrained=*/false, 0.0);
  PredictedBestPolicy averse(service, /*skip_untrained=*/false, kappa);
  TaskContext ctx = ViolatedContext(task);

  ctx.current_binding = neutral_best == 1 ? 2 : 1;
  const auto neutral_pick = neutral.SelectBinding(ctx);
  ASSERT_TRUE(neutral_pick.has_value());
  EXPECT_EQ(*neutral_pick, neutral_best);

  ctx.current_binding = averse_best == 1 ? 2 : 1;
  const auto averse_pick = averse.SelectBinding(ctx);
  ASSERT_TRUE(averse_pick.has_value());
  EXPECT_EQ(*averse_pick, averse_best);

  // The barely-trained candidate must carry higher uncertainty.
  EXPECT_GT(service.model().PredictionUncertainty(0, 1),
            service.model().PredictionUncertainty(0, 2));
}

TEST(PredictedBestPolicyTest, KeepsBindingWhenNoViolation) {
  const auto dataset = MakeDataset();
  QoSPredictionService service;
  PredictedBestPolicy policy(service);
  const AbstractTask task = MakeTask();
  TaskContext ctx = ViolatedContext(task);
  ctx.observed_rt = 0.5;
  EXPECT_FALSE(policy.SelectBinding(ctx).has_value());
}

}  // namespace
}  // namespace amf::adapt
