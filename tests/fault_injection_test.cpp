// Fault-tolerance coverage: FaultInjector units, retry-with-backoff,
// trainer watchdog, the degradation ladder, and the end-to-end chaos
// integration test (drops + corruption + mid-run crash/restore) that the
// robustness work is accepted against.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "adapt/environment.h"
#include "adapt/fault_injector.h"
#include "adapt/prediction_service.h"
#include "common/retry.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/trainer_watchdog.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace amf {
namespace {

namespace fs = std::filesystem;

data::SyntheticConfig SmallSynthetic() {
  data::SyntheticConfig cfg;
  cfg.users = 16;
  cfg.services = 40;
  cfg.slices = 4;
  cfg.seed = 99;
  return cfg;
}

// --- FaultInjector -------------------------------------------------------

TEST(FaultInjectorTest, DeterministicInSeed) {
  const data::SyntheticQoSDataset dataset(SmallSynthetic());
  const adapt::Environment env(dataset);
  adapt::FaultInjectorConfig cfg;
  cfg.drop_prob = 0.3;
  cfg.spike_prob = 0.2;
  adapt::FaultInjector a(env, cfg);
  adapt::FaultInjector b(env, cfg);
  for (int i = 0; i < 200; ++i) {
    const auto ra = a.Invoke(i % 16, i % 40, 10.0);
    const auto rb = b.Invoke(i % 16, i % 40, 10.0);
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (ra) {
      EXPECT_DOUBLE_EQ(ra->response_time, rb->response_time);
    }
  }
  EXPECT_EQ(a.stats().drops, b.stats().drops);
}

TEST(FaultInjectorTest, DropProbabilityOneDropsEverything) {
  const data::SyntheticQoSDataset dataset(SmallSynthetic());
  const adapt::Environment env(dataset);
  adapt::FaultInjectorConfig cfg;
  cfg.drop_prob = 1.0;
  adapt::FaultInjector injector(env, cfg);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(injector.Invoke(0, 0, 1.0).has_value());
  }
  EXPECT_EQ(injector.stats().drops, 50u);
  EXPECT_TRUE(injector.Observe(0, 0, 1.0).empty());
}

TEST(FaultInjectorTest, SpikeMultipliesResponseTime) {
  const data::SyntheticQoSDataset dataset(SmallSynthetic());
  const adapt::Environment env(dataset);
  adapt::FaultInjectorConfig cfg;
  cfg.spike_prob = 1.0;
  cfg.spike_multiplier = 10.0;
  adapt::FaultInjector injector(env, cfg);
  const auto result = injector.Invoke(2, 3, 5.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->response_time,
                   10.0 * env.Invoke(2, 3, 5.0).response_time);
}

TEST(FaultInjectorTest, CorruptionCyclesThroughEveryMode) {
  const data::SyntheticQoSDataset dataset(SmallSynthetic());
  const adapt::Environment env(dataset);
  adapt::FaultInjectorConfig cfg;
  cfg.corrupt_prob = 1.0;
  adapt::FaultInjector injector(env, cfg);
  const data::QoSSample clean{0, 1, 2, 1.5, 10.0};
  bool saw_nan = false, saw_inf = false, saw_nonpositive = false,
       saw_huge = false;
  for (int i = 0; i < 10; ++i) {
    for (const data::QoSSample& s : injector.Deliver(clean)) {
      if (std::isnan(s.value)) saw_nan = true;
      if (std::isinf(s.value)) saw_inf = true;
      if (std::isfinite(s.value) && s.value <= 0.0) saw_nonpositive = true;
      if (std::isfinite(s.value) && s.value > 1e9) saw_huge = true;
    }
  }
  EXPECT_TRUE(saw_nan);
  EXPECT_TRUE(saw_inf);
  EXPECT_TRUE(saw_nonpositive);
  EXPECT_TRUE(saw_huge);
  EXPECT_EQ(injector.stats().corruptions, 10u);
}

TEST(FaultInjectorTest, DuplicateDeliveryReturnsTwoSamples) {
  const data::SyntheticQoSDataset dataset(SmallSynthetic());
  const adapt::Environment env(dataset);
  adapt::FaultInjectorConfig cfg;
  cfg.duplicate_prob = 1.0;
  adapt::FaultInjector injector(env, cfg);
  const std::vector<data::QoSSample> out =
      injector.Deliver({0, 1, 2, 1.5, 10.0});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], out[1]);
}

TEST(FaultInjectorTest, ChurnReattributesToPhantomIds) {
  const data::SyntheticQoSDataset dataset(SmallSynthetic());
  const adapt::Environment env(dataset);
  adapt::FaultInjectorConfig cfg;
  cfg.churn_prob = 1.0;
  cfg.churn_id_offset = 5000;
  adapt::FaultInjector injector(env, cfg);
  const std::vector<data::QoSSample> out =
      injector.Deliver({0, 1, 2, 1.5, 10.0});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].user >= 5000 || out[0].service >= 5000);
}

// --- Retry with backoff --------------------------------------------------

TEST(RetryTest, SucceedsAfterTransientFailures) {
  int calls = 0;
  std::vector<double> slept;
  std::size_t attempts = 0;
  const std::optional<int> result = common::RetryWithBackoff(
      [&]() -> std::optional<int> {
        if (++calls < 3) return std::nullopt;
        return 42;
      },
      common::BackoffConfig{.max_attempts = 5,
                            .initial_delay_seconds = 0.01,
                            .multiplier = 2.0,
                            .max_delay_seconds = 1.0},
      [&](double s) { slept.push_back(s); }, &attempts);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(attempts, 3u);
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_DOUBLE_EQ(slept[0], 0.01);
  EXPECT_DOUBLE_EQ(slept[1], 0.02);  // exponential growth
}

TEST(RetryTest, GivesUpAfterMaxAttemptsAndCapsDelay) {
  std::vector<double> slept;
  std::size_t attempts = 0;
  const std::optional<int> result = common::RetryWithBackoff(
      []() -> std::optional<int> { return std::nullopt; },
      common::BackoffConfig{.max_attempts = 4,
                            .initial_delay_seconds = 0.5,
                            .multiplier = 10.0,
                            .max_delay_seconds = 1.0},
      [&](double s) { slept.push_back(s); }, &attempts);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(attempts, 4u);
  ASSERT_EQ(slept.size(), 3u);
  EXPECT_DOUBLE_EQ(slept[1], 1.0);  // capped
  EXPECT_DOUBLE_EQ(slept[2], 1.0);
}

// --- Trainer watchdog ----------------------------------------------------

template <typename Pred>
bool WaitFor(Pred pred, double timeout_seconds = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(TrainerWatchdogTest, RestartsWorkerAfterExceptions) {
  std::atomic<int> calls{0};
  core::WatchdogConfig cfg;
  cfg.check_interval_seconds = 0.005;
  cfg.stall_timeout_seconds = 30.0;  // exceptions only, no stall detection
  core::TrainerWatchdog dog(
      [&](const std::atomic<bool>&) {
        const int n = ++calls;
        if (n <= 2) throw std::runtime_error("transient step failure");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      },
      cfg);
  dog.Start();
  EXPECT_TRUE(WaitFor([&] { return dog.heartbeats() >= 5; }));
  dog.Stop();
  EXPECT_EQ(dog.exceptions(), 2u);
  EXPECT_GE(dog.restarts(), 2u);
  EXPECT_FALSE(dog.gave_up());
  EXPECT_NE(dog.last_error().find("transient step failure"),
            std::string::npos);
}

TEST(TrainerWatchdogTest, GivesUpWhenWorkerKeepsDying) {
  core::WatchdogConfig cfg;
  cfg.check_interval_seconds = 0.005;
  cfg.stall_timeout_seconds = 30.0;
  cfg.max_restarts = 2;
  core::TrainerWatchdog dog(
      [](const std::atomic<bool>&) { throw std::runtime_error("always"); },
      cfg);
  dog.Start();
  EXPECT_TRUE(WaitFor([&] { return dog.gave_up(); }));
  dog.Stop();
  EXPECT_EQ(dog.restarts(), 2u);
  EXPECT_GE(dog.exceptions(), 3u);  // initial worker + both relaunches died
}

TEST(TrainerWatchdogTest, CancelsAndRestartsStalledWorker) {
  std::atomic<int> calls{0};
  std::atomic<bool> saw_cancel{false};
  core::WatchdogConfig cfg;
  cfg.check_interval_seconds = 0.005;
  cfg.stall_timeout_seconds = 0.05;
  core::TrainerWatchdog dog(
      [&](const std::atomic<bool>& cancel) {
        if (++calls == 1) {
          // Wedge until the watchdog raises the cancel token.
          while (!cancel.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          saw_cancel.store(true, std::memory_order_release);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      },
      cfg);
  dog.Start();
  EXPECT_TRUE(WaitFor([&] { return dog.heartbeats() >= 3; }));
  dog.Stop();
  EXPECT_TRUE(saw_cancel.load());
  EXPECT_GE(dog.stalls(), 1u);
}

// --- Degradation ladder --------------------------------------------------

adapt::PredictionServiceConfig ServiceConfig() {
  adapt::PredictionServiceConfig cfg;
  cfg.model = core::MakeResponseTimeConfig(7);
  return cfg;
}

TEST(DegradationLadderTest, UnknownEverythingIsUnavailable) {
  adapt::QoSPredictionService service(ServiceConfig());
  const auto p = service.PredictResilient(0, 0);
  EXPECT_EQ(p.source,
            adapt::QoSPredictionService::PredictionSource::kUnavailable);
  EXPECT_TRUE(std::isnan(p.value));
  EXPECT_EQ(service.degradation_stats().unavailable, 1u);
}

TEST(DegradationLadderTest, UnconvergedEntityFallsBackToServiceMean) {
  adapt::PredictionServiceConfig cfg = ServiceConfig();
  cfg.degradation.max_entity_error = 0.0;  // never trust the model
  adapt::QoSPredictionService service(cfg);
  service.RegisterUser("u0");
  service.RegisterService("s0");
  service.ReportObservation({0, 0, 0, 2.0, 1.0});
  service.ReportObservation({0, 0, 0, 4.0, 2.0});
  service.Tick(2.0);
  const auto p = service.PredictResilient(0, 0);
  EXPECT_EQ(p.source,
            adapt::QoSPredictionService::PredictionSource::kServiceMean);
  EXPECT_DOUBLE_EQ(p.value, 3.0);
}

TEST(DegradationLadderTest, LastKnownGoodWhenNoServiceStats) {
  adapt::PredictionServiceConfig cfg = ServiceConfig();
  cfg.degradation.max_entity_error = 0.0;
  adapt::QoSPredictionService service(cfg);
  service.RegisterUser("u0");
  service.RegisterService("s0");
  // Bypass ReportObservation so no running mean exists; the stored sample
  // (e.g. restored from a checkpoint) is the only knowledge left.
  service.trainer().mutable_store().Upsert({0, 0, 0, 1.75, 1.0});
  const auto p = service.PredictResilient(0, 0);
  EXPECT_EQ(p.source,
            adapt::QoSPredictionService::PredictionSource::kLastKnownGood);
  EXPECT_DOUBLE_EQ(p.value, 1.75);
}

TEST(DegradationLadderTest, ConvergedModelServesFromTheModel) {
  adapt::QoSPredictionService service(ServiceConfig());
  service.RegisterUser("u0");
  service.RegisterService("s0");
  for (int i = 0; i < 60; ++i) {
    service.ReportObservation({0, 0, 0, 1.0, 1.0 + i});
    service.Tick(1.0 + i);
  }
  const auto p = service.PredictResilient(0, 0);
  EXPECT_EQ(p.source, adapt::QoSPredictionService::PredictionSource::kModel);
  EXPECT_TRUE(std::isfinite(p.value));
}

// --- End-to-end chaos integration ---------------------------------------

TEST(FaultInjectionIntegrationTest, SurvivesCorruptionAndCrashRestore) {
  const data::SyntheticConfig synth = SmallSynthetic();
  const data::SyntheticQoSDataset dataset(synth);
  const adapt::Environment env(dataset);

  adapt::FaultInjectorConfig faults;
  faults.drop_prob = 0.05;
  faults.corrupt_prob = 0.10;
  faults.duplicate_prob = 0.02;
  faults.seed = 1234;
  adapt::FaultInjector injector(env, faults);

  core::CheckpointManagerConfig ckpt;
  ckpt.directory = ::testing::TempDir() + "/fault_injection_ckpt";
  fs::remove_all(ckpt.directory);
  ckpt.interval_seconds = 30.0;
  ckpt.retention = 4;

  const auto make_service = [&]() {
    auto svc =
        std::make_unique<adapt::QoSPredictionService>(ServiceConfig());
    svc->EnableCheckpoints(ckpt);
    for (std::size_t u = 0; u < synth.users; ++u) {
      svc->RegisterUser(std::string("u").append(std::to_string(u)));
    }
    for (std::size_t s = 0; s < synth.services; ++s) {
      svc->RegisterService(std::string("s").append(std::to_string(s)));
    }
    return svc;
  };
  auto service = make_service();

  common::Rng rng(4321);
  const std::size_t ticks = 30;
  const double tick_seconds = 15.0;
  double now = 0.0;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    now = static_cast<double>(tick + 1) * tick_seconds;
    for (int i = 0; i < 100; ++i) {
      const auto u = static_cast<data::UserId>(rng.Index(synth.users));
      const auto s = static_cast<data::ServiceId>(rng.Index(synth.services));
      for (const data::QoSSample& delivered : injector.Observe(u, s, now)) {
        service->ReportObservation(delivered);
      }
    }
    service->Tick(now);

    if (tick + 1 == ticks / 2) {
      // Simulated crash: only the checkpoint directory survives, and the
      // newest checkpoint is hand-truncated (torn write) so recovery has
      // to detect it and fall back to the previous valid one.
      service->checkpoints()->Save(service->model(),
                                   service->trainer().store(), now,
                                   service->trainer().last_epoch_error());
      service.reset();
      core::CheckpointManager probe(ckpt);
      const std::vector<std::string> files = probe.List();
      ASSERT_GE(files.size(), 2u);
      fs::resize_file(files.back(), fs::file_size(files.back()) / 2);

      service = make_service();
      ASSERT_TRUE(service->RestoreFromLatestCheckpoint());
      EXPECT_GE(service->checkpoints()->corrupt_skipped(), 1u);
    }
  }

  // Despite 10% corruption, every latent factor is finite.
  const core::AmfModel& model = service->model();
  for (data::UserId u = 0; u < model.num_users(); ++u) {
    for (const double x : model.UserFactors(u)) {
      ASSERT_TRUE(std::isfinite(x)) << "user " << u;
    }
  }
  for (data::ServiceId s = 0; s < model.num_services(); ++s) {
    for (const double x : model.ServiceFactors(s)) {
      ASSERT_TRUE(std::isfinite(x)) << "service " << s;
    }
  }

  // The ingestion guards caught faults (corruption produces non-finite,
  // non-positive, and absurd-magnitude values; duplication produces
  // re-deliveries).
  const core::PipelineStats stats = service->pipeline_stats();
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.rejected(), 0u);
  EXPECT_GT(stats.rejected_nonfinite, 0u);
  EXPECT_GT(stats.rejected_duplicate, 0u);

  // End-state accuracy stays bounded: median relative error of resilient
  // predictions over the full matrix against ground truth.
  std::vector<double> pred;
  std::vector<double> truth;
  for (std::size_t u = 0; u < synth.users; ++u) {
    for (std::size_t s = 0; s < synth.services; ++s) {
      const auto p =
          service->PredictResilient(static_cast<data::UserId>(u),
                                    static_cast<data::ServiceId>(s));
      ASSERT_TRUE(std::isfinite(p.value));
      pred.push_back(p.value);
      truth.push_back(env.TrueResponseTime(static_cast<data::UserId>(u),
                                           static_cast<data::ServiceId>(s),
                                           now));
    }
  }
  const eval::Metrics m = eval::ComputeMetrics(pred, truth);
  EXPECT_EQ(m.count, synth.users * synth.services);
  EXPECT_LT(m.mre, 0.8) << "median relative error degraded under faults";

  fs::remove_all(ckpt.directory);
}

}  // namespace
}  // namespace amf
