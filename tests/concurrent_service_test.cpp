#include "adapt/concurrent_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "linalg/matrix.h"

namespace amf::adapt {
namespace {

TEST(ConcurrentServiceTest, BasicFlowMatchesPlainService) {
  ConcurrentPredictionService service;
  const auto u = service.RegisterUser("u");
  const auto s = service.RegisterService("s");
  for (int i = 0; i < 100; ++i) {
    service.ReportObservation({0, u, s, 1.2, 0.0});
    service.Tick(0.0);
  }
  const auto pred = service.PredictQoS(u, s);
  ASSERT_TRUE(pred.has_value());
  EXPECT_NEAR(*pred, 1.2, 0.5);
  EXPECT_EQ(service.observations(), 100u);
}

TEST(ConcurrentServiceTest, PredictUnknownIsNullopt) {
  ConcurrentPredictionService service;
  EXPECT_FALSE(service.PredictQoS(0, 0).has_value());
}

TEST(ConcurrentServiceTest, ConcurrentReadersAndWriters) {
  ConcurrentPredictionService service;
  const std::size_t kUsers = 8, kServices = 16;
  for (std::size_t u = 0; u < kUsers; ++u) {
    service.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad_predictions{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load()) {
        const auto pred =
            service.PredictQoS(static_cast<data::UserId>(i % kUsers),
                               static_cast<data::ServiceId>(i % kServices));
        if (!pred || !std::isfinite(*pred)) {
          bad_predictions.fetch_add(1);
        }
        ++i;
      }
    });
  }

  std::thread writer([&] {
    for (int iter = 0; iter < 200; ++iter) {
      for (std::size_t u = 0; u < kUsers; ++u) {
        service.ReportObservation(
            {0, static_cast<data::UserId>(u),
             static_cast<data::ServiceId>((u + iter) % kServices),
             0.5 + 0.01 * (iter % 10), 0.0});
      }
      service.Tick(0.0);
    }
  });
  writer.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad_predictions.load(), 0u);
  EXPECT_EQ(service.observations(), 200u * kUsers);
}

TEST(ConcurrentServiceTest, TrainToConvergenceUnderReads) {
  ConcurrentPredictionService service;
  const auto u = service.RegisterUser("u");
  const auto s1 = service.RegisterService("s1");
  const auto s2 = service.RegisterService("s2");
  for (int i = 0; i < 10; ++i) {
    service.ReportObservation({0, u, s1, 0.1, 0.0});
    service.ReportObservation({0, u, s2, 6.0, 0.0});
  }
  std::thread reader([&] {
    for (int i = 0; i < 1000; ++i) {
      (void)service.PredictQoS(u, s1);
    }
  });
  service.TrainToConvergence(0.0);
  reader.join();
  EXPECT_LT(*service.PredictQoS(u, s1), *service.PredictQoS(u, s2));
}

TEST(ConcurrentServiceTest, PipelineStatsWaitFreeDuringTraining) {
  PredictionServiceConfig cfg;
  // Never declare convergence: run all max_epochs so training holds
  // train_mu_ for a deterministically long window (~tens of ms).
  cfg.trainer.convergence_patience = 1'000'000;
  cfg.trainer.max_epochs = 1500;
  ConcurrentPredictionService service(cfg);
  const std::size_t kUsers = 16, kServices = 64;
  for (std::size_t u = 0; u < kUsers; ++u) {
    service.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }
  for (std::size_t i = 0; i < 2000; ++i) {
    service.ReportObservation({0, static_cast<data::UserId>(i % kUsers),
                               static_cast<data::ServiceId>(i % kServices),
                               0.2 + 0.001 * static_cast<double>(i % 50),
                               static_cast<double>(i) * 1e-3});
    if (i % 500 == 0) service.Tick(static_cast<double>(i) * 1e-3);
  }

  std::atomic<bool> started{false}, done{false};
  std::thread trainer([&] {
    started.store(true);
    service.TrainToConvergence(10.0);
    done.store(true);
  });
  while (!started.load()) std::this_thread::yield();
  // pipeline_stats() must complete while train_mu_ is held by the trainer
  // thread: count snapshots that finished strictly mid-training.
  std::size_t during = 0;
  std::uint64_t last_updates = 0;
  while (!done.load()) {
    const bool before = done.load();
    const core::PipelineStats stats = service.pipeline_stats();
    const obs::MetricsSnapshot snap = service.metrics().Snapshot();
    if (!before && !done.load()) ++during;
    EXPECT_GT(stats.accepted, 0u);  // ingest happened before training
    const std::uint64_t updates = snap.CounterValue("trainer.updates");
    EXPECT_GE(updates, last_updates);  // counters are monotonic
    last_updates = updates;
  }
  trainer.join();
  EXPECT_GE(during, 1u)
      << "no stats snapshot completed while training was in flight";
}

TEST(ConcurrentServiceTest, ShedLoadFullyAccounted) {
  PredictionServiceConfig cfg;
  cfg.trainer.max_incoming = 4;  // trainer queue sheds the drained batch
  ConcurrentPredictionService service(cfg, /*ring_capacity=*/8);
  constexpr std::size_t kTotal = 100;
  std::size_t ring_accepted = 0;
  for (std::size_t i = 0; i < kTotal; ++i) {
    // Valid, distinct samples: any loss is capacity shedding, not
    // validation.
    if (service.ReportObservation({0, static_cast<data::UserId>(i), 0, 1.0,
                                   static_cast<double>(i)})) {
      ++ring_accepted;
    }
  }
  EXPECT_EQ(ring_accepted, 8u);  // ring capacity
  service.Tick(200.0);

  const core::PipelineStats stats = service.pipeline_stats();
  EXPECT_EQ(stats.ring_dropped, kTotal - 8);
  EXPECT_EQ(stats.dropped_on_overflow, 8u - cfg.trainer.max_incoming);
  EXPECT_EQ(stats.accepted, cfg.trainer.max_incoming);
  // Every sample is accounted exactly once across the shed stages
  // (ring, journal, trainer queue) and the validator verdicts — nothing
  // vanishes silently. No journal is enabled here, so journal_dropped
  // must stay zero; wal_recovery_test exercises the nonzero case.
  EXPECT_EQ(stats.journal_dropped, 0u);
  EXPECT_EQ(stats.ring_dropped + stats.journal_dropped +
                stats.dropped_on_overflow + stats.seen(),
            kTotal);
  EXPECT_EQ(stats.dropped(), stats.ring_dropped + stats.dropped_on_overflow +
                                 stats.journal_dropped);

  // Both shed stages appear as distinct counters in one metrics snapshot.
  const obs::MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("ingest.ring_dropped"), kTotal - 8);
  EXPECT_EQ(snap.CounterValue("trainer.queue_dropped"),
            8u - cfg.trainer.max_incoming);
  EXPECT_EQ(snap.CounterValue("ingest.reported"), 8u);
}

TEST(ConcurrentServiceTest, RetirementDefersToTrainingBarrier) {
  ConcurrentPredictionService service;
  const auto u = service.RegisterUser("u");
  service.RegisterService("s");
  EXPECT_FALSE(service.RetireUser("ghost"));
  EXPECT_TRUE(service.RetireUser("u"));
  // Queued, not applied: the slot stays active until the next barrier.
  auto occ = service.registry_occupancy();
  EXPECT_EQ(occ.users_active, 1u);
  EXPECT_EQ(occ.users_free, 0u);
  service.Tick(1.0);  // the barrier applies pending retirements
  occ = service.registry_occupancy();
  EXPECT_EQ(occ.users_active, 0u);
  EXPECT_EQ(occ.users_free, 1u);
  // The reclaimed slot recycles for the next tenant.
  EXPECT_EQ(service.RegisterUser("v"), u);
  EXPECT_EQ(service.registry_occupancy().users_free, 0u);
}

TEST(ConcurrentServiceTest, RingResidueForRetiredSlotIsRefused) {
  ConcurrentPredictionService service;
  const auto u = service.RegisterUser("u");
  const auto s = service.RegisterService("s");
  service.ReportObservation({0, u, s, 1.0, 0.0});
  service.Tick(0.0);
  EXPECT_EQ(service.pipeline_stats().rejected_unregistered, 0u);
  // An upload races a retirement: the sample sits in the ring when the
  // retire lands. The barrier applies the retirement BEFORE replaying the
  // staged batch, so the residue must be refused, not trained into the
  // recycled slot.
  service.ReportObservation({0, u, s, 1.0, 1.0});
  EXPECT_TRUE(service.RetireUser("u"));
  service.Tick(1.0);
  EXPECT_EQ(service.pipeline_stats().rejected_unregistered, 1u);
}

TEST(ConcurrentServiceTest, MetricsSnapshotCarriesInstrumentedSeries) {
  ConcurrentPredictionService service;
  const auto u = service.RegisterUser("u");
  const auto s = service.RegisterService("s");
  for (int i = 0; i < 32; ++i) {
    service.ReportObservation({0, u, s, 1.0, static_cast<double>(i)});
  }
  service.Tick(100.0);
  service.PredictQoS(u, s);
  std::vector<data::ServiceId> candidates{s, s};
  std::vector<double> values(candidates.size());
  service.PredictQoSMany(u, candidates, values);
  linalg::Matrix matrix;
  service.PredictMatrix(&matrix);
  ASSERT_EQ(matrix.rows(), 1u);
  ASSERT_EQ(matrix.cols(), 1u);
  EXPECT_TRUE(std::isfinite(matrix(0, 0)));
  EXPECT_NEAR(matrix(0, 0), *service.PredictQoS(u, s), 1e-12);

  const obs::MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("predict.calls"), 2u);  // incl. the NEAR read
  EXPECT_EQ(snap.CounterValue("predict.batch_calls"), 1u);
  EXPECT_EQ(snap.CounterValue("predict.batch_candidates"), 2u);
  EXPECT_EQ(snap.CounterValue("predict.matrix_calls"), 1u);
  EXPECT_GT(snap.CounterValue("trainer.updates"), 0u);
  EXPECT_GT(snap.CounterValue("pipeline.accepted"), 0u);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("ingest.ring_capacity"), 4096.0);
  const obs::HistogramSnapshot* lat = snap.FindHistogram("predict.seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->total, 2u);
  ASSERT_NE(snap.FindHistogram("trainer.epoch_seconds"), nullptr);
  EXPECT_TRUE(snap.HasCounter("predict.seqlock_retries"));
}

}  // namespace
}  // namespace amf::adapt
