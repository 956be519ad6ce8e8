// TSan-targeted stress tests for ConcurrentPredictionService: uploads,
// predictions, training ticks, and registration all racing each other.
// Assertions are deliberately weak (finite outputs, counters add up) —
// the point is that every interleaving TSan can provoke is exercised.
#include "adapt/concurrent_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/online_trainer.h"
#include "linalg/matrix.h"
#include "stream/wal.h"

namespace amf::adapt {
namespace {

PredictionServiceConfig StressConfig(std::size_t replay_threads) {
  PredictionServiceConfig config{core::MakeResponseTimeConfig(), {}, 1};
  config.trainer.replay_threads = replay_threads;
  config.trainer.expiry_seconds = 0.0;
  return config;
}

// Producers hammering ReportObservation + readers hammering PredictQoS /
// PredictQoSMany + one trainer thread ticking, all concurrently.
void RunStress(std::size_t replay_threads) {
  ConcurrentPredictionService service(StressConfig(replay_threads), 1024);
  constexpr std::size_t kUsers = 12, kServices = 24;
  for (std::size_t u = 0; u < kUsers; ++u) {
    service.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> produced{0};
  std::atomic<std::size_t> nonfinite{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      std::size_t i = static_cast<std::size_t>(p) * 7919;
      while (!stop.load(std::memory_order_relaxed)) {
        const data::QoSSample sample{
            0, static_cast<data::UserId>(i % kUsers),
            static_cast<data::ServiceId>((i * 31) % kServices),
            0.2 + 0.001 * static_cast<double>(i % 997), 0.0};
        service.ReportObservation(sample);
        produced.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<data::ServiceId> candidates(kServices);
      for (std::size_t s = 0; s < kServices; ++s) {
        candidates[s] = static_cast<data::ServiceId>(s);
      }
      std::vector<double> values(kServices);
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto u = static_cast<data::UserId>(i % kUsers);
        const auto pred = service.PredictQoS(
            u, static_cast<data::ServiceId>(i % kServices));
        if (pred.has_value() && !std::isfinite(*pred)) {
          nonfinite.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 7 == 0) {
          service.PredictQoSMany(u, candidates, values);
          for (std::size_t s = 0; s < kServices; ++s) {
            // NaN marks an unknown id; anything else must be finite.
            if (!std::isnan(values[s]) && !std::isfinite(values[s])) {
              nonfinite.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        ++i;
      }
    });
  }

  // The trainer role: ticks (ring drain + ingest + replay) racing the
  // producers and readers above.
  std::thread trainer([&] {
    for (int iter = 0; iter < 60; ++iter) {
      service.Tick(static_cast<double>(iter));
    }
  });

  trainer.join();
  stop.store(true);
  for (auto& t : producers) t.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(nonfinite.load(), 0u);
  EXPECT_EQ(service.observations() + service.dropped_observations(),
            produced.load());
}

TEST(ConcurrentStressTest, UploadPredictTrainSerialReplay) { RunStress(1); }

TEST(ConcurrentStressTest, UploadPredictTrainShardedReplay) { RunStress(4); }

TEST(ConcurrentStressTest, RegistrationChurnUnderLoad) {
  // Growth (the one remaining exclusive-lock path) racing predictions and
  // uploads: readers must always see either "unknown id" or a finite
  // value, never torn state.
  ConcurrentPredictionService service(StressConfig(2), 512);
  service.RegisterUser("u0");
  service.RegisterService("s0");
  service.ReportObservation({0, 0, 0, 1.0, 0.0});
  service.Tick(0.0);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> nonfinite{0};
  std::atomic<data::UserId> max_user{0};
  std::atomic<data::ServiceId> max_service{0};

  std::thread registrar([&] {
    for (int i = 1; i <= 200; ++i) {
      const auto u =
          service.RegisterUser(std::string("u").append(std::to_string(i)));
      const auto s =
          service.RegisterService(std::string("s").append(std::to_string(i)));
      max_user.store(u, std::memory_order_relaxed);
      max_service.store(s, std::memory_order_relaxed);
    }
  });

  std::thread producer([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto u = max_user.load(std::memory_order_relaxed);
      const auto s = max_service.load(std::memory_order_relaxed);
      service.ReportObservation(
          {0, static_cast<data::UserId>(i % (u + 1)),
           static_cast<data::ServiceId>(i % (s + 1)), 0.5, 0.0});
      ++i;
    }
  });

  std::thread reader([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto u = max_user.load(std::memory_order_relaxed);
      const auto s = max_service.load(std::memory_order_relaxed);
      const auto pred =
          service.PredictQoS(static_cast<data::UserId>(i % (u + 1)),
                             static_cast<data::ServiceId>(i % (s + 1)));
      if (pred.has_value() && !std::isfinite(*pred)) {
        nonfinite.fetch_add(1, std::memory_order_relaxed);
      }
      ++i;
    }
  });

  for (int iter = 0; iter < 30; ++iter) {
    service.Tick(static_cast<double>(iter));
  }
  registrar.join();
  stop.store(true);
  producer.join();
  reader.join();

  EXPECT_EQ(nonfinite.load(), 0u);
  // Everything the registrar created is now predictable.
  service.Tick(31.0);
  EXPECT_TRUE(service.PredictQoS(200, 200).has_value());
}

TEST(ConcurrentStressTest, JoinRetireChurnRacesPredictions) {
  // Transient entities joining, uploading, and retiring while readers
  // predict and the trainer ticks: exercises the barrier-deferred
  // reclamation path (registry mutation + seqlock row rewrite + store
  // purge) against concurrent row readers under TSan.
  ConcurrentPredictionService service(StressConfig(2), 1024);
  constexpr std::size_t kBaseUsers = 6, kBaseServices = 12;
  for (std::size_t u = 0; u < kBaseUsers; ++u) {
    service.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kBaseServices; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> nonfinite{0};
  constexpr int kChurnCycles = 150;
  constexpr std::size_t kWindow = 4;

  std::thread churner([&] {
    for (int i = 0; i < kChurnCycles; ++i) {
      const auto u =
          service.RegisterUser("churn-u" + std::to_string(i));
      const auto s =
          service.RegisterService("churn-s" + std::to_string(i));
      service.ReportObservation({0, u, s, 0.7, 0.0});
      if (i >= static_cast<int>(kWindow)) {
        const std::string old = std::to_string(i - kWindow);
        EXPECT_TRUE(service.RetireUser("churn-u" + old));
        EXPECT_TRUE(service.RetireService("churn-s" + old));
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        // Ids beyond the base range hit recycled/in-flight slots.
        const auto pred = service.PredictQoS(
            static_cast<data::UserId>(i % (kBaseUsers + 8)),
            static_cast<data::ServiceId>(i % (kBaseServices + 8)));
        if (pred.has_value() && !std::isfinite(*pred)) {
          nonfinite.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }

  std::thread producer([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      service.ReportObservation(
          {0, static_cast<data::UserId>(i % kBaseUsers),
           static_cast<data::ServiceId>(i % kBaseServices), 0.4, 0.0});
      ++i;
    }
  });

  for (int iter = 0; iter < 60; ++iter) {
    service.Tick(static_cast<double>(iter));
  }
  churner.join();
  // Retire the final window, then one last barrier to apply everything.
  for (int i = kChurnCycles - static_cast<int>(kWindow); i < kChurnCycles;
       ++i) {
    EXPECT_TRUE(service.RetireUser("churn-u" + std::to_string(i)));
    EXPECT_TRUE(service.RetireService("churn-s" + std::to_string(i)));
  }
  service.Tick(61.0);
  stop.store(true);
  producer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(nonfinite.load(), 0u);
  const auto occ = service.registry_occupancy();
  // Every churned entity retired: only the base population stays active,
  // and after the barrier every slot is either active or free-listed.
  EXPECT_EQ(occ.users_active, kBaseUsers);
  EXPECT_EQ(occ.services_active, kBaseServices);
  EXPECT_LE(occ.user_slots, kBaseUsers + kChurnCycles);
  EXPECT_LE(occ.service_slots, kBaseServices + kChurnCycles);
  EXPECT_EQ(occ.user_slots, occ.users_active + occ.users_free);
  EXPECT_EQ(occ.service_slots, occ.services_active + occ.services_free);
}

TEST(ConcurrentStressTest, AdjacentRowHammer) {
  // The arena layout's core claim: one row's guarded SGD publish shares no
  // cache line — and, for correctness under TSan, no synchronization
  // state — with its neighbors. Two writers hammer adjacent service rows
  // (s and s+1 for every even s) while readers sweep the block-validated
  // shared paths across exactly those rows. Any layout bug that lets a
  // publish touch a neighbor's lanes, or any hole in the block validation
  // protocol, shows up here as a TSan report or a non-finite readout.
  core::AmfConfig cfg = core::MakeResponseTimeConfig(/*seed=*/31);
  cfg.rank = 10;
  core::AmfModel model(cfg);
  constexpr std::size_t kUsers = 4;
  // Span several validation blocks so block boundaries are exercised.
  constexpr std::size_t kServices = core::AmfModel::kSharedPredictBlock * 3;
  model.EnsureUser(kUsers - 1);
  model.EnsureService(kServices - 1);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> nonfinite{0};

  // Writer w owns user w and the services with parity w: the two writers
  // always update adjacent service rows concurrently, never the same row
  // (the seqlock orders one writer per row; exclusion is ours to provide).
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s =
            static_cast<data::ServiceId>(((2 * i) % kServices) + w);
        model.OnlineUpdateGuarded(static_cast<data::UserId>(w),
                                  s % kServices,
                                  0.3 + 0.001 * static_cast<double>(i % 71));
        ++i;
      }
    });
  }

  std::vector<data::ServiceId> ids(kServices);
  for (std::size_t s = 0; s < kServices; ++s) {
    ids[s] = static_cast<data::ServiceId>(s);
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<double> row(kServices);
      std::vector<double> gather(kServices);
      for (int iter = 0; iter < 400; ++iter) {
        const auto u =
            static_cast<data::UserId>((iter + r) % (kUsers - 2));
        model.PredictRowRawShared(u + 2, row);  // users no writer touches
        model.PredictManyRawShared(u + 2, ids, gather);
        for (std::size_t s = 0; s < kServices; ++s) {
          if (!std::isfinite(row[s]) || !std::isfinite(gather[s])) {
            nonfinite.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (!std::isfinite(model.PredictRawShared(
                u + 2, static_cast<data::ServiceId>(iter % kServices)))) {
          nonfinite.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (auto& t : readers) t.join();
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(nonfinite.load(), 0u);

  // Post-race invariant: every row pointer still honors the arena
  // alignment contract (no reallocation happened under the hammer).
  for (data::ServiceId s = 0; s < model.num_services(); ++s) {
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(
                  model.ServiceFactors(s).data()) %
                  core::AmfModel::kFactorRowAlignment,
              0u);
  }
}

TEST(ConcurrentStressTest, ReplicaRefreshRacesMatrixScans) {
  // Compressed read replicas (DESIGN.md §13): the trainer's barrier-time
  // RefreshReplicas republishes bf16 rows through the replica seqlocks
  // while readers stream whole-matrix and batched scans off those same
  // slabs. Any torn replica row, any refresh outside the barrier's
  // quiescence, or any hole in the packed-version block validation shows
  // up as a TSan report or a non-finite readout. The mid-flight precision
  // flips exercise SetReadPrecision's claim to full exclusion.
  ConcurrentPredictionService service(StressConfig(2), 1024);
  constexpr std::size_t kUsers = 8, kServices = 96;
  for (std::size_t u = 0; u < kUsers; ++u) {
    service.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }
  service.SetReadPrecision(core::ReadPrecision::kBf16);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> nonfinite{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      std::size_t i = static_cast<std::size_t>(p) * 7919;
      while (!stop.load(std::memory_order_relaxed)) {
        service.ReportObservation(
            {0, static_cast<data::UserId>(i % kUsers),
             static_cast<data::ServiceId>((i * 31) % kServices),
             0.2 + 0.001 * static_cast<double>(i % 997), 0.0});
        ++i;
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      linalg::Matrix scan;
      std::vector<data::ServiceId> candidates(kServices);
      for (std::size_t s = 0; s < kServices; ++s) {
        candidates[s] = static_cast<data::ServiceId>(s);
      }
      std::vector<double> values(kServices);
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        service.PredictMatrix(&scan);
        for (const double v : scan.data()) {
          if (!std::isfinite(v)) {
            nonfinite.fetch_add(1, std::memory_order_relaxed);
          }
        }
        service.PredictQoSMany(static_cast<data::UserId>(i % kUsers),
                               candidates, values);
        for (std::size_t s = 0; s < kServices; ++s) {
          if (!std::isnan(values[s]) && !std::isfinite(values[s])) {
            nonfinite.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++i;
      }
    });
  }

  std::thread trainer([&] {
    for (int iter = 0; iter < 60; ++iter) {
      service.Tick(static_cast<double>(iter));
      if (iter == 20) service.SetReadPrecision(core::ReadPrecision::kFp32);
      if (iter == 40) service.SetReadPrecision(core::ReadPrecision::kBf16);
    }
  });

  trainer.join();
  stop.store(true);
  for (auto& t : producers) t.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(nonfinite.load(), 0u);
  EXPECT_EQ(service.read_precision(), core::ReadPrecision::kBf16);
}

TEST(ConcurrentStressTest, WalAppendRotateStress) {
  // The journal's intended writer is the single drain thread, but its
  // contract is "concurrent appenders are safe". Hammer Append/AppendBatch
  // from several threads with a tiny segment cap (every few appends
  // rotate) while another thread forces fsyncs and watermark GC, then
  // require a full read-back: every successful append durable exactly
  // once, LSNs dense from 1..N.
  const std::string dir =
      ::testing::TempDir() + "/wal_stress_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  stream::JournalConfig cfg;
  cfg.directory = dir;
  cfg.fsync_policy = stream::FsyncPolicy::kOs;
  cfg.segment_max_bytes = 1024;
  stream::ObservationJournal journal(cfg);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 300;
  std::atomic<std::size_t> appended{0};
  std::atomic<bool> stop{false};

  std::thread maintenance([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      journal.SyncNow();
      // GC far behind the tail: correctness (no live record lost) is
      // checked by the read-back below.
      const std::uint64_t last = journal.last_lsn();
      if (last > 600) journal.RemoveSegmentsCoveredBy(last - 600);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::vector<data::QoSSample> batch;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const data::QoSSample sample{
            0, static_cast<data::UserId>(t), static_cast<data::ServiceId>(i),
            0.5, static_cast<double>(t * kPerThread + i)};
        if (i % 10 == 9) {
          batch.assign(3, sample);
          appended.fetch_add(journal.AppendBatch(batch),
                             std::memory_order_relaxed);
        } else if (journal.Append(sample).has_value()) {
          appended.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  maintenance.join();

  EXPECT_EQ(journal.last_lsn(), appended.load());
  // Records GC'd below the final watermark are legitimately gone; all
  // surviving LSNs must be unique, in order, and gap-free per scan
  // guarantees (gaps only where GC removed whole segments).
  const stream::JournalReadResult read = stream::ReadJournal(dir);
  EXPECT_EQ(read.scan.quarantined_segments, 0u);
  ASSERT_FALSE(read.records.empty());
  EXPECT_EQ(read.records.back().lsn, appended.load());
  for (std::size_t i = 1; i < read.records.size(); ++i) {
    EXPECT_LT(read.records[i - 1].lsn, read.records[i].lsn);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace amf::adapt
