// Point-in-time recovery end to end (DESIGN.md §12): checkpoint watermark
// + journal replay through the normal validation/gating pipeline, bit-
// identity with an uncrashed control, duplicate-replay idempotence, the
// pre-v3 full-replay fallback with generation-gated rejection, and the
// shed-load conservation identity extended with journal drops.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "adapt/concurrent_service.h"
#include "adapt/prediction_service.h"
#include "core/checkpoint.h"
#include "core/online_trainer.h"
#include "stream/wal.h"

namespace amf::adapt {
namespace {

namespace fs = std::filesystem;

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/wal_recovery_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Deterministic service config: no replay epochs per tick, so applying
/// the same observation sequence is bit-reproducible (no RNG involved).
PredictionServiceConfig DeterministicConfig() {
  PredictionServiceConfig cfg{core::MakeResponseTimeConfig(/*seed=*/7),
                              core::TrainerConfig{}, 0};
  return cfg;
}

core::CheckpointManagerConfig CkptConfig(const std::string& dir) {
  core::CheckpointManagerConfig cfg;
  cfg.directory = dir;
  cfg.interval_seconds = 1e9;  // only the first Tick saves
  return cfg;
}

stream::JournalConfig WalConfig(const std::string& dir) {
  stream::JournalConfig cfg;
  cfg.directory = dir;
  cfg.fsync_policy = stream::FsyncPolicy::kAlways;
  return cfg;
}

void RegisterPopulation(QoSPredictionService& s, std::size_t users,
                        std::size_t services) {
  for (std::size_t u = 0; u < users; ++u) {
    s.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t v = 0; v < services; ++v) {
    s.RegisterService(std::string("s").append(std::to_string(v)));
  }
}

void ExpectModelsBitIdentical(const core::AmfModel& a,
                              const core::AmfModel& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_services(), b.num_services());
  for (data::UserId u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.UserError(u), b.UserError(u)) << "u=" << u;
    const auto fa = a.UserFactors(u);
    const auto fb = b.UserFactors(u);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t k = 0; k < fa.size(); ++k) {
      EXPECT_EQ(fa[k], fb[k]) << "u=" << u << " k=" << k;  // bitwise
    }
  }
  for (data::ServiceId s = 0; s < a.num_services(); ++s) {
    EXPECT_EQ(a.ServiceError(s), b.ServiceError(s)) << "s=" << s;
    const auto fa = a.ServiceFactors(s);
    const auto fb = b.ServiceFactors(s);
    for (std::size_t k = 0; k < fa.size(); ++k) {
      EXPECT_EQ(fa[k], fb[k]) << "s=" << s << " k=" << k;
    }
  }
}

std::vector<data::QoSSample> PreCrashBatch() {
  return {{0, 0, 0, 0.5, 1.0},
          {0, 1, 1, 0.7, 2.0},
          {0, 2, 2, 0.9, 3.0},
          {0, 0, 1, 0.6, 4.0}};
}

std::vector<data::QoSSample> PostCheckpointBatch() {
  return {{0, 1, 0, 0.8, 11.0}, {0, 2, 1, 0.4, 12.0}, {0, 0, 2, 1.1, 13.0}};
}

TEST(WalRecoveryTest, RecoverReplaysOnlyPastWatermarkAndMatchesControl) {
  const std::string ck = ScratchDir("pit_ck");
  const std::string wal = ScratchDir("pit_wal");
  {
    QoSPredictionService a(DeterministicConfig());
    RegisterPopulation(a, 3, 3);
    a.EnableCheckpoints(CkptConfig(ck));
    a.EnableJournal(WalConfig(wal));
    for (const auto& s : PreCrashBatch()) a.ReportObservation(s);
    a.Tick(10.0);  // applies + checkpoints (watermark = 4)
    // Journaled and acknowledged, but the process "crashes" before any
    // Tick applies or checkpoints them: only the journal remembers.
    for (const auto& s : PostCheckpointBatch()) a.ReportObservation(s);
  }

  QoSPredictionService b(DeterministicConfig());
  b.EnableCheckpoints(CkptConfig(ck));
  b.EnableJournal(WalConfig(wal));
  const auto report = b.Recover();
  EXPECT_TRUE(report.checkpoint_restored);
  EXPECT_EQ(report.watermark, 4u);
  EXPECT_EQ(report.scanned, 3u);  // only LSNs 5..7
  EXPECT_EQ(report.replayed, 3u);
  EXPECT_EQ(report.rejected_generation, 0u);
  EXPECT_EQ(report.quarantined_segments, 0u);
  const core::PipelineStats stats = b.pipeline_stats();
  EXPECT_EQ(stats.journal_replayed, 3u);
  EXPECT_EQ(stats.journal_replay_rejected, 0u);

  // Uncrashed control: restore the same checkpoint, then feed the same
  // post-checkpoint observations through the ordinary ingest path.
  QoSPredictionService c(DeterministicConfig());
  c.EnableCheckpoints(CkptConfig(ck));
  ASSERT_TRUE(c.RestoreFromLatestCheckpoint());
  for (const auto& s : PostCheckpointBatch()) c.ReportObservation(s);
  c.Tick(13.0);

  ExpectModelsBitIdentical(b.model(), c.model());
  const auto p = b.PredictQoS(0, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(std::isfinite(*p));
}

TEST(WalRecoveryTest, DuplicateReplayIsIdempotent) {
  const std::string ck = ScratchDir("dup_ck");
  const std::string wal = ScratchDir("dup_wal");
  {
    QoSPredictionService a(DeterministicConfig());
    RegisterPopulation(a, 3, 3);
    a.EnableCheckpoints(CkptConfig(ck));
    a.EnableJournal(WalConfig(wal));
    for (const auto& s : PreCrashBatch()) a.ReportObservation(s);
    a.Tick(10.0);
    for (const auto& s : PostCheckpointBatch()) a.ReportObservation(s);
  }

  QoSPredictionService once(DeterministicConfig());
  once.EnableCheckpoints(CkptConfig(ck));
  once.EnableJournal(WalConfig(wal));
  once.Recover();

  // Same recovery, then the whole journal is force-fed AGAIN through the
  // ingest path: the validator's duplicate gate must reject every record
  // (same (u,s,timestamp) keys), leaving the factors bit-identical.
  QoSPredictionService twice(DeterministicConfig());
  twice.EnableCheckpoints(CkptConfig(ck));
  twice.EnableJournal(WalConfig(wal));
  twice.Recover();
  const stream::JournalReadResult journal = stream::ReadJournal(wal);
  ASSERT_EQ(journal.records.size(), 7u);
  for (const stream::JournalRecord& r : journal.records) {
    twice.ReportObservation(r.sample);
  }
  twice.Tick(13.0);
  EXPECT_GE(twice.pipeline_stats().rejected_duplicate, 7u);

  ExpectModelsBitIdentical(once.model(), twice.model());
}

TEST(WalRecoveryTest, FallbackFullReplayRejectsRecycledGeneration) {
  const std::string ck = ScratchDir("gen_ck");
  const std::string wal = ScratchDir("gen_wal");
  core::CheckpointManagerConfig ckcfg = CkptConfig(ck);
  {
    QoSPredictionService a(DeterministicConfig());
    a.RegisterUser("alice");  // id 0, generation 0
    a.RegisterService("svc");
    a.EnableJournal(WalConfig(wal));
    a.ReportObservation({0, 0, 0, 0.5, 1.0});  // journaled under alice
    a.Tick(1.0);
    ASSERT_TRUE(a.RetireUser("alice"));
    ASSERT_EQ(a.RegisterUser("bob"), 0u);      // recycles id 0, generation 1
    a.ReportObservation({0, 0, 0, 0.9, 2.0});  // journaled under bob
    // Checkpoint WITHOUT a watermark (what a v1/v2 writer produces):
    // recovery must fall back to replaying the full journal.
    core::CheckpointManager mgr(ckcfg);
    const core::CheckpointRegistries regs{a.users().ToImage(),
                                          a.services().ToImage()};
    mgr.Save(a.model(), a.trainer().store(), 2.0, 0.1, &regs);
  }

  QoSPredictionService b(DeterministicConfig());
  b.EnableCheckpoints(ckcfg);
  b.EnableJournal(WalConfig(wal));
  const auto report = b.Recover();
  EXPECT_TRUE(report.checkpoint_restored);
  EXPECT_EQ(report.watermark, 0u);  // fallback: no watermark in the file
  EXPECT_EQ(report.scanned, 2u);
  // Alice's record carries generation 0 but slot 0 now belongs to bob
  // (generation 1): replaying it would train bob's factors with alice's
  // observation. Rejected, not misapplied.
  EXPECT_EQ(report.rejected_generation, 1u);
  EXPECT_EQ(report.replayed, 1u);
  EXPECT_EQ(b.pipeline_stats().journal_replay_rejected, 1u);
}

TEST(WalRecoveryTest, ConcurrentFacadeRecoverMatchesControlPredictions) {
  const std::string ck = ScratchDir("conc_ck");
  const std::string wal = ScratchDir("conc_wal");
  constexpr std::size_t kUsers = 4, kServices = 6;
  std::vector<data::QoSSample> phase1, phase2;
  for (std::uint32_t i = 0; i < 24; ++i) {
    phase1.push_back({0, static_cast<data::UserId>(i % kUsers),
                      static_cast<data::ServiceId>(i % kServices),
                      0.3 + 0.01 * static_cast<double>(i),
                      static_cast<double>(i + 1)});
  }
  for (std::uint32_t i = 24; i < 36; ++i) {
    phase2.push_back({0, static_cast<data::UserId>(i % kUsers),
                      static_cast<data::ServiceId>(i % kServices),
                      0.3 + 0.01 * static_cast<double>(i),
                      static_cast<double>(i + 1)});
  }
  const double t1 = 24.0, t2 = 36.0;

  {
    ConcurrentPredictionService a(DeterministicConfig());
    for (std::size_t u = 0; u < kUsers; ++u) {
      a.RegisterUser(std::string("u").append(std::to_string(u)));
    }
    for (std::size_t s = 0; s < kServices; ++s) {
      a.RegisterService(std::string("s").append(std::to_string(s)));
    }
    a.EnableCheckpoints(CkptConfig(ck));
    a.EnableJournal(WalConfig(wal));
    for (const auto& s : phase1) a.ReportObservation(s);
    a.Tick(t1);  // drain -> group-commit journal -> apply -> checkpoint
    for (const auto& s : phase2) a.ReportObservation(s);
    a.Tick(t2);  // journaled + applied, but NOT checkpointed (interval)
  }

  ConcurrentPredictionService b(DeterministicConfig());
  b.EnableCheckpoints(CkptConfig(ck));
  b.EnableJournal(WalConfig(wal));
  const auto report = b.Recover();
  EXPECT_TRUE(report.checkpoint_restored);
  EXPECT_EQ(report.watermark, phase1.size());
  EXPECT_EQ(report.replayed, phase2.size());

  ConcurrentPredictionService c(DeterministicConfig());
  c.EnableCheckpoints(CkptConfig(ck));
  ASSERT_TRUE(c.RestoreFromLatestCheckpoint());
  for (const auto& s : phase2) c.ReportObservation(s);
  c.Tick(t2);

  for (data::UserId u = 0; u < kUsers; ++u) {
    for (data::ServiceId s = 0; s < kServices; ++s) {
      const auto pb = b.PredictQoS(u, s);
      const auto pc = c.PredictQoS(u, s);
      ASSERT_EQ(pb.has_value(), pc.has_value());
      if (pb) {
        EXPECT_TRUE(std::isfinite(*pb));
        EXPECT_EQ(*pb, *pc) << "u=" << u << " s=" << s;  // bit-identical
      }
    }
  }
}

TEST(WalRecoveryTest, ConservationIdentityHoldsWithJournalDrops) {
  PredictionServiceConfig cfg = DeterministicConfig();
  ConcurrentPredictionService service(cfg, /*ring_capacity=*/8);
  stream::JournalConfig wal = WalConfig(ScratchDir("identity_wal"));
  wal.fsync_policy = stream::FsyncPolicy::kOs;
  wal.fail_appends_after = 4;  // the drain's group commit fails mid-batch
  service.EnableJournal(wal);

  constexpr std::size_t kTotal = 100;
  for (std::size_t i = 0; i < kTotal; ++i) {
    service.ReportObservation({0, static_cast<data::UserId>(i), 0, 1.0,
                               static_cast<double>(i)});
  }
  service.Tick(200.0);

  const core::PipelineStats stats = service.pipeline_stats();
  EXPECT_EQ(stats.ring_dropped, kTotal - 8);
  EXPECT_EQ(stats.journal_appended, 4u);
  EXPECT_EQ(stats.journal_dropped, 4u);  // 8 drained, hook capped at 4
  EXPECT_EQ(stats.accepted, 4u);
  // The extended conservation identity: every reported sample is
  // accounted exactly once across ring shed, journal shed, trainer-queue
  // shed, and the validator verdicts.
  EXPECT_EQ(stats.ring_dropped + stats.journal_dropped +
                stats.dropped_on_overflow + stats.seen(),
            kTotal);
  EXPECT_EQ(stats.dropped(), stats.ring_dropped + stats.dropped_on_overflow +
                                 stats.journal_dropped);
}

}  // namespace
}  // namespace amf::adapt
