// User-sharded multi-instance facade (adapt/sharded_service.h):
// registration lockstep, routed hot paths bit-identical to the home
// shard, mixed-batch scatter/gather, hogwild-style service-factor merge
// reconciliation (cross-shard row identity, cold-row skip, exact
// re-baselining), per-shard checkpoint/restore + manifest refusal, and
// a merge-vs-predict stress the TSan CI job runs.
#include "adapt/sharded_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/amf_predictor.h"
#include "core/checkpoint.h"
#include "stream/wal.h"

namespace amf::adapt {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kUsers = 16;
constexpr std::size_t kServices = 12;

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sharded_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Deterministic per-shard config: fixed seed, no replay epochs per
/// tick, so model state is a pure function of the observation sequence.
ShardedServiceConfig Cfg(std::size_t shards,
                         std::size_t merge_every_ticks = 0) {
  ShardedServiceConfig cfg;
  cfg.num_shards = shards;
  cfg.merge_every_ticks = merge_every_ticks;
  cfg.service = PredictionServiceConfig{core::MakeResponseTimeConfig(7),
                                        core::TrainerConfig{}, 0};
  return cfg;
}

void RegisterPopulation(ShardedPredictionService& s) {
  for (std::size_t u = 0; u < kUsers; ++u) {
    s.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t v = 0; v < kServices; ++v) {
    s.RegisterService(std::string("s").append(std::to_string(v)));
  }
}

/// Deterministic observation stream touching every shard (users 0..15
/// land on both halves of a 2-shard split and on all 4 quarters of a
/// 4-shard split — pinned by shard_router_test's golden hashes).
std::vector<data::QoSSample> Stream(std::size_t count, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<data::QoSSample> out;
  out.reserve(count);
  double now = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    now += 1e-3;
    out.push_back(data::QoSSample{
        .slice = 0,
        .user = static_cast<data::UserId>(rng.Index(kUsers)),
        .service = static_cast<data::ServiceId>(rng.Index(kServices)),
        .value = rng.LogNormal(-1.0, 0.5),
        .timestamp = now});
  }
  return out;
}

void FeedAndTick(ShardedPredictionService& s,
                 const std::vector<data::QoSSample>& stream) {
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(s.ReportObservation(stream[i]));
    if ((i & 63) == 63) s.Tick(stream[i].timestamp);
  }
  s.Tick(stream.empty() ? 0.0 : stream.back().timestamp);
}

TEST(ShardedServiceTest, RegistrationAssignsGlobalIdsInLockstep) {
  ShardedPredictionService svc(Cfg(4));
  for (std::size_t u = 0; u < kUsers; ++u) {
    EXPECT_EQ(svc.RegisterUser(std::string("u").append(std::to_string(u))),
              static_cast<data::UserId>(u));
  }
  for (std::size_t v = 0; v < kServices; ++v) {
    EXPECT_EQ(svc.RegisterService(std::string("s").append(std::to_string(v))),
              static_cast<data::ServiceId>(v));
  }
  // The AMF_CHECK inside the fan-out would have thrown on any shard
  // assigning a different id; reaching here means lockstep held.
  EXPECT_EQ(svc.num_shards(), 4u);
}

TEST(ShardedServiceTest, RoutedPredictionsBitIdenticalToHomeShard) {
  ShardedPredictionService svc(Cfg(4));
  RegisterPopulation(svc);
  FeedAndTick(svc, Stream(512, 11));
  for (data::UserId u = 0; u < kUsers; ++u) {
    const std::size_t home = svc.router().ShardOf(u);
    for (data::ServiceId s = 0; s < kServices; ++s) {
      const auto via_facade = svc.PredictQoS(u, s);
      const auto via_home = svc.shard(home).PredictQoS(u, s);
      ASSERT_EQ(via_facade.has_value(), via_home.has_value());
      if (via_facade.has_value()) {
        EXPECT_EQ(*via_facade, *via_home) << "u=" << u << " s=" << s;
      }
    }
  }
}

TEST(ShardedServiceTest, MixedBatchPairsMatchPerRequestBitwise) {
  ShardedPredictionService svc(Cfg(4));
  RegisterPopulation(svc);
  FeedAndTick(svc, Stream(512, 13));
  // Interleave users so consecutive batch entries hit different shards.
  std::vector<data::UserId> users;
  std::vector<data::ServiceId> services;
  for (data::UserId u = 0; u < kUsers; ++u) {
    for (data::ServiceId s = 0; s < kServices; ++s) {
      users.push_back(u);
      services.push_back(s);
    }
  }
  std::vector<double> values(users.size(), -1.0);
  svc.PredictQoSPairs(users, services, values);
  for (std::size_t i = 0; i < users.size(); ++i) {
    const auto expect = svc.PredictQoS(users[i], services[i]);
    ASSERT_TRUE(expect.has_value());
    EXPECT_EQ(values[i], *expect) << "i=" << i;
  }
  // Unknown ids come back NaN through the pair kernel.
  const data::UserId unknown_user = kUsers + 100;
  std::vector<data::UserId> uu{unknown_user};
  std::vector<data::ServiceId> ss{0};
  std::vector<double> vv{0.0};
  svc.PredictQoSPairs(uu, ss, vv);
  EXPECT_TRUE(std::isnan(vv[0]));
}

TEST(ShardedServiceTest, PredictManyRoutesToHomeShard) {
  ShardedPredictionService svc(Cfg(2));
  RegisterPopulation(svc);
  FeedAndTick(svc, Stream(256, 17));
  std::vector<data::ServiceId> candidates;
  for (data::ServiceId s = 0; s < kServices; ++s) candidates.push_back(s);
  std::vector<double> values(kServices, 0.0);
  for (data::UserId u = 0; u < kUsers; ++u) {
    ASSERT_TRUE(svc.PredictQoSMany(u, candidates, values));
    for (data::ServiceId s = 0; s < kServices; ++s) {
      const auto expect = svc.PredictQoS(u, s);
      ASSERT_TRUE(expect.has_value());
      EXPECT_EQ(values[s], *expect) << "u=" << u << " s=" << s;
    }
  }
}

TEST(ShardedServiceTest, MergeReconcilesServiceRowsAcrossShards) {
  ShardedPredictionService svc(Cfg(2));
  RegisterPopulation(svc);
  // One service no observation ever touches: the merge must skip it.
  const data::ServiceId cold = svc.RegisterService("cold");
  FeedAndTick(svc, Stream(512, 19));

  // Shards trained on disjoint user partitions: their service-factor
  // replicas must have diverged.
  const auto before0 = svc.shard(0).SnapshotServiceFactors();
  const auto before1 = svc.shard(1).SnapshotServiceFactors();
  std::size_t divergent = 0;
  for (data::ServiceId s = 0; s < kServices; ++s) {
    for (std::size_t k = 0; k < before0.rank; ++k) {
      if (before0.factors[s * before0.rank + k] !=
          before1.factors[s * before1.rank + k]) {
        ++divergent;
        break;
      }
    }
  }
  EXPECT_GT(divergent, 0u);
  EXPECT_EQ(before0.versions[cold], 0u);
  EXPECT_EQ(before1.versions[cold], 0u);

  const std::size_t merged = svc.MergeServiceFactors();
  EXPECT_GT(merged, 0u);
  EXPECT_LE(merged, static_cast<std::size_t>(kServices));  // cold skipped
  EXPECT_EQ(svc.merges(), 1u);

  // Every replica row is now bit-identical across shards, and the cold
  // row was never published (version still 0 => still its init state).
  const auto after0 = svc.shard(0).SnapshotServiceFactors();
  const auto after1 = svc.shard(1).SnapshotServiceFactors();
  ASSERT_EQ(after0.num_services, after1.num_services);
  for (data::ServiceId s = 0; s < after0.num_services; ++s) {
    EXPECT_EQ(after0.errors[s], after1.errors[s]) << "s=" << s;
    for (std::size_t k = 0; k < after0.rank; ++k) {
      EXPECT_EQ(after0.factors[s * after0.rank + k],
                after1.factors[s * after1.rank + k])
          << "s=" << s << " k=" << k;
    }
  }
  EXPECT_EQ(after0.versions[cold], 0u);
  EXPECT_EQ(after1.versions[cold], 0u);
}

TEST(ShardedServiceTest, MergeWithNoNewTrainingIsANoOp) {
  ShardedPredictionService svc(Cfg(2));
  RegisterPopulation(svc);
  FeedAndTick(svc, Stream(256, 23));
  EXPECT_GT(svc.MergeServiceFactors(), 0u);
  // The re-baseline excluded the merge's own publishes, so with no new
  // training every weight is zero and nothing is published.
  EXPECT_EQ(svc.MergeServiceFactors(), 0u);
  EXPECT_EQ(svc.MergeServiceFactors(), 0u);
}

TEST(ShardedServiceTest, PeriodicMergeFollowsTickCadence) {
  ShardedServiceConfig cfg = Cfg(2, /*merge_every_ticks=*/3);
  ShardedPredictionService svc(cfg);
  RegisterPopulation(svc);
  for (const auto& s : Stream(64, 29)) svc.ReportObservation(s);
  svc.Tick(1.0);
  svc.Tick(2.0);
  EXPECT_EQ(svc.merges(), 0u);
  svc.Tick(3.0);  // third tick: merge fires
  EXPECT_EQ(svc.merges(), 1u);
}

core::CheckpointManagerConfig CkptCfg(const std::string& dir) {
  core::CheckpointManagerConfig cfg;
  cfg.directory = dir;
  cfg.interval_seconds = 1e9;  // only the first Tick checkpoints
  return cfg;
}

stream::JournalConfig WalCfg(const std::string& dir) {
  stream::JournalConfig cfg;
  cfg.directory = dir;
  cfg.fsync_policy = stream::FsyncPolicy::kAlways;
  return cfg;
}

TEST(ShardedServiceTest, SurvivorsBitIdenticalAfterCheckpointRestore) {
  const std::string ck = ScratchDir("ckpt_bitid");
  const auto stream = Stream(256, 31);
  std::vector<double> before(kUsers * kServices, 0.0);
  {
    ShardedPredictionService a(Cfg(2));
    RegisterPopulation(a);
    for (const auto& s : stream) ASSERT_TRUE(a.ReportObservation(s));
    a.EnableCheckpoints(CkptCfg(ck));
    a.Tick(10.0);  // drains, applies, checkpoints every shard
    for (data::UserId u = 0; u < kUsers; ++u) {
      for (data::ServiceId s = 0; s < kServices; ++s) {
        before[u * kServices + s] = *a.PredictQoS(u, s);
      }
    }
  }  // "crash" with nothing past the checkpoint

  ShardedPredictionService b(Cfg(2));
  RegisterPopulation(b);
  b.EnableCheckpoints(CkptCfg(ck));
  const auto rep = b.Recover();
  EXPECT_TRUE(rep.manifest_ok) << rep.manifest_error;
  EXPECT_EQ(rep.shards_restored, 2u);
  ASSERT_EQ(rep.shards.size(), 2u);
  std::size_t mismatches = 0;
  for (data::UserId u = 0; u < kUsers; ++u) {
    for (data::ServiceId s = 0; s < kServices; ++s) {
      const auto p = b.PredictQoS(u, s);
      ASSERT_TRUE(p.has_value());
      if (*p != before[u * kServices + s]) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ShardedServiceTest, WalTailReplaysIntoEveryHomeShard) {
  const std::string ck = ScratchDir("wal_ck");
  const std::string wal = ScratchDir("wal_wal");
  const auto pre = Stream(128, 37);
  auto post = Stream(64, 41);
  for (auto& s : post) s.timestamp += 1.0;  // strictly after `pre`
  {
    ShardedPredictionService a(Cfg(2));
    RegisterPopulation(a);
    a.EnableCheckpoints(CkptCfg(ck));
    a.EnableJournal(WalCfg(wal));
    for (const auto& s : pre) ASSERT_TRUE(a.ReportObservation(s));
    a.Tick(10.0);  // journals + applies + checkpoints (the watermark)
    for (const auto& s : post) ASSERT_TRUE(a.ReportObservation(s));
    a.Tick(20.0);  // journals + applies the tail; NO second checkpoint
  }

  auto recover_once = [&](std::vector<double>* out) {
    ShardedPredictionService r(Cfg(2));
    RegisterPopulation(r);
    r.EnableCheckpoints(CkptCfg(ck));
    r.EnableJournal(WalCfg(wal));
    const auto rep = r.Recover();
    EXPECT_TRUE(rep.manifest_ok) << rep.manifest_error;
    EXPECT_EQ(rep.shards_restored, 2u);
    // Every tail record replays on exactly its home shard, none twice.
    EXPECT_EQ(rep.replayed, post.size());
    EXPECT_EQ(rep.rejected_generation, 0u);
    EXPECT_EQ(rep.quarantined_segments, 0u);
    out->assign(kUsers * kServices, 0.0);
    for (data::UserId u = 0; u < kUsers; ++u) {
      for (data::ServiceId s = 0; s < kServices; ++s) {
        const auto p = r.PredictQoS(u, s);
        ASSERT_TRUE(p.has_value());
        EXPECT_TRUE(std::isfinite(*p));
        (*out)[u * kServices + s] = *p;
      }
    }
  };
  std::vector<double> first, second;
  recover_once(&first);
  recover_once(&second);  // recovery is deterministic: bitwise repeatable
  EXPECT_EQ(first, second);
}

TEST(ShardedServiceTest, RecoverRefusesShardCountMismatch) {
  const std::string ck = ScratchDir("manifest_mismatch");
  {
    ShardedPredictionService four(Cfg(4));
    RegisterPopulation(four);
    four.EnableCheckpoints(CkptCfg(ck));
    four.Tick(1.0);
  }
  // Restoring 4 shard dirs into a 2-shard facade would route half of
  // every shard's users to the wrong model. The facade must refuse
  // without touching any shard.
  ShardedPredictionService two(Cfg(2));
  RegisterPopulation(two);
  two.EnableCheckpoints(CkptCfg(ck));  // must NOT clobber the manifest
  const auto rep = two.Recover();
  EXPECT_FALSE(rep.manifest_ok);
  EXPECT_NE(rep.manifest_error.find("4"), std::string::npos);
  EXPECT_EQ(rep.shards_restored, 0u);
  EXPECT_TRUE(rep.shards.empty());
}

TEST(ShardedServiceTest, RecoverRefusesTornManifest) {
  const std::string ck = ScratchDir("manifest_torn");
  {
    ShardedPredictionService a(Cfg(2));
    RegisterPopulation(a);
    a.EnableCheckpoints(CkptCfg(ck));
    a.Tick(1.0);
  }
  // Flip one byte inside the CRC-covered region.
  const std::string path =
      ck + "/" + ShardedPredictionService::kManifestName;
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.find("num_shards") + std::string("num_shards ").size()] = '9';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  ShardedPredictionService b(Cfg(2));
  RegisterPopulation(b);
  b.EnableCheckpoints(CkptCfg(ck));
  const auto rep = b.Recover();
  EXPECT_FALSE(rep.manifest_ok);
  EXPECT_NE(rep.manifest_error.find("CRC"), std::string::npos);
  EXPECT_EQ(rep.shards_restored, 0u);
}

// Cross-shard merge-vs-predict stress: per-shard trainer threads tick
// their own shard, reader threads predict through the facade, and the
// main thread runs reconciliation merges the whole time. Run under TSan
// in CI — the interesting property is that merges serialize on each
// shard's epoch barrier while seqlock-published rows keep readers safe.
TEST(ShardedServiceTest, MergeVsPredictStress) {
  ShardedPredictionService svc(Cfg(2));
  RegisterPopulation(svc);
  FeedAndTick(svc, Stream(256, 43));

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  // One trainer per shard, feeding + ticking its own partition.
  for (std::size_t i = 0; i < svc.num_shards(); ++i) {
    workers.emplace_back([&svc, i, &stop] {
      common::Rng rng(100 + i);
      double now = 100.0 + static_cast<double>(i);
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 32; ++k) {
          now += 1e-3;
          svc.ReportObservation(data::QoSSample{
              .slice = 0,
              .user = static_cast<data::UserId>(rng.Index(kUsers)),
              .service = static_cast<data::ServiceId>(rng.Index(kServices)),
              .value = rng.LogNormal(-1.0, 0.5),
              .timestamp = now});
        }
        svc.shard(i).Tick(now);
      }
    });
  }
  // Readers hammer routed single and mixed-batch predictions.
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&svc, r, &stop] {
      common::Rng rng(200 + r);
      std::vector<data::UserId> users(8);
      std::vector<data::ServiceId> services(8);
      std::vector<double> values(8);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto u = static_cast<data::UserId>(rng.Index(kUsers));
        const auto s = static_cast<data::ServiceId>(rng.Index(kServices));
        const auto p = svc.PredictQoS(u, s);
        if (p.has_value()) {
          EXPECT_TRUE(std::isfinite(*p));
        }
        for (std::size_t i = 0; i < users.size(); ++i) {
          users[i] = static_cast<data::UserId>(rng.Index(kUsers));
          services[i] = static_cast<data::ServiceId>(rng.Index(kServices));
        }
        svc.PredictQoSPairs(users, services, values);
      }
    });
  }
  for (int m = 0; m < 20; ++m) svc.MergeServiceFactors();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();
  // A final merge after the barrier: replicas agree bitwise again.
  svc.MergeServiceFactors();
  const auto s0 = svc.shard(0).SnapshotServiceFactors();
  const auto s1 = svc.shard(1).SnapshotServiceFactors();
  ASSERT_EQ(s0.num_services, s1.num_services);
  for (std::size_t i = 0; i < s0.factors.size(); ++i) {
    EXPECT_EQ(s0.factors[i], s1.factors[i]);
  }
}

}  // namespace
}  // namespace amf::adapt
