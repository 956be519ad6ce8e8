// Shard scalability acceptance drill (DESIGN.md §15): proves the
// user-sharded multi-instance layer is an accuracy-neutral scale-out.
//
//   build/examples/shard_scalability_drill [--shards N] [--events E]
//                                          [--quick] [--out <path>]
//
// Phase 1 (accuracy band): one synthetic observation stream is fed both
// to a single-instance control and to an N-shard facade (users
// partitioned by the frozen hash router, service factors reconciled by
// the periodic hogwild-style merge). Held-out MRE of the sharded
// instance must land within a small band of the control — sharding may
// not silently cost accuracy.
//
// Phase 2 (survivor bit-identity): the trained facade checkpoints every
// shard plus the binding manifest, "crashes", and a fresh facade
// Recover()s the whole set. Every surviving (user, service) prediction
// must be BIT-identical to the pre-crash value.
//
// Phase 3 (throughput scaling): per-shard trainer threads feed + tick
// their own shard at 1, 2, and N shards while reconciliation merges run;
// events/sec per shard count is reported with a speedup_valid honesty
// flag (a container with fewer cores than shards cannot show linear
// scaling, and pretending otherwise would poison the JSON).
//
// Writes a BENCH_-style JSON summary; CI asserts the MRE band and the
// zero-bit-mismatch recovery on the 4-shard configuration.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/concurrent_service.h"
#include "adapt/sharded_service.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/amf_predictor.h"
#include "core/checkpoint.h"
#include "eval/metrics.h"
#include "stream/wal.h"

namespace {

using namespace amf;

constexpr std::size_t kUsers = 48;
constexpr std::size_t kServices = 24;
constexpr std::uint64_t kSeed = 2014;
constexpr double kMreBand = 0.02;

/// Deterministic synthetic ground-truth response time in ~(0.1, 3.0)s —
/// a low-rank-ish structure both facades can actually learn.
double TruthRt(std::size_t u, std::size_t s) {
  const double a = 0.5 + 0.45 * std::sin(0.37 * static_cast<double>(u));
  const double b = 0.5 + 0.45 * std::cos(0.53 * static_cast<double>(s));
  return 0.1 + 2.0 * a * b;
}

adapt::PredictionServiceConfig ServiceConfig() {
  adapt::PredictionServiceConfig cfg;
  cfg.model = core::MakeResponseTimeConfig(kSeed);
  // No tick-time replay epochs: a Tick that checkpoints must not train
  // past its own snapshot, or phase 2's bit-identity would be vacuous.
  cfg.replay_epochs_per_tick = 0;
  return cfg;
}

template <typename ServiceT>
void RegisterPopulation(ServiceT& svc) {
  for (std::size_t u = 0; u < kUsers; ++u) {
    svc.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    svc.RegisterService(std::string("s").append(std::to_string(s)));
  }
}

std::vector<data::QoSSample> MakeStream(std::size_t events) {
  common::Rng rng(kSeed ^ 0xd5);
  std::vector<data::QoSSample> stream;
  stream.reserve(events);
  double now = 0.0;
  for (std::size_t i = 0; i < events; ++i) {
    now += 1e-3;
    const std::size_t u = rng.Index(kUsers);
    const std::size_t s = rng.Index(kServices);
    // Mild multiplicative noise around the ground truth.
    const double noise = rng.LogNormal(0.0, 0.08);
    stream.push_back(data::QoSSample{
        .slice = 0,
        .user = static_cast<data::UserId>(u),
        .service = static_cast<data::ServiceId>(s),
        .value = TruthRt(u, s) * noise,
        .timestamp = now});
  }
  return stream;
}

template <typename ServiceT>
void FeedStream(ServiceT& svc, const std::vector<data::QoSSample>& stream) {
  for (std::size_t i = 0; i < stream.size(); ++i) {
    AMF_CHECK_MSG(svc.ReportObservation(stream[i]), "ingest ring overflow");
    if ((i & 255) == 255) svc.Tick(stream[i].timestamp);
  }
  // Alternating converge/merge rounds: on the sharded facade each
  // TrainToConvergence ends in a service-factor merge, so the next round
  // re-fits user factors against the reconciled rows. On the control the
  // extra rounds are near no-ops (already converged) — fair comparison.
  for (int round = 0; round < 4; ++round) {
    svc.TrainToConvergence(stream.back().timestamp);
  }
}

/// Held-out MRE over every (user, service) pair against the noiseless
/// ground truth.
template <typename ServiceT>
double HeldOutMre(const ServiceT& svc) {
  std::vector<double> predicted;
  std::vector<double> actual;
  predicted.reserve(kUsers * kServices);
  actual.reserve(kUsers * kServices);
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t s = 0; s < kServices; ++s) {
      const auto p = svc.PredictQoS(static_cast<data::UserId>(u),
                                    static_cast<data::ServiceId>(s));
      AMF_CHECK_MSG(p.has_value(), "registered pair must predict");
      predicted.push_back(*p);
      actual.push_back(TruthRt(u, s));
    }
  }
  return eval::ComputeMetrics(predicted, actual).mre;
}

/// One scaling measurement: K per-shard trainer threads feed + tick
/// their own shard while the main thread runs reconciliation merges;
/// returns observation+prediction events per second.
double MeasureEventsPerSec(std::size_t shards, double seconds) {
  adapt::ShardedServiceConfig cfg;
  cfg.num_shards = shards;
  cfg.service = ServiceConfig();
  cfg.merge_every_ticks = 0;  // merges driven explicitly below
  cfg.ring_capacity = 1 << 14;
  adapt::ShardedPredictionService svc(cfg);
  RegisterPopulation(svc);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> events{0};
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    workers.emplace_back([&svc, i, &stop, &events] {
      common::Rng rng(kSeed + 31 * i);
      std::vector<data::ServiceId> candidates(kServices);
      for (std::size_t s = 0; s < kServices; ++s) {
        candidates[s] = static_cast<data::ServiceId>(s);
      }
      std::vector<double> values(kServices);
      double now = 1.0;
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 64; ++k) {
          now += 1e-3;
          const std::size_t u = rng.Index(kUsers);
          const std::size_t s = rng.Index(kServices);
          if (svc.ReportObservation(data::QoSSample{
                  .slice = 0,
                  .user = static_cast<data::UserId>(u),
                  .service = static_cast<data::ServiceId>(s),
                  .value = TruthRt(u, s),
                  .timestamp = now})) {
            ++local;
          }
        }
        svc.shard(i).Tick(now);
        for (int k = 0; k < 8; ++k) {
          const auto u = static_cast<data::UserId>(rng.Index(kUsers));
          if (svc.PredictQoSMany(u, candidates, values)) {
            local += kServices;
          }
        }
        events.fetch_add(local, std::memory_order_relaxed);
        local = 0;
      }
    });
  }
  common::Stopwatch clock;
  while (clock.ElapsedSeconds() < seconds) {
    svc.MergeServiceFactors();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();
  const double elapsed = clock.ElapsedSeconds();
  return static_cast<double>(events.load()) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shards = 4;
  std::size_t events = 40000;
  double measure_seconds = 1.0;
  std::string out_path = "BENCH_shard_scalability.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      events = 12000;
      measure_seconds = 0.25;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards N] [--events E] [--quick] "
                   "[--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  AMF_CHECK_MSG(shards >= 2, "--shards must be >= 2 (1 is the control)");

  const auto started = std::chrono::steady_clock::now();
  const std::vector<data::QoSSample> stream = MakeStream(events);

  // --- Phase 1: held-out accuracy within the band -------------------------
  adapt::ConcurrentPredictionService control(ServiceConfig(), 1 << 14);
  RegisterPopulation(control);
  FeedStream(control, stream);
  const double control_mre = HeldOutMre(control);

  adapt::ShardedServiceConfig scfg;
  scfg.num_shards = shards;
  scfg.service = ServiceConfig();
  scfg.merge_every_ticks = 1;
  scfg.ring_capacity = 1 << 14;
  auto sharded = std::make_unique<adapt::ShardedPredictionService>(scfg);
  RegisterPopulation(*sharded);
  FeedStream(*sharded, stream);
  const double sharded_mre = HeldOutMre(*sharded);
  const std::uint64_t merges = sharded->merges();

  const double mre_delta = std::fabs(sharded_mre - control_mre);
  std::fprintf(stderr,
               "accuracy: control_mre=%.4f sharded_mre=%.4f delta=%.4f "
               "(band %.2f, %llu merges)\n",
               control_mre, sharded_mre, mre_delta, kMreBand,
               static_cast<unsigned long long>(merges));
  AMF_CHECK_MSG(mre_delta <= kMreBand,
                "sharded MRE " << sharded_mre << " strayed more than "
                               << kMreBand << " from control "
                               << control_mre);

  // --- Phase 2: checkpoint / crash / Recover, bit-identical survivors -----
  const std::string root =
      (std::filesystem::temp_directory_path() / "shard_drill").string();
  std::filesystem::remove_all(root);
  core::CheckpointManagerConfig ck;
  ck.directory = root + "/ckpt";
  ck.interval_seconds = 1e9;  // exactly one checkpoint, on the next Tick
  stream::JournalConfig wal;
  wal.directory = root + "/wal";
  wal.fsync_policy = stream::FsyncPolicy::kAlways;

  sharded->EnableCheckpoints(ck);
  sharded->EnableJournal(wal);
  sharded->Tick(stream.back().timestamp + 1.0);  // checkpoints every shard

  std::vector<double> survivors(kUsers * kServices, 0.0);
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t s = 0; s < kServices; ++s) {
      survivors[u * kServices + s] =
          *sharded->PredictQoS(static_cast<data::UserId>(u),
                               static_cast<data::ServiceId>(s));
    }
  }
  sharded.reset();  // crash

  auto recovered = std::make_unique<adapt::ShardedPredictionService>(scfg);
  RegisterPopulation(*recovered);
  recovered->EnableCheckpoints(ck);
  recovered->EnableJournal(wal);
  const auto report = recovered->Recover();
  AMF_CHECK_MSG(report.manifest_ok, "manifest: " << report.manifest_error);
  AMF_CHECK_MSG(report.shards_restored == shards,
                "restored " << report.shards_restored << "/" << shards);
  std::size_t survivor_bit_mismatches = 0;
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t s = 0; s < kServices; ++s) {
      const auto p = recovered->PredictQoS(static_cast<data::UserId>(u),
                                           static_cast<data::ServiceId>(s));
      AMF_CHECK_MSG(p.has_value(), "recovered pair must predict");
      if (*p != survivors[u * kServices + s]) ++survivor_bit_mismatches;
    }
  }
  std::fprintf(stderr, "recovery: %zu shards, %zu bit mismatches\n",
               static_cast<std::size_t>(report.shards_restored),
               survivor_bit_mismatches);
  AMF_CHECK_MSG(survivor_bit_mismatches == 0,
                "recovered predictions diverged from the survivors");
  recovered.reset();
  std::filesystem::remove_all(root);

  // --- Phase 3: throughput scaling ----------------------------------------
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<std::size_t> ladder{1, 2};
  if (shards != 1 && shards != 2) ladder.push_back(shards);
  std::vector<double> eps;
  for (const std::size_t k : ladder) {
    eps.push_back(MeasureEventsPerSec(k, measure_seconds));
    std::fprintf(stderr, "scaling: %zu shard(s) -> %.0f events/s\n", k,
                 eps.back());
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"shard_scalability\",\n");
  std::fprintf(out, "  \"shards\": %zu,\n", shards);
  std::fprintf(out, "  \"events\": %zu,\n", events);
  std::fprintf(out, "  \"users\": %zu,\n", kUsers);
  std::fprintf(out, "  \"services\": %zu,\n", kServices);
  std::fprintf(out, "  \"router_version\": %u,\n",
               adapt::ShardRouter::kHashVersion);
  std::fprintf(out, "  \"control_mre\": %.6f,\n", control_mre);
  std::fprintf(out, "  \"sharded_mre\": %.6f,\n", sharded_mre);
  std::fprintf(out, "  \"mre_delta_abs\": %.6f,\n", mre_delta);
  std::fprintf(out, "  \"mre_band\": %.2f,\n", kMreBand);
  std::fprintf(out, "  \"merges\": %llu,\n",
               static_cast<unsigned long long>(merges));
  std::fprintf(out, "  \"shards_restored\": %zu,\n",
               static_cast<std::size_t>(report.shards_restored));
  std::fprintf(out, "  \"wal_replayed\": %llu,\n",
               static_cast<unsigned long long>(report.replayed));
  std::fprintf(out, "  \"survivor_bit_mismatches\": %zu,\n",
               survivor_bit_mismatches);
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(out, "  \"scaling\": [\n");
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    // Honesty flag: speedup numbers only mean something when the host
    // actually has a core per trainer thread plus one for the merger.
    const bool valid = hw >= ladder[i] + 1;
    std::fprintf(out,
                 "    {\"shards\": %zu, \"events_per_sec\": %.0f, "
                 "\"speedup\": %.3f, \"speedup_valid\": %s}%s\n",
                 ladder[i], eps[i], eps[i] / eps[0],
                 valid ? "true" : "false",
                 i + 1 < ladder.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"seconds\": %.3f\n", seconds);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
