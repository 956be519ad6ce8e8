// Ablation A3: micro benchmarks (google-benchmark) for the hot paths —
// one online SGD update, one replay epoch, one prediction, the data
// transformation, the sample-store operations, and dense-slice generation.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/aligned.h"
#include "common/bf16.h"
#include "core/amf_model.h"
#include "core/online_trainer.h"
#include "core/sample_store.h"
#include "data/synthetic.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "transform/qos_transform.h"

namespace {

using namespace amf;

void BM_OnlineUpdate(benchmark::State& state) {
  core::AmfConfig cfg = core::MakeResponseTimeConfig(1);
  cfg.rank = static_cast<std::size_t>(state.range(0));
  core::AmfModel model(cfg);
  model.EnsureUser(141);
  model.EnsureService(4499);
  common::Rng rng(2);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto u = static_cast<data::UserId>(i % 142);
    const auto s = static_cast<data::ServiceId>((i * 31) % 4500);
    benchmark::DoNotOptimize(
        model.OnlineUpdate(u, s, 0.5 + 0.001 * static_cast<double>(i % 97)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OnlineUpdate)->Arg(10)->Arg(32)->Arg(128);

// One serial replay epoch over a 19,200-sample store at 142 x 4,500, the
// shape of the predict-read benchmark's warm set: the per-update cost of
// Algorithm 1's replay loop (pick, target, gradient, publish, EMA, dirty
// mark) with the store's memory footprint. Arg: 0 = plain updates,
// 1 = guarded (seqlock-publishing) updates as the concurrent facade runs.
void BM_ReplayEpoch(benchmark::State& state) {
  constexpr std::size_t kUsers = 142, kServices = 4500, kStored = 19200;
  core::AmfModel model(core::MakeResponseTimeConfig(1));
  model.EnsureUser(kUsers - 1);
  model.EnsureService(kServices - 1);
  core::TrainerConfig tcfg;
  tcfg.expiry_seconds = 0.0;
  tcfg.guarded_updates = state.range(0) != 0;
  core::OnlineTrainer trainer(model, tcfg);
  common::Rng rng(3);
  for (const std::size_t cell :
       rng.SampleWithoutReplacement(kUsers * kServices, kStored)) {
    trainer.Observe({0, static_cast<data::UserId>(cell / kServices),
                     static_cast<data::ServiceId>(cell % kServices),
                     rng.LogNormal(-0.5, 1.0), 0.0});
  }
  trainer.ProcessIncoming();
  for (auto _ : state) benchmark::DoNotOptimize(trainer.ReplayEpoch());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trainer.store().size()));
}
BENCHMARK(BM_ReplayEpoch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PredictRaw(benchmark::State& state) {
  core::AmfModel model(core::MakeResponseTimeConfig(1));
  model.EnsureUser(141);
  model.EnsureService(4499);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto u = static_cast<data::UserId>(i % 142);
    const auto s = static_cast<data::ServiceId>((i * 17) % 4500);
    benchmark::DoNotOptimize(model.PredictRaw(u, s));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PredictRaw);

// Batched row scoring (GemvRowMajor + SigmoidRow) vs. the equivalent
// per-service PredictNormalized loop. The ratio of these two benchmarks
// is the headline speedup of the batched prediction path.
void BM_PredictRow(benchmark::State& state) {
  core::AmfConfig cfg = core::MakeResponseTimeConfig(1);
  cfg.rank = static_cast<std::size_t>(state.range(0));
  core::AmfModel model(cfg);
  model.EnsureUser(141);
  model.EnsureService(4499);
  std::vector<double> out(model.num_services());
  std::uint64_t i = 0;
  for (auto _ : state) {
    model.PredictRowRaw(static_cast<data::UserId>(i % 142), out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_PredictRow)->Arg(10)->Arg(32);

// The same work expressed as scalar Predict calls — the pre-batching
// baseline BM_PredictRow is measured against.
void BM_PredictRowScalarLoop(benchmark::State& state) {
  core::AmfConfig cfg = core::MakeResponseTimeConfig(1);
  cfg.rank = static_cast<std::size_t>(state.range(0));
  core::AmfModel model(cfg);
  model.EnsureUser(141);
  model.EnsureService(4499);
  std::vector<double> out(model.num_services());
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto u = static_cast<data::UserId>(i % 142);
    for (data::ServiceId s = 0; s < 4500; ++s) out[s] = model.PredictRaw(u, s);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_PredictRowScalarLoop)->Arg(10)->Arg(32);

void BM_PredictMatrix(benchmark::State& state) {
  core::AmfModel model(core::MakeResponseTimeConfig(1));
  model.EnsureUser(141);
  model.EnsureService(4499);
  linalg::Matrix out;
  for (auto _ : state) {
    model.PredictMatrixRaw(&out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          142 * 4500);
  state.SetLabel("142x4500");
}
BENCHMARK(BM_PredictMatrix)->Unit(benchmark::kMillisecond);

// --- GEMV alignment ablation -----------------------------------------------
// The arena layout exists so every factor row starts on a 64-byte boundary
// with a cache-line-multiple stride. These three benchmarks isolate what
// that buys the GEMV kernel itself: the same 4500x{rank} scoring pass over
// (a) a 64B-aligned packed block, (b) the identical data deliberately
// shifted one double off alignment (the old vector-of-rows worst case),
// and (c) the arena's padded-stride block through GemvRowMajorStrided,
// which may assume alignment outright under AMF_NATIVE.

constexpr std::size_t kGemvRows = 4500;

std::vector<double, common::AlignedAllocator<double>> FillBlock(
    std::size_t doubles) {
  std::vector<double, common::AlignedAllocator<double>> block(doubles);
  common::Rng rng(11);
  for (double& v : block) v = rng.Uniform() - 0.5;
  return block;
}

void BM_GemvAligned(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const auto block = FillBlock(kGemvRows * rank);
  const auto x = FillBlock(rank);
  std::vector<double> out(kGemvRows);
  for (auto _ : state) {
    linalg::GemvRowMajor({x.data(), rank}, {block.data(), block.size()}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kGemvRows));
}
BENCHMARK(BM_GemvAligned)->Arg(10)->Arg(32);

void BM_GemvUnaligned(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  // One extra lane, then score from +1: every row now straddles cache
  // lines the way rows in a packed std::vector could before the arena.
  const auto backing = FillBlock(kGemvRows * rank + 1);
  const double* block = backing.data() + 1;
  const auto x = FillBlock(rank);
  std::vector<double> out(kGemvRows);
  for (auto _ : state) {
    linalg::GemvRowMajor({x.data(), rank}, {block, kGemvRows * rank}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kGemvRows));
}
BENCHMARK(BM_GemvUnaligned)->Arg(10)->Arg(32);

void BM_GemvStridedArena(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const std::size_t stride =
      common::RoundUp(rank, common::kCacheLineBytes / sizeof(double));
  auto block = FillBlock(kGemvRows * stride);
  // Zero the pad lanes like the arena does; they are read (stride > rank
  // loads nothing past rank in the kernel, but keep the data honest).
  for (std::size_t r = 0; r < kGemvRows; ++r) {
    for (std::size_t k = rank; k < stride; ++k) block[r * stride + k] = 0.0;
  }
  const auto x = FillBlock(rank);
  std::vector<double> out(kGemvRows);
  for (auto _ : state) {
    linalg::GemvRowMajorStrided({x.data(), rank}, block.data(), stride, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kGemvRows));
}
BENCHMARK(BM_GemvStridedArena)->Arg(10)->Arg(32);

// --- Strided GEMV precision ablation ---------------------------------------
// The compressed read replicas (DESIGN.md §13) trade per-lane precision
// for bytes: at a given rank the bf16/fp32 rows stream fewer cache lines
// than fp64 ones. That trade only pays when the block spills cache — at
// resident sizes fp64 wins (no widening converts, same lines from L1/L2)
// — so this ablation uses a row count chosen to overflow typical L2+L3
// slices and measure the bandwidth-bound regime the replicas target.

constexpr std::size_t kReplicaGemvRows = 100000;

void BM_GemvStridedFp64(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const std::size_t stride =
      common::RoundUp(rank, common::kCacheLineBytes / sizeof(double));
  auto block = FillBlock(kReplicaGemvRows * stride);
  for (std::size_t r = 0; r < kReplicaGemvRows; ++r) {
    for (std::size_t k = rank; k < stride; ++k) block[r * stride + k] = 0.0;
  }
  const auto x = FillBlock(rank);
  std::vector<double> out(kReplicaGemvRows);
  for (auto _ : state) {
    linalg::GemvRowMajorStrided({x.data(), rank}, block.data(), stride, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReplicaGemvRows));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReplicaGemvRows *
                                                    stride * sizeof(double)));
}
BENCHMARK(BM_GemvStridedFp64)->Arg(8)->Arg(16)->Arg(32);

void BM_GemvStridedFp32(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const std::size_t stride =
      common::RoundUp(rank, common::kCacheLineBytes / sizeof(float));
  std::vector<float, common::AlignedAllocator<float>> block(
      kReplicaGemvRows * stride, 0.0f);
  common::Rng rng(11);
  for (std::size_t r = 0; r < kReplicaGemvRows; ++r) {
    for (std::size_t k = 0; k < rank; ++k) {
      block[r * stride + k] = static_cast<float>(rng.Uniform() - 0.5);
    }
  }
  const auto x = FillBlock(rank);
  std::vector<double> out(kReplicaGemvRows);
  for (auto _ : state) {
    linalg::GemvRowMajorStridedFp32({x.data(), rank}, block.data(), stride,
                                    out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReplicaGemvRows));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReplicaGemvRows *
                                                    stride * sizeof(float)));
}
BENCHMARK(BM_GemvStridedFp32)->Arg(8)->Arg(16)->Arg(32);

void BM_GemvStridedBf16(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const std::size_t stride =
      common::RoundUp(rank, common::kCacheLineBytes / sizeof(common::Bf16));
  std::vector<common::Bf16, common::AlignedAllocator<common::Bf16>> block(
      kReplicaGemvRows * stride, 0);
  common::Rng rng(11);
  for (std::size_t r = 0; r < kReplicaGemvRows; ++r) {
    for (std::size_t k = 0; k < rank; ++k) {
      block[r * stride + k] = common::Bf16FromDouble(rng.Uniform() - 0.5);
    }
  }
  const auto x = FillBlock(rank);
  std::vector<double> out(kReplicaGemvRows);
  for (auto _ : state) {
    linalg::GemvRowMajorStridedBf16({x.data(), rank}, block.data(), stride,
                                    out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReplicaGemvRows));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kReplicaGemvRows * stride *
                                sizeof(common::Bf16)));
}
BENCHMARK(BM_GemvStridedBf16)->Arg(8)->Arg(16)->Arg(32);

void BM_TransformForward(benchmark::State& state) {
  transform::QoSTransformConfig cfg;
  cfg.alpha = -0.007;
  const transform::QoSTransform t(cfg);
  double v = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Forward(v));
    v = v < 19.0 ? v + 0.07 : 0.01;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TransformForward);

void BM_TransformRoundTrip(benchmark::State& state) {
  transform::QoSTransformConfig cfg;
  cfg.alpha = -0.05;
  cfg.r_max = 7000.0;
  const transform::QoSTransform t(cfg);
  double v = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Inverse(t.Forward(v)));
    v = v < 6900.0 ? v * 1.01 : 0.5;
  }
}
BENCHMARK(BM_TransformRoundTrip);

void BM_SampleStoreUpsertPick(benchmark::State& state) {
  core::SampleStore store;
  common::Rng rng(3);
  for (int i = 0; i < 60000; ++i) {
    store.Upsert({0, static_cast<data::UserId>(rng.Index(142)),
                  static_cast<data::ServiceId>(rng.Index(4500)), 1.0, 0.0});
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    if ((i & 7) == 0) {
      store.Upsert({0, static_cast<data::UserId>(i % 142),
                    static_cast<data::ServiceId>((i * 13) % 4500), 2.0,
                    0.0});
    } else {
      benchmark::DoNotOptimize(store.PickRandom(rng));
    }
    ++i;
  }
}
BENCHMARK(BM_SampleStoreUpsertPick);

void BM_DenseSliceGeneration(benchmark::State& state) {
  data::SyntheticConfig cfg;
  cfg.users = 142;
  cfg.services = static_cast<std::size_t>(state.range(0));
  cfg.slices = 4;
  const data::SyntheticQoSDataset dataset(cfg);
  data::SliceId t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dataset.DenseSlice(data::QoSAttribute::kResponseTime, t));
    t = (t + 1) % 4;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          142 * state.range(0));
}
BENCHMARK(BM_DenseSliceGeneration)->Arg(500)->Arg(4500)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
