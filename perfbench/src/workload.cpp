#include "workload.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/rng.h"
#include "serve/protocol.h"

namespace perfbench {

using amf::data::QoSAttribute;
using amf::data::QoSSample;
using amf::data::ServiceId;
using amf::data::SliceId;
using amf::data::UserId;

namespace {

constexpr std::size_t kSlices = 64;

// Stream ids for DeriveSeed: each input family draws from its own RNG,
// so resizing one never shifts another.
enum Stream : std::uint64_t {
  kDatasetStream = 1,
  kWarmStream = 2,
  kPoolStream = 3,
  kVerifyStream = 4,
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> w(3);
  // Adaptation engines asking for one pair at a time: the serve loop,
  // the coalescer and PredictQoSPairs carry the work. Paper shape.
  w[0].name = "predict-read";
  w[0].warm_samples = 19200;
  w[0].candidates = 0;
  w[0].read_connections = 4;
  // 64 outstanding, the coalescer's default batch cap: batches fill and
  // flush without waiting for its timer, so capacity shows the read
  // path's throughput. Under the cap every batch waits the full window
  // and capacity measures the timer instead.
  w[0].closed_connections = 4;
  w[0].pipeline_depth = 16;
  w[0].open_rps = 40000.0;
  // QoS-driven selection ranking a few hundred candidates per request
  // over a catalog 10x the paper's (fp64 rows spill L2, fit L3): the
  // read path and scoring kernels carry the work, the coalescer is
  // bypassed.
  w[1].name = "select-scan";
  w[1].services = 45000;
  w[1].warm_samples = 12000;
  w[1].candidates = 256;
  w[1].read_connections = 4;
  w[1].closed_connections = 1;
  w[1].pipeline_depth = 1;
  w[1].open_rps = 6000.0;
  // Monitoring agents streaming observations into a 2-shard journaled
  // SUT while adaptation engines read: ring drain, journal group commit,
  // replay, merge and seqlock contention carry the work. The journal
  // leaves fsync to the OS: under the default `interval` policy the
  // serving loop runs the fsyncs itself, which ties p99 to shared-disk
  // latency (README, noise findings).
  w[2].name = "adapt-mixed";
  w[2].shards = 2;
  w[2].journal = amf::stream::FsyncPolicy::kOs;
  // Warm set sized so a 2-shard replay epoch (~5 ms) keeps the trainer
  // busy about a quarter of each 20 ms interval. At 19,200 pairs it was
  // busy 60 %, and capacity and p50 spread wider between runs (README,
  // noise findings).
  w[2].warm_samples = 6000;
  w[2].candidates = 64;
  w[2].read_connections = 3;
  // One synchronous selector: with 2 to 48 outstanding the rate swung
  // by up to 3x within a run (README, noise findings).
  w[2].closed_connections = 1;
  w[2].pipeline_depth = 1;
  w[2].open_rps = 6000.0;
  w[2].feed_rps = 20000.0;
  w[2].slice_seconds = 1.0;
  return w;
}

// `count` distinct services in random order.
void DistinctServices(amf::common::Rng& rng, std::size_t services,
                      std::size_t count, std::vector<ServiceId>* out) {
  const std::size_t base = out->size();
  std::unordered_set<ServiceId> seen;
  while (out->size() - base < count) {
    const auto s = static_cast<ServiceId>(rng.Index(services));
    if (seen.insert(s).second) out->push_back(s);
  }
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const Workload& workload, std::uint64_t seed) {
  Inputs in;
  in.workload = &workload;
  in.seed = seed;
  amf::data::SyntheticConfig dc;
  dc.users = workload.users;
  dc.services = workload.services;
  dc.slices = kSlices;
  dc.seed = amf::common::DeriveSeed(seed, kDatasetStream);
  in.dataset = std::make_unique<amf::data::SyntheticQoSDataset>(dc);

  // Warm set: every service once (so each has a trained row), then
  // random distinct pairs, shuffled.
  amf::common::Rng warm_rng(amf::common::DeriveSeed(seed, kWarmStream));
  std::unordered_set<std::uint64_t> pairs;
  std::vector<std::pair<UserId, ServiceId>> warm;
  warm.reserve(workload.warm_samples);
  std::size_t next_service = 0;
  while (warm.size() < workload.warm_samples) {
    const auto u = static_cast<UserId>(warm_rng.Index(workload.users));
    const auto s = next_service < workload.services
                       ? static_cast<ServiceId>(next_service++)
                       : static_cast<ServiceId>(
                             warm_rng.Index(workload.services));
    if (pairs.insert(std::uint64_t{u} * workload.services + s).second) {
      warm.emplace_back(u, s);
    }
  }
  warm_rng.Shuffle(warm);
  in.warm.reserve(warm.size());
  for (const auto& [u, s] : warm) {
    in.warm.push_back(QoSSample{.slice = 0,
                                .user = u,
                                .service = s,
                                .value = in.Truth(u, s, 0),
                                .timestamp = 0.0});
  }

  amf::common::Rng pool_rng(amf::common::DeriveSeed(seed, kPoolStream));
  in.width = workload.candidates == 0 ? 1 : workload.candidates;
  const std::size_t pool =
      workload.candidates == 0 ? kSinglePoolSize : kManyPoolSize;
  in.pool_user.reserve(pool);
  in.pool_services.reserve(pool * in.width);
  for (std::size_t p = 0; p < pool; ++p) {
    in.pool_user.push_back(
        static_cast<UserId>(pool_rng.Index(workload.users)));
    DistinctServices(pool_rng, workload.services, in.width,
                     &in.pool_services);
  }

  amf::common::Rng verify_rng(amf::common::DeriveSeed(seed, kVerifyStream));
  for (std::size_t i = 0; i < kVerifySingles; ++i) {
    in.verify_user.push_back(
        static_cast<UserId>(verify_rng.Index(workload.users)));
    in.verify_service.push_back(
        static_cast<ServiceId>(verify_rng.Index(workload.services)));
  }
  for (std::size_t i = 0; i < kVerifyMany; ++i) {
    in.verify_many_user.push_back(
        static_cast<UserId>(verify_rng.Index(workload.users)));
    DistinctServices(verify_rng, workload.services, kVerifyManyWidth,
                     &in.verify_many_services);
  }
  return in;
}

SliceId Inputs::SliceAt(double offset_s) const {
  if (offset_s < 0.0) return 0;
  const auto step =
      static_cast<std::uint64_t>(offset_s / workload->slice_seconds);
  return static_cast<SliceId>(1 + step % (kSlices - 1));
}

QoSSample Inputs::FeedSample(std::uint64_t k, double rps) const {
  const QoSSample& pair = warm[k % warm.size()];
  const double offset = static_cast<double>(k) / rps;
  const SliceId t = SliceAt(offset);
  return QoSSample{.slice = t,
                   .user = pair.user,
                   .service = pair.service,
                   .value = Truth(pair.user, pair.service, t),
                   .timestamp = kFeedEpochSeconds + offset};
}

double Inputs::Truth(UserId u, ServiceId s, SliceId t) const {
  return dataset->Value(QoSAttribute::kResponseTime, u, s, t);
}

void AppendRead(const Inputs& in, std::uint64_t k, std::uint64_t request_id,
                std::string* out) {
  const std::size_t p = k % in.pool_size();
  if (in.workload->candidates == 0) {
    amf::serve::AppendPredictRequest(*out, request_id, in.pool_user[p],
                                     in.pool_services[p]);
  } else {
    amf::serve::AppendPredictManyRequest(
        *out, request_id, in.pool_user[p],
        std::span<const ServiceId>(in.pool_services.data() + p * in.width,
                                   in.width));
  }
}

void AppendFeed(const Inputs& in, std::uint64_t k, double rps,
                std::uint64_t request_id, std::string* out) {
  amf::serve::AppendReportObsRequest(*out, request_id, in.FeedSample(k, rps));
}

}  // namespace perfbench
