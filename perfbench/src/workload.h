// Workload definitions and seeded input generation shared by the
// generator and the SUT harness. Both processes derive every input from
// (workload, seed) with the same code, so the SUT receives only the
// generated inputs and the generator can precompute its truth tables.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/qos_types.h"
#include "data/synthetic.h"
#include "stream/wal.h"

namespace perfbench {

/// One traffic mix plus the SUT topology it runs against. Every other
/// program setting stays at its default.
struct Workload {
  std::string name;
  std::size_t users = 142;
  std::size_t services = 4500;
  /// SUT topology: user shards (1 = single ConcurrentPredictionService)
  /// and whether the observation journal is armed, with its fsync policy.
  std::size_t shards = 1;
  std::optional<amf::stream::FsyncPolicy> journal;
  /// Warm set: distinct (user, service) pairs at slice 0, ingested and
  /// trained to convergence during set-up.
  std::size_t warm_samples = 0;
  /// Read request shape: 0 = single-pair PREDICT, else PREDICT_MANY with
  /// this many distinct candidates.
  std::uint32_t candidates = 0;
  /// Read connections (the open loop spreads over all of them).
  std::size_t read_connections = 4;
  /// Closed loop: requests kept outstanding on each of the first
  /// `closed_connections` read connections. Chosen below saturation: on
  /// a shared host a saturated closed loop drifts with the host by
  /// +-25 % between runs (see README), a fixed-concurrency one by ~10 %.
  std::size_t closed_connections = 1;
  std::size_t pipeline_depth = 1;
  /// Open-loop offered read rate (req/s), well under capacity.
  double open_rps = 0.0;
  /// REPORT_OBS feed rate during the read phases (0 = no feed). The feed
  /// owns one extra connection.
  double feed_rps = 0.0;
  /// Feed time per synthetic slice: values drift as slices advance.
  double slice_seconds = 1.0;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();
/// nullptr when `name` is unknown.
const Workload* FindWorkload(std::string_view name);

/// Read requests cycle through a pool of this many entries.
inline constexpr std::size_t kSinglePoolSize = 65536;
inline constexpr std::size_t kManyPoolSize = 2048;
/// Verification set: PREDICTs and PREDICT_MANYs answered with training
/// paused and compared bit for bit against in-process calls.
inline constexpr std::size_t kVerifySingles = 256;
inline constexpr std::size_t kVerifyMany = 16;
inline constexpr std::uint32_t kVerifyManyWidth = 64;
/// Freshness probe for workloads without a feed: REPORT_OBS rate.
inline constexpr double kProbeRps = 2000.0;
/// Feed timestamps start here (the warm set is stamped 0).
inline constexpr double kFeedEpochSeconds = 1.0;

struct Inputs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::unique_ptr<amf::data::SyntheticQoSDataset> dataset;
  std::vector<amf::data::QoSSample> warm;
  /// Read pool: entry p is (pool_user[p], pool_services[p*width ..+width]).
  std::size_t width = 1;
  std::vector<amf::data::UserId> pool_user;
  std::vector<amf::data::ServiceId> pool_services;
  std::vector<amf::data::UserId> verify_user;
  std::vector<amf::data::ServiceId> verify_service;
  std::vector<amf::data::UserId> verify_many_user;
  std::vector<amf::data::ServiceId> verify_many_services;

  std::size_t pool_size() const { return pool_user.size(); }
  /// Observation k of a feed sending at `rps`: revisits warm pair
  /// k mod |warm| at the slice current at its scheduled offset k / rps,
  /// and is stamped with that offset (strictly increasing per pair).
  amf::data::QoSSample FeedSample(std::uint64_t k, double rps) const;
  /// Slice current at feed offset `offset_s` (slice 0 before the feed).
  amf::data::SliceId SliceAt(double offset_s) const;
  /// Ground truth for (u, s) at slice t.
  double Truth(amf::data::UserId u, amf::data::ServiceId s,
               amf::data::SliceId t) const;
};

/// Deterministic in (workload, seed).
Inputs MakeInputs(const Workload& workload, std::uint64_t seed);

/// Appends the frame of read request k (pool entry k mod pool size) or
/// feed observation k under `request_id`: the bytes the generator sends.
void AppendRead(const Inputs& in, std::uint64_t k, std::uint64_t request_id,
                std::string* out);
void AppendFeed(const Inputs& in, std::uint64_t k, double rps,
                std::uint64_t request_id, std::string* out);

}  // namespace perfbench
