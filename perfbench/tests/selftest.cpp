// Self-tests of the benchmark's own parts: seeded inputs and the timing
// decorator. The output schema is checked by check_output.py against
// real runs.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "adapt/concurrent_service.h"
#include "adapt/sharded_service.h"
#include "serve/backend.h"
#include "timing_backend.h"
#include "workload.h"

namespace perfbench {
namespace {

std::string Stream(const Inputs& in, std::size_t n) {
  std::string bytes;
  for (std::uint64_t k = 0; k < n; ++k) AppendRead(in, k, k, &bytes);
  for (std::uint64_t k = 0; k < n; ++k) {
    AppendFeed(in, k, 20000.0, k, &bytes);
  }
  for (const amf::data::QoSSample& s : in.warm) {
    bytes.append(reinterpret_cast<const char*>(&s.user), sizeof(s.user));
    bytes.append(reinterpret_cast<const char*>(&s.service),
                 sizeof(s.service));
    bytes.append(reinterpret_cast<const char*>(&s.value), sizeof(s.value));
  }
  return bytes;
}

TEST(PerfbenchInputs, ByteDeterministicPerSeed) {
  for (const Workload& w : Workloads()) {
    const std::string a = Stream(MakeInputs(w, 7), 3000);
    const std::string b = Stream(MakeInputs(w, 7), 3000);
    const std::string c = Stream(MakeInputs(w, 8), 3000);
    EXPECT_EQ(a, b) << w.name;
    EXPECT_NE(a, c) << w.name;
  }
}

TEST(PerfbenchInputs, WarmSetIsDistinctAndFeedStampsIncrease) {
  const Inputs in = MakeInputs(*FindWorkload("adapt-mixed"), 3);
  std::vector<bool> seen(in.workload->users * in.workload->services, false);
  for (const amf::data::QoSSample& s : in.warm) {
    const std::size_t key = s.user * in.workload->services + s.service;
    EXPECT_FALSE(seen[key]);
    seen[key] = true;
  }
  // A pair is revisited every |warm| observations; its stamp must grow or
  // the validator rejects it as a duplicate.
  const amf::data::QoSSample first = in.FeedSample(5, 20000.0);
  const amf::data::QoSSample again =
      in.FeedSample(5 + in.warm.size(), 20000.0);
  EXPECT_EQ(first.user, again.user);
  EXPECT_EQ(first.service, again.service);
  EXPECT_GT(again.timestamp, first.timestamp);
  EXPECT_GT(first.timestamp, 0.0);
}

std::uint64_t Bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Answers through the decorator (tracing off and on) must be the wrapped
// backend's, bit for bit.
void ExpectTransparent(amf::serve::Backend& plain) {
  TimingBackend timed(&plain, 1024, 1024, 1 << 16, 1024);
  const std::vector<amf::data::ServiceId> services = {0, 3, 7, 11, 19, 5};
  const std::vector<amf::data::UserId> users = {1, 2, 3, 4, 5, 6};
  for (const bool tracing : {false, true}) {
    timed.set_tracing(tracing);
    for (amf::data::UserId u = 0; u < 8; ++u) {
      std::vector<double> want(services.size()), got(services.size());
      EXPECT_EQ(plain.PredictQoSMany(u, services, want),
                timed.PredictQoSMany(u, services, got));
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(Bits(want[i]), Bits(got[i]));
      }
    }
    std::vector<double> want(users.size()), got(users.size());
    plain.PredictQoSPairs(users, services, want);
    timed.PredictQoSPairs(users, services, got);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(Bits(want[i]), Bits(got[i]));
    }
    EXPECT_EQ(timed.shard_count(), plain.shard_count());
    for (amf::data::UserId u = 0; u < 8; ++u) {
      EXPECT_EQ(timed.ShardOfUser(u), plain.ShardOfUser(u));
    }
  }
  // Tracing recorded one span per pair and per many-call.
  EXPECT_EQ(timed.spans().size(), 8 + users.size());
  EXPECT_EQ(timed.counts().pair_items, users.size());
}

template <typename Service>
void Warm(Service& svc) {
  for (int u = 0; u < 10; ++u) svc.RegisterUser("u" + std::to_string(u));
  for (int s = 0; s < 24; ++s) svc.RegisterService("s" + std::to_string(s));
  for (int i = 0; i < 120; ++i) {
    svc.ReportObservation(
        amf::data::QoSSample{0, static_cast<amf::data::UserId>(i % 10),
                             static_cast<amf::data::ServiceId>((i * 7) % 24),
                             0.5 + 0.01 * i, 0.0});
  }
  svc.TrainToConvergence(0.0);
}

TEST(PerfbenchDecorator, TransparentOverSingleInstance) {
  amf::adapt::ConcurrentPredictionService svc;
  Warm(svc);
  amf::serve::ConcurrentBackend plain(&svc);
  ExpectTransparent(plain);
}

TEST(PerfbenchDecorator, TransparentOverShards) {
  amf::adapt::ShardedServiceConfig cfg;
  cfg.num_shards = 2;
  amf::adapt::ShardedPredictionService svc(cfg);
  Warm(svc);
  amf::serve::ShardedBackend plain(&svc);
  ExpectTransparent(plain);
}

TEST(PerfbenchDecorator, PausedTrainingSkipsTicksAndAcksAreRecorded) {
  amf::adapt::ConcurrentPredictionService svc;
  Warm(svc);
  amf::serve::ConcurrentBackend plain(&svc);
  TimingBackend timed(&plain, 16, 16, 16, 16);
  EXPECT_TRUE(timed.ReportObservation({0, 1, 2, 0.7, 5.0}));
  timed.Tick(1.0);
  timed.PauseTraining();
  timed.Tick(2.0);
  timed.ResumeTraining();
  timed.Tick(3.0);
  EXPECT_EQ(timed.acks().size(), 1u);
  EXPECT_EQ(timed.ticks().size(), 2u);
  EXPECT_LE(timed.acks()[0], timed.ticks()[0].start_ns);
}

TEST(PerfbenchDecorator, KeptSpansSurviveAFullBuffer) {
  amf::adapt::ConcurrentPredictionService svc;
  Warm(svc);
  amf::serve::ConcurrentBackend plain(&svc);
  TimingBackend timed(&plain, 16, 16, /*span_capacity=*/4, 16);
  timed.set_tracing(true);
  std::vector<double> out(1);
  const std::vector<amf::data::UserId> users = {1};
  for (const amf::data::ServiceId s : {3u, 4u}) {
    timed.PredictQoSPairs(users, std::vector<amf::data::ServiceId>{s}, out);
  }
  timed.KeepSpans();
  for (const amf::data::ServiceId s : {10u, 11u, 12u, 13u, 14u}) {
    timed.PredictQoSPairs(users, std::vector<amf::data::ServiceId>{s}, out);
  }
  // Two kept, two filled the buffer, three overwrote the unkept slots.
  ASSERT_EQ(timed.spans().size(), 4u);
  EXPECT_EQ(timed.spans()[0].key, 3u);
  EXPECT_EQ(timed.spans()[1].key, 4u);
  EXPECT_EQ(timed.spans()[2].key, 14u);
  EXPECT_EQ(timed.spans()[3].key, 13u);
  EXPECT_EQ(timed.dropped_records(), 3u);
}

}  // namespace
}  // namespace perfbench
