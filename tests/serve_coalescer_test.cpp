// Coalescer semantics (serve/coalescer.h): the batch path must be a
// pure scheduling decision — every value PredictQoSPairs returns for a
// coalesced batch must be bit-identical at fp64 to what the per-request
// PredictQoS would have returned, so clients cannot observe whether
// their request was batched. Also covers the batch-cap flush signal,
// the empty flush and unknown-id NaN routing.
#include "serve/coalescer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "adapt/concurrent_service.h"
#include "common/rng.h"
#include "core/amf_predictor.h"

namespace amf::serve {
namespace {

constexpr std::size_t kUsers = 24;
constexpr std::size_t kServices = 48;

// A quiescent (no trainer running) service with trained factors, so
// repeated predictions of the same pair are deterministic.
std::unique_ptr<adapt::ConcurrentPredictionService> MakeTrainedService() {
  adapt::PredictionServiceConfig cfg;
  cfg.model = core::MakeResponseTimeConfig(2014);
  auto service =
      std::make_unique<adapt::ConcurrentPredictionService>(cfg, 4096);
  for (std::size_t u = 0; u < kUsers; ++u) {
    service->RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    service->RegisterService(std::string("s").append(std::to_string(s)));
  }
  common::Rng rng(77);
  double now = 0.0;
  for (std::size_t i = 0; i < kUsers * kServices / 2; ++i) {
    now += 1e-3;
    service->ReportObservation(data::QoSSample{
        .slice = 0,
        .user = static_cast<data::UserId>(rng.Index(kUsers)),
        .service = static_cast<data::ServiceId>(rng.Index(kServices)),
        .value = rng.LogNormal(-1.0, 0.5),
        .timestamp = now});
    if ((i & 255) == 255) service->Tick(now);
  }
  service->TrainToConvergence(now);
  return service;
}

TEST(ServeCoalescerTest, BatchedValuesBitIdenticalToPerRequestPredict) {
  const auto service = MakeTrainedService();

  // Build a batch covering every (user, service) pair once, interleaved
  // the way concurrent connections would interleave them. Add's
  // flush-at-cap signal is ignored on purpose: Flush scores whatever is
  // pending in one call, so one oversized batch covers every pair.
  Coalescer coalescer;
  std::vector<PendingPredict> batch;
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t s = 0; s < kServices; ++s) {
      PendingPredict req;
      req.conn_id = 1 + (u + s) % 7;
      req.request_id = u * kServices + s;
      req.user = static_cast<data::UserId>(u);
      req.service = static_cast<data::ServiceId>((s * 13 + u) % kServices);
      batch.push_back(req);
      coalescer.Add(req);
    }
  }

  std::size_t emitted = 0;
  const std::size_t flushed = coalescer.Flush(
      *service, [&](const PendingPredict& req, double value) {
        ASSERT_LT(emitted, batch.size());
        // Arrival order is preserved.
        EXPECT_EQ(req.request_id, batch[emitted].request_id);
        const auto solo = service->PredictQoS(req.user, req.service);
        ASSERT_TRUE(solo.has_value());
        // Bit-identical, not approximately equal: memcmp of the fp64
        // representations.
        EXPECT_EQ(std::memcmp(&value, &*solo, sizeof(double)), 0)
            << "pair (" << req.user << ", " << req.service
            << "): batched " << value << " vs solo " << *solo;
        ++emitted;
      });
  EXPECT_EQ(flushed, batch.size());
  EXPECT_EQ(emitted, batch.size());
  EXPECT_TRUE(coalescer.empty());
}

TEST(ServeCoalescerTest, UnknownEntitiesEmitNaN) {
  const auto service = MakeTrainedService();
  Coalescer coalescer;
  coalescer.Add(PendingPredict{.conn_id = 1, .request_id = 1, .user = 0,
                               .service = 0});
  coalescer.Add(PendingPredict{.conn_id = 1, .request_id = 2,
                               .user = kUsers + 100, .service = 0});
  coalescer.Add(PendingPredict{.conn_id = 1, .request_id = 3, .user = 0,
                               .service = kServices + 100});
  std::vector<double> values;
  coalescer.Flush(*service, [&](const PendingPredict&, double v) {
    values.push_back(v);
  });
  ASSERT_EQ(values.size(), 3u);
  EXPECT_FALSE(std::isnan(values[0]));
  EXPECT_TRUE(std::isnan(values[1]));
  EXPECT_TRUE(std::isnan(values[2]));
}

TEST(ServeCoalescerTest, AddSignalsFlushAtBatchCap) {
  Coalescer coalescer;
  for (std::uint64_t id = 1; id < kMaxCoalescedBatch; ++id) {
    EXPECT_FALSE(coalescer.Add(PendingPredict{.request_id = id})) << id;
  }
  EXPECT_TRUE(coalescer.Add(PendingPredict{.request_id = kMaxCoalescedBatch}));
  EXPECT_EQ(coalescer.size(), kMaxCoalescedBatch);
}

TEST(ServeCoalescerTest, FlushOnEmptyIsANoOp) {
  const auto service = MakeTrainedService();
  Coalescer coalescer;
  bool emitted = false;
  EXPECT_EQ(coalescer.Flush(*service,
                            [&](const PendingPredict&, double) {
                              emitted = true;
                            }),
            0u);
  EXPECT_FALSE(emitted);
}

}  // namespace
}  // namespace amf::serve
