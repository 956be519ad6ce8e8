// Request coalescer for the serving event loop (DESIGN.md §14).
//
// Single PREDICT requests that arrive in the same event-loop wake —
// from one pipelining connection or from many — are gathered into one
// batch and scored through PredictQoSPairs: one shared-lock acquisition
// and one gather pass per batch instead of one per request. The
// coalescer test proves every batched result is bit-identical (at fp64)
// to the per-request PredictQoS it replaces, so batching is purely a
// scheduling decision, never an accuracy one.
//
// Threading: owned and driven by the event-loop thread only. Nothing
// here is locked; do not share an instance across threads.
//
// Flush policy ("natural batching", no timer): the loop flushes every
// non-empty coalescer once at the end of each epoll wake, and
// immediately when a batch reaches kMaxCoalescedBatch (Add() returns
// true). A lone request therefore waits for nothing but the rest of its
// own wake; under load, batches grow with the work each wake finds.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "data/qos_types.h"

namespace amf::serve {

/// A batch is flushed as soon as it holds this many requests. Bounds one
/// wake's batch and puts a pipelining peer's responses into its write
/// buffer mid-parse, where the backpressure ladder can see them.
inline constexpr std::size_t kMaxCoalescedBatch = 64;

/// One queued single-prediction request, tagged with enough identity to
/// route its answer back to the issuing connection.
struct PendingPredict {
  std::uint64_t conn_id = 0;
  std::uint64_t request_id = 0;
  data::UserId user = 0;
  data::ServiceId service = 0;
  double enqueued_monotonic_s = 0.0;
};

class Coalescer {
 public:
  Coalescer() { pending_.reserve(kMaxCoalescedBatch); }

  /// Queues one request. Returns true when the batch hit
  /// kMaxCoalescedBatch and must be flushed now.
  bool Add(const PendingPredict& req) {
    pending_.push_back(req);
    return pending_.size() >= kMaxCoalescedBatch;
  }

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }

  /// Scores every pending request in ONE PredictQoSPairs call and hands
  /// each (request, value) to `emit` in arrival order; NaN marks an
  /// unknown user or service (the server maps it to kUnknownEntity).
  /// Clears the pending set. Returns the batch size that was flushed.
  /// `service` is anything with the PredictQoSPairs(users, services,
  /// values) span contract — a ConcurrentPredictionService or a serving
  /// Backend (the server keeps one coalescer per shard, so a Backend
  /// flush is still one shard-local batch).
  template <typename ServiceT>
  std::size_t Flush(
      const ServiceT& service,
      const std::function<void(const PendingPredict&, double)>& emit) {
    const std::size_t n = pending_.size();
    if (n == 0) return 0;
    users_.resize(n);
    services_.resize(n);
    values_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      users_[i] = pending_[i].user;
      services_[i] = pending_[i].service;
    }
    service.PredictQoSPairs(users_, services_, values_);
    for (std::size_t i = 0; i < n; ++i) emit(pending_[i], values_[i]);
    pending_.clear();
    return n;
  }

 private:
  std::vector<PendingPredict> pending_;
  // Flush scratch, reused across batches (no per-flush allocation in
  // steady state).
  std::vector<data::UserId> users_;
  std::vector<data::ServiceId> services_;
  std::vector<double> values_;
};

}  // namespace amf::serve
