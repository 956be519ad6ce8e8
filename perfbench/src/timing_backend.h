// Timing decorator over the serving seam (serve::Backend).
//
// The benchmark measures each layer from outside by timing calls into
// its public functions. The stock serve::Server is built over this
// decorator, which forwards every call to the real backend and records:
//
//   always      the return time of every accepted ReportObservation and
//               the start/end of every Tick (the two clock reads per
//               call that freshness needs: ack -> end of the first Tick
//               that started after it);
//   tracing on  one span per scored pair (PredictQoSPairs) or request
//               (PredictQoSMany) and the duration of each
//               ReportObservation, plus call counts.
//
// It also pauses training (Tick becomes a no-op) for the verification
// phase. Records go into buffers sized up front; the writer of each is a
// single server thread (the event loop for predict/report, the trainer
// for Tick), and the harness reads them only after Server::Shutdown has
// joined both threads. Counters are read live, so they are atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "serve/backend.h"
#include "stats.h"

namespace perfbench {

enum class SpanKind : std::uint32_t { kPair = 1, kMany = 2 };

/// One timed backend call as seen by the decorator. A coalesced
/// PredictQoSPairs batch yields one span per pair, all sharing the
/// call's start/end; `n` is the batch size (or candidate count).
/// (No member initializers: buffers of these are allocated untouched,
/// so unused capacity never shows in the SUT's resident set.)
struct Span {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t user;
  std::uint32_t key;  ///< service (pair) or first candidate (many)
  std::uint32_t n;
  SpanKind kind;
};

struct TickRecord {
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Live call counters (tracing on only).
struct CallCounts {
  std::uint64_t pair_calls = 0, pair_items = 0;
  std::uint64_t many_calls = 0, many_items = 0;
  std::uint64_t reports = 0, sheds = 0;
};

class TimingBackend final : public amf::serve::Backend {
 public:
  /// Capacities bound memory: records past them are counted as dropped,
  /// never reallocated under a live server. Pages are touched only as
  /// records arrive.
  TimingBackend(amf::serve::Backend* inner, std::size_t ack_capacity,
                std::size_t tick_capacity, std::size_t span_capacity,
                std::size_t report_capacity)
      : inner_(inner),
        acks_(ack_capacity),
        ticks_(tick_capacity),
        spans_(span_capacity),
        report_ns_(report_capacity) {}

  TimingBackend(const TimingBackend&) = delete;
  TimingBackend& operator=(const TimingBackend&) = delete;

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

  /// Spans recorded so far are kept; once the span buffer is full, later
  /// spans overwrite the slots after them in turn instead of being
  /// dropped, so tracing keeps costing what it cost before it filled.
  void KeepSpans() {
    span_keep_.store(spans_.count.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
  }

  /// Waits out an in-flight Tick, then turns Tick into a no-op.
  void PauseTraining() {
    std::lock_guard lk(tick_mu_);
    paused_ = true;
  }
  void ResumeTraining() {
    std::lock_guard lk(tick_mu_);
    paused_ = false;
  }

  std::size_t shard_count() const override { return inner_->shard_count(); }
  std::size_t ShardOfUser(amf::data::UserId user) const override {
    return inner_->ShardOfUser(user);
  }

  bool PredictQoSMany(amf::data::UserId user,
                      std::span<const amf::data::ServiceId> services,
                      std::span<double> out) const override {
    if (!tracing_.load(std::memory_order_relaxed)) {
      return inner_->PredictQoSMany(user, services, out);
    }
    const std::int64_t t0 = NowNs();
    const bool known = inner_->PredictQoSMany(user, services, out);
    const std::int64_t t1 = NowNs();
    Bump(many_calls_, 1);
    Bump(many_items_, services.size());
    PushSpan(Span{t0, t1, user, services.empty() ? 0u : services[0],
                  static_cast<std::uint32_t>(services.size()),
                  SpanKind::kMany});
    return known;
  }

  void PredictQoSPairs(std::span<const amf::data::UserId> users,
                       std::span<const amf::data::ServiceId> services,
                       std::span<double> out) const override {
    if (!tracing_.load(std::memory_order_relaxed)) {
      inner_->PredictQoSPairs(users, services, out);
      return;
    }
    const std::int64_t t0 = NowNs();
    inner_->PredictQoSPairs(users, services, out);
    const std::int64_t t1 = NowNs();
    Bump(pair_calls_, 1);
    Bump(pair_items_, users.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      PushSpan(Span{t0, t1, users[i], services[i],
                    static_cast<std::uint32_t>(users.size()),
                    SpanKind::kPair});
    }
  }

  bool ReportObservation(const amf::data::QoSSample& sample) override {
    const bool tracing = tracing_.load(std::memory_order_relaxed);
    const std::int64_t t0 = tracing ? NowNs() : 0;
    const bool accepted = inner_->ReportObservation(sample);
    const std::int64_t t1 = NowNs();
    if (accepted) {
      Push(acks_, t1);
    }
    if (tracing) {
      Bump(reports_, 1);
      if (!accepted) Bump(sheds_, 1);
      Push(report_ns_, t1 - t0);
    }
    return accepted;
  }

  void Tick(double now_seconds) override {
    std::lock_guard lk(tick_mu_);
    if (paused_) return;
    const std::int64_t t0 = NowNs();
    inner_->Tick(now_seconds);
    Push(ticks_, TickRecord{t0, NowNs()});
  }

  bool SyncJournalIfDue() override { return inner_->SyncJournalIfDue(); }
  bool FlushJournal() override { return inner_->FlushJournal(); }
  amf::obs::MetricsRegistry& metrics() const override {
    return inner_->metrics();
  }

  CallCounts counts() const {
    CallCounts c;
    c.pair_calls = pair_calls_.load(std::memory_order_relaxed);
    c.pair_items = pair_items_.load(std::memory_order_relaxed);
    c.many_calls = many_calls_.load(std::memory_order_relaxed);
    c.many_items = many_items_.load(std::memory_order_relaxed);
    c.reports = reports_.load(std::memory_order_relaxed);
    c.sheds = sheds_.load(std::memory_order_relaxed);
    return c;
  }

  // Recorded data. Read only after the server's threads have joined.
  std::span<const std::int64_t> acks() const { return Used(acks_); }
  std::span<const TickRecord> ticks() const { return Used(ticks_); }
  std::span<const Span> spans() const { return Used(spans_); }
  std::span<const std::int64_t> report_ns() const { return Used(report_ns_); }
  /// Resident bytes of the record buffers: the pages their records have
  /// touched. They belong to the harness and grow with run length.
  std::size_t record_bytes() const {
    return Touched(acks_) + Touched(ticks_) + Touched(spans_) +
           Touched(report_ns_);
  }
  /// Records that did not fit their buffer (or overwrote a span).
  std::uint64_t dropped_records() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  // Single-writer counters: a relaxed load + store is enough and keeps
  // the locked read-modify-write off the serving thread.
  static void Bump(std::atomic<std::uint64_t>& c, std::uint64_t by) {
    c.store(c.load(std::memory_order_relaxed) + by,
            std::memory_order_relaxed);
  }

  /// Fixed-capacity record buffer with one writer.
  template <typename T>
  struct Buffer {
    explicit Buffer(std::size_t capacity)
        : data(std::make_unique_for_overwrite<T[]>(capacity)),
          capacity(capacity) {}
    std::unique_ptr<T[]> data;
    std::size_t capacity;
    std::atomic<std::size_t> count{0};
  };

  template <typename T>
  void Push(Buffer<T>& buf, const T& value) const {
    const std::size_t i = buf.count.load(std::memory_order_relaxed);
    if (i >= buf.capacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buf.data[i] = value;
    buf.count.store(i + 1, std::memory_order_release);
  }

  void PushSpan(const Span& s) const {
    const std::size_t keep = span_keep_.load(std::memory_order_relaxed);
    if (spans_.count.load(std::memory_order_relaxed) < spans_.capacity ||
        keep >= spans_.capacity) {
      Push(spans_, s);
      return;
    }
    spans_.data[keep + span_wrap_++ % (spans_.capacity - keep)] = s;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  template <typename T>
  static std::span<const T> Used(const Buffer<T>& buf) {
    return {buf.data.get(), buf.count.load(std::memory_order_acquire)};
  }

  template <typename T>
  static std::size_t Touched(const Buffer<T>& buf) {
    constexpr std::size_t kPage = 4096;
    const std::size_t bytes = Used(buf).size() * sizeof(T);
    return (bytes + kPage - 1) / kPage * kPage;
  }

  amf::serve::Backend* inner_;
  std::atomic<bool> tracing_{false};

  std::mutex tick_mu_;
  bool paused_ = false;  // guarded by tick_mu_

  Buffer<std::int64_t> acks_;
  Buffer<TickRecord> ticks_;
  mutable Buffer<Span> spans_;
  std::atomic<std::size_t> span_keep_{SIZE_MAX};  // no wrap until set
  mutable std::size_t span_wrap_ = 0;             // span writer only
  Buffer<std::int64_t> report_ns_;
  mutable std::atomic<std::uint64_t> dropped_{0};

  mutable std::atomic<std::uint64_t> pair_calls_{0}, pair_items_{0};
  mutable std::atomic<std::uint64_t> many_calls_{0}, many_items_{0};
  std::atomic<std::uint64_t> reports_{0}, sheds_{0};
};

}  // namespace perfbench
