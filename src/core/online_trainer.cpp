#include "core/online_trainer.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace amf::core {

OnlineTrainer::OnlineTrainer(AmfModel& model, const TrainerConfig& config)
    : model_(model),
      config_(config),
      rng_(config.seed),
      next_raw_(rng_.engine()()),
      store_(&model.transform()),
      validator_(config.validator) {
  AMF_CHECK_MSG(config_.convergence_tol > 0.0,
                "convergence_tol must be positive");
  AMF_CHECK_MSG(config_.max_epochs > 0, "max_epochs must be positive");
  if (config_.metrics != nullptr) RegisterMetrics();
}

OnlineTrainer::~OnlineTrainer() = default;

void OnlineTrainer::RegisterMetrics() {
  obs::MetricsRegistry& reg = *config_.metrics;
  // Callbacks sample the always-on relaxed atomics, so enabling metrics
  // adds no hot-path work here — only snapshot-time loads.
  const auto counter = [](const std::atomic<std::uint64_t>& src) {
    return [&src] { return src.load(std::memory_order_relaxed); };
  };
  reg.RegisterCallbackCounter("trainer.updates", counter(updates_applied_));
  reg.RegisterCallbackCounter("trainer.epochs", counter(epochs_run_));
  reg.RegisterCallbackCounter("trainer.expired", counter(expired_));
  reg.RegisterCallbackCounter("trainer.queue_dropped",
                              counter(dropped_on_overflow_));
  reg.RegisterCallbackCounter("trainer.clock_regressions",
                              counter(clock_regressions_));
  reg.RegisterCallbackCounter("trainer.skipped_updates",
                              counter(skipped_updates_));
  reg.RegisterCallbackCounter("trainer.purged_samples",
                              counter(purged_samples_));

  const AtomicIngestCounters& in = validator_.counters();
  reg.RegisterCallbackCounter("pipeline.accepted", counter(in.accepted));
  reg.RegisterCallbackCounter("pipeline.rejected_nonfinite",
                              counter(in.rejected_nonfinite));
  reg.RegisterCallbackCounter("pipeline.rejected_nonpositive",
                              counter(in.rejected_nonpositive));
  reg.RegisterCallbackCounter("pipeline.rejected_out_of_range",
                              counter(in.rejected_out_of_range));
  reg.RegisterCallbackCounter("pipeline.rejected_bad_timestamp",
                              counter(in.rejected_bad_timestamp));
  reg.RegisterCallbackCounter("pipeline.rejected_duplicate",
                              counter(in.rejected_duplicate));
  reg.RegisterCallbackCounter("pipeline.quarantined_outlier",
                              counter(in.quarantined_outlier));
  reg.RegisterCallbackCounter("pipeline.nan_reinit_users",
                              [this] { return model_.nan_reinit_users(); });
  reg.RegisterCallbackCounter("pipeline.nan_reinit_services",
                              [this] { return model_.nan_reinit_services(); });

  // Compressed read-replica health (all zero at read_precision fp64):
  // refresh work done, rows currently awaiting the next barrier, and the
  // staleness window in updates (how far replica readers lag the masters).
  reg.RegisterCallbackCounter("replica.rows_refreshed", [this] {
    return model_.replica_rows_refreshed();
  });
  reg.RegisterCallbackCounter("replica.refreshes",
                              [this] { return model_.replica_refreshes(); });
  reg.RegisterCallbackCounter("replica.full_refreshes", [this] {
    return model_.replica_full_refreshes();
  });
  reg.RegisterCallbackGauge("replica.dirty_rows", [this] {
    return static_cast<double>(model_.replica_dirty_rows());
  });
  reg.RegisterCallbackGauge("replica.staleness_updates", [this] {
    return static_cast<double>(model_.replica_staleness_updates());
  });

  // Epoch wall times span microseconds (tiny stores) to minutes (full
  // convergence passes over a large store).
  epoch_hist_ = reg.GetLatencyHistogram(
      "trainer.epoch_seconds", {.min_value = 1e-6, .max_value = 600.0});
  // Parallel replay only: max/mean shard partition size this epoch (1.0 =
  // perfectly balanced; N = one shard owns N times its fair share).
  shard_imbalance_gauge_ = reg.GetGauge("trainer.shard_imbalance");
}

void OnlineTrainer::Observe(const data::QoSSample& sample) {
  if (config_.max_incoming > 0 &&
      incoming_.size() >= config_.max_incoming) {
    // Backpressure: a trainer that cannot keep up sheds the newest sample
    // (the store already holds the freshest value per pair, so dropping
    // bursts degrades recency, not correctness) instead of letting the
    // queue grow without bound.
    dropped_on_overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  incoming_.push_back(sample);
}

void OnlineTrainer::AdvanceTime(double now) {
  if (!(now >= now_)) {  // backwards step, or NaN
    // A wall clock stepping backwards (NTP, VM migration, restore onto a
    // different machine) must not abort an always-on trainer. Hold the
    // clock — expiry keeps working against the newest time we ever saw —
    // and surface the event to monitoring instead.
    clock_regressions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  now_ = now;
}

std::size_t OnlineTrainer::ProcessIncoming() {
  std::size_t processed = 0;
  const bool saw_samples = !incoming_.empty();
  while (!incoming_.empty()) {
    const data::QoSSample sample = incoming_.front();
    incoming_.pop_front();
    // Ingestion guard: rejected/quarantined samples never reach the store
    // or the model (counted in Stats()).
    if (config_.validate_ingest && !validator_.Admit(sample, now_)) {
      continue;
    }
    // Algorithm 1 lines 4-9: I_ij <- 1, register new entities (done inside
    // the update), refresh (t_ij, R_ij), update online.
    store_.Upsert(sample);
    const double e =
        ApplyUpdate(sample, store_.TargetOf(sample.user, sample.service));
    if (std::isnan(e)) {
      // The model refused the sample (degenerate transform); don't keep it
      // around for replay to refuse again.
      store_.Remove(sample.user, sample.service);
      skipped_updates_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    now_ = std::max(now_, sample.timestamp);
    updates_applied_.fetch_add(1, std::memory_order_relaxed);
    ++processed;
  }
  if (processed > 0) {
    converged_ = false;
    model_.CountUpdates(processed);
  }
  // Ingest is a barrier point too (the caller's thread, no replay in
  // flight): publish the compressed replicas of every row this drain
  // touched — including repairs on samples that were then refused, which
  // is why the gate is "saw samples", not "applied updates".
  if (saw_samples && model_.replicas_enabled()) model_.RefreshReplicas();
  return processed;
}

std::optional<double> OnlineTrainer::ReplayOneCounted(std::uint64_t& applied,
                                                      std::uint64_t& expired,
                                                      std::uint64_t& skipped) {
  if (store_.empty()) return std::nullopt;
  const std::size_t pick = rng_.IndexFrom(next_raw_, store_.size());
  const data::QoSSample sample = store_.samples()[pick];
  const double r = store_.target(pick);
  DrawAheadAndPrefetch();
  if (config_.expiry_seconds > 0.0 &&
      now_ - sample.timestamp >= config_.expiry_seconds) {
    // Algorithm 1 line 15: the sample is obsolete, set I_ij <- 0.
    store_.Remove(sample.user, sample.service);
    ++expired;
    return std::nullopt;
  }
  const double e = ApplyUpdate(sample, r);
  if (std::isnan(e)) {
    // Hard model-side guard tripped; drop the sample so the epoch loop
    // cannot spin on it.
    store_.Remove(sample.user, sample.service);
    ++skipped;
    return std::nullopt;
  }
  ++applied;
  return e;
}

void OnlineTrainer::DrawAheadAndPrefetch() {
  // The next pick's engine output is drawn now and mapped when used, with
  // the store size current then (this update may still remove a sample).
  // Nothing else draws from rng_, so the engine-output sequence and the
  // pick order are exactly those of drawing at pick time. The hint below
  // maps with today's size and skips Lemire's rare redraw: a wrong guess
  // only wastes a prefetch.
  next_raw_ = rng_.engine()();
  const auto hint = static_cast<std::size_t>(
      (static_cast<unsigned __int128>(next_raw_) * store_.size()) >> 64);
  store_.Prefetch(hint);
  const data::QoSSample& next = store_.samples()[hint];
  model_.PrefetchRows(next.user, next.service);
}

void OnlineTrainer::FlushReplayCounters(std::uint64_t applied,
                                        std::uint64_t expired,
                                        std::uint64_t skipped) {
  if (applied > 0) {
    updates_applied_.fetch_add(applied, std::memory_order_relaxed);
    model_.CountUpdates(applied);
  }
  if (expired > 0) expired_.fetch_add(expired, std::memory_order_relaxed);
  if (skipped > 0) skipped_updates_.fetch_add(skipped, std::memory_order_relaxed);
}

std::optional<double> OnlineTrainer::ReplayOne() {
  std::uint64_t applied = 0, expired = 0, skipped = 0;
  const std::optional<double> e = ReplayOneCounted(applied, expired, skipped);
  FlushReplayCounters(applied, expired, skipped);
  return e;
}

std::optional<double> OnlineTrainer::ReplayEpoch() {
  if (store_.size() > 0) epochs_run_.fetch_add(1, std::memory_order_relaxed);
  obs::ScopedLatencyTimer epoch_timer(epoch_hist_);
  if (config_.replay_threads > 1) return ReplayEpochParallel();
  const std::size_t iters = store_.size();
  if (iters == 0) return std::nullopt;
  double err_sum = 0.0;
  std::size_t applied = 0;
  // Counters accumulate in locals and flush once at the epoch barrier, so
  // the per-sample hot loop carries no atomic RMW (same batching as the
  // parallel path; monitors lag by at most one epoch).
  std::uint64_t applied_n = 0, expired_n = 0, skipped_n = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    if (const auto e = ReplayOneCounted(applied_n, expired_n, skipped_n)) {
      err_sum += *e;
      ++applied;
    }
    if (store_.empty()) break;
  }
  FlushReplayCounters(applied_n, expired_n, skipped_n);
  // Epoch barrier: fold this epoch's master mutations into the replicas.
  if (model_.replicas_enabled()) model_.RefreshReplicas();
  if (applied == 0) return std::nullopt;
  return err_sum / static_cast<double>(applied);
}

std::optional<double> OnlineTrainer::ReplayEpochParallel() {
  const std::vector<data::QoSSample>& samples = store_.samples();
  if (samples.empty()) return std::nullopt;

  const std::size_t shards = config_.replay_shards > 0
                                 ? config_.replay_shards
                                 : config_.replay_threads * 4;
  if (!pool_) {
    pool_ = std::make_unique<common::ThreadPool>(config_.replay_threads,
                                                 config_.pin_replay_threads);
  }
  if (!service_locks_) {
    service_locks_ =
        std::make_unique<common::StripedSpinlocks>(config_.service_stripes);
  }
  // Persistent per-shard RNGs: shard k's replay order is a fixed function
  // of (seed, k, epoch index), so a given shard count replays identically
  // no matter how the OS schedules the worker threads.
  while (shard_rngs_.size() < shards) {
    shard_rngs_.push_back(rng_.Fork(0x5eed0000ULL + shard_rngs_.size()));
  }

  // Partition stored samples by owning user shard. Two samples of the
  // same user always land in the same shard, so every user row (and its
  // error EMA) has exactly one writer this epoch — hogwild needs locks
  // only on the service side, where shards collide.
  shard_partitions_.resize(shards);
  for (auto& p : shard_partitions_) p.clear();
  for (std::uint32_t i = 0; i < samples.size(); ++i) {
    shard_partitions_[samples[i].user % shards].push_back(i);
  }
  if (shard_imbalance_gauge_ != nullptr) {
    // max/mean partition size: 1.0 is a perfect split, higher means one
    // shard serializes that multiple of its fair share of the epoch.
    std::size_t max_part = 0;
    for (const auto& p : shard_partitions_) max_part = std::max(max_part, p.size());
    const double mean_part =
        static_cast<double>(samples.size()) / static_cast<double>(shards);
    shard_imbalance_gauge_->Set(
        mean_part > 0.0 ? static_cast<double>(max_part) / mean_part : 0.0);
  }

  struct ShardOutcome {
    double err_sum = 0.0;
    std::size_t applied = 0;
    std::uint64_t refused = 0;
    std::uint64_t expired = 0;
    // Store mutations are deferred to the epoch barrier: the store is not
    // thread-safe, and removals mid-epoch would invalidate `samples`.
    std::vector<std::pair<data::UserId, data::ServiceId>> remove;
  };
  std::vector<ShardOutcome> outcomes(shards);
  const double now = now_;
  const double expiry = config_.expiry_seconds;

  pool_->ParallelFor(0, shards, [&](std::size_t shard) {
    std::vector<std::uint32_t>& part = shard_partitions_[shard];
    if (part.empty()) return;
    shard_rngs_[shard].Shuffle(part);
    ShardOutcome& out = outcomes[shard];
    for (const std::uint32_t idx : part) {
      const data::QoSSample& s = samples[idx];
      if (expiry > 0.0 && now - s.timestamp >= expiry) {
        out.remove.emplace_back(s.user, s.service);  // Alg. 1: I_ij <- 0
        ++out.expired;
        continue;
      }
      double e;
      {
        std::lock_guard<common::Spinlock> guard(
            service_locks_->ForIndex(s.service));
        e = model_.OnlineUpdateTarget(s.user, s.service, store_.target(idx),
                                      /*guarded=*/true);
      }
      if (std::isnan(e)) {
        out.remove.emplace_back(s.user, s.service);
        ++out.refused;
      } else {
        out.err_sum += e;
        ++out.applied;
      }
    }
  });

  // Epoch barrier: merge per-shard partials and apply deferred removals.
  double err_sum = 0.0;
  std::size_t applied = 0;
  for (const ShardOutcome& out : outcomes) {
    for (const auto& [u, s] : out.remove) store_.Remove(u, s);
    skipped_updates_.fetch_add(out.refused, std::memory_order_relaxed);
    expired_.fetch_add(out.expired, std::memory_order_relaxed);
    err_sum += out.err_sum;
    applied += out.applied;
  }
  updates_applied_.fetch_add(applied, std::memory_order_relaxed);
  model_.CountUpdates(applied);
  // Epoch barrier (the ParallelFor join ordered every shard's dirty marks
  // before this point): dirty-row replica refresh on the trainer thread,
  // while no hogwild writer is in flight.
  if (model_.replicas_enabled()) model_.RefreshReplicas();
  if (applied == 0) return std::nullopt;
  return err_sum / static_cast<double>(applied);
}

double OnlineTrainer::ApplyUpdate(const data::QoSSample& sample, double r) {
  if (config_.guarded_updates) {
    // No-op for already-registered entities. Callers with concurrent
    // readers must pre-register (growth reallocates under the readers);
    // see ConcurrentPredictionService's drain path.
    model_.EnsureUser(sample.user);
    model_.EnsureService(sample.service);
  }
  return model_.OnlineUpdateTarget(sample.user, sample.service, r,
                                   config_.guarded_updates);
}

std::size_t OnlineTrainer::RunUntilConverged() {
  ProcessIncoming();
  converged_ = false;
  double prev = std::numeric_limits<double>::infinity();
  std::size_t stall = 0;
  std::size_t epochs = 0;
  while (epochs < config_.max_epochs) {
    const std::optional<double> mean_err = ReplayEpoch();
    if (!mean_err) break;  // store empty (all expired)
    ++epochs;
    last_epoch_error_ = *mean_err;
    if (std::isfinite(prev) && prev > 0.0) {
      const double improvement = (prev - *mean_err) / prev;
      if (improvement < config_.convergence_tol) {
        if (++stall >= config_.convergence_patience) {
          converged_ = true;
          break;
        }
      } else {
        stall = 0;
      }
    }
    prev = *mean_err;
  }
  return epochs;
}

PipelineStats OnlineTrainer::Stats() const {
  // Wait-free: every source is a relaxed atomic with the trainer thread
  // as its only writer, so monitors may call this mid-epoch.
  PipelineStats s = validator_.stats();
  s.skipped_updates = skipped_updates_.load(std::memory_order_relaxed);
  s.dropped_on_overflow =
      dropped_on_overflow_.load(std::memory_order_relaxed);
  s.clock_regressions = clock_regressions_.load(std::memory_order_relaxed);
  s.nan_reinit_users = model_.nan_reinit_users();
  s.nan_reinit_services = model_.nan_reinit_services();
  s.purged_samples = purged_samples_.load(std::memory_order_relaxed);
  return s;
}

void OnlineTrainer::SeedValidatorFromStore() {
  for (const data::QoSSample& s : store_.samples()) {
    validator_.SeedDuplicateHistory(s);
  }
}

std::size_t OnlineTrainer::PurgeUser(data::UserId u) {
  std::size_t purged = store_.RemoveUser(u);
  for (auto it = incoming_.begin(); it != incoming_.end();) {
    if (it->user == u) {
      it = incoming_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  validator_.ForgetUser(u);
  purged_samples_.fetch_add(purged, std::memory_order_relaxed);
  return purged;
}

std::size_t OnlineTrainer::PurgeService(data::ServiceId s) {
  std::size_t purged = store_.RemoveService(s);
  for (auto it = incoming_.begin(); it != incoming_.end();) {
    if (it->service == s) {
      it = incoming_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  validator_.ForgetService(s);
  purged_samples_.fetch_add(purged, std::memory_order_relaxed);
  return purged;
}

}  // namespace amf::core
