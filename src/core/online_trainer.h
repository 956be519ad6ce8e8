// OnlineTrainer: Algorithm 1 of the paper.
//
//   repeat forever:
//     if a new sample arrived:     register entities, store it, update
//     else:                        replay a random stored sample,
//                                  discarding it if expired
//     if converged: wait for new data
//
// This class is the deterministic, externally-clocked version of that loop:
// the caller pushes observations (Observe), advances simulated time
// (AdvanceTime), and asks for work to happen (ProcessIncoming / Replay /
// RunUntilConverged). Convergence is tracked as the relative improvement of
// the mean training error across replay epochs.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/spinlock.h"
#include "core/amf_model.h"
#include "core/pipeline_stats.h"
#include "core/sample_store.h"
#include "core/sample_validator.h"

namespace amf::common {
class ThreadPool;
}

namespace amf::obs {
class Gauge;
class LatencyHistogram;
class MetricsRegistry;
}  // namespace amf::obs

namespace amf::core {

struct TrainerConfig {
  /// Samples older than this (seconds) are expired on replay, matching the
  /// paper's 15-minute window. <= 0 disables expiration.
  double expiry_seconds = 900.0;
  /// Convergence: stop when the relative improvement of the mean epoch
  /// error is below this ...
  double convergence_tol = 5e-3;
  /// ... for this many consecutive epochs.
  std::size_t convergence_patience = 2;
  /// Hard cap on replay epochs per RunUntilConverged call.
  std::size_t max_epochs = 200;
  /// Replay order randomization seed.
  std::uint64_t seed = 7;
  /// Run every incoming sample through a SampleValidator before it may
  /// touch the store or the model (rejected/quarantined samples are
  /// counted in Stats() and dropped). Off = trust the caller.
  bool validate_ingest = true;
  /// Ingestion-guard thresholds (used when validate_ingest is true).
  SampleValidatorConfig validator;

  // --- Parallel sharded replay ---------------------------------------------
  /// Worker threads for replay epochs. <= 1 keeps the serial Algorithm-1
  /// loop (with-replacement random picks, bit-deterministic). > 1 runs
  /// each epoch as a user-sharded hogwild pass over the store across an
  /// internal ThreadPool: every shard owns its users' rows outright,
  /// same-service updates are serialized by striped spinlocks, and all
  /// writes publish through the model's per-row seqlocks.
  std::size_t replay_threads = 1;
  /// User shards for parallel replay; 0 = 4x replay_threads. Sample i is
  /// assigned to shard (user % shards), each shard replays its partition
  /// in an order drawn from its own persistent RNG — deterministic per
  /// shard count regardless of thread scheduling.
  std::size_t replay_shards = 0;
  /// Striped spinlocks serializing same-service updates across shards.
  std::size_t service_stripes = 64;
  /// Pin each replay worker to a core (Linux; silent no-op elsewhere or
  /// when refused by the container). Keeps a shard's user rows resident in
  /// one core's private cache across epochs instead of migrating with the
  /// thread. Off by default: pinning helps dedicated training hosts and
  /// hurts oversubscribed ones — an explicit deployment decision.
  bool pin_replay_threads = false;
  /// Backpressure cap on the incoming Observe queue (0 = unbounded).
  /// Overflowing samples are dropped newest-first and counted in
  /// Stats().dropped_on_overflow.
  std::size_t max_incoming = 65536;
  /// Route every model write through AmfModel::OnlineUpdateGuarded (the
  /// seqlock publish protocol) so external threads may read the model via
  /// the *Shared APIs while training runs. Parallel replay always uses the
  /// guarded path; this flag additionally covers the serial ingest/replay
  /// paths. Growth still happens on ingest: callers with live concurrent
  /// readers must pre-register entities (see ConcurrentPredictionService).
  bool guarded_updates = false;

  // --- Observability -------------------------------------------------------
  /// When set, the trainer registers its counters (trainer.*, pipeline.*)
  /// with this registry at construction and records epoch wall times into
  /// a trainer.epoch_seconds histogram. The registry must outlive the
  /// trainer's last use AND must not be snapshotted after the trainer is
  /// destroyed (the registrations are callbacks into trainer state).
  /// nullptr = no metrics, zero overhead beyond the always-on atomics.
  obs::MetricsRegistry* metrics = nullptr;
};

class OnlineTrainer {
 public:
  /// The trainer updates `model` in place; the model must outlive it.
  OnlineTrainer(AmfModel& model, const TrainerConfig& config = {});
  ~OnlineTrainer();  // out of line: unique_ptr<ThreadPool> member

  const TrainerConfig& config() const { return config_; }
  const SampleStore& store() const { return store_; }
  double now() const { return now_; }

  /// Enqueues a newly observed sample (thread-compatible, not thread-safe).
  /// When the queue is at config().max_incoming the sample is dropped and
  /// counted in Stats().dropped_on_overflow — a slow trainer sheds load
  /// instead of growing the queue without bound.
  void Observe(const data::QoSSample& sample);

  /// Advances the simulated clock (timestamps of later Observe calls are
  /// expected to be >= now). A non-monotonic `now` — reachable in real
  /// deployments when a checkpoint restore meets a wall clock that
  /// stepped backwards — is clamped (the clock holds) and counted in
  /// Stats().clock_regressions instead of aborting the process.
  void AdvanceTime(double now);

  /// Drains the incoming queue: each sample is stored (I_ij <- 1) and
  /// applied as one online update. Returns the number processed.
  std::size_t ProcessIncoming();

  /// One Algorithm-1 replay iteration: pick a random stored sample; if it
  /// is older than the expiry window, drop it (I_ij <- 0) and return
  /// nullopt, otherwise apply an online update and return its e_us.
  /// Returns nullopt as well when the store is empty.
  std::optional<double> ReplayOne();

  /// One epoch = store-size replay iterations. Returns the mean e_us over
  /// the updates actually applied (nullopt if nothing could be replayed).
  /// With config().replay_threads > 1 the epoch runs as one user-sharded
  /// parallel pass (each stored sample replayed exactly once, expiration
  /// applied at the epoch barrier).
  std::optional<double> ReplayEpoch();

  /// Drains incoming samples, then replays epochs until the convergence
  /// criterion or the epoch cap is hit. Returns the number of epochs run.
  std::size_t RunUntilConverged();

  /// True after RunUntilConverged stopped due to the tolerance (as opposed
  /// to the epoch cap or an empty store).
  bool converged() const { return converged_; }

  /// Mean training error of the last completed epoch (NaN before any).
  double last_epoch_error() const { return last_epoch_error_; }

  /// The ingestion guard (history, quarantine buffer). Valid regardless of
  /// validate_ingest; only consulted when it is on.
  const SampleValidator& validator() const { return validator_; }

  /// Pipeline counters: validator verdicts, updates the model refused
  /// (non-finite / degenerate-r samples), NaN-poisoning repairs, shed
  /// load, and clock regressions. Wait-free — every source is a relaxed
  /// atomic, so monitors may call this from any thread while training
  /// runs (no lock is taken and none is needed).
  PipelineStats Stats() const;

  /// Total online updates applied (ingest + replay), for throughput
  /// monitoring. Relaxed read; safe from any thread.
  std::uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }

  /// Mutable store access for checkpoint restore (LoadSampleStore upserts
  /// records into it); not for use while training is in flight.
  SampleStore& mutable_store() { return store_; }

  /// Seeds the validator's per-pair duplicate history from every sample
  /// currently in the store. Called after a checkpoint restore, before
  /// journal replay: a replayed record whose effect the checkpoint
  /// already contains then classifies as a rejected re-delivery instead
  /// of double-applying (the validator's in-memory history is not
  /// checkpointed). Not for use while training is in flight.
  void SeedValidatorFromStore();

  /// Scrubs every trace of a retired entity from the training pipeline:
  /// stored samples (they would keep dragging paired factors via Eq. 8-9
  /// replay updates), queued-but-unprocessed observations, and the
  /// validator's per-pair / per-service state (so the recycled id's next
  /// tenant is not rejected as a duplicate or judged against the old
  /// tenant's outlier window). Returns the number of samples removed
  /// (store + queue), also accumulated into Stats().purged_samples. Not
  /// for use while a replay epoch is in flight — callers with concurrent
  /// training defer to the epoch barrier (see ConcurrentPredictionService).
  std::size_t PurgeUser(data::UserId u);
  std::size_t PurgeService(data::ServiceId s);

  /// Accounts samples purged upstream of the trainer (e.g. a service-level
  /// ingest buffer dropped at retirement) in Stats().purged_samples, so
  /// the pipeline-wide purge total stays in one counter.
  void CountPurgedSamples(std::size_t n) {
    purged_samples_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  /// One parallel user-sharded epoch over the current store contents.
  std::optional<double> ReplayEpochParallel();

  /// ReplayOne body with plain-integer accounting: the serial epoch loop
  /// accumulates into locals and flushes once per epoch, keeping atomic
  /// RMWs out of the per-sample path.
  std::optional<double> ReplayOneCounted(std::uint64_t& applied,
                                         std::uint64_t& expired,
                                         std::uint64_t& skipped);
  void FlushReplayCounters(std::uint64_t applied, std::uint64_t expired,
                           std::uint64_t skipped);

  /// Applies one incoming/replayed sample with its stored target r through
  /// the configured update path (guarded or plain); registers entities
  /// first when growing. The caller counts applied updates into the model.
  double ApplyUpdate(const data::QoSSample& sample, double r);

  /// Draws the following replay pick's engine output into next_raw_ and
  /// prefetches that pick's sample, target and factor rows, so they load
  /// while the current update computes.
  void DrawAheadAndPrefetch();

  /// Registers trainer.* / pipeline.* metrics with config_.metrics.
  void RegisterMetrics();

  AmfModel& model_;
  TrainerConfig config_;
  common::Rng rng_;
  // Engine output of the next replay pick, always drawn one pick ahead.
  std::uint64_t next_raw_;
  SampleStore store_;
  SampleValidator validator_;
  std::deque<data::QoSSample> incoming_;
  double now_ = 0.0;
  bool converged_ = false;
  // Single-writer (the trainer thread) relaxed atomics: monitoring
  // threads read them concurrently via Stats() / metric callbacks.
  std::atomic<std::uint64_t> skipped_updates_{0};
  std::atomic<std::uint64_t> dropped_on_overflow_{0};
  std::atomic<std::uint64_t> clock_regressions_{0};
  std::atomic<std::uint64_t> updates_applied_{0};
  std::atomic<std::uint64_t> epochs_run_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> purged_samples_{0};
  double last_epoch_error_ = std::numeric_limits<double>::quiet_NaN();

  // Metric handles (nullptr when config_.metrics is nullptr).
  obs::LatencyHistogram* epoch_hist_ = nullptr;
  obs::Gauge* shard_imbalance_gauge_ = nullptr;

  // Parallel-replay state, created lazily on the first parallel epoch.
  std::unique_ptr<common::ThreadPool> pool_;
  std::unique_ptr<common::StripedSpinlocks> service_locks_;
  std::vector<common::Rng> shard_rngs_;  // one persistent RNG per shard
  std::vector<std::vector<std::uint32_t>> shard_partitions_;  // scratch
};

}  // namespace amf::core
