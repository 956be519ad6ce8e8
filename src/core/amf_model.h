// AmfModel: the adaptive matrix factorization model state and its
// per-sample online update (paper §IV-C, Eqs. 12-17).
//
// The model holds one latent vector and one running average error per user
// and per service. Entities are registered dynamically (Algorithm 1 lines
// 5-7): the model grows as new users/services appear, with freshly
// randomized factors and initial error 1 — no retraining of anyone else.
//
// One OnlineUpdate(u, s, raw_value) performs:
//   r     = normalize(boxcox(raw))                        (Eqs. 3-4)
//   g     = sigmoid(U_u . S_s)
//   e_us  = |r - g| / r                                   (Eq. 15)
//   w_u   = e_u / (e_u + e_s), w_s = e_s / (e_u + e_s)    (Eq. 12)
//   e_u  += beta w_u (e_us - e_u)  [EMA]                  (Eq. 13)
//   e_s  += beta w_s (e_us - e_s)                         (Eq. 14)
//   U_u  -= eta w_u ((g - r) g' S_s / r^2 + lambda_u U_u) (Eq. 16)
//   S_s  -= eta w_s ((g - r) g' U_u / r^2 + lambda_s S_s) (Eq. 17)
// with the two factor updates computed simultaneously from the old values.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/seqlock.h"
#include "core/amf_config.h"
#include "core/factor_arena.h"
#include "core/replica_arena.h"
#include "data/qos_types.h"

namespace amf::common {
class ThreadPool;
}
namespace amf::linalg {
class Matrix;
}

namespace amf::core {

class AmfModel {
 public:
  explicit AmfModel(const AmfConfig& config);

  // Copyable/movable despite the atomic update counter (snapshot copy).
  AmfModel(const AmfModel& other);
  AmfModel& operator=(const AmfModel& other);
  AmfModel(AmfModel&& other) noexcept;
  AmfModel& operator=(AmfModel&& other) noexcept;

  const AmfConfig& config() const { return config_; }
  const transform::QoSTransform& transform() const { return transform_; }

  std::size_t num_users() const { return user_.size(); }
  std::size_t num_services() const { return service_.size(); }

  /// Every latent row starts on a boundary of this many bytes (arena
  /// layout; see core/factor_arena.h). Exposed for tests and benches.
  static constexpr std::size_t kFactorRowAlignment = common::kCacheLineBytes;

  /// Doubles between consecutive factor-row starts (rank rounded up to a
  /// cache-line multiple; the pad lanes are permanently zero).
  std::size_t factor_row_stride() const { return user_.stride(); }

  /// Registers users/services up to and including the given id (no-op for
  /// already-known entities). New factors are randomized, errors set to
  /// config.initial_error.
  void EnsureUser(data::UserId u);
  void EnsureService(data::ServiceId s);

  bool HasUser(data::UserId u) const { return u < num_users(); }
  bool HasService(data::ServiceId s) const { return s < num_services(); }

  /// Reclaims a registered entity's slot for reuse by a new tenant
  /// (registry retirement): deterministically re-initializes the latent
  /// row (same (seed, id)-derived fill as NaN repair — no shared RNG
  /// state) and resets the error EMA to config.initial_error, the paper's
  /// cold-start state for a fresh entity (Eq. 13). The row write is
  /// published through the per-row seqlock, so it is safe against
  /// concurrent *Shared readers; writer-vs-writer exclusion (vs. guarded
  /// trainer updates on the same row) remains the caller's job —
  /// ConcurrentPredictionService defers retirement to the epoch barrier.
  void RetireUser(data::UserId u);
  void RetireService(data::ServiceId s);

  /// Relaxed load of service s's seqlock version word. Guarded trainer
  /// paths bump it by 2 per row publish, so the DELTA between two reads
  /// taken at epoch barriers (no writer in flight — the word is even)
  /// divided by 2 counts the publishes in between. The sharding facade
  /// uses these deltas as per-shard merge weights (DESIGN.md §15).
  std::uint32_t ServiceRowVersion(data::ServiceId s) const;

  /// Overwrites service s's latent row and error EMA with externally
  /// merged state, publishing through the per-row seqlock (and the
  /// replica slab when enabled) so concurrent *Shared readers never see
  /// a torn row — the same protocol as RetireService. Writer-vs-writer
  /// exclusion is the caller's job: the sharding facade only merges at
  /// the epoch barrier (no trainer in flight). `row` must be
  /// rank-length; the service must already be registered.
  void OverwriteServiceRow(data::ServiceId s, std::span<const double> row,
                           double error);

  /// One SGD step on an observed sample. Registers unknown entities.
  /// Returns the pre-update relative error e_us (Eq. 15) — the trainer's
  /// convergence signal.
  ///
  /// Hard robustness guards: a non-finite raw value, or one whose
  /// transformed value r falls below config.loss_epsilon (the
  /// relative-error loss divides by r), is skipped — the model is left
  /// untouched and NaN is returned so callers can count the skip. If a
  /// latent vector has been NaN-poisoned (by corrupted state from any
  /// source), it is detected here, re-randomized, and its entity error
  /// reset to initial_error instead of propagating NaN through replay;
  /// see nan_reinit_users()/nan_reinit_services().
  ///
  /// Thread-compatibility: concurrent OnlineUpdate calls are safe only if
  /// (a) both entities are already registered (Ensure* grows storage and
  /// must not race) and (b) callers serialize access per user and per
  /// service (see core::OnlineTrainer's striped service locks).
  double OnlineUpdate(data::UserId u, data::ServiceId s, double raw_value);

  /// The kernel behind OnlineUpdate (guarded = false) and
  /// OnlineUpdateGuarded (true), taking the target r = transform().Target
  /// (raw) the trainer caches per stored sample. Same guards, math, return
  /// value and contract, but updates() does not advance: the caller adds
  /// applied updates in bulk through CountUpdates at its barrier.
  double OnlineUpdateTarget(data::UserId u, data::ServiceId s, double r,
                            bool guarded);
  void CountUpdates(std::uint64_t n) {
    updates_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Cache hint for an upcoming update of (u, s); ignores unknown ids.
  void PrefetchRows(data::UserId u, data::ServiceId s) const {
    if (HasUser(u)) user_.Prefetch(u);
    if (HasService(s)) service_.Prefetch(s);
  }

  /// Predicted raw QoS value (inverse-transformed sigmoid inner product).
  /// Both entities must be registered.
  double PredictRaw(data::UserId u, data::ServiceId s) const;

  /// Predicted normalized value g in (0, 1).
  double PredictNormalized(data::UserId u, data::ServiceId s) const;

  // --- Batched prediction --------------------------------------------------
  // The batch APIs score one registered user against many services in a
  // single pass: a rank-d GEMV over the contiguous service-factor block,
  // then the sigmoid (and for the raw variants the inverse transform)
  // applied to the whole row. They agree with the scalar Predict* entry
  // for entry up to floating-point summation order (~1e-15 relative; see
  // tests/batch_predict_test.cpp). They are const reads: safe to call
  // concurrently with each other, but not with OnlineUpdate/Ensure*.

  /// Scores user u against services [0, out.size()); out.size() must not
  /// exceed num_services().
  void PredictRowNormalized(data::UserId u, std::span<double> out) const;

  /// Row scoring with raw QoS readout (inverse transform over the row).
  void PredictRowRaw(data::UserId u, std::span<double> out) const;

  /// Gather variant for candidate subsets: out[i] scores (u, services[i]).
  /// Sizes must match; every id must be registered.
  void PredictManyNormalized(data::UserId u,
                             std::span<const data::ServiceId> services,
                             std::span<double> out) const;
  void PredictManyRaw(data::UserId u,
                      std::span<const data::ServiceId> services,
                      std::span<double> out) const;

  /// Scores every (user, service) pair into `out` (resized to num_users()
  /// x num_services()), fanning rows across `pool` (nullptr = the
  /// process-global pool). No OnlineUpdate may run concurrently.
  void PredictMatrixRaw(linalg::Matrix* out,
                        common::ThreadPool* pool = nullptr) const;

  // --- Concurrent access ---------------------------------------------------
  // Every latent row carries a seqlock version word (common/seqlock.h).
  // The *Guarded writer publishes row mutations through the seqlock, and
  // the *Shared readers snapshot rows through its retry loop, so training
  // and prediction may run concurrently with no lock between them.
  //
  // Division of responsibility: the seqlock orders ONE writer per row
  // against any number of readers. Writer-vs-writer exclusion is the
  // caller's job (OnlineTrainer shards users so each row has one owning
  // worker, and stripes services with spinlocks). Registration (Ensure*)
  // reallocates factor storage and must still exclude both readers and
  // writers — ConcurrentPredictionService keeps a registration lock for
  // exactly that path.

  /// OnlineUpdate that publishes its row writes via the per-row seqlock
  /// (same math, same return value; both rows are written in place
  /// through relaxed atomic_ref stores inside their version brackets).
  /// Both entities MUST already be registered (AMF_DCHECK; growth here
  /// would race readers), and the caller must hold per-user and
  /// per-service writer exclusion.
  double OnlineUpdateGuarded(data::UserId u, data::ServiceId s,
                             double raw_value);

  /// Prediction readout that is safe concurrently with OnlineUpdateGuarded
  /// writers: each latent row is snapshotted through its seqlock. The two
  /// rows are individually consistent; the pair may straddle at most the
  /// writer's in-flight update (statistically irrelevant for QoS scores).
  /// Entities must be registered and must not be concurrently Ensure*d.
  double PredictRawShared(data::UserId u, data::ServiceId s) const;
  double PredictNormalizedShared(data::UserId u, data::ServiceId s) const;

  /// Gather variant of the shared readout: out[i] scores (u, services[i])
  /// raw. The user row is snapshotted once; service rows are validated in
  /// blocks (one version sweep bracketing a bulk dot pass per block of
  /// kSharedPredictBlock rows — see DESIGN.md §11) with a per-row seqlock
  /// fallback under write churn. Sizes must match; every id must be
  /// registered. Quiescent results are bit-identical to PredictManyRaw.
  void PredictManyRawShared(data::UserId u,
                            std::span<const data::ServiceId> services,
                            std::span<double> out) const;

  /// Row variant of the shared readout: scores user u against services
  /// [0, out.size()) concurrently with guarded writers. Contiguous service
  /// blocks validate once per block and run the strided SIMD GEMV inside
  /// the bracket, so this is the fast path for matrix scoring while
  /// training runs. Quiescent results are bit-identical to PredictRowRaw.
  void PredictRowRawShared(data::UserId u, std::span<double> out) const;

  /// Service rows validated per block in the *Shared batch readouts.
  static constexpr std::size_t kSharedPredictBlock = 64;

  // --- Compressed read replicas (DESIGN.md §13) ----------------------------
  // With read_precision kFp32/kBf16 the model keeps compressed copies of
  // every latent row (core/replica_arena.h) and the *Shared readouts
  // stream those instead of the fp64 masters — 2x/4x fewer bytes per
  // service-block scan. Masters stay the only training state; replicas
  // are refreshed from them at the trainer's epoch barrier (dirty rows
  // only) and republished whole on checkpoint restore / precision
  // switches. kFp64 (default) bypasses the subsystem entirely: the
  // *Shared paths read the masters bit-identically to earlier revisions.

  bool replicas_enabled() const { return user_replica_.enabled(); }
  ReadPrecision read_precision() const { return config_.read_precision; }

  /// Switches the read path's element type, rebuilding the replica slabs
  /// from the masters (a full refresh; counted in
  /// replica_full_refreshes). NOT safe against concurrent readers or
  /// writers — callers switch under the same exclusion that guards
  /// registration (see ConcurrentPredictionService::SetReadPrecision).
  void SetReadPrecision(ReadPrecision precision);

  /// Epoch-barrier refresh: republishes only the rows whose master
  /// mutated since the last refresh (through the replica rows' seqlocks,
  /// so concurrent *Shared readers never see a torn row). Returns rows
  /// republished; no-op (0) when replicas are disabled. The caller must
  /// guarantee no master writer is in flight (the trainers call this at
  /// their epoch barriers).
  std::size_t RefreshReplicas();

  /// Unconditional whole-slab republish: checkpoint restore and any other
  /// path that rewrites masters without dirty tracking (MutableUserFactors
  /// et al.) must call this before replica reads resume.
  std::size_t RefreshAllReplicas();

  /// Replica observability (relaxed reads, safe from any thread):
  /// rows republished so far, dirty-only refreshes, full refreshes,
  /// rows currently awaiting refresh, and the number of updates applied
  /// since the last refresh (the staleness window, in updates).
  std::uint64_t replica_rows_refreshed() const {
    return replica_rows_refreshed_.load(std::memory_order_relaxed);
  }
  std::uint64_t replica_refreshes() const {
    return replica_refreshes_.load(std::memory_order_relaxed);
  }
  std::uint64_t replica_full_refreshes() const {
    return replica_full_refreshes_.load(std::memory_order_relaxed);
  }
  std::size_t replica_dirty_rows() const {
    return user_dirty_.CountApprox() + service_dirty_.CountApprox();
  }
  std::uint64_t replica_staleness_updates() const {
    return updates() -
           replica_synced_updates_.load(std::memory_order_relaxed);
  }

  /// Bytes one batched scan streams per service row in the current read
  /// precision (pad lanes included; the fp64 value counts the master
  /// row). Bench/monitoring denominator.
  std::size_t read_row_bytes() const {
    return replicas_enabled() ? service_replica_.row_bytes()
                              : service_.stride() * sizeof(double);
  }

  /// Running average error of one entity (Eq. 13/14 state).
  double UserError(data::UserId u) const;
  double ServiceError(data::ServiceId s) const;

  /// Relative-error-scale uncertainty of a prediction: the mean of the two
  /// entities' running errors. ~1 for never-trained entities (their error
  /// is still at initial_error), small once both sides converged. Used by
  /// risk-aware candidate selection.
  double PredictionUncertainty(data::UserId u, data::ServiceId s) const;

  /// Latent vectors (rank-length spans); for serialization and tests.
  std::span<const double> UserFactors(data::UserId u) const;
  std::span<const double> ServiceFactors(data::ServiceId s) const;
  std::span<double> MutableUserFactors(data::UserId u);
  std::span<double> MutableServiceFactors(data::ServiceId s);

  /// Directly sets entity error state (used by serialization).
  void SetUserError(data::UserId u, double e);
  void SetServiceError(data::ServiceId s, double e);

  /// Total online updates performed so far. Updates applied through
  /// OnlineUpdateTarget count once their caller reports them (the trainer
  /// does so at every barrier), so mid-epoch reads lag by up to an epoch.
  std::uint64_t updates() const {
    return updates_.load(std::memory_order_relaxed);
  }

  /// Latent vectors re-randomized after NaN poisoning was detected.
  std::uint64_t nan_reinit_users() const {
    return nan_reinit_users_.load(std::memory_order_relaxed);
  }
  std::uint64_t nan_reinit_services() const {
    return nan_reinit_services_.load(std::memory_order_relaxed);
  }

 private:
  /// Grows one entity family to `need` entries: geometric capacity reserve,
  /// then one arena resize + randomized factor fill (same rng_ draw order
  /// as the pre-arena layout: rank draws per entity, registration order —
  /// fixed-seed traces are unchanged). When replicas are enabled the
  /// family's replica slab grows in the same call and the new rows are
  /// published immediately, so a freshly registered entity is readable at
  /// the configured precision without waiting for a barrier.
  void Grow(FactorArena& arena, ReplicaArena& replica, DirtyRowSet& dirty,
            std::size_t need);

  /// (Re)builds both replica slabs for the current config_.read_precision
  /// and publishes every master row into them (shared body of the
  /// constructor, SetReadPrecision, and RefreshAllReplicas).
  std::size_t RebuildReplicas();

  /// Copies the relaxed counters (the copy/move members' shared tail).
  void CopyCounters(const AmfModel& other) noexcept;

  /// The one Eq. 12-17 update body; kGuarded selects the seqlock publish.
  template <bool kGuarded>
  double UpdateKernel(data::UserId u, data::ServiceId s, double r);

  /// If row i of `arena` has a non-finite entry: ResetRow, count the
  /// repair in `counter`, mark the row dirty.
  void RepairNonFinite(FactorArena& arena, std::size_t i,
                       std::atomic<std::uint64_t>& counter,
                       DirtyRowSet& dirty);

  /// Writes the deterministic cold-start row (FillDeterministicRow) and
  /// initial_error into row i; returns the row written.
  std::vector<double> ResetRow(FactorArena& arena, std::size_t i);

  /// Writes `row` and `error` into row i inside one seqlock bracket, so
  /// *Shared readers see the old row or the new one, never a mix.
  void WriteRow(FactorArena& arena, std::size_t i,
                std::span<const double> row, double error);

  /// The deterministic replacement row RepairNonFinite writes.
  void FillDeterministicRow(std::uint64_t entity_id,
                            std::span<double> out) const;

  /// Dot of a snapshotted user row with service s's live row, computed
  /// inside s's seqlock read bracket.
  double SharedDotWithService(std::span<const double> urow,
                              data::ServiceId s) const;

  /// Shared-path dot pass over the contiguous service block [begin, end):
  /// block-batched seqlock validation around the strided GEMV, degrading
  /// to per-row snapshots for a block that keeps getting invalidated.
  void SharedDotBlock(std::span<const double> urow, std::size_t begin,
                      std::size_t end, std::span<double> out) const;

  /// Replica-path variant of SharedDotBlock: same block protocol against
  /// the service replica's packed version words, bulk pass through the
  /// mixed-precision strided GEMV.
  void SharedDotBlockReplica(std::span<const double> urow, std::size_t begin,
                             std::size_t end, std::span<double> out) const;

  /// Snapshots user u's row for a shared readout into `dst`: from the
  /// user replica (widened) when replicas are enabled, else from the
  /// master through its seqlock.
  void SharedUserRow(data::UserId u, std::span<double> dst) const;

  void MarkUserDirty(data::UserId u) {
    if (user_replica_.enabled()) user_dirty_.Mark(u);
  }
  void MarkServiceDirty(data::ServiceId s) {
    if (service_replica_.enabled()) service_dirty_.Mark(s);
  }

  AmfConfig config_;
  transform::QoSTransform transform_;
  common::Rng rng_;
  // Arena-backed blocked factor storage: one 64-byte-aligned padded row
  // per entity, its seqlock version word and error EMA co-located in a
  // private meta line (see core/factor_arena.h). Serial paths leave the
  // versions even and pay nothing.
  FactorArena user_;
  FactorArena service_;
  // Compressed read replicas + their dirty-row refresh bookkeeping
  // (empty/no-op at the default kFp64 precision; see class comment in
  // core/replica_arena.h).
  ReplicaArena user_replica_;
  ReplicaArena service_replica_;
  DirtyRowSet user_dirty_;
  DirtyRowSet service_dirty_;
  // Atomic so concurrent callers may share the counter.
  std::atomic<std::uint64_t> updates_{0};
  std::atomic<std::uint64_t> nan_reinit_users_{0};
  std::atomic<std::uint64_t> nan_reinit_services_{0};
  // Replica refresh accounting (barrier thread writes, monitors read).
  std::atomic<std::uint64_t> replica_rows_refreshed_{0};
  std::atomic<std::uint64_t> replica_refreshes_{0};
  std::atomic<std::uint64_t> replica_full_refreshes_{0};
  // updates() observed at the last refresh: the staleness-window anchor.
  std::atomic<std::uint64_t> replica_synced_updates_{0};
};

/// Batched prediction for scattered test samples: groups them by user and
/// scores each group through the gather kernel in one pass. Returns raw
/// predictions aligned with `samples`. Every referenced entity must be
/// registered.
std::vector<double> PredictSamplesRaw(const AmfModel& model,
                                      std::span<const data::QoSSample> samples);

}  // namespace amf::core
