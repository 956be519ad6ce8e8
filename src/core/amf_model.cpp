#include "core/amf_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/bf16.h"
#include "common/check.h"
#include "common/multiversion.h"  // AMF_TSAN_BUILD
#include "common/thread_pool.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace amf::core {

namespace {

AmfConfig Validate(AmfConfig c) {
  AMF_CHECK_MSG(c.rank > 0, "rank must be positive");
  AMF_CHECK_MSG(c.learn_rate > 0.0, "learn_rate must be positive");
  AMF_CHECK_MSG(c.lambda_user >= 0.0 && c.lambda_service >= 0.0,
                "regularization must be non-negative");
  AMF_CHECK_MSG(c.beta > 0.0 && c.beta <= 1.0, "beta must be in (0, 1]");
  AMF_CHECK_MSG(c.initial_error > 0.0, "initial_error must be positive");
  return c;
}

/// Single-accumulator dot in ascending-k order — the per-row reduction
/// order of GemvRowMajor/GemvRowMajorStrided. The per-row fallbacks of the
/// blocked shared row readout use this so a degraded block still returns
/// the exact bits the GEMV bulk pass would have.
double RowOrderDot(std::span<const double> a, const double* b,
                   std::size_t n) {
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) acc += a[k] * b[k];
  return acc;
}

/// One lane store of an update: the seqlock protocol's relaxed atomic
/// store when the update publishes, a plain (vectorizable) one otherwise.
template <bool kPublish>
inline void StoreLane(double& slot, double value) {
  if constexpr (kPublish) {
    common::SeqlockStore(slot, value);
  } else {
    slot = value;
  }
}

/// Blocks that keep failing validation (a writer storm on these rows)
/// degrade to the per-row protocol after this many whole-block retries.
[[maybe_unused]] constexpr int kMaxBlockTries = 3;

}  // namespace

AmfModel::AmfModel(const AmfConfig& config)
    : config_(Validate(config)),
      transform_(config_.transform),
      rng_(config_.seed),
      user_(config_.rank),
      service_(config_.rank) {
  user_replica_.Configure(config_.read_precision, config_.rank);
  service_replica_.Configure(config_.read_precision, config_.rank);
}

AmfModel::AmfModel(const AmfModel& other)
    : config_(other.config_),
      transform_(other.transform_),
      rng_(other.rng_),
      user_(other.user_),
      service_(other.service_),
      user_replica_(other.user_replica_),
      service_replica_(other.service_replica_),
      user_dirty_(other.user_dirty_),
      service_dirty_(other.service_dirty_) {
  CopyCounters(other);
}

AmfModel& AmfModel::operator=(const AmfModel& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  transform_ = other.transform_;
  rng_ = other.rng_;
  user_ = other.user_;
  service_ = other.service_;
  user_replica_ = other.user_replica_;
  service_replica_ = other.service_replica_;
  user_dirty_ = other.user_dirty_;
  service_dirty_ = other.service_dirty_;
  CopyCounters(other);
  return *this;
}

AmfModel::AmfModel(AmfModel&& other) noexcept
    : config_(std::move(other.config_)),
      transform_(std::move(other.transform_)),
      rng_(std::move(other.rng_)),
      user_(std::move(other.user_)),
      service_(std::move(other.service_)),
      user_replica_(std::move(other.user_replica_)),
      service_replica_(std::move(other.service_replica_)),
      user_dirty_(std::move(other.user_dirty_)),
      service_dirty_(std::move(other.service_dirty_)) {
  CopyCounters(other);
}

AmfModel& AmfModel::operator=(AmfModel&& other) noexcept {
  if (this == &other) return *this;
  config_ = std::move(other.config_);
  transform_ = std::move(other.transform_);
  rng_ = std::move(other.rng_);
  user_ = std::move(other.user_);
  service_ = std::move(other.service_);
  user_replica_ = std::move(other.user_replica_);
  service_replica_ = std::move(other.service_replica_);
  user_dirty_ = std::move(other.user_dirty_);
  service_dirty_ = std::move(other.service_dirty_);
  CopyCounters(other);
  return *this;
}

void AmfModel::CopyCounters(const AmfModel& other) noexcept {
  const auto copy = [](std::atomic<std::uint64_t>& dst,
                       const std::atomic<std::uint64_t>& src) {
    dst.store(src.load(std::memory_order_relaxed), std::memory_order_relaxed);
  };
  copy(updates_, other.updates_);
  copy(nan_reinit_users_, other.nan_reinit_users_);
  copy(nan_reinit_services_, other.nan_reinit_services_);
  copy(replica_rows_refreshed_, other.replica_rows_refreshed_);
  copy(replica_refreshes_, other.replica_refreshes_);
  copy(replica_full_refreshes_, other.replica_full_refreshes_);
  copy(replica_synced_updates_, other.replica_synced_updates_);
}

void AmfModel::Grow(FactorArena& arena, ReplicaArena& replica,
                    DirtyRowSet& dirty, std::size_t need) {
  const std::size_t old = arena.Grow(need, config_.initial_error);
  // Same rng_ draw order as per-entity registration (and as the pre-arena
  // vector layout): rank draws per entity, registration order. Pad lanes
  // stay at the arena's zero fill.
  for (std::size_t i = old; i < need; ++i) {
    for (double& x : arena.row_span(i)) {
      x = rng_.Uniform() * config_.init_scale;
    }
  }
  if (replica.enabled()) {
    // Replica growth rides the same registration exclusion that makes
    // master growth safe; publishing here (not at the next barrier) keeps
    // the invariant that every registered row is replica-readable.
    replica.Grow(need);
    dirty.EnsureRows(need);
    for (std::size_t i = old; i < need; ++i) {
      replica.PublishRow(i, arena.row_span(i));
    }
  }
}

void AmfModel::EnsureUser(data::UserId u) {
  const std::size_t need = static_cast<std::size_t>(u) + 1;
  if (user_.size() < need) Grow(user_, user_replica_, user_dirty_, need);
}

void AmfModel::EnsureService(data::ServiceId s) {
  const std::size_t need = static_cast<std::size_t>(s) + 1;
  if (service_.size() < need) {
    Grow(service_, service_replica_, service_dirty_, need);
  }
}

void AmfModel::RetireUser(data::UserId u) {
  AMF_CHECK_MSG(HasUser(u), "RetireUser: unknown user " << u);
  const std::vector<double> fresh = ResetRow(user_, u);
  // The replica is re-initialized in the same publish step, not left for
  // the next barrier: a recycled slot must never serve the old tenant's
  // compressed row to replica readers while the master already holds the
  // cold-start row.
  if (user_replica_.enabled()) user_replica_.PublishRow(u, fresh);
}

void AmfModel::RetireService(data::ServiceId s) {
  AMF_CHECK_MSG(HasService(s), "RetireService: unknown service " << s);
  const std::vector<double> fresh = ResetRow(service_, s);
  if (service_replica_.enabled()) service_replica_.PublishRow(s, fresh);
}

std::uint32_t AmfModel::ServiceRowVersion(data::ServiceId s) const {
  AMF_CHECK_MSG(HasService(s), "ServiceRowVersion: unknown service " << s);
  return common::RelaxedLoad(service_.version(s));
}

void AmfModel::OverwriteServiceRow(data::ServiceId s,
                                   std::span<const double> row,
                                   double error) {
  AMF_CHECK_MSG(HasService(s), "OverwriteServiceRow: unknown service " << s);
  AMF_CHECK_MSG(row.size() == config_.rank,
                "OverwriteServiceRow: row size " << row.size() << " != rank "
                                                 << config_.rank);
  WriteRow(service_, s, row, error);
  if (service_replica_.enabled()) service_replica_.PublishRow(s, row);
}

void AmfModel::WriteRow(FactorArena& arena, std::size_t i,
                        std::span<const double> row, double error) {
  const std::span<double> dst = arena.row_span(i);
  common::SeqlockBeginWrite(arena.version(i));
  for (std::size_t k = 0; k < row.size(); ++k) {
    common::SeqlockStore(dst[k], row[k]);
  }
  common::RelaxedStore(arena.error(i), error);
  common::SeqlockEndWrite(arena.version(i));
}

std::vector<double> AmfModel::ResetRow(FactorArena& arena, std::size_t i) {
  std::vector<double> fresh(config_.rank);
  FillDeterministicRow(i, fresh);
  WriteRow(arena, i, fresh, config_.initial_error);
  return fresh;
}

void AmfModel::RepairNonFinite(FactorArena& arena, std::size_t i,
                               std::atomic<std::uint64_t>& counter,
                               DirtyRowSet& dirty) {
  const std::span<const double> row = std::as_const(arena).row_span(i);
  if (std::all_of(row.begin(), row.end(),
                  [](double x) { return std::isfinite(x); })) {
    return;
  }
  ResetRow(arena, i);
  counter.fetch_add(1, std::memory_order_relaxed);
  // The repair may be the only mutation this update performs (the sample
  // can still be refused), so mark here, not just at the final publish.
  if (replicas_enabled()) dirty.Mark(i);
}

void AmfModel::FillDeterministicRow(std::uint64_t entity_id,
                                    std::span<double> out) const {
  // Deterministic refill without touching the shared rng_ (concurrent
  // striped-lock updates may repair different entities at once).
  std::uint64_t state =
      common::DeriveSeed(config_.seed ^ 0x9e3779b97f4a7c15ULL, entity_id);
  for (double& x : out) {
    const std::uint64_t bits = common::SplitMix64(state);
    x = static_cast<double>(bits >> 11) * 0x1.0p-53 * config_.init_scale;
  }
}

double AmfModel::OnlineUpdate(data::UserId u, data::ServiceId s,
                              double raw_value) {
  const double e = UpdateKernel<false>(u, s, transform_.Target(raw_value));
  if (!std::isnan(e)) CountUpdates(1);
  return e;
}

double AmfModel::OnlineUpdateGuarded(data::UserId u, data::ServiceId s,
                                     double raw_value) {
  const double e = UpdateKernel<true>(u, s, transform_.Target(raw_value));
  if (!std::isnan(e)) CountUpdates(1);
  return e;
}

double AmfModel::OnlineUpdateTarget(data::UserId u, data::ServiceId s,
                                    double r, bool guarded) {
  return guarded ? UpdateKernel<true>(u, s, r) : UpdateKernel<false>(u, s, r);
}

template <bool kGuarded>
double AmfModel::UpdateKernel(data::UserId u, data::ServiceId s, double r) {
  constexpr double kRefused = std::numeric_limits<double>::quiet_NaN();
  // Hard ingestion guard: a NaN target stands for a non-finite raw value
  // (Target maps every finite one to a finite r). Leave the model untouched.
  if (!std::isfinite(r)) return kRefused;
  if constexpr (kGuarded) {
    // Growth would reallocate storage under concurrent readers; entities
    // must be registered up front (the concurrent service pre-registers
    // under its exclusive lock before any sample reaches the trainer).
    AMF_DCHECK(HasUser(u) && HasService(s));
  } else {
    EnsureUser(u);
    EnsureService(s);
  }

  double x = linalg::Dot(user_.row_span(u), service_.row_span(s));
  if (!std::isfinite(x)) {
    // NaN-poisoning detector: a corrupted latent vector (from a bad
    // checkpoint, a torn write, or any earlier bug) would otherwise turn
    // every future update on this entity into NaN and spread through the
    // shared factors during replay. Re-initialize it instead. A
    // non-finite entry in either row always makes the dot non-finite, so
    // a finite dot proves both rows clean and the row scans run only here.
    RepairNonFinite(user_, u, nan_reinit_users_, user_dirty_);
    RepairNonFinite(service_, s, nan_reinit_services_, service_dirty_);
    x = linalg::Dot(user_.row_span(u), service_.row_span(s));
  }

  // Loss guard: e_us and the gradient divide by r; skip the sample rather
  // than divide when the transform left it at (or below) zero.
  if (config_.loss_epsilon > 0.0 && std::abs(r) < config_.loss_epsilon) {
    return kRefused;
  }

  const double g = transform::Sigmoid(x);
  const double gp = g * (1.0 - g);
  // Relative error of this sample (Eq. 15).
  const double e_us = std::abs(r - g) / r;

  // Adaptive weights (Eq. 12) from the *current* entity errors. Plain
  // reads are sound: the caller holds writer exclusion for both rows.
  const double eu = user_.error(u);
  const double es = service_.error(s);
  double wu = 0.5;
  double ws = 0.5;
  if (config_.adaptive_weights) {
    const double sum = eu + es;
    if (sum > 0.0) {
      wu = eu / sum;
      ws = es / sum;
    }
  }

  // Weighted SGD step (Eqs. 16-17), simultaneous in U_u and S_s: lane k of
  // both rows is computed from the old lane-k values, so both rows update
  // in place in one pass.
  double coef = (g - r) * gp / (r * r);
  if (config_.gradient_clip > 0.0) {
    coef = std::clamp(coef, -config_.gradient_clip, config_.gradient_clip);
  }
  const double cu = config_.learn_rate * wu;
  const double cs = config_.learn_rate * ws;
  const double lu = config_.lambda_user;
  const double ls = config_.lambda_service;
  // __restrict holds: only these two pointers touch the rows from here on.
  const std::size_t d = config_.rank;
  double* __restrict const ui = user_.row(u);
  double* __restrict const sj = service_.row(s);
  // Guarded: both rows and their error EMAs (Eqs. 13-14) are written
  // inside the rows' seqlock brackets; the publish dirties each row's
  // factor line(s) plus its private meta line, never a neighbor's.
  if constexpr (kGuarded) {
    common::SeqlockBeginWrite(user_.version(u));
    common::SeqlockBeginWrite(service_.version(s));
  }
  for (std::size_t k = 0; k < d; ++k) {
    const double uk = ui[k];
    const double sk = sj[k];
    StoreLane<kGuarded>(ui[k], uk - cu * (coef * sk + lu * uk));
    StoreLane<kGuarded>(sj[k], sk - cs * (coef * uk + ls * sk));
  }
  StoreLane<kGuarded>(user_.error(u), eu + config_.beta * wu * (e_us - eu));
  StoreLane<kGuarded>(service_.error(s), es + config_.beta * ws * (e_us - es));
  if constexpr (kGuarded) {
    common::SeqlockEndWrite(service_.version(s));
    common::SeqlockEndWrite(user_.version(u));
  }
  // Replica bookkeeping: both masters mutated; their compressed copies go
  // stale until the next epoch-barrier refresh.
  MarkUserDirty(u);
  MarkServiceDirty(s);
  return e_us;
}

double AmfModel::SharedDotWithService(std::span<const double> urow,
                                      data::ServiceId s) const {
  const std::size_t d = config_.rank;
  const double* row = service_.row(s);
  double acc = 0.0;
  common::SeqlockRead(service_.version(s), [&] {
    // Mirror linalg::Dot's 4-way split reduction exactly: the serving
    // coalescer batches concurrent single predictions through
    // PredictManyRawShared (whose gather pass reduces via linalg::Dot),
    // and its contract is that a coalesced answer is bit-identical at
    // fp64 to the per-request PredictQoS it replaced. A plain ascending
    // accumulator here would round differently in the last bits.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t k = 0;
    for (; k + 4 <= d; k += 4) {
      s0 += urow[k + 0] * common::RelaxedLoad(row[k + 0]);
      s1 += urow[k + 1] * common::RelaxedLoad(row[k + 1]);
      s2 += urow[k + 2] * common::RelaxedLoad(row[k + 2]);
      s3 += urow[k + 3] * common::RelaxedLoad(row[k + 3]);
    }
    double a = (s0 + s1) + (s2 + s3);
    for (; k < d; ++k) a += urow[k] * common::RelaxedLoad(row[k]);
    acc = a;
  });
  return acc;
}

void AmfModel::SharedDotBlock(std::span<const double> urow, std::size_t begin,
                              std::size_t end, std::span<double> out) const {
  const std::size_t d = config_.rank;
  [[maybe_unused]] const std::size_t stride = service_.stride();
  thread_local std::vector<double> srow;
  // Per-row fallback: a consistent snapshot through the row's own seqlock,
  // reduced in GEMV row order so the bits match the bulk pass.
  const auto row_fallback = [&](std::size_t s) {
    srow.resize(d);
    common::SeqlockReadRow(service_.version(s), service_.row_span(s), srow);
    return RowOrderDot(urow, srow.data(), d);
  };
  [[maybe_unused]] common::SeqlockVersion snap[kSharedPredictBlock];
  for (std::size_t b = begin; b < end; b += kSharedPredictBlock) {
    const std::size_t n = std::min(kSharedPredictBlock, end - b);
    const std::span<double> chunk = out.subspan(b - begin, n);
#if defined(AMF_TSAN_BUILD)
    // TSan cannot model the discarded-torn-read bulk pass (its data loads
    // are deliberately non-atomic); use the per-row atomic protocol.
    for (std::size_t i = 0; i < n; ++i) chunk[i] = row_fallback(b + i);
#else
    // Block protocol: one version sweep brackets a strided SIMD GEMV over
    // the whole chunk. A failed re-sweep discards the (possibly torn)
    // chunk and retries; a writer storm degrades to per-row snapshots.
    int tries = 0;
    while (!common::SeqlockTryReadBlock(
        n, [&](std::size_t i) -> const common::SeqlockVersion& {
          return service_.version(b + i);
        },
        snap,
        [&] {
          linalg::GemvRowMajorStrided(urow, service_.row(b), stride, chunk);
        })) {
      common::SeqlockRetryCounter().fetch_add(1, std::memory_order_relaxed);
      if (++tries >= kMaxBlockTries) {
        for (std::size_t i = 0; i < n; ++i) chunk[i] = row_fallback(b + i);
        break;
      }
    }
#endif
  }
}

void AmfModel::SharedDotBlockReplica(std::span<const double> urow,
                                     std::size_t begin, std::size_t end,
                                     std::span<double> out) const {
  const std::size_t d = config_.rank;
  const ReplicaArena& rep = service_replica_;
  [[maybe_unused]] const std::size_t stride = rep.stride();
  thread_local std::vector<double> srow;
  // Per-row fallback: a consistent widened snapshot through the replica
  // row's own seqlock, reduced in GEMV row order (matches the bulk
  // kernels' per-row reduction).
  const auto row_fallback = [&](std::size_t s) {
    srow.resize(d);
    rep.SnapshotRow(s, srow);
    return RowOrderDot(urow, srow.data(), d);
  };
  [[maybe_unused]] common::SeqlockVersion snap[kSharedPredictBlock];
  for (std::size_t b = begin; b < end; b += kSharedPredictBlock) {
    const std::size_t n = std::min(kSharedPredictBlock, end - b);
    const std::span<double> chunk = out.subspan(b - begin, n);
#if defined(AMF_TSAN_BUILD)
    // Same TSan carve-out as the master path: the bulk pass reads the
    // slab non-atomically (torn attempts are discarded, never observed),
    // which TSan cannot model — degrade to per-row atomic snapshots.
    for (std::size_t i = 0; i < n; ++i) chunk[i] = row_fallback(b + i);
#else
    // Block protocol against the replica's PACKED version words: the
    // sweep for 64 rows touches 4 cache lines (vs 64 private meta lines
    // on the master path), then one mixed-precision strided GEMV streams
    // the compressed rows — the bytes-per-scan win the replicas exist
    // for. Failed re-sweeps discard and retry; a refresh storm degrades
    // to per-row snapshots.
    int tries = 0;
    while (!common::SeqlockTryReadBlock(
        n, [&](std::size_t i) -> const common::SeqlockVersion& {
          return rep.version(b + i);
        },
        snap,
        [&] {
          if (rep.precision() == ReadPrecision::kFp32) {
            linalg::GemvRowMajorStridedFp32(urow, rep.fp32_row(b), stride,
                                            chunk);
          } else {
            linalg::GemvRowMajorStridedBf16(urow, rep.bf16_row(b), stride,
                                            chunk);
          }
        })) {
      common::SeqlockRetryCounter().fetch_add(1, std::memory_order_relaxed);
      if (++tries >= kMaxBlockTries) {
        for (std::size_t i = 0; i < n; ++i) chunk[i] = row_fallback(b + i);
        break;
      }
    }
#endif
  }
}

void AmfModel::SharedUserRow(data::UserId u, std::span<double> dst) const {
  if (user_replica_.enabled()) {
    user_replica_.SnapshotRow(u, dst);
  } else {
    common::SeqlockReadRow(user_.version(u), user_.row_span(u), dst);
  }
}

double AmfModel::PredictNormalizedShared(data::UserId u,
                                         data::ServiceId s) const {
  AMF_CHECK_MSG(HasUser(u) && HasService(s),
                "shared prediction for unregistered entity (" << u << ","
                                                              << s << ")");
  const std::size_t d = config_.rank;
  thread_local std::vector<double> urow;
  urow.resize(d);
  SharedUserRow(u, urow);
  double v;
  if (replicas_enabled()) {
    thread_local std::vector<double> srow;
    srow.resize(d);
    service_replica_.SnapshotRow(s, srow);
    v = RowOrderDot(urow, srow.data(), d);
  } else {
    v = SharedDotWithService(urow, s);
  }
  // One-element SigmoidRow, NOT scalar Sigmoid: the batched shared paths
  // (PredictManyRawShared, PredictRowRawShared) transform via SigmoidRow,
  // whose ExpRow differs from std::exp by a few ulp. The serving
  // coalescer's contract — a coalesced answer is bit-identical at fp64
  // to the per-request one — requires the single path to run the exact
  // same element-wise math.
  transform::SigmoidRow(std::span<const double>(&v, 1),
                        std::span<double>(&v, 1));
  return v;
}

double AmfModel::PredictRawShared(data::UserId u, data::ServiceId s) const {
  // One-element InverseRow for the same bit-identity reason as the
  // SigmoidRow call in PredictNormalizedShared.
  double v = PredictNormalizedShared(u, s);
  transform_.InverseRow(std::span<double>(&v, 1));
  return v;
}

void AmfModel::PredictManyRawShared(data::UserId u,
                                    std::span<const data::ServiceId> services,
                                    std::span<double> out) const {
  AMF_CHECK_MSG(services.size() == out.size(),
                "services/out size mismatch");
  AMF_CHECK_MSG(HasUser(u), "shared prediction for unregistered user " << u);
  const std::size_t d = config_.rank;
  thread_local std::vector<double> urow;
  urow.resize(d);
  SharedUserRow(u, urow);
  for (const data::ServiceId s : services) {
    AMF_CHECK_MSG(HasService(s),
                  "shared prediction for unregistered service " << s);
  }
  if (replicas_enabled()) {
    // Replica gather: same block-batched validation against the packed
    // replica versions; the bulk pass widens each compressed row in GEMV
    // row order (single ascending-k accumulator — identical reduction to
    // the per-row fallback, in this same strict-FP TU).
    const ReplicaArena& rep = service_replica_;
    thread_local std::vector<double> srow;
    const auto rep_fallback = [&](data::ServiceId s) {
      srow.resize(d);
      rep.SnapshotRow(s, srow);
      return RowOrderDot(urow, srow.data(), d);
    };
    [[maybe_unused]] common::SeqlockVersion snap[kSharedPredictBlock];
    for (std::size_t b = 0; b < services.size(); b += kSharedPredictBlock) {
      const std::size_t n =
          std::min(kSharedPredictBlock, services.size() - b);
      const std::span<double> chunk = out.subspan(b, n);
#if defined(AMF_TSAN_BUILD)
      for (std::size_t i = 0; i < n; ++i) {
        chunk[i] = rep_fallback(services[b + i]);
      }
#else
      int tries = 0;
      while (!common::SeqlockTryReadBlock(
          n, [&](std::size_t i) -> const common::SeqlockVersion& {
            return rep.version(services[b + i]);
          },
          snap,
          [&] {
            for (std::size_t i = 0; i < n; ++i) {
              const std::size_t s = services[b + i];
              double acc = 0.0;
              if (rep.precision() == ReadPrecision::kFp32) {
                const float* row = rep.fp32_row(s);
                for (std::size_t k = 0; k < d; ++k) {
                  acc += urow[k] * static_cast<double>(row[k]);
                }
              } else {
                const common::Bf16* row = rep.bf16_row(s);
                for (std::size_t k = 0; k < d; ++k) {
                  acc += urow[k] * common::Bf16ToDouble(row[k]);
                }
              }
              chunk[i] = acc;
            }
          })) {
        common::SeqlockRetryCounter().fetch_add(1,
                                                std::memory_order_relaxed);
        if (++tries >= kMaxBlockTries) {
          for (std::size_t i = 0; i < n; ++i) {
            chunk[i] = rep_fallback(services[b + i]);
          }
          break;
        }
      }
#endif
    }
    transform::SigmoidRow(out, out);
    transform_.InverseRow(out);
    return;
  }
  // Gathered rows validate in blocks too: one version sweep per
  // kSharedPredictBlock scattered rows around a bulk dot pass (linalg::Dot
  // — the same reduction PredictManyRaw uses, so quiescent results match
  // it bit for bit).
  thread_local std::vector<double> srow;
  const auto row_fallback = [&](data::ServiceId s) {
    srow.resize(d);
    common::SeqlockReadRow(service_.version(s), service_.row_span(s), srow);
    return linalg::Dot(urow, std::span<const double>(srow.data(), d));
  };
  [[maybe_unused]] common::SeqlockVersion snap[kSharedPredictBlock];
  for (std::size_t b = 0; b < services.size(); b += kSharedPredictBlock) {
    const std::size_t n = std::min(kSharedPredictBlock, services.size() - b);
    const std::span<double> chunk = out.subspan(b, n);
#if defined(AMF_TSAN_BUILD)
    for (std::size_t i = 0; i < n; ++i) {
      chunk[i] = row_fallback(services[b + i]);
    }
#else
    int tries = 0;
    while (!common::SeqlockTryReadBlock(
        n, [&](std::size_t i) -> const common::SeqlockVersion& {
          return service_.version(services[b + i]);
        },
        snap,
        [&] {
          for (std::size_t i = 0; i < n; ++i) {
            chunk[i] = linalg::Dot(
                urow, std::span<const double>(service_.row(services[b + i]),
                                              d));
          }
        })) {
      common::SeqlockRetryCounter().fetch_add(1, std::memory_order_relaxed);
      if (++tries >= kMaxBlockTries) {
        for (std::size_t i = 0; i < n; ++i) {
          chunk[i] = row_fallback(services[b + i]);
        }
        break;
      }
    }
#endif
  }
  transform::SigmoidRow(out, out);
  transform_.InverseRow(out);
}

void AmfModel::PredictRowRawShared(data::UserId u,
                                   std::span<double> out) const {
  AMF_CHECK_MSG(HasUser(u), "shared row prediction for unregistered user "
                                << u);
  AMF_CHECK_MSG(out.size() <= num_services(),
                "row of " << out.size() << " exceeds " << num_services()
                          << " registered services");
  const std::size_t d = config_.rank;
  thread_local std::vector<double> urow;
  urow.resize(d);
  SharedUserRow(u, urow);
  if (replicas_enabled()) {
    SharedDotBlockReplica(urow, 0, out.size(), out);
  } else {
    SharedDotBlock(urow, 0, out.size(), out);
  }
  transform::SigmoidRow(out, out);
  transform_.InverseRow(out);
}

double AmfModel::PredictRaw(data::UserId u, data::ServiceId s) const {
  return transform_.Inverse(PredictNormalized(u, s));
}

double AmfModel::PredictNormalized(data::UserId u, data::ServiceId s) const {
  AMF_CHECK_MSG(HasUser(u) && HasService(s),
                "prediction for unregistered entity (" << u << "," << s
                                                       << ")");
  return transform::Sigmoid(
      linalg::Dot(user_.row_span(u), service_.row_span(s)));
}

void AmfModel::PredictRowNormalized(data::UserId u,
                                    std::span<double> out) const {
  AMF_CHECK_MSG(HasUser(u), "row prediction for unregistered user " << u);
  AMF_CHECK_MSG(out.size() <= num_services(),
                "row of " << out.size() << " exceeds " << num_services()
                          << " registered services");
  linalg::GemvRowMajorStrided(user_.row_span(u), service_.data(),
                              service_.stride(), out);
  transform::SigmoidRow(out, out);
}

void AmfModel::PredictRowRaw(data::UserId u, std::span<double> out) const {
  PredictRowNormalized(u, out);
  transform_.InverseRow(out);
}

void AmfModel::PredictManyNormalized(
    data::UserId u, std::span<const data::ServiceId> services,
    std::span<double> out) const {
  AMF_CHECK_MSG(services.size() == out.size(),
                "services/out size mismatch");
  AMF_CHECK_MSG(HasUser(u), "batch prediction for unregistered user " << u);
  const std::span<const double> x = user_.row_span(u);
  for (std::size_t i = 0; i < services.size(); ++i) {
    AMF_CHECK_MSG(HasService(services[i]),
                  "batch prediction for unregistered service "
                      << services[i]);
    out[i] = linalg::Dot(x, service_.row_span(services[i]));
  }
  transform::SigmoidRow(out, out);
}

void AmfModel::PredictManyRaw(data::UserId u,
                              std::span<const data::ServiceId> services,
                              std::span<double> out) const {
  PredictManyNormalized(u, services, out);
  transform_.InverseRow(out);
}

void AmfModel::PredictMatrixRaw(linalg::Matrix* out,
                                common::ThreadPool* pool) const {
  AMF_CHECK(out != nullptr);
  out->Resize(num_users(), num_services());
  if (num_users() == 0 || num_services() == 0) return;
  common::ThreadPool& tp = pool ? *pool : common::ThreadPool::Global();
  tp.ParallelFor(0, num_users(), [&](std::size_t u) {
    PredictRowRaw(static_cast<data::UserId>(u), out->row(u));
  });
}

double AmfModel::UserError(data::UserId u) const {
  AMF_CHECK(HasUser(u));
  return user_.error(u);
}

double AmfModel::ServiceError(data::ServiceId s) const {
  AMF_CHECK(HasService(s));
  return service_.error(s);
}

double AmfModel::PredictionUncertainty(data::UserId u,
                                       data::ServiceId s) const {
  return 0.5 * (UserError(u) + ServiceError(s));
}

std::span<const double> AmfModel::UserFactors(data::UserId u) const {
  AMF_CHECK(HasUser(u));
  return user_.row_span(u);
}

std::span<const double> AmfModel::ServiceFactors(data::ServiceId s) const {
  AMF_CHECK(HasService(s));
  return service_.row_span(s);
}

std::span<double> AmfModel::MutableUserFactors(data::UserId u) {
  AMF_CHECK(HasUser(u));
  return user_.row_span(u);
}

std::span<double> AmfModel::MutableServiceFactors(data::ServiceId s) {
  AMF_CHECK(HasService(s));
  return service_.row_span(s);
}

void AmfModel::SetUserError(data::UserId u, double e) {
  AMF_CHECK(HasUser(u));
  AMF_CHECK_MSG(e >= 0.0, "entity error must be non-negative");
  user_.error(u) = e;
}

void AmfModel::SetServiceError(data::ServiceId s, double e) {
  AMF_CHECK(HasService(s));
  AMF_CHECK_MSG(e >= 0.0, "entity error must be non-negative");
  service_.error(s) = e;
}

std::size_t AmfModel::RebuildReplicas() {
  user_replica_.Configure(config_.read_precision, config_.rank);
  service_replica_.Configure(config_.read_precision, config_.rank);
  if (!replicas_enabled()) {
    user_dirty_.Clear();
    service_dirty_.Clear();
    replica_synced_updates_.store(updates(), std::memory_order_relaxed);
    return 0;
  }
  user_replica_.Grow(user_.size());
  service_replica_.Grow(service_.size());
  user_dirty_.EnsureRows(user_.size());
  service_dirty_.EnsureRows(service_.size());
  for (std::size_t i = 0; i < user_.size(); ++i) {
    user_replica_.PublishRow(i, user_.row_span(i));
  }
  for (std::size_t i = 0; i < service_.size(); ++i) {
    service_replica_.PublishRow(i, service_.row_span(i));
  }
  user_dirty_.Clear();
  service_dirty_.Clear();
  replica_synced_updates_.store(updates(), std::memory_order_relaxed);
  return user_.size() + service_.size();
}

void AmfModel::SetReadPrecision(ReadPrecision precision) {
  config_.read_precision = precision;
  const std::size_t rows = RebuildReplicas();
  if (replicas_enabled()) {
    replica_full_refreshes_.fetch_add(1, std::memory_order_relaxed);
    replica_rows_refreshed_.fetch_add(rows, std::memory_order_relaxed);
  }
}

std::size_t AmfModel::RefreshReplicas() {
  if (!replicas_enabled()) return 0;
  std::size_t rows = 0;
  rows += user_dirty_.Drain(
      [&](std::size_t i) { user_replica_.PublishRow(i, user_.row_span(i)); });
  rows += service_dirty_.Drain([&](std::size_t i) {
    service_replica_.PublishRow(i, service_.row_span(i));
  });
  replica_refreshes_.fetch_add(1, std::memory_order_relaxed);
  replica_rows_refreshed_.fetch_add(rows, std::memory_order_relaxed);
  replica_synced_updates_.store(updates(), std::memory_order_relaxed);
  return rows;
}

std::size_t AmfModel::RefreshAllReplicas() {
  if (!replicas_enabled()) return 0;
  const std::size_t rows = RebuildReplicas();
  replica_full_refreshes_.fetch_add(1, std::memory_order_relaxed);
  replica_rows_refreshed_.fetch_add(rows, std::memory_order_relaxed);
  return rows;
}

std::vector<double> PredictSamplesRaw(
    const AmfModel& model, std::span<const data::QoSSample> samples) {
  std::vector<double> out(samples.size());
  std::unordered_map<data::UserId, std::vector<std::size_t>> by_user;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    by_user[samples[i].user].push_back(i);
  }
  std::vector<data::ServiceId> ids;
  std::vector<double> scores;
  for (const auto& [u, idx] : by_user) {
    ids.clear();
    ids.reserve(idx.size());
    for (std::size_t i : idx) ids.push_back(samples[i].service);
    scores.resize(ids.size());
    model.PredictManyRaw(u, ids, scores);
    for (std::size_t j = 0; j < idx.size(); ++j) out[idx[j]] = scores[j];
  }
  return out;
}

}  // namespace amf::core
