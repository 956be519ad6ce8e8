// The trainer's store of "existing data samples" (Algorithm 1): the most
// recent observed QoS value per (user, service) pair, with its observation
// timestamp. Supports O(1) random pick (for replay), O(1) upsert, and
// O(1) removal (expiration sets I_ij back to 0), via the classic
// vector + swap-remove + index-map layout.
//
// A store bound to a QoSTransform also keeps each sample's training target
// r (Eqs. 3-4), computed once per upsert, so replay never recomputes it.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "data/qos_types.h"
#include "transform/qos_transform.h"

namespace amf::core {

class SampleStore {
 public:
  /// `transform` (optional; must outlive the store) computes the targets
  /// at upsert time, so an owner that changes its parameters (a checkpoint
  /// restore swapping the model) must refill the store. Without a
  /// transform every target reads NaN.
  explicit SampleStore(const transform::QoSTransform* transform = nullptr)
      : transform_(transform) {}

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Inserts or refreshes the sample for (user, service). Returns true if
  /// the pair was new (I_ij flips 0 -> 1).
  bool Upsert(const data::QoSSample& sample);

  /// Removes the sample for (user, service); true if it existed.
  bool Remove(data::UserId u, data::ServiceId s);

  /// Current sample for (user, service), if observed.
  std::optional<data::QoSSample> Get(data::UserId u, data::ServiceId s) const;

  bool Contains(data::UserId u, data::ServiceId s) const;

  /// Uniformly random stored sample. Store must be non-empty.
  const data::QoSSample& PickRandom(common::Rng& rng) const;

  /// All stored samples (unspecified order).
  const std::vector<data::QoSSample>& samples() const { return samples_; }

  /// Training target of samples()[i]: QoSTransform::Target of its value
  /// (NaN for a non-finite value, or when the store has no transform).
  double target(std::size_t i) const { return targets_[i]; }

  /// Target of the sample for (u, s); NaN when the pair is not stored.
  double TargetOf(data::UserId u, data::ServiceId s) const;

  /// Cache hint for slot i's sample and target (i < size()).
  void Prefetch(std::size_t i) const {
    __builtin_prefetch(&samples_[i]);
    __builtin_prefetch(&targets_[i]);
  }

  /// Removes every sample older than `cutoff` (timestamp < cutoff).
  /// Returns the number expired. O(n).
  std::size_t ExpireOlderThan(double cutoff);

  /// Removes every sample observed by `u` (entity retirement). Returns
  /// the number removed. O(n).
  std::size_t RemoveUser(data::UserId u);

  /// Removes every sample of service `s` (entity retirement). Returns
  /// the number removed. O(n).
  std::size_t RemoveService(data::ServiceId s);

  void Clear();

 private:
  static std::uint64_t Key(data::UserId u, data::ServiceId s) {
    return (static_cast<std::uint64_t>(u) << 32) | s;
  }

  const transform::QoSTransform* transform_;
  std::vector<data::QoSSample> samples_;
  std::vector<double> targets_;  // parallel to samples_
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

}  // namespace amf::core
