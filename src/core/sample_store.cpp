#include "core/sample_store.h"

#include <limits>

#include "common/check.h"

namespace amf::core {

bool SampleStore::Upsert(const data::QoSSample& sample) {
  const std::uint64_t key = Key(sample.user, sample.service);
  const double target = transform_ != nullptr
                            ? transform_->Target(sample.value)
                            : std::numeric_limits<double>::quiet_NaN();
  auto [it, inserted] = index_.try_emplace(key, samples_.size());
  if (inserted) {
    samples_.push_back(sample);
    targets_.push_back(target);
  } else {
    samples_[it->second] = sample;
    targets_[it->second] = target;
  }
  return inserted;
}

bool SampleStore::Remove(data::UserId u, data::ServiceId s) {
  const auto it = index_.find(Key(u, s));
  if (it == index_.end()) return false;
  const std::size_t pos = it->second;
  index_.erase(it);
  const std::size_t last = samples_.size() - 1;
  if (pos != last) {
    samples_[pos] = samples_[last];
    targets_[pos] = targets_[last];
    index_[Key(samples_[pos].user, samples_[pos].service)] = pos;
  }
  samples_.pop_back();
  targets_.pop_back();
  return true;
}

std::optional<data::QoSSample> SampleStore::Get(data::UserId u,
                                                data::ServiceId s) const {
  const auto it = index_.find(Key(u, s));
  if (it == index_.end()) return std::nullopt;
  return samples_[it->second];
}

double SampleStore::TargetOf(data::UserId u, data::ServiceId s) const {
  const auto it = index_.find(Key(u, s));
  if (it == index_.end()) return std::numeric_limits<double>::quiet_NaN();
  return targets_[it->second];
}

bool SampleStore::Contains(data::UserId u, data::ServiceId s) const {
  return index_.contains(Key(u, s));
}

const data::QoSSample& SampleStore::PickRandom(common::Rng& rng) const {
  AMF_CHECK_MSG(!samples_.empty(), "PickRandom on empty store");
  return samples_[rng.Index(samples_.size())];
}

std::size_t SampleStore::ExpireOlderThan(double cutoff) {
  std::size_t expired = 0;
  std::size_t i = 0;
  while (i < samples_.size()) {
    if (samples_[i].timestamp < cutoff) {
      Remove(samples_[i].user, samples_[i].service);
      ++expired;
      // The swap-remove moved a new sample into position i; re-examine it.
    } else {
      ++i;
    }
  }
  return expired;
}

std::size_t SampleStore::RemoveUser(data::UserId u) {
  std::size_t removed = 0;
  std::size_t i = 0;
  while (i < samples_.size()) {
    if (samples_[i].user == u) {
      Remove(samples_[i].user, samples_[i].service);
      ++removed;
      // Swap-remove moved a new sample into position i; re-examine it.
    } else {
      ++i;
    }
  }
  return removed;
}

std::size_t SampleStore::RemoveService(data::ServiceId s) {
  std::size_t removed = 0;
  std::size_t i = 0;
  while (i < samples_.size()) {
    if (samples_[i].service == s) {
      Remove(samples_[i].user, samples_[i].service);
      ++removed;
    } else {
      ++i;
    }
  }
  return removed;
}

void SampleStore::Clear() {
  samples_.clear();
  targets_.clear();
  index_.clear();
}

}  // namespace amf::core
