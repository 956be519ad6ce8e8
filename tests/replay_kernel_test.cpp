// Bit-identity pins for the replay hot path: the trainer's serial,
// guarded and hogwild replay loops must keep producing exactly the same
// factor rows, error EMAs, store order and epoch errors as the reference
// digests below, and Rng::Index must keep drawing exactly what
// std::uniform_int_distribution draws from the same engine.
//
// The digests were recorded from the implementation that recomputed the
// Box-Cox target with std::pow on every update and picked replay samples
// through std::uniform_int_distribution. Any change to the update math,
// its operation order, the pick order or the engine-output sequence moves
// them. They depend only on IEEE double arithmetic (the build compiles
// with -std=c++20, so no FMA contraction), glibc's exp/pow and the
// libstdc++ mt19937_64 / generate_canonical definitions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/amf_model.h"
#include "core/online_trainer.h"

namespace amf::core {
namespace {

constexpr std::size_t kShards = 4;

// Runs a trainer over a scripted stream and digests everything the replay
// path writes.
class Digest {
 public:
  template <typename T>
  void Add(const T& v) {
    crc_.Update(&v, sizeof(v));
  }
  void AddEpoch(const std::optional<double>& e) {
    Add<std::uint8_t>(e.has_value() ? 1 : 0);
    if (e) Add(*e);
  }
  void AddState(const AmfModel& m, const OnlineTrainer& t) {
    Add<std::uint64_t>(m.num_users());
    Add<std::uint64_t>(m.num_services());
    for (data::UserId u = 0; u < m.num_users(); ++u) {
      for (const double x : m.UserFactors(u)) Add(x);
      Add(m.UserError(u));
    }
    for (data::ServiceId s = 0; s < m.num_services(); ++s) {
      for (const double x : m.ServiceFactors(s)) Add(x);
      Add(m.ServiceError(s));
    }
    Add<std::uint64_t>(t.store().size());
    for (const data::QoSSample& s : t.store().samples()) {
      Add(s.slice);
      Add(s.user);
      Add(s.service);
      Add(s.value);
      Add(s.timestamp);
    }
    Add(m.updates());
    Add(t.updates_applied());
    Add(t.Stats().skipped_updates);
    Add(m.nan_reinit_users());
    Add(m.nan_reinit_services());
  }
  std::uint32_t value() const { return crc_.value(); }

 private:
  common::Crc32 crc_;
};

AmfConfig KernelModelConfig() {
  AmfConfig c = MakeResponseTimeConfig(11);
  // Refuse raw values near the floor (r < 0.05 needs raw < ~1.7 ms), so
  // the stream can force model-side refusals mid-epoch.
  c.loss_epsilon = 0.05;
  return c;
}

TrainerConfig KernelTrainerConfig(int variant) {
  TrainerConfig c;
  c.seed = 23;
  c.expiry_seconds = 25.0;
  c.validate_ingest = false;  // let NaN and refused values reach the model
  c.max_epochs = 40;
  if (variant == 1) c.guarded_updates = true;
  if (variant == 2) {
    c.replay_threads = 2;
    c.replay_shards = kShards;
  }
  return c;
}

// A (user, service) pair whose service is replayed by exactly one user
// shard: hogwild epochs then have one writer per row and are
// bit-deterministic regardless of thread interleaving.
data::QoSSample Pair(common::Rng& rng, std::size_t users,
                     std::size_t services, double ts) {
  const auto u = static_cast<data::UserId>(rng.Index(users));
  auto s = static_cast<data::ServiceId>(rng.Index(services / kShards) *
                                        kShards);
  s += static_cast<data::ServiceId>(u % kShards);
  return {0, u, s, rng.LogNormal(-0.5, 1.0), ts};
}

// Rounds of fresh observations; older rounds expire mid-epoch, near-floor
// and NaN values are refused at ingest and (inserted past ingest) mid-epoch,
// and one user row is NaN-poisoned to exercise the repair.
std::uint32_t RunChurnStream(int variant) {
  AmfModel m(KernelModelConfig());
  m.EnsureUser(23);
  m.EnsureService(39);
  OnlineTrainer t(m, KernelTrainerConfig(variant));
  common::Rng rng(99);
  Digest d;
  for (int round = 0; round < 6; ++round) {
    const double now = 10.0 * round;
    for (int i = 0; i < 120; ++i) {
      data::QoSSample s = Pair(rng, 24, 40, now + 0.01 * i);
      if (i % 17 == 5) s.value = 0.0011;  // refused: r < loss_epsilon
      if (i % 41 == 7) s.value = std::numeric_limits<double>::quiet_NaN();
      t.Observe(s);
    }
    t.AdvanceTime(now);
    d.Add<std::uint64_t>(t.ProcessIncoming());
    // Restore-path inserts skip ingest, so the model refuses these only
    // when replay picks them, mid-epoch.
    SampleStore& store = t.mutable_store();
    store.Upsert({0, 3, 7, 0.0011, now});
    store.Upsert({0, 9, 13, std::numeric_limits<double>::quiet_NaN(), now});
    // Serial replay registers an unknown entity on first pick (hogwild
    // requires pre-registered rows).
    if (variant != 2) store.Upsert({0, 30, 2, 0.8, now});
    if (round == 3) m.MutableUserFactors(5)[2] = std::nan("");
    for (int e = 0; e < 3; ++e) d.AddEpoch(t.ReplayEpoch());
    d.AddEpoch(t.ReplayOne());
    t.AdvanceTime(now + 9.0);
    d.AddState(m, t);
  }
  d.Add<std::uint64_t>(t.RunUntilConverged());
  d.Add(t.last_epoch_error());
  d.AddState(m, t);
  return d.value();
}

// Every stored sample expires, so an epoch empties the store mid-pass;
// training resumes on new data after an empty-store stretch.
std::uint32_t RunDrainStream(int variant) {
  AmfModel m(KernelModelConfig());
  m.EnsureUser(15);
  m.EnsureService(31);
  OnlineTrainer t(m, KernelTrainerConfig(variant));
  common::Rng rng(7);
  Digest d;
  for (int round = 0; round < 3; ++round) {
    const double now = 100.0 * round;
    for (int i = 0; i < 90; ++i) t.Observe(Pair(rng, 16, 32, now + 0.1 * i));
    t.AdvanceTime(now);
    d.Add<std::uint64_t>(t.ProcessIncoming());
    for (int e = 0; e < 4; ++e) d.AddEpoch(t.ReplayEpoch());
    d.AddState(m, t);
    t.AdvanceTime(now + 60.0);  // everything is now past the window
    for (int e = 0; e < 2; ++e) d.AddEpoch(t.ReplayEpoch());
    d.AddEpoch(t.ReplayOne());
    d.AddState(m, t);
  }
  return d.value();
}

// Reference digests: [variant] = serial, guarded serial, 2-thread hogwild.
constexpr std::uint32_t kChurnDigest[3] = {610425711u, 610425711u,
                                           1602798834u};
constexpr std::uint32_t kDrainDigest[3] = {4117404245u, 4117404245u,
                                           1369393961u};

TEST(ReplayKernelTest, SerialChurnDigest) {
  EXPECT_EQ(RunChurnStream(0), kChurnDigest[0]);
}
TEST(ReplayKernelTest, GuardedChurnDigest) {
  EXPECT_EQ(RunChurnStream(1), kChurnDigest[1]);
}
TEST(ReplayKernelTest, HogwildChurnDigest) {
  EXPECT_EQ(RunChurnStream(2), kChurnDigest[2]);
}
TEST(ReplayKernelTest, SerialDrainDigest) {
  EXPECT_EQ(RunDrainStream(0), kDrainDigest[0]);
}
TEST(ReplayKernelTest, GuardedDrainDigest) {
  EXPECT_EQ(RunDrainStream(1), kDrainDigest[1]);
}
TEST(ReplayKernelTest, HogwildDrainDigest) {
  EXPECT_EQ(RunDrainStream(2), kDrainDigest[2]);
}

TEST(ReplayKernelTest, HogwildRerunIsDeterministic) {
  EXPECT_EQ(RunChurnStream(2), RunChurnStream(2));
}

// Rng::Index is the replay pick and also builds the benchmark's inputs
// (Index/Shuffle), so it must stay draw-for-draw equal to the standard
// distribution it replaced, rejection redraws included (3 * 2^62 rejects
// a quarter of first draws).
TEST(ReplayKernelTest, IndexMatchesUniformIntDistribution) {
  const std::size_t ns[] = {1,
                            2,
                            3,
                            19200,
                            (std::size_t{1} << 32) + 1,
                            std::size_t{1} << 63,
                            std::size_t{3} << 62};
  for (const std::uint64_t seed : {0ULL, 1ULL, 7ULL, 2014ULL, ~0ULL}) {
    for (const std::size_t n : ns) {
      common::Rng mine(seed);
      common::Rng theirs(seed);
      for (int i = 0; i < 2000; ++i) {
        const std::size_t want =
            std::uniform_int_distribution<std::size_t>(0, n - 1)(
                theirs.engine());
        ASSERT_EQ(mine.Index(n), want)
            << "seed " << seed << " n " << n << " draw " << i;
      }
      ASSERT_EQ(mine.engine()(), theirs.engine()()) << "engines diverged";
    }
  }
}

TEST(ReplayKernelTest, ShuffleMatchesStandardFisherYates) {
  common::Rng mine(5);
  common::Rng theirs(5);
  std::vector<int> a(1000), b(1000);
  for (int i = 0; i < 1000; ++i) a[i] = b[i] = i;
  mine.Shuffle(a);
  for (std::size_t i = b.size(); i > 1; --i) {
    const std::size_t j =
        std::uniform_int_distribution<std::size_t>(0, i - 1)(theirs.engine());
    std::swap(b[i - 1], b[j]);
  }
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace amf::core
