// amf_server: standalone networked serving front-end (DESIGN.md §14).
//
//   amf_server [--host 127.0.0.1 --port 7421 --users N --services M
//               --seed S --ring CAP --seconds SEC --shards K
//               --train-interval-ms MS
//               --wal-dir DIR --fsync os|interval|always]
//
// Boots a ConcurrentPredictionService (--shards 1, the default) or a
// user-sharded ShardedPredictionService (--shards K routes every user to
// one of K independent model instances and reconciles the replicated
// service factors at each trainer tick), pre-registers N users and M
// services, warms the model on a synthetic workload slice so PREDICT
// answers are meaningful from the first request, then serves the binary
// protocol (PREDICT / PREDICT_MANY / REPORT_OBS / METRICS / PING) until
// SIGINT/SIGTERM or --seconds elapses. --port 0 binds an ephemeral port
// (printed on stdout as "listening <host> <port>", which scripted
// drivers parse). Concurrent PREDICT singles are batched by event-loop
// wake, so batch size follows load and there is no window to tune.
//
// With --wal-dir the service journals accepted observations; the
// server's event loop and trainer keep the kInterval fsync window honest
// while idle, and shutdown drains in-flight requests, ticks the trainer
// once more to journal everything acked, and fsyncs the WAL tail before
// the process exits.
//
// Exit code 0 on a clean (signalled or timed) shutdown, 1 on usage
// errors, 2 when the listen socket cannot be bound.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "adapt/concurrent_service.h"
#include "adapt/sharded_service.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/amf_predictor.h"
#include "serve/server.h"
#include "stream/wal.h"

namespace {

using namespace amf;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

constexpr const char* kUsage =
    "usage: amf_server [--host H] [--port P] [--users N] [--services M] "
    "[--seed S] [--ring CAP] [--seconds SEC] [--shards K] "
    "[--train-interval-ms MS] [--wal-dir DIR] [--fsync os|interval|always]";

class Args {
 public:
  /// Parses `--flag value` pairs. Returns false, with the reason in
  /// `error`, on a stray token, a flag without a value or a flag this
  /// program does not know (a misspelt or retired flag must not silently
  /// start a server with defaults).
  bool Parse(int argc, char** argv, std::string* error) {
    static const std::set<std::string> kKnown = {
        "host",    "port",   "users",  "services",          "seed",
        "ring",    "seconds", "shards", "train-interval-ms", "wal-dir",
        "fsync"};
    for (int i = 1; i < argc; i += 2) {
      const std::string key = argv[i];
      if (!common::StartsWith(key, "--")) {
        *error = "expected --flag value, got " + key;
        return false;
      }
      if (kKnown.count(key.substr(2)) == 0) {
        *error = "unknown flag " + key;
        return false;
      }
      if (i + 1 >= argc) {
        *error = key + " needs a value";
        return false;
      }
      values_[key.substr(2)] = argv[i + 1];
    }
    return true;
  }
  std::string Get(const std::string& key, const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  std::int64_t GetInt(const std::string& key, std::int64_t def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    const auto v = common::ParseInt(it->second);
    AMF_CHECK_MSG(v, "--" << key << " expects an integer");
    return *v;
  }
  double GetDouble(const std::string& key, double def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    const auto v = common::ParseDouble(it->second);
    AMF_CHECK_MSG(v, "--" << key << " expects a number");
    return *v;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (std::string error; !args.Parse(argc, argv, &error)) {
    std::cerr << "amf_server: " << error << "\n" << kUsage << "\n";
    return 1;
  }
  const auto users = static_cast<std::size_t>(args.GetInt("users", 32));
  const auto services = static_cast<std::size_t>(args.GetInt("services", 128));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 2014));
  const double seconds = args.GetDouble("seconds", 0.0);
  const auto shards = static_cast<std::size_t>(args.GetInt("shards", 1));
  const auto ring = static_cast<std::size_t>(args.GetInt("ring", 4096));
  AMF_CHECK_MSG(shards >= 1, "--shards must be >= 1");

  adapt::PredictionServiceConfig cfg;
  cfg.model = core::MakeResponseTimeConfig(seed);

  std::unique_ptr<adapt::ConcurrentPredictionService> single;
  std::unique_ptr<adapt::ShardedPredictionService> sharded;
  std::unique_ptr<serve::Backend> backend;
  if (shards == 1) {
    single = std::make_unique<adapt::ConcurrentPredictionService>(cfg, ring);
    backend = std::make_unique<serve::ConcurrentBackend>(single.get());
  } else {
    adapt::ShardedServiceConfig scfg;
    scfg.num_shards = shards;
    scfg.service = cfg;
    scfg.ring_capacity = ring;
    sharded = std::make_unique<adapt::ShardedPredictionService>(scfg);
    backend = std::make_unique<serve::ShardedBackend>(sharded.get());
  }

  // Registration, journal arming, and warm-up are identical across the
  // two facades — both expose the same member names.
  auto prepare = [&](auto& service) {
    for (std::size_t u = 0; u < users; ++u) {
      service.RegisterUser(std::string("u").append(std::to_string(u)));
    }
    for (std::size_t s = 0; s < services; ++s) {
      service.RegisterService(std::string("s").append(std::to_string(s)));
    }

    const std::string wal_dir = args.Get("wal-dir", "");
    if (!wal_dir.empty()) {
      stream::JournalConfig jc;
      jc.directory = wal_dir;
      const std::string fsync = common::ToLower(args.Get("fsync", "interval"));
      if (fsync == "os") {
        jc.fsync_policy = stream::FsyncPolicy::kOs;
      } else if (fsync == "always") {
        jc.fsync_policy = stream::FsyncPolicy::kAlways;
      } else {
        AMF_CHECK_MSG(fsync == "interval",
                      "--fsync must be os, interval, or always");
        jc.fsync_policy = stream::FsyncPolicy::kInterval;
      }
      service.EnableJournal(jc);
    }

    // Warm-up: a burst of synthetic observations trained to convergence,
    // so the first remote PREDICT sees a fitted model, not random init.
    common::Rng rng(seed ^ 0x5e);
    common::Stopwatch clock;
    for (std::size_t i = 0; i < users * services / 4; ++i) {
      service.ReportObservation(data::QoSSample{
          .slice = 0,
          .user = static_cast<data::UserId>(rng.Index(users)),
          .service = static_cast<data::ServiceId>(rng.Index(services)),
          .value = rng.LogNormal(-1.0, 0.5),
          .timestamp = clock.ElapsedSeconds()});
      if ((i & 1023) == 1023) service.Tick(clock.ElapsedSeconds());
    }
    service.TrainToConvergence(clock.ElapsedSeconds());
  };
  if (single != nullptr) {
    prepare(*single);
  } else {
    prepare(*sharded);
  }

  serve::ServerConfig sc;
  sc.host = args.Get("host", "127.0.0.1");
  sc.port = static_cast<std::uint16_t>(args.GetInt("port", 7421));
  sc.train_interval_ms =
      static_cast<int>(args.GetInt("train-interval-ms", 20));
  serve::Server server(backend.get(), sc);
  if (!server.Start()) {
    std::cerr << "amf_server: " << server.last_error() << "\n";
    return 2;
  }
  std::cout << "listening " << sc.host << " " << server.port() << std::endl;

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  common::Stopwatch uptime;
  while (g_stop == 0 && (seconds <= 0.0 || uptime.ElapsedSeconds() < seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Ordered drain: stop accepting, answer everything already read, drain
  // socket buffers, final trainer Tick (journals acked observations),
  // fsync the WAL tail. Only then report and exit.
  server.Shutdown();
  const obs::MetricsSnapshot snap = backend->metrics().Snapshot();
  std::cerr << "amf_server: served="
            << snap.CounterValue("serve.requests")
            << " coalesce_flushes="
            << snap.CounterValue("serve.coalesce.flushes")
            << " protocol_errors="
            << snap.CounterValue("serve.protocol_errors")
            << " slow_reader_drops="
            << snap.CounterValue("serve.slow_reader_drops") << "\n";
  return 0;
}
