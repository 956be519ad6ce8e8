// amf_cli: command-line front end to the library.
//
//   amf_cli generate --out data.triplets [--users N --services M
//           --slices T --seed S --attr rt|tp]
//       Writes a synthetic QoS dataset as "user service slice value"
//       triplet lines (same layout WS-DREAM dumps use).
//
//   amf_cli train --data data.triplets --model model.amf
//           [--users N --services M --slices T --slice K --density D
//            --attr rt|tp --seed S]
//       Trains AMF on the observed entries of one slice (optionally
//       sub-sampled to a density) and saves the model.
//
//   amf_cli predict --model model.amf --user U --service S
//       Prints the predicted QoS value for one pair.
//
//   amf_cli evaluate --data data.triplets --model model.amf
//            [--users N --services M --slices T --slice K --attr rt|tp]
//       Scores the model on all entries of a slice (MAE/MRE/NPRE).
//
//   amf_cli summarize --data data.triplets
//            [--users N --services M --slices T --attr rt|tp]
//       Prints the Fig.-6-style statistics table for a triplet file.
//
//   amf_cli recommend --model model.amf --user U [--top 10]
//       Ranks all services for a user by predicted QoS (ascending) and
//       prints the top-k candidates with uncertainty.
//
//   amf_cli metrics [--seconds SEC --users N --services M --seed S
//           --ring CAP --shards K --watch 0|1 --interval-ms MS
//           --train-interval-ms MS --format json|prom --out FILE
//           --read-precision fp64|fp32|bf16]
//       Runs a synthetic concurrent workload (producer uploads, trainer
//       ticks, predictions in flight) against a ConcurrentPredictionService
//       for SEC seconds, then dumps its metrics registry — counters,
//       gauges, and latency-histogram percentiles — as JSON (default) or
//       Prometheus text. --watch 1 additionally prints a live counter
//       line to stderr every --interval-ms milliseconds (default 1000)
//       while the workload runs, demonstrating that snapshots never wait
//       for training. Both the watch reporter and the trainer tick
//       thread (--train-interval-ms, default 20) pace themselves on
//       absolute deadlines, so neither drifts under load nor burns a
//       core polling.
//       --read-precision fp32|bf16 routes the prediction reads through
//       the compressed replica slabs (DESIGN.md section 13); the replica.*
//       series then report refresh and staleness activity.
//       --shards K (default 1) runs the same workload against a
//       user-sharded ShardedPredictionService (DESIGN.md section 15);
//       the dumped registry then aggregates counters across all shards.
//
//   amf_cli chaos [--users N --services M --slices T --seed S --shards K
//           --ticks K --tick-seconds DT --per-tick P
//           --drop p --corrupt p --duplicate p --spike p --churn p
//           --ckpt-dir DIR --ckpt-interval SEC --retention R
//           --crash-tick K2 --truncate 0|1
//           --wal-dir DIR --fsync os|interval|always
//           --wal-torn 0|1 --wal-bitflip 0|1 --wal-drop-middle 0|1]
//       End-to-end fault-tolerance drill: streams faulted observations
//       (drops retried with backoff; corrupt/duplicate/spiked samples go
//       through the ingestion guards) into a prediction service that
//       checkpoints periodically, kills and restores the service mid-run
//       (optionally hand-truncating the newest checkpoint to prove the
//       fallback), and reports pipeline/fault/degradation counters plus
//       the end-state MRE against ground truth. With --wal-dir the
//       service journals every accepted observation and the crash
//       recovers through Recover() (checkpoint + journal replay); the
//       --wal-* switches damage the journal at the crash point (torn
//       tail from a mid-append kill, a flipped payload byte, a deleted
//       middle segment) to prove recovery truncates / quarantines /
//       skips instead of dying. --shards K (K > 1) runs the drill
//       against the user-sharded facade instead: the whole shard set
//       (per-shard checkpoints, WAL subdirectories, binding manifest)
//       crashes at --crash-tick and must come back through the facade's
//       Recover(); requires --wal-dir, honours --wal-torn (tears shard
//       0's tail), scores the end state via plain PredictQoS.
//
//   amf_cli wal --dir DIR [--after LSN] [--dump K]
//       Inspects a journal directory without touching it: per-segment
//       base/first/last LSN, record and byte counts, quarantined bytes,
//       header validity; totals with the covered LSN range, CRC-verified
//       record count, skip/gap/quarantine accounting; optionally dumps
//       the last K records after --after.
//
//   amf_cli recover --ckpt-dir DIR --wal-dir DIR [--dry-run 1 --seed S]
//       Point-in-time recovery. --dry-run 1 is read-only: reports which
//       checkpoint would restore, its journal watermark (or the
//       full-replay fallback), and how many journal records would
//       replay. Without it the state is actually rebuilt (checkpoint +
//       replay through the validation pipeline), collapsed into a fresh
//       checkpoint, and fully-covered journal segments are removed.
//
// Exit code 0 on success, 1 on usage errors, 2 on runtime failure.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/concurrent_service.h"
#include "adapt/environment.h"
#include "adapt/fault_injector.h"
#include "adapt/prediction_service.h"
#include "adapt/sharded_service.h"
#include "common/check.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/amf_predictor.h"
#include "core/checkpoint.h"
#include "core/model_io.h"
#include "data/csv_io.h"
#include "data/masking.h"
#include "data/summary.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/ranking.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "stream/wal.h"

namespace {

using namespace amf;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      AMF_CHECK_MSG(common::StartsWith(key, "--"),
                    "expected --flag value, got " << key);
      values_[key.substr(2)] = argv[i + 1];
    }
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

  std::string Require(const std::string& key) const {
    const auto it = values_.find(key);
    AMF_CHECK_MSG(it != values_.end(), "missing required --" << key);
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

data::QoSAttribute ParseAttr(const std::string& s) {
  const std::string lower = common::ToLower(s);
  if (lower == "rt") return data::QoSAttribute::kResponseTime;
  if (lower == "tp") return data::QoSAttribute::kThroughput;
  AMF_CHECK_MSG(false, "--attr must be rt or tp, got " << s);
  return data::QoSAttribute::kResponseTime;
}

data::InMemoryDataset LoadDataset(const Args& args,
                                  data::QoSAttribute attr) {
  data::InMemoryDataset dataset(
      static_cast<std::size_t>(args.GetInt("users", 142)),
      static_cast<std::size_t>(args.GetInt("services", 4500)),
      static_cast<std::size_t>(args.GetInt("slices", 64)));
  data::ReadTripletsFile(args.Require("data"), dataset, attr);
  return dataset;
}

int CmdGenerate(const Args& args) {
  data::SyntheticConfig cfg;
  cfg.users = static_cast<std::size_t>(args.GetInt("users", 142));
  cfg.services = static_cast<std::size_t>(args.GetInt("services", 4500));
  cfg.slices = static_cast<std::size_t>(args.GetInt("slices", 64));
  cfg.seed = static_cast<std::uint64_t>(args.GetInt("seed", 2014));
  const data::SyntheticQoSDataset dataset(cfg);
  const std::string out = args.Require("out");
  data::WriteTripletsFile(out, dataset, ParseAttr(args.Get("attr", "rt")));
  std::cout << "wrote " << cfg.users << "x" << cfg.services << "x"
            << cfg.slices << " triplets to " << out << "\n";
  return 0;
}

int CmdTrain(const Args& args) {
  const data::QoSAttribute attr = ParseAttr(args.Get("attr", "rt"));
  const data::InMemoryDataset dataset = LoadDataset(args, attr);
  const auto slice_id =
      static_cast<data::SliceId>(args.GetInt("slice", 0));
  const linalg::Matrix slice = dataset.DenseSlice(attr, slice_id);

  const double density = args.GetDouble("density", 1.0);
  common::Rng rng(static_cast<std::uint64_t>(args.GetInt("seed", 1)));
  const data::SparseMatrix train =
      data::SampleDensity(slice, density, rng);
  AMF_CHECK_MSG(train.nnz() > 0, "no observed entries in slice");

  core::AmfConfig cfg =
      attr == data::QoSAttribute::kResponseTime
          ? core::MakeResponseTimeConfig(
                static_cast<std::uint64_t>(args.GetInt("seed", 1)))
          : core::MakeThroughputConfig(
                static_cast<std::uint64_t>(args.GetInt("seed", 1)));
  core::AmfPredictor amf(cfg);
  amf.Fit(train);
  core::SaveModelFile(args.Require("model"), amf.model());
  std::cout << "trained on " << train.nnz() << " observations (slice "
            << slice_id << ", density "
            << common::FormatFixed(100 * density, 0) << "%), "
            << amf.epochs_run() << " epochs; model saved to "
            << args.Require("model") << "\n";
  return 0;
}

int CmdPredict(const Args& args) {
  const core::AmfModel model = core::LoadModelFile(args.Require("model"));
  const auto u = static_cast<data::UserId>(args.GetInt("user", 0));
  const auto s = static_cast<data::ServiceId>(args.GetInt("service", 0));
  AMF_CHECK_MSG(model.HasUser(u) && model.HasService(s),
                "pair (" << u << "," << s << ") outside the trained model");
  std::cout << common::FormatFixed(model.PredictRaw(u, s), 6) << "\n";
  return 0;
}

int CmdEvaluate(const Args& args) {
  const data::QoSAttribute attr = ParseAttr(args.Get("attr", "rt"));
  const data::InMemoryDataset dataset = LoadDataset(args, attr);
  const core::AmfModel model = core::LoadModelFile(args.Require("model"));
  const auto slice_id =
      static_cast<data::SliceId>(args.GetInt("slice", 0));

  // Gather the scoreable entries, then predict them in one batched pass
  // (one gather-GEMV row segment per user instead of a Predict call per
  // entry).
  std::vector<data::QoSSample> samples;
  std::vector<double> truth;
  for (data::UserId u = 0; u < dataset.num_users(); ++u) {
    if (!model.HasUser(u)) continue;
    for (data::ServiceId s = 0; s < dataset.num_services(); ++s) {
      if (!model.HasService(s)) continue;
      if (!dataset.Has(attr, u, s, slice_id)) continue;
      samples.push_back(data::QoSSample{.slice = slice_id,
                                        .user = u,
                                        .service = s,
                                        .value =
                                            dataset.Value(attr, u, s, slice_id)});
      truth.push_back(samples.back().value);
    }
  }
  AMF_CHECK_MSG(!samples.empty(), "nothing to evaluate");
  const std::vector<double> pred = core::PredictSamplesRaw(model, samples);
  const eval::Metrics m = eval::ComputeMetrics(pred, truth);
  std::cout << "entries=" << m.count
            << " MAE=" << common::FormatFixed(m.mae, 4)
            << " MRE=" << common::FormatFixed(m.mre, 4)
            << " NPRE=" << common::FormatFixed(m.npre, 4)
            << " RMSE=" << common::FormatFixed(m.rmse, 4) << "\n";
  return 0;
}

int CmdSummarize(const Args& args) {
  // Load both attributes if present; missing entries are simply skipped.
  data::InMemoryDataset dataset(
      static_cast<std::size_t>(args.GetInt("users", 142)),
      static_cast<std::size_t>(args.GetInt("services", 4500)),
      static_cast<std::size_t>(args.GetInt("slices", 64)));
  data::ReadTripletsFile(args.Require("data"), dataset,
                         ParseAttr(args.Get("attr", "rt")));
  const data::DatasetSummary summary = data::Summarize(dataset);
  std::cout << data::SummaryTable(summary);
  return 0;
}

int CmdRecommend(const Args& args) {
  const core::AmfModel model = core::LoadModelFile(args.Require("model"));
  const auto u = static_cast<data::UserId>(args.GetInt("user", 0));
  AMF_CHECK_MSG(model.HasUser(u), "user " << u << " not in the model");
  const auto top =
      static_cast<std::size_t>(args.GetInt("top", 10));

  // One batched pass over the whole catalog, then a partial sort for the
  // requested prefix — no per-service Predict calls, no full sort.
  std::vector<double> scores(model.num_services());
  model.PredictRowRaw(u, scores);
  const std::vector<std::size_t> best =
      eval::TopKByValue(scores, top, /*smaller_is_better=*/true);
  std::cout << "top " << best.size() << " candidate services for user " << u
            << " (ascending predicted QoS):\n";
  for (const std::size_t i : best) {
    const auto s = static_cast<data::ServiceId>(i);
    std::cout << "  service " << s << "  predicted "
              << common::FormatFixed(scores[i], 4) << "  uncertainty "
              << common::FormatFixed(model.PredictionUncertainty(u, s), 3)
              << "\n";
  }
  return 0;
}

/// Body of the metrics subcommand, shared between the single-instance
/// service and the user-sharded facade — both expose the same member
/// names, and the facade's registry aggregates across shards.
template <typename ServiceT>
int RunMetricsWorkload(const Args& args, ServiceT& service) {
  const double seconds = args.GetDouble("seconds", 1.0);
  const std::string format = common::ToLower(args.Get("format", "json"));
  AMF_CHECK_MSG(format == "json" || format == "prom",
                "--format must be json or prom, got " << format);
  const bool live = args.GetInt("watch", 0) != 0;
  const auto interval_ms = args.GetInt("interval-ms", 1000);
  AMF_CHECK_MSG(interval_ms > 0, "--interval-ms must be positive");
  const auto train_interval_ms = args.GetInt("train-interval-ms", 20);
  AMF_CHECK_MSG(train_interval_ms > 0, "--train-interval-ms must be positive");
  const auto users = static_cast<std::size_t>(args.GetInt("users", 32));
  const auto services = static_cast<std::size_t>(args.GetInt("services", 128));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 2014));
  for (std::size_t u = 0; u < users; ++u) {
    service.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < services; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }
  const std::string precision_flag =
      common::ToLower(args.Get("read-precision", "fp64"));
  const auto precision = core::ParseReadPrecision(precision_flag);
  AMF_CHECK_MSG(precision.has_value(),
                "--read-precision must be fp64, fp32, or bf16, got "
                    << precision_flag);
  if (*precision != core::ReadPrecision::kFp64) {
    service.SetReadPrecision(*precision);
  }

  // Closed-loop synthetic workload: every instrumented hot path (ingest
  // ring, trainer, prediction reads) stays busy while the clock runs.
  std::atomic<bool> stop{false};
  common::Stopwatch clock;
  std::thread producer([&] {
    common::Rng rng(seed ^ 0xab);
    while (!stop.load(std::memory_order_relaxed)) {
      service.ReportObservation(data::QoSSample{
          .slice = 0,
          .user = static_cast<data::UserId>(rng.Index(users)),
          .service = static_cast<data::ServiceId>(rng.Index(services)),
          .value = rng.LogNormal(-1.0, 0.5),
          .timestamp = clock.ElapsedSeconds()});
    }
  });
  // Absolute-deadline pacing (next += interval, sleep_until) for both
  // paced threads: a tick that runs long shortens the following sleep
  // instead of pushing every later deadline back, and an idle loop costs
  // zero CPU between deadlines — unlike the old `Tick; sleep_for(2ms)`
  // shape, which both drifted by the tick's own cost and woke 500x/s
  // whether or not anything needed doing.
  std::thread trainer([&] {
    auto next = std::chrono::steady_clock::now();
    const auto interval = std::chrono::milliseconds(train_interval_ms);
    while (!stop.load(std::memory_order_relaxed)) {
      service.Tick(clock.ElapsedSeconds());
      next += interval;
      const auto now = std::chrono::steady_clock::now();
      if (next < now) next = now;  // overloaded: skip forward, don't burst
      std::this_thread::sleep_until(next);
    }
  });
  std::thread watcher;
  if (live) {
    watcher = std::thread([&] {
      auto next = std::chrono::steady_clock::now();
      const auto interval = std::chrono::milliseconds(interval_ms);
      while (!stop.load(std::memory_order_relaxed)) {
        next += interval;
        const auto now = std::chrono::steady_clock::now();
        if (next < now) next = now;
        std::this_thread::sleep_until(next);
        if (stop.load(std::memory_order_relaxed)) break;
        // Snapshots are wait-free: this runs while the trainer thread is
        // mid-tick and never queues behind it.
        const obs::MetricsSnapshot snap = service.metrics().Snapshot();
        std::cerr << "[metrics] t="
                  << common::FormatFixed(clock.ElapsedSeconds(), 2)
                  << " reported=" << snap.CounterValue("ingest.reported")
                  << " ring_dropped="
                  << snap.CounterValue("ingest.ring_dropped")
                  << " updates=" << snap.CounterValue("trainer.updates")
                  << " predictions=" << snap.CounterValue("predict.calls")
                  << "\n";
      }
    });
  }

  common::Rng rng(seed ^ 0xcd);
  std::vector<data::ServiceId> candidates(16);
  std::vector<double> values(candidates.size());
  while (clock.ElapsedSeconds() < seconds) {
    const auto u = static_cast<data::UserId>(rng.Index(users));
    service.PredictQoS(u, static_cast<data::ServiceId>(rng.Index(services)));
    for (data::ServiceId& c : candidates) {
      c = static_cast<data::ServiceId>(rng.Index(services));
    }
    service.PredictQoSMany(u, candidates, values);
  }
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  trainer.join();
  if (watcher.joinable()) watcher.join();
  service.Tick(clock.ElapsedSeconds());  // final drain so totals settle

  const obs::MetricsSnapshot snap = service.metrics().Snapshot();
  const std::string text =
      format == "json" ? obs::ToJson(snap) : obs::ToPrometheus(snap);
  const std::string out = args.Get("out", "");
  if (!out.empty()) {
    std::ofstream os(out, std::ios::trunc);
    AMF_CHECK_MSG(os.good(), "cannot open --out file " << out);
    os << text << "\n";
  }
  std::cout << text << "\n";
  return 0;
}

int CmdMetrics(const Args& args) {
  const auto shards = static_cast<std::size_t>(args.GetInt("shards", 1));
  AMF_CHECK_MSG(shards >= 1, "--shards must be >= 1");
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 2014));
  const auto ring = static_cast<std::size_t>(args.GetInt("ring", 4096));
  adapt::PredictionServiceConfig cfg;
  cfg.model = core::MakeResponseTimeConfig(seed);
  if (shards == 1) {
    adapt::ConcurrentPredictionService service(cfg, ring);
    return RunMetricsWorkload(args, service);
  }
  adapt::ShardedServiceConfig scfg;
  scfg.num_shards = shards;
  scfg.service = cfg;
  scfg.ring_capacity = ring;
  adapt::ShardedPredictionService service(scfg);
  return RunMetricsWorkload(args, service);
}

/// Chaos drill against the user-sharded facade: the whole shard set
/// (per-shard checkpoints + WAL subdirectories + the binding manifest)
/// dies at --crash-tick and must come back through the facade's
/// Recover(). --wal-torn additionally tears shard 0's journal tail to
/// prove per-shard truncation still works behind the manifest gate.
/// End-state scoring goes through plain PredictQoS (the degradation
/// ladder is a serial-service feature).
int CmdChaosSharded(const Args& args, std::size_t shards) {
  data::SyntheticConfig synth;
  synth.users = static_cast<std::size_t>(args.GetInt("users", 24));
  synth.services = static_cast<std::size_t>(args.GetInt("services", 80));
  synth.slices = static_cast<std::size_t>(args.GetInt("slices", 8));
  synth.seed = static_cast<std::uint64_t>(args.GetInt("seed", 2014));
  const data::SyntheticQoSDataset dataset(synth);
  const adapt::Environment env(dataset);

  adapt::FaultInjectorConfig faults;
  faults.drop_prob = args.GetDouble("drop", 0.05);
  faults.corrupt_prob = args.GetDouble("corrupt", 0.10);
  faults.duplicate_prob = args.GetDouble("duplicate", 0.02);
  faults.spike_prob = args.GetDouble("spike", 0.02);
  faults.churn_prob = args.GetDouble("churn", 0.0);
  faults.seed = synth.seed ^ 0xc4a05;
  adapt::FaultInjector injector(env, faults);

  core::CheckpointManagerConfig ckpt;
  ckpt.directory = args.Get("ckpt-dir", "amf_chaos_ckpt");
  ckpt.interval_seconds = args.GetDouble("ckpt-interval", 120.0);
  ckpt.retention = static_cast<std::size_t>(args.GetInt("retention", 4));
  stream::JournalConfig wal;
  wal.directory = args.Get("wal-dir", "");
  AMF_CHECK_MSG(!wal.directory.empty(),
                "sharded chaos needs --wal-dir (Recover() is the only "
                "restore path for a shard set)");
  const auto policy = stream::ParseFsyncPolicy(args.Get("fsync", "interval"));
  AMF_CHECK_MSG(policy, "--fsync must be os, interval, or always");
  wal.fsync_policy = *policy;

  adapt::ShardedServiceConfig scfg;
  scfg.num_shards = shards;
  scfg.service.model = core::MakeResponseTimeConfig(synth.seed);
  const auto make_service = [&] {
    auto svc = std::make_unique<adapt::ShardedPredictionService>(scfg);
    for (std::size_t u = 0; u < synth.users; ++u) {
      svc->RegisterUser(std::string("u").append(std::to_string(u)));
    }
    for (std::size_t s = 0; s < synth.services; ++s) {
      svc->RegisterService(std::string("s").append(std::to_string(s)));
    }
    svc->EnableCheckpoints(ckpt);
    svc->EnableJournal(wal);
    return svc;
  };
  auto service = make_service();

  const auto ticks = static_cast<std::size_t>(args.GetInt("ticks", 40));
  const double tick_seconds = args.GetDouble("tick-seconds", 15.0);
  const auto per_tick = static_cast<std::size_t>(args.GetInt("per-tick", 150));
  const auto crash_tick = static_cast<std::size_t>(
      args.GetInt("crash-tick", static_cast<std::int64_t>(ticks / 2)));
  const common::BackoffConfig backoff{.max_attempts = 3,
                                      .initial_delay_seconds = 1e-4,
                                      .multiplier = 2.0,
                                      .max_delay_seconds = 1e-3};

  common::Rng rng(synth.seed ^ 0x5eed);
  std::uint64_t give_ups = 0;
  double now = 0.0;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    now = static_cast<double>(tick + 1) * tick_seconds;
    for (std::size_t i = 0; i < per_tick; ++i) {
      const auto u = static_cast<data::UserId>(rng.Index(synth.users));
      const auto s = static_cast<data::ServiceId>(rng.Index(synth.services));
      const std::optional<adapt::InvocationResult> result =
          common::RetryWithBackoff(
              [&]() { return injector.Invoke(u, s, now); }, backoff);
      if (!result) {
        ++give_ups;
        continue;
      }
      const data::QoSSample observed{.slice = env.SliceAt(now),
                                     .user = u,
                                     .service = s,
                                     .value = result->response_time,
                                     .timestamp = now};
      for (const data::QoSSample& delivered : injector.Deliver(observed)) {
        service->ReportObservation(delivered);
      }
    }
    service->Tick(now);

    if (tick + 1 == crash_tick) {
      service.reset();  // the whole shard set dies at once
      if (args.GetInt("wal-torn", 0) != 0) {
        namespace fs = std::filesystem;
        std::vector<std::string> segments;
        const std::string shard0 = wal.directory + "/shard-0";
        for (const auto& entry : fs::directory_iterator(shard0)) {
          if (entry.path().extension() == ".amfwal") {
            segments.push_back(entry.path().string());
          }
        }
        std::sort(segments.begin(), segments.end());
        if (!segments.empty() && fs::file_size(segments.back()) > 3) {
          fs::resize_file(segments.back(),
                          fs::file_size(segments.back()) - 3);
          std::cout << "[chaos] tore journal tail: " << segments.back()
                    << "\n";
        }
      }
      std::cout << "[chaos] tick " << tick + 1 << ": crashed (all " << shards
                << " shards)\n";
      service = make_service();
      const adapt::ShardedPredictionService::RecoveryReport rec =
          service->Recover();
      std::cout << "[chaos] recover: manifest="
                << (rec.manifest_ok ? "ok" : rec.manifest_error)
                << " shards_restored=" << rec.shards_restored << "/" << shards
                << " scanned=" << rec.scanned << " replayed=" << rec.replayed
                << " rejected{generation=" << rec.rejected_generation
                << " retired=" << rec.rejected_retired
                << "} quarantined_segments=" << rec.quarantined_segments
                << "\n";
      if (!rec.manifest_ok) return 2;
    }
  }

  std::vector<double> pred;
  std::vector<double> truth;
  for (std::size_t u = 0; u < synth.users; ++u) {
    for (std::size_t s = 0; s < synth.services; ++s) {
      const std::optional<double> p =
          service->PredictQoS(static_cast<data::UserId>(u),
                              static_cast<data::ServiceId>(s));
      if (!p.has_value() || !std::isfinite(*p)) continue;
      pred.push_back(*p);
      truth.push_back(env.TrueResponseTime(static_cast<data::UserId>(u),
                                           static_cast<data::ServiceId>(s),
                                           now));
    }
  }
  const eval::Metrics m = eval::ComputeMetrics(pred, truth);
  const adapt::FaultInjectionStats& fi = injector.stats();
  const obs::MetricsSnapshot snap = service->metrics().Snapshot();
  std::cout << "faults: invocations=" << fi.invocations << " drops="
            << fi.drops << " (gave up " << give_ups << ") spikes="
            << fi.spikes << " corruptions=" << fi.corruptions
            << " duplicates=" << fi.duplicates << " churns=" << fi.churns
            << "\n";
  std::cout << "shards: count=" << shards << " merges=" << service->merges()
            << " reported=" << snap.CounterValue("ingest.reported")
            << " updates=" << snap.CounterValue("trainer.updates") << "\n";
  std::cout << "end-state: entries=" << m.count
            << " MRE=" << common::FormatFixed(m.mre, 4)
            << " MAE=" << common::FormatFixed(m.mae, 4) << "\n";
  return 0;
}

int CmdChaos(const Args& args) {
  const auto shards = static_cast<std::size_t>(args.GetInt("shards", 1));
  AMF_CHECK_MSG(shards >= 1, "--shards must be >= 1");
  if (shards > 1) return CmdChaosSharded(args, shards);
  // --- Ground truth + fault layer ----------------------------------------
  data::SyntheticConfig synth;
  synth.users = static_cast<std::size_t>(args.GetInt("users", 24));
  synth.services = static_cast<std::size_t>(args.GetInt("services", 80));
  synth.slices = static_cast<std::size_t>(args.GetInt("slices", 8));
  synth.seed = static_cast<std::uint64_t>(args.GetInt("seed", 2014));
  const data::SyntheticQoSDataset dataset(synth);
  const adapt::Environment env(dataset);

  adapt::FaultInjectorConfig faults;
  faults.drop_prob = args.GetDouble("drop", 0.05);
  faults.corrupt_prob = args.GetDouble("corrupt", 0.10);
  faults.duplicate_prob = args.GetDouble("duplicate", 0.02);
  faults.spike_prob = args.GetDouble("spike", 0.02);
  faults.churn_prob = args.GetDouble("churn", 0.0);
  faults.seed = synth.seed ^ 0xc4a05;
  adapt::FaultInjector injector(env, faults);

  // --- Service under test, with checkpointing ----------------------------
  core::CheckpointManagerConfig ckpt;
  ckpt.directory = args.Get("ckpt-dir", "amf_chaos_ckpt");
  ckpt.interval_seconds = args.GetDouble("ckpt-interval", 120.0);
  ckpt.retention = static_cast<std::size_t>(args.GetInt("retention", 4));

  stream::JournalConfig wal;
  wal.directory = args.Get("wal-dir", "");
  const bool journaled = !wal.directory.empty();
  if (journaled) {
    const auto policy = stream::ParseFsyncPolicy(args.Get("fsync", "interval"));
    AMF_CHECK_MSG(policy, "--fsync must be os, interval, or always");
    wal.fsync_policy = *policy;
  }

  adapt::PredictionServiceConfig service_cfg;
  service_cfg.model = core::MakeResponseTimeConfig(synth.seed);
  const auto make_service = [&](bool register_names) {
    auto svc = std::make_unique<adapt::QoSPredictionService>(service_cfg);
    svc->EnableCheckpoints(ckpt);
    if (journaled) svc->EnableJournal(wal);
    if (register_names) {
      for (std::size_t u = 0; u < synth.users; ++u) {
        svc->RegisterUser(std::string("u").append(std::to_string(u)));
      }
      for (std::size_t s = 0; s < synth.services; ++s) {
        svc->RegisterService(std::string("s").append(std::to_string(s)));
      }
    }
    return svc;
  };
  std::unique_ptr<adapt::QoSPredictionService> service =
      make_service(/*register_names=*/true);

  // --- Faulted streaming loop --------------------------------------------
  const auto ticks = static_cast<std::size_t>(args.GetInt("ticks", 40));
  const double tick_seconds = args.GetDouble("tick-seconds", 15.0);
  const auto per_tick = static_cast<std::size_t>(args.GetInt("per-tick", 150));
  const auto crash_tick = static_cast<std::size_t>(
      args.GetInt("crash-tick", static_cast<std::int64_t>(ticks / 2)));
  const bool truncate_newest = args.GetInt("truncate", 1) != 0;
  const common::BackoffConfig backoff{.max_attempts = 3,
                                      .initial_delay_seconds = 1e-4,
                                      .multiplier = 2.0,
                                      .max_delay_seconds = 1e-3};

  common::Rng rng(synth.seed ^ 0x5eed);
  std::uint64_t give_ups = 0;
  double now = 0.0;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    now = static_cast<double>(tick + 1) * tick_seconds;
    for (std::size_t i = 0; i < per_tick; ++i) {
      const auto u = static_cast<data::UserId>(rng.Index(synth.users));
      const auto s = static_cast<data::ServiceId>(rng.Index(synth.services));
      // A dropped read is transient: retry with exponential backoff, then
      // give up on the observation (the stream is lossy by design).
      const std::optional<adapt::InvocationResult> result =
          common::RetryWithBackoff(
              [&]() { return injector.Invoke(u, s, now); }, backoff);
      if (!result) {
        ++give_ups;
        continue;
      }
      const data::QoSSample observed{.slice = env.SliceAt(now),
                                     .user = u,
                                     .service = s,
                                     .value = result->response_time,
                                     .timestamp = now};
      for (const data::QoSSample& delivered : injector.Deliver(observed)) {
        service->ReportObservation(delivered);
      }
    }
    service->Tick(now);

    if (tick + 1 == crash_tick) {
      // Simulated process death: the service (model, trainer, stats) is
      // destroyed; only the checkpoint + journal directories survive.
      // Without a journal, take a parting checkpoint (the old drill);
      // with one, everything since the last interval checkpoint must
      // come back through journal replay — that is the point.
      if (!journaled) {
        service->checkpoints()->Save(service->model(),
                                     service->trainer().store(), now,
                                     service->trainer().last_epoch_error());
      }
      service.reset();
      if (truncate_newest) {
        // Hand-truncate the newest checkpoint: recovery must detect it and
        // fall back to the previous valid one.
        core::CheckpointManager probe(ckpt);
        const std::vector<std::string> files = probe.List();
        if (!files.empty()) {
          const std::string& victim = files.back();
          const auto size = std::filesystem::file_size(victim);
          std::filesystem::resize_file(victim, size / 2);
          std::cout << "[chaos] tick " << tick + 1 << ": crashed; truncated "
                    << victim << " to " << size / 2 << " bytes\n";
        }
      } else {
        std::cout << "[chaos] tick " << tick + 1 << ": crashed\n";
      }
      if (journaled) {
        // Journal damage drills: a mid-append kill (torn tail), silent
        // media corruption (flipped payload byte), and a lost segment.
        namespace fs = std::filesystem;
        std::vector<std::string> segments;
        for (const auto& entry : fs::directory_iterator(wal.directory)) {
          if (entry.path().extension() == ".amfwal") {
            segments.push_back(entry.path().string());
          }
        }
        std::sort(segments.begin(), segments.end());
        if (args.GetInt("wal-torn", 0) != 0 && !segments.empty()) {
          const std::string& victim = segments.back();
          const auto size = fs::file_size(victim);
          if (size > 3) {
            fs::resize_file(victim, size - 3);
            std::cout << "[chaos] tore journal tail: " << victim << "\n";
          }
        }
        if (args.GetInt("wal-bitflip", 0) != 0 && !segments.empty()) {
          const std::string& victim = segments.front();
          if (fs::file_size(victim) > 40) {
            std::fstream f(victim, std::ios::in | std::ios::out |
                                       std::ios::binary);
            f.seekg(36);  // inside the first record's payload
            char byte = 0;
            f.read(&byte, 1);
            byte = static_cast<char>(byte ^ 0x40);
            f.seekp(36);
            f.write(&byte, 1);
            std::cout << "[chaos] flipped a payload byte in " << victim
                      << "\n";
          }
        }
        if (args.GetInt("wal-drop-middle", 0) != 0 && segments.size() >= 3) {
          const std::string& victim = segments[segments.size() / 2];
          fs::remove(victim);
          std::cout << "[chaos] removed middle segment " << victim << "\n";
        }
      }
      service = make_service(/*register_names=*/true);
      if (journaled) {
        const adapt::QoSPredictionService::RecoveryReport rec =
            service->Recover();
        std::cout << "[chaos] recover: checkpoint="
                  << (rec.checkpoint_restored ? "restored" : "none")
                  << " watermark=" << rec.watermark
                  << " scanned=" << rec.scanned
                  << " replayed=" << rec.replayed
                  << " rejected{generation=" << rec.rejected_generation
                  << " retired=" << rec.rejected_retired
                  << "} quarantined_segments=" << rec.quarantined_segments
                  << ", corrupt checkpoints skipped: "
                  << service->checkpoints()->corrupt_skipped() << "\n";
      } else {
        const bool restored = service->RestoreFromLatestCheckpoint();
        std::cout << "[chaos] restore "
                  << (restored ? "succeeded" : "FAILED (cold start)")
                  << ", corrupt checkpoints skipped: "
                  << service->checkpoints()->corrupt_skipped() << "\n";
      }
    }
  }

  // --- End-state scoring (resilient ladder vs ground truth) --------------
  std::vector<double> pred;
  std::vector<double> truth;
  std::uint64_t non_model = 0;
  for (std::size_t u = 0; u < synth.users; ++u) {
    for (std::size_t s = 0; s < synth.services; ++s) {
      const adapt::QoSPredictionService::ResilientPrediction p =
          service->PredictResilient(static_cast<data::UserId>(u),
                                    static_cast<data::ServiceId>(s));
      if (!std::isfinite(p.value)) continue;
      if (p.source != adapt::QoSPredictionService::PredictionSource::kModel) {
        ++non_model;
      }
      pred.push_back(p.value);
      truth.push_back(env.TrueResponseTime(static_cast<data::UserId>(u),
                                           static_cast<data::ServiceId>(s),
                                           now));
    }
  }
  const eval::Metrics m = eval::ComputeMetrics(pred, truth);

  const core::PipelineStats stats = service->pipeline_stats();
  const adapt::FaultInjectionStats& fi = injector.stats();
  const auto& deg = service->degradation_stats();
  std::cout << "faults: invocations=" << fi.invocations
            << " drops=" << fi.drops << " (gave up " << give_ups
            << ") spikes=" << fi.spikes << " corruptions=" << fi.corruptions
            << " duplicates=" << fi.duplicates << " churns=" << fi.churns
            << "\n";
  std::cout << "pipeline: " << stats.ToString() << "\n";
  std::cout << "degradation: model=" << deg.model
            << " service_mean=" << deg.service_mean
            << " last_known_good=" << deg.last_known_good
            << " unavailable=" << deg.unavailable << " (" << non_model
            << " predictions served off-ladder)\n";
  std::cout << "checkpoints: written=" << service->checkpoints()->written()
            << " on disk=" << service->checkpoints()->List().size() << "\n";
  if (journaled) {
    const stream::ObservationJournal& j = *service->journal();
    std::cout << "journal: fsync=" << stream::FsyncPolicyName(wal.fsync_policy)
              << " appends=" << j.appends() << " failures="
              << j.append_failures() << " bytes=" << j.bytes_appended()
              << " syncs=" << j.syncs() << " rotations=" << j.rotations()
              << " torn_tails_truncated=" << j.torn_tail_truncations()
              << " segments_gc=" << j.segments_removed()
              << " last_lsn=" << j.last_lsn() << "\n";
  }
  std::cout << "end-state: entries=" << m.count
            << " MRE=" << common::FormatFixed(m.mre, 4)
            << " MAE=" << common::FormatFixed(m.mae, 4) << "\n";
  return 0;
}

int CmdWal(const Args& args) {
  const std::string dir = args.Require("dir");
  const auto after = static_cast<std::uint64_t>(args.GetInt("after", 0));
  const auto dump = static_cast<std::size_t>(args.GetInt("dump", 0));

  std::deque<stream::JournalRecord> tail;
  const stream::JournalScanResult scan = stream::ScanJournal(
      dir, after, [&](const stream::JournalRecord& r) {
        if (dump == 0) return;
        tail.push_back(r);
        if (tail.size() > dump) tail.pop_front();
      });

  for (const stream::JournalSegmentInfo& seg : scan.segments) {
    std::cout << std::filesystem::path(seg.path).filename().string()
              << " base=" << seg.base_lsn;
    if (seg.records > 0) {
      std::cout << " lsn=[" << seg.first_lsn << ".." << seg.last_lsn << "]";
    } else {
      std::cout << " lsn=[]";
    }
    std::cout << " records=" << seg.records << " bytes=" << seg.bytes;
    if (!seg.header_ok) std::cout << " BAD-HEADER";
    if (seg.quarantined_bytes > 0) {
      std::cout << " quarantined_bytes=" << seg.quarantined_bytes;
    }
    std::cout << "\n";
  }
  std::cout << "total: segments=" << scan.segments.size()
            << " records=" << scan.records_scanned;
  if (scan.records_scanned > 0) {
    std::cout << " lsn=[" << scan.min_lsn << ".." << scan.max_lsn << "]";
  }
  if (after > 0) std::cout << " (after lsn " << after << ")";
  std::cout << " skipped=" << scan.records_skipped
            << " gaps=" << scan.lsn_gaps
            << " quarantined{segments=" << scan.quarantined_segments
            << " bytes=" << scan.quarantined_bytes << "}\n";
  std::cout << "crc: " << (scan.quarantined_segments == 0 ? "OK" : "FAILED")
            << " (every surviving record above is CRC-verified)\n";
  for (const stream::JournalRecord& r : tail) {
    std::cout << "  lsn=" << r.lsn << " user=" << r.sample.user
              << " service=" << r.sample.service
              << " slice=" << r.sample.slice << " value="
              << common::FormatFixed(r.sample.value, 6) << " timestamp="
              << common::FormatFixed(r.sample.timestamp, 3)
              << " gen{user=" << r.user_generation
              << " service=" << r.service_generation << "}\n";
  }
  return scan.quarantined_segments == 0 ? 0 : 2;
}

int CmdRecover(const Args& args) {
  core::CheckpointManagerConfig ckpt;
  ckpt.directory = args.Require("ckpt-dir");
  stream::JournalConfig wal;
  wal.directory = args.Require("wal-dir");

  if (args.GetInt("dry-run", 0) != 0) {
    // Read-only preview: probe checkpoints newest-first for the first
    // loadable one, then count what its watermark would leave to replay.
    core::CheckpointManager probe(ckpt);
    const std::vector<std::string> files = probe.List();
    std::optional<std::uint64_t> watermark;
    std::string used;
    for (auto it = files.rbegin(); it != files.rend(); ++it) {
      try {
        const core::CheckpointData data = core::ReadCheckpointFile(*it);
        watermark = data.wal_watermark;
        used = *it;
        break;
      } catch (const std::exception&) {
        continue;  // corrupt / torn: real recovery skips it too
      }
    }
    if (used.empty()) {
      std::cout << "checkpoint: none loadable (cold start)\n";
    } else {
      std::cout << "checkpoint: " << used << "\n";
    }
    if (watermark) {
      std::cout << "watermark: " << *watermark << "\n";
    } else {
      std::cout << "watermark: none (pre-v3 checkpoint or cold start): "
                   "the FULL journal would replay\n";
    }
    std::uint64_t would_replay = 0;
    const stream::JournalScanResult scan = stream::ScanJournal(
        wal.directory, watermark.value_or(0),
        [&](const stream::JournalRecord&) { ++would_replay; });
    std::cout << "journal: segments=" << scan.segments.size()
              << " would_replay=" << would_replay;
    if (would_replay > 0) {
      std::cout << " lsn=[" << scan.min_lsn << ".." << scan.max_lsn << "]";
    }
    std::cout << " quarantined_segments=" << scan.quarantined_segments
              << " gaps=" << scan.lsn_gaps << "\n";
    return 0;
  }

  adapt::PredictionServiceConfig cfg;
  cfg.model = core::MakeResponseTimeConfig(
      static_cast<std::uint64_t>(args.GetInt("seed", 2014)));
  adapt::QoSPredictionService service(cfg);
  service.EnableCheckpoints(ckpt);
  service.EnableJournal(wal);
  const adapt::QoSPredictionService::RecoveryReport rec = service.Recover();
  std::cout << "checkpoint=" << (rec.checkpoint_restored ? "restored" : "none")
            << " watermark=" << rec.watermark << " scanned=" << rec.scanned
            << " replayed=" << rec.replayed
            << " rejected{generation=" << rec.rejected_generation
            << " retired=" << rec.rejected_retired
            << "} quarantined_segments=" << rec.quarantined_segments << "\n";

  // Collapse the recovered state into a fresh checkpoint so the replay
  // work is not repeated on the next start, then drop covered segments.
  service.journal()->SyncNow();
  const std::uint64_t new_watermark = service.journal()->last_lsn();
  const core::CheckpointRegistries regs{service.users().ToImage(),
                                        service.services().ToImage()};
  const std::string path = service.checkpoints()->Save(
      service.model(), service.trainer().store(), service.trainer().now(),
      service.trainer().last_epoch_error(), &regs, &new_watermark);
  const std::uint64_t removed =
      service.journal()->RemoveSegmentsCoveredBy(new_watermark);
  std::cout << "checkpointed recovered state to " << path << " (watermark "
            << new_watermark << "), removed " << removed
            << " covered journal segments\n";
  return 0;
}

int Usage() {
  std::cerr << "usage: amf_cli "
               "<generate|train|predict|evaluate|summarize|recommend|"
               "metrics|chaos|wal|recover> "
               "[--flag value ...]\n(see the header of amf_cli.cpp)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  try {
    Args args(argc, argv);
    if (cmd == "generate") return CmdGenerate(args);
    if (cmd == "train") return CmdTrain(args);
    if (cmd == "predict") return CmdPredict(args);
    if (cmd == "evaluate") return CmdEvaluate(args);
    if (cmd == "summarize") return CmdSummarize(args);
    if (cmd == "recommend") return CmdRecommend(args);
    if (cmd == "metrics") return CmdMetrics(args);
    if (cmd == "chaos") return CmdChaos(args);
    if (cmd == "wal") return CmdWal(args);
    if (cmd == "recover") return CmdRecover(args);
    return Usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
