// SUT harness: boots the stock serve::Server over the stock facades
// (one ConcurrentPredictionService, or a ShardedPredictionService for a
// sharded workload) behind the timing decorator, fed only the generated
// inputs. Every program setting stays at its default except topology and
// the journal's fsync policy (see workload.cpp).
//
// It is driven over a line channel (commands on fd 3, replies on fd 4):
//
//   -> ready             inputs generated; waiting to start
//   go                   set-up: register, ingest the warm set, train to
//                        convergence, listen  -> port <n>
//   pause / resume       training off/on through the decorator  -> ok
//   verify               in-process answers to the verification set,
//                        as hex bit patterns  -> verify <hex>...
//   trace 0|1            decorator tracing off/on  -> ok
//   keep-spans           keep the spans so far; later ones may overwrite
//                        each other once the buffer is full  -> ok
//   mark <label>         snapshot counters now (no reply)
//   exit                 shut down quietly (set-up-only instances)
//   finish [spans=a,b] [name=a,b]...
//                        ordered shutdown, then one "win <name> k=v..."
//                        per window between marks, "final k=v...",
//                        optional "spans <n>" + raw spans, "done".
#include "sut.h"

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "adapt/concurrent_service.h"
#include "adapt/sharded_service.h"
#include "channel.h"
#include "serve/server.h"
#include "stream/wal.h"
#include "timing_backend.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kCmdFd = 3;
constexpr int kReplyFd = 4;
constexpr double kCommandTimeoutS = 600.0;

struct PipelineSums {
  std::uint64_t accepted = 0, seen = 0, rejected = 0, quarantined = 0;
  std::uint64_t ring_dropped = 0, overflow = 0;
  std::uint64_t journal_appended = 0, journal_dropped = 0;

  void Add(const amf::core::PipelineStats& s) {
    accepted += s.accepted;
    seen += s.seen();
    rejected += s.rejected();
    quarantined += s.quarantined_outlier;
    ring_dropped += s.ring_dropped;
    overflow += s.dropped_on_overflow;
    journal_appended += s.journal_appended;
    journal_dropped += s.journal_dropped;
  }
  /// Every observation the ring accepted ends up in exactly one of these
  /// (the conservation identity, less the ring's own sheds).
  std::uint64_t identity() const { return seen + overflow + journal_dropped; }
};

struct Mark {
  std::string label;
  std::int64_t t_ns = 0;
  amf::obs::MetricsSnapshot snap;
  PipelineSums ps;
  CallCounts calls;
};

/// Percentile of a histogram's growth between two snapshots.
double DeltaPercentile(const amf::obs::MetricsSnapshot& a,
                       const amf::obs::MetricsSnapshot& b,
                       std::string_view name, double p) {
  const amf::obs::HistogramSnapshot* hb = b.FindHistogram(name);
  if (hb == nullptr) return 0.0;
  amf::obs::HistogramSnapshot d = *hb;
  if (const amf::obs::HistogramSnapshot* ha = a.FindHistogram(name)) {
    for (std::size_t i = 0; i < d.counts.size(); ++i) {
      d.counts[i] -= ha->counts[i];
    }
    d.underflow -= ha->underflow;
    d.overflow -= ha->overflow;
    d.total -= ha->total;
    d.sum -= ha->sum;
  }
  return d.total == 0 ? 0.0 : d.Percentile(p);
}

std::string Hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char tmp[24];
  std::snprintf(tmp, sizeof(tmp), "%016llx",
                static_cast<unsigned long long>(bits));
  return tmp;
}

class Harness {
  // Runs f on whichever facade the workload uses (defined first: the
  // deduced return type must be known where it is called).
  template <typename F>
  auto With(F&& f) const {
    return single_ != nullptr ? f(*single_) : f(*sharded_);
  }

 public:
  Harness(const Inputs& in, std::string wal_dir)
      : in_(in), w_(*in.workload), wal_dir_(std::move(wal_dir)) {}

  ~Harness() {
    if (server_ != nullptr) server_->Shutdown();
  }

  bool Setup(std::string* error) {
    const std::int64_t t0 = NowNs();
    amf::adapt::PredictionServiceConfig cfg;
    if (w_.shards == 1) {
      single_ = std::make_unique<amf::adapt::ConcurrentPredictionService>(cfg);
      inner_ = std::make_unique<amf::serve::ConcurrentBackend>(single_.get());
    } else {
      amf::adapt::ShardedServiceConfig scfg;
      scfg.num_shards = w_.shards;
      scfg.service = cfg;
      sharded_ = std::make_unique<amf::adapt::ShardedPredictionService>(scfg);
      inner_ = std::make_unique<amf::serve::ShardedBackend>(sharded_.get());
    }
    const bool ok = With([&](auto& svc) { return Prepare(svc, error); });
    if (!ok) return false;
    base_ = Sums();

    const bool feed = w_.feed_rps > 0.0;
    decorator_ = std::make_unique<TimingBackend>(
        inner_.get(), /*ack_capacity=*/std::size_t{1} << 21,
        /*tick_capacity=*/std::size_t{1} << 14,
        /*span_capacity=*/std::size_t{1} << 20,
        /*report_capacity=*/feed ? std::size_t{1} << 21 : std::size_t{1} << 16);
    server_ = std::make_unique<amf::serve::Server>(decorator_.get(),
                                                   amf::serve::ServerConfig{});
    if (!server_->Start()) {
      *error = "server start: " + server_->last_error();
      return false;
    }
    const double total_s = static_cast<double>(NowNs() - t0) * 1e-9;
    stages_.Set("total_s", total_s);
    stages_.Set("register_s", register_s_);
    stages_.Set("ingest_s", ingest_s_);
    stages_.Set("train_s", train_s_);
    stages_.Set("listen_s", total_s - register_s_ - ingest_s_ - train_s_);
    stages_.Set("epochs", static_cast<double>(inner_->metrics().Snapshot()
                                                  .CounterValue("trainer.epochs")));
    return true;
  }

  /// Set-up stage durations inside the SUT (total_s; register_s,
  /// ingest_s, train_s; listen_s, the rest: facade construction and
  /// server start) and the trainer's epoch count (last-wins on a sharded
  /// SUT).
  const Record& stages() const { return stages_; }

  std::uint16_t port() const { return server_->port(); }
  TimingBackend& decorator() { return *decorator_; }

  std::string VerifyAnswers() const {
    std::string out = "verify";
    for (std::size_t i = 0; i < in_.verify_user.size(); ++i) {
      const std::optional<double> v = With([&](auto& svc) {
        return svc.PredictQoS(in_.verify_user[i], in_.verify_service[i]);
      });
      out += " " + Hex(v.value_or(std::nan("")));
    }
    std::vector<double> values(kVerifyManyWidth);
    for (std::size_t i = 0; i < in_.verify_many_user.size(); ++i) {
      const std::span<const amf::data::ServiceId> cands(
          in_.verify_many_services.data() + i * kVerifyManyWidth,
          kVerifyManyWidth);
      With([&](auto& svc) {
        return svc.PredictQoSMany(in_.verify_many_user[i], cands, values);
      });
      for (const double v : values) out += " " + Hex(v);
    }
    return out;
  }

  void AddMark(const std::string& label) {
    Mark m;
    m.label = label;
    m.t_ns = NowNs();
    m.snap = inner_->metrics().Snapshot();
    m.ps = Sums();
    m.calls = decorator_->counts();
    marks_.push_back(std::move(m));
  }

  void Shutdown() { server_->Shutdown(); }

  const Mark* FindMark(const std::string& label) const {
    for (const Mark& m : marks_) {
      if (m.label == label) return &m;
    }
    return nullptr;
  }

  Record Window(const Mark& a, const Mark& b) const {
    Record r;
    r.Set("secs", static_cast<double>(b.t_ns - a.t_ns) * 1e-9);
    auto in_window = [&](std::int64_t t) { return t >= a.t_ns && t < b.t_ns; };

    // Freshness: ack -> end of the first Tick that started after it.
    const std::span<const TickRecord> ticks = decorator_->ticks();
    std::vector<double> fresh_ms;
    std::size_t acks = 0;
    std::size_t next = 0;
    for (const std::int64_t ack : decorator_->acks()) {
      if (!in_window(ack)) continue;
      ++acks;
      while (next < ticks.size() && ticks[next].start_ns <= ack) ++next;
      if (next == ticks.size()) break;
      fresh_ms.push_back(static_cast<double>(ticks[next].end_ns - ack) * 1e-6);
    }
    r.Set("acks", static_cast<double>(acks));
    r.Set("fresh_n", static_cast<double>(fresh_ms.size()));
    r.Set("fresh_p50_ms", Or0(Pct(fresh_ms, 50.0)));
    r.Set("fresh_p99_ms", Or0(Pct(fresh_ms, 99.0)));

    std::vector<double> tick_ms;
    double busy_s = 0.0;
    for (const TickRecord& t : ticks) {
      if (!in_window(t.start_ns)) continue;
      tick_ms.push_back(static_cast<double>(t.end_ns - t.start_ns) * 1e-6);
      busy_s += tick_ms.back() * 1e-3;
    }
    r.Set("ticks", static_cast<double>(tick_ms.size()));
    r.Set("tick_ms_p50", Or0(Pct(tick_ms, 50.0)));
    r.Set("tick_ms_p99", Or0(Pct(tick_ms, 99.0)));
    r.Set("tick_busy_s", busy_s);

    // Backend call durations from the spans (one per pair call, grouped
    // back into calls by their shared start).
    std::vector<double> pair_us, many_us;
    double many_ns = 0.0, many_cands = 0.0;
    std::int64_t last_pair_start = -1;
    for (const Span& s : decorator_->spans()) {
      if (!in_window(s.start_ns)) continue;
      const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      if (s.kind == SpanKind::kPair) {
        if (s.start_ns == last_pair_start) continue;
        last_pair_start = s.start_ns;
        pair_us.push_back(us);
      } else {
        many_us.push_back(us);
        many_ns += us * 1e3;
        many_cands += s.n;
      }
    }
    r.Set("pairs_us_p50", Or0(Pct(pair_us, 50.0)));
    r.Set("pairs_us_p99", Or0(Pct(pair_us, 99.0)));
    r.Set("many_us_p50", Or0(Pct(many_us, 50.0)));
    r.Set("many_us_p99", Or0(Pct(many_us, 99.0)));
    r.Set("many_ns_per_candidate", many_cands > 0 ? many_ns / many_cands : 0);

    r.Set("pair_calls", D(b.calls.pair_calls - a.calls.pair_calls));
    r.Set("pair_items", D(b.calls.pair_items - a.calls.pair_items));
    r.Set("many_calls", D(b.calls.many_calls - a.calls.many_calls));
    r.Set("many_items", D(b.calls.many_items - a.calls.many_items));
    r.Set("reports", D(b.calls.reports - a.calls.reports));
    r.Set("sheds", D(b.calls.sheds - a.calls.sheds));

    r.Set("accepted", D(b.ps.accepted - a.ps.accepted));
    r.Set("rejected", D(b.ps.rejected - a.ps.rejected));
    r.Set("quarantined", D(b.ps.quarantined - a.ps.quarantined));
    r.Set("ring_dropped", D(b.ps.ring_dropped - a.ps.ring_dropped));
    r.Set("journal_appended",
          D(b.ps.journal_appended - a.ps.journal_appended));

    auto counter = [&](std::string_view name) {
      return D(b.snap.CounterValue(name) - a.snap.CounterValue(name));
    };
    r.Set("updates", counter("trainer.updates"));
    r.Set("facade_accepted", counter("pipeline.accepted"));
    r.Set("seqlock_retries", counter("predict.seqlock_retries"));
    r.Set("replica_rows", counter("replica.rows_refreshed"));
    r.Set("wal_fsyncs", counter("wal.fsyncs"));
    r.Set("merges", counter("shard.merges"));
    r.Set("protocol_errors", counter("serve.protocol_errors"));
    r.Set("slow_reader_drops", counter("serve.slow_reader_drops"));
    r.Set("serve_requests", counter("serve.requests"));
    r.Set("wal_append_ms_p50",
          1e3 * DeltaPercentile(a.snap, b.snap, "wal.append_seconds", 50.0));
    r.Set("wal_fsync_ms_p99",
          1e3 * DeltaPercentile(a.snap, b.snap, "wal.fsync_seconds", 99.0));
    r.Set("merge_ms_p50",
          1e3 * DeltaPercentile(a.snap, b.snap, "shard.merge_seconds", 50.0));
    return r;
  }

  Record Final() const {
    Record r;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // Peak RSS (KiB) less the decorator's record buffers, which are the
    // harness's and grow with run length. They only grow, so their final
    // size bounds what they added to the peak.
    r.Set("rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0 -
                        static_cast<double>(decorator_->record_bytes()) /
                            (1024.0 * 1024.0));
    const PipelineSums end = Sums();
    r.Set("identity_delta", D(end.identity() - base_.identity()));
    r.Set("decorator_acks", D(decorator_->acks().size()));
    r.Set("rejected_total", D(end.rejected));
    r.Set("quarantined_total", D(end.quarantined));
    r.Set("ring_dropped_total", D(end.ring_dropped - base_.ring_dropped));
    // The facade's pipeline.* callbacks are registered last-wins, so on
    // N shards METRICS shows one shard; this is how far it falls short
    // of the per-shard sum.
    const amf::obs::MetricsSnapshot snap = inner_->metrics().Snapshot();
    r.Set("metrics_last_wins_gap",
          static_cast<double>(end.accepted) -
              static_cast<double>(snap.CounterValue("pipeline.accepted")));
    r.Set("protocol_errors_total",
          D(snap.CounterValue("serve.protocol_errors")));
    r.Set("slow_reader_drops_total",
          D(snap.CounterValue("serve.slow_reader_drops")));
    r.Set("dropped_records", D(decorator_->dropped_records()));
    std::vector<double> report_ns(decorator_->report_ns().begin(),
                                  decorator_->report_ns().end());
    r.Set("report_ns_p50", Or0(Pct(report_ns, 50.0)));
    r.Set("reports_traced", D(report_ns.size()));
    return r;
  }

 private:
  static double D(std::uint64_t v) { return static_cast<double>(v); }
  static double Or0(double v) { return std::isnan(v) ? 0.0 : v; }

  template <typename Service>
  bool Prepare(Service& svc, std::string* error) {
    std::int64_t t = NowNs();
    auto stage = [&](double* seconds) {
      const std::int64_t now = NowNs();
      *seconds = static_cast<double>(now - t) * 1e-9;
      t = now;
    };
    for (std::size_t u = 0; u < w_.users; ++u) {
      if (svc.RegisterUser("u" + std::to_string(u)) != u) {
        *error = "user ids are not dense";
        return false;
      }
    }
    for (std::size_t s = 0; s < w_.services; ++s) {
      if (svc.RegisterService("s" + std::to_string(s)) != s) {
        *error = "service ids are not dense";
        return false;
      }
    }
    if (w_.journal) {
      amf::stream::JournalConfig jc;
      jc.directory = wal_dir_;
      jc.fsync_policy = *w_.journal;
      svc.EnableJournal(jc);
    }
    stage(&register_s_);
    // The ring holds 4096 per shard: drain it every 2048 reports.
    for (std::size_t i = 0; i < in_.warm.size(); ++i) {
      if (!svc.ReportObservation(in_.warm[i])) {
        *error = "warm-set observation shed";
        return false;
      }
      if (i % 2048 == 2047) svc.Tick(0.0);
    }
    stage(&ingest_s_);
    svc.TrainToConvergence(0.0);
    stage(&train_s_);
    return true;
  }

  PipelineSums Sums() const {
    PipelineSums s;
    if (single_ != nullptr) {
      s.Add(single_->pipeline_stats());
    } else {
      for (std::size_t i = 0; i < sharded_->num_shards(); ++i) {
        s.Add(sharded_->shard(i).pipeline_stats());
      }
    }
    return s;
  }

  const Inputs& in_;
  const Workload& w_;
  std::string wal_dir_;
  std::unique_ptr<amf::adapt::ConcurrentPredictionService> single_;
  std::unique_ptr<amf::adapt::ShardedPredictionService> sharded_;
  std::unique_ptr<amf::serve::Backend> inner_;
  std::unique_ptr<TimingBackend> decorator_;
  std::unique_ptr<amf::serve::Server> server_;
  PipelineSums base_;
  double register_s_ = 0.0, ingest_s_ = 0.0, train_s_ = 0.0;
  Record stages_;
  std::vector<Mark> marks_;
};

// "name=from,to" -> (name, from, to)
bool ParseWindow(const std::string& spec, std::string* name,
                 std::string* from, std::string* to) {
  const std::size_t eq = spec.find('=');
  const std::size_t comma = spec.find(',', eq);
  if (eq == std::string::npos || comma == std::string::npos) return false;
  *name = spec.substr(0, eq);
  *from = spec.substr(eq + 1, comma - eq - 1);
  *to = spec.substr(comma + 1);
  return true;
}

int Finish(Harness& h, LineChannel& ch, const std::string& args) {
  h.Shutdown();
  h.AddMark("shutdown");
  std::istringstream in(args);
  std::string spec, name, from, to;
  std::int64_t span_from = 0, span_to = -1;
  while (in >> spec) {
    if (!ParseWindow(spec, &name, &from, &to)) continue;
    const Mark* a = h.FindMark(from);
    const Mark* b = h.FindMark(to);
    if (a == nullptr || b == nullptr) {
      ch.WriteLine("error unknown mark in " + spec);
      return 1;
    }
    if (name == "spans") {
      span_from = a->t_ns;
      span_to = b->t_ns;
      continue;
    }
    ch.WriteLine("win " + name + " " + h.Window(*a, *b).text());
  }
  ch.WriteLine("final " + h.Final().text());
  std::vector<Span> spans;
  for (const Span& s : h.decorator().spans()) {
    if (s.start_ns >= span_from && s.start_ns < span_to) spans.push_back(s);
  }
  ch.WriteLine("spans " + std::to_string(spans.size()));
  ch.Write(std::string_view(reinterpret_cast<const char*>(spans.data()),
                            spans.size() * sizeof(Span)));
  ch.WriteLine("done");
  return 0;
}

}  // namespace

int RunSut(const Workload& workload, std::uint64_t seed,
           const std::string& wal_dir) {
  LineChannel ch(kCmdFd, kReplyFd);
  const Inputs in = MakeInputs(workload, seed);
  Harness h(in, wal_dir);
  ch.WriteLine("ready");
  std::string line;
  if (!ch.ReadLine(&line, kCommandTimeoutS) || line != "go") return 1;
  std::string error;
  if (!h.Setup(&error)) {
    ch.WriteLine("error " + error);
    return 1;
  }
  ch.WriteLine("port " + std::to_string(h.port()) + " " + h.stages().text());

  while (ch.ReadLine(&line, kCommandTimeoutS)) {
    const std::size_t sp = line.find(' ');
    const std::string cmd = line.substr(0, sp);
    const std::string args = sp == std::string::npos ? "" : line.substr(sp + 1);
    if (cmd == "pause") {
      h.decorator().PauseTraining();
      ch.WriteLine("ok");
    } else if (cmd == "resume") {
      h.decorator().ResumeTraining();
      ch.WriteLine("ok");
    } else if (cmd == "verify") {
      ch.WriteLine(h.VerifyAnswers());
    } else if (cmd == "keep-spans") {
      h.decorator().KeepSpans();
      ch.WriteLine("ok");
    } else if (cmd == "trace") {
      h.decorator().set_tracing(args == "1");
      ch.WriteLine("ok");
    } else if (cmd == "mark") {
      h.AddMark(args);
    } else if (cmd == "exit") {
      return 0;
    } else if (cmd == "finish") {
      return Finish(h, ch, args);
    } else {
      ch.WriteLine("error unknown command " + cmd);
      return 1;
    }
  }
  return 1;  // generator went away
}

}  // namespace perfbench
