// Load generator: one process, one thread, at most four connections.
//
// It pins itself to one CPU and the SUT harness it spawns to the rest,
// then drives the stock server over its wire protocol:
//
//   set-up      the SUT is started kSetupRuns times, on warm sets from
//               seeds derived from the run's; setup_s is the median time
//               from "go" to the first answered PING;
//   verify      training paused: PREDICT / PREDICT_MANY answers must be
//               bit-identical to the SUT's in-process calls;
//   warm-up     closed loop, not measured;
//   capacity    closed loop with a fixed number of requests outstanding
//               (read connections x pipeline depth); capacity_rps is the
//               median rate over short windows;
//   open        fixed offered rate on a spin-paced schedule; each request
//               is timed from when it was due; p50 (and, traced, p99) is
//               the median over 0.5 s windows of each window's percentile;
//   probe       (workloads without a feed) a short REPORT_OBS stream
//               after the read phases, so freshness is measured without
//               disturbing them.
//
// The REPORT_OBS feed of a mixed workload runs on its own connection on
// a fixed schedule through warm-up, capacity and open. A traced run
// splits capacity into an untraced and a traced half and records client
// spans in the open phase, joined afterwards to the decorator's spans.
#include "generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "channel.h"
#include "common/rng.h"
#include "core/amf_config.h"
#include "eval/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "stats.h"
#include "timing_backend.h"
#include "workload.h"

namespace perfbench {
namespace {

using amf::serve::DecodeFrame;
using amf::serve::DecodeResult;
using amf::serve::Frame;
using amf::serve::Status;

/// Set-ups per run. All but the last (which serves the run) use inputs
/// from their own seed derived from the run's, so setup_s is a median
/// over warm sets rather than one warm set's convergence epoch count.
constexpr int kSetupRuns = 41;
constexpr std::uint64_t kSetupSeedStream = 100;
constexpr double kSpawnTimeoutS = 120.0;
constexpr double kDrainTimeoutS = 5.0;
constexpr double kCapacityWindowS = 0.25;
constexpr double kLatencyWindowS = 0.5;
constexpr double kProbeSeconds = 1.5;
/// MRE sample: every kMreStride-th single-pair pool entry, or the first
/// kMreCandidates candidates of every PREDICT_MANY pool entry.
constexpr std::size_t kMreStride = 8;
constexpr std::size_t kMreCandidates = 4;
constexpr std::size_t kRing = std::size_t{1} << 18;  // in-flight slots

enum class Kind : std::uint8_t { kRead, kFeed, kVerifySingle, kVerifyMany };
enum Phase : std::uint8_t {
  kVerify, kWarmup, kCapacity, kCapacityTraced, kOpen, kProbe, kPhases
};

// ---------------------------------------------------------------------------
// Placement and the SUT process

struct Placement {
  std::vector<int> allowed, generator, sut;
  bool applied = false;
};

std::string CpuList(const std::vector<int>& cpus) {
  std::string s;
  for (const int c : cpus) s += (s.empty() ? "" : ",") + std::to_string(c);
  return s;
}

bool SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

Placement Place() {
  Placement p;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) p.allowed.push_back(c);
    }
  }
  if (p.allowed.size() >= 2) {
    p.generator = {p.allowed[0]};
    p.sut.assign(p.allowed.begin() + 1, p.allowed.end());
    p.applied = SetAffinity(p.generator);
  } else {
    p.generator = p.sut = p.allowed;
  }
  return p;
}

class SutProcess {
 public:
  SutProcess() = default;
  SutProcess(const SutProcess&) = delete;
  SutProcess& operator=(const SutProcess&) = delete;
  ~SutProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (to_fd_ >= 0) ::close(to_fd_);
    if (from_fd_ >= 0) ::close(from_fd_);
  }

  bool Spawn(const std::vector<std::string>& args,
             const std::vector<int>& cpus, bool pin) {
    int cmd[2], reply[2];
    if (::pipe2(cmd, O_CLOEXEC) != 0) return false;
    if (::pipe2(reply, O_CLOEXEC) != 0) {
      ::close(cmd[0]);
      ::close(cmd[1]);
      return false;
    }
    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (pin) SetAffinity(cpus);
      // Move the pipe ends to fds 3 (commands) and 4 (replies) via high
      // duplicates, so an end that already sits on 3 or 4 survives.
      const int in = ::fcntl(cmd[0], F_DUPFD_CLOEXEC, 10);
      const int out = ::fcntl(reply[1], F_DUPFD_CLOEXEC, 10);
      if (in < 0 || out < 0 || ::dup2(in, 3) < 0 || ::dup2(out, 4) < 0 ||
          ::dup2(2, 1) < 0) {
        ::_exit(127);
      }
      ::execv("/proc/self/exe", argv.data());
      ::_exit(127);
    }
    ::close(cmd[0]);
    ::close(reply[1]);
    if (pid < 0) {
      ::close(cmd[1]);
      ::close(reply[0]);
      return false;
    }
    pid_ = pid;
    to_fd_ = cmd[1];
    from_fd_ = reply[0];
    channel_ = std::make_unique<LineChannel>(from_fd_, to_fd_);
    return true;
  }

  LineChannel& channel() { return *channel_; }

  /// Waits for a clean exit (status 0) within `timeout_s`.
  bool WaitExit(double timeout_s) {
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (NowNs() < deadline) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ::usleep(1000);
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
  int to_fd_ = -1;
  int from_fd_ = -1;
  std::unique_ptr<LineChannel> channel_;
};

// ---------------------------------------------------------------------------
// Load engine

struct Pending {
  std::uint64_t id = 0;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::uint32_t index = 0;  ///< pool entry / verify index / feed number
  Kind kind = Kind::kRead;
  Phase phase = kVerify;
  bool live = false;
};

struct Conn {
  int fd = -1;
  std::string wbuf;
  std::size_t woff = 0;
  std::string rbuf;
  std::size_t reads_outstanding = 0;
};

struct PhaseStats {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<double> window_ok;             ///< capacity: OK reads/window
  std::vector<std::vector<double>> lat_ms;   ///< open: latency per window
  std::vector<double> late_ms;               ///< open: send - due
  std::uint64_t reads_ok = 0;
};

struct ClientSpan {
  std::int64_t due_ns, send_ns, recv_ns;
  std::uint32_t user, key;
};

struct Failures {
  std::uint64_t shed = 0, status = 0, invalid = 0, timeout = 0;
  std::uint64_t transport = 0, unexpected = 0;
  std::uint64_t total() const {
    return shed + status + invalid + timeout + transport + unexpected;
  }
};

class Engine {
 public:
  Engine(const Inputs& in, double r_max) : in_(in), w_(*in.workload),
        r_max_(r_max), ring_(kRing) {
    BuildTruth();
  }
  ~Engine() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  bool Connect(std::uint16_t port) {
    const bool feed = w_.feed_rps > 0.0;
    // A feed owns connection 0 and reads use the rest; a read-only
    // workload's freshness probe reuses connection 0 after the reads.
    const std::size_t total = w_.read_connections + (feed ? 1 : 0);
    for (std::size_t i = 0; i < total; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        ::close(fd);
        return false;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.emplace_back().fd = fd;
    }
    first_read_ = feed ? 1 : 0;
    return true;
  }

  std::size_t connections() const { return conns_.size(); }

  // --- Feed ---------------------------------------------------------------
  void StartFeed(double rps, std::int64_t start_ns) {
    feed_rps_ = rps;
    feed_start_ns_ = start_ns;
    feed_next_ = 0;
    feed_on_ = true;
  }
  void StopFeed() { feed_on_ = false; }

  // --- Phases -------------------------------------------------------------
  /// Starts phase `ph` now for `seconds`; returns its end time. Windows
  /// tile the phase exactly.
  std::int64_t BeginPhase(Phase ph, double seconds) {
    phase_ = ph;
    PhaseStats& s = stats_[ph];
    s.start_ns = NowNs();
    s.end_ns = s.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    auto windows = [&](double window_s) {
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(seconds / window_s + 1e-9));
    };
    s.window_ok.assign(windows(kCapacityWindowS), 0.0);
    s.lat_ms.assign(windows(kLatencyWindowS), {});
    return s.end_ns;
  }

  /// Closed loop for `seconds`: each of the first `closed_connections`
  /// read connections keeps `pipeline_depth` requests outstanding.
  bool RunClosed(Phase ph, double seconds) {
    const std::int64_t end_ns = BeginPhase(ph, seconds);
    for (;;) {
      const std::int64_t now = NowNs();
      if (now >= end_ns) break;
      PumpFeed(now);
      for (std::size_t c = first_read_;
           c < first_read_ + w_.closed_connections; ++c) {
        while (conns_[c].reads_outstanding < w_.pipeline_depth) {
          SendRead(c, now, now);
        }
      }
      if (!Pump()) return false;
    }
    return Drain(/*reads_only=*/true);
  }

  /// Open loop at `rps` for `seconds`, spin-paced on absolute due times.
  bool RunOpen(Phase ph, double seconds, double rps) {
    const std::int64_t end_ns = BeginPhase(ph, seconds);
    const std::int64_t start = stats_[ph].start_ns;
    const double period_ns = 1e9 / rps;
    std::uint64_t k = 0;
    std::size_t rr = 0;
    const std::size_t reads = conns_.size() - first_read_;
    auto due = [&] {
      return start +
             static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
    };
    while (due() < end_ns) {
      const std::int64_t now = NowNs();
      PumpFeed(now);
      for (std::int64_t d = due(); d <= now && d < end_ns; d = due()) {
        SendRead(first_read_ + (rr++ % reads), d, now);
        ++k;
      }
      if (!Pump()) return false;
    }
    return Drain(/*reads_only=*/true);
  }

  /// Only the feed runs (the freshness probe).
  bool RunIdle(Phase ph, double seconds) {
    const std::int64_t end_ns = BeginPhase(ph, seconds);
    for (std::int64_t now = NowNs(); now < end_ns; now = NowNs()) {
      PumpFeed(now);
      if (!Pump()) return false;
    }
    return true;
  }

  /// Sends the verification set on the first read connection and waits
  /// for every answer.
  bool RunVerify() {
    phase_ = kVerify;
    wire_single_.assign(kVerifySingles, std::nan(""));
    wire_many_.assign(kVerifyMany * kVerifyManyWidth, std::nan(""));
    const std::int64_t now = NowNs();
    Conn& c = conns_[first_read_];
    for (std::size_t i = 0; i < kVerifySingles; ++i) {
      const std::uint64_t id = Track(Kind::kVerifySingle, i, now, now);
      amf::serve::AppendPredictRequest(c.wbuf, id, in_.verify_user[i],
                                       in_.verify_service[i]);
    }
    for (std::size_t i = 0; i < kVerifyMany; ++i) {
      const std::uint64_t id = Track(Kind::kVerifyMany, i, now, now);
      amf::serve::AppendPredictManyRequest(
          c.wbuf, id, in_.verify_many_user[i],
          std::span<const amf::data::ServiceId>(
              in_.verify_many_services.data() + i * kVerifyManyWidth,
              kVerifyManyWidth));
    }
    return Drain(/*reads_only=*/false);
  }

  /// Compares the wire answers with the SUT's in-process ones ("verify"
  /// reply). Returns the number of requests whose answer differs.
  std::uint64_t CountMismatches(const std::string& reply) const {
    std::istringstream in(reply);
    std::string tok;
    in >> tok;  // "verify"
    std::vector<std::uint64_t> bits;
    while (in >> tok) bits.push_back(std::stoull(tok, nullptr, 16));
    if (bits.size() != wire_single_.size() + wire_many_.size()) {
      return kVerifySingles + kVerifyMany;
    }
    // A missing or invalid wire answer is already counted as invalid.
    auto same = [&](double wire, std::uint64_t expected) {
      std::uint64_t b = 0;
      std::memcpy(&b, &wire, sizeof(b));
      return b == expected || !std::isfinite(wire);
    };
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < wire_single_.size(); ++i) {
      if (!same(wire_single_[i], bits[i])) ++mismatches;
    }
    for (std::size_t r = 0; r < kVerifyMany; ++r) {
      for (std::size_t j = 0; j < kVerifyManyWidth; ++j) {
        const std::size_t i = r * kVerifyManyWidth + j;
        if (!same(wire_many_[i], bits[wire_single_.size() + i])) {
          ++mismatches;
          break;
        }
      }
    }
    return mismatches;
  }

  /// Waits until no read (or, with reads_only false, no request at all)
  /// is outstanding; the feed keeps its schedule meanwhile. Anything
  /// still outstanding at the deadline counts as timed out.
  bool Drain(bool reads_only) {
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
    for (;;) {
      const std::size_t waiting =
          reads_outstanding_ + (reads_only ? 0 : other_outstanding_);
      if (waiting == 0) return true;
      const std::int64_t now = NowNs();
      if (now >= deadline) break;
      PumpFeed(now);
      if (!Pump()) return false;
    }
    for (Pending& p : ring_) {
      if (p.live && (!reads_only || p.kind == Kind::kRead)) {
        Fail(p, &fail_.timeout);
      }
    }
    return false;
  }

  // --- Results ------------------------------------------------------------
  const PhaseStats& stats(Phase ph) const { return stats_[ph]; }
  /// MRE/NPRE (eval::ComputeMetrics) over the sampled served answers.
  amf::eval::Metrics errors() const {
    return amf::eval::ComputeMetrics(sampled_pred_, sampled_truth_);
  }
  std::size_t error_samples() const { return sampled_pred_.size(); }
  const Failures& failures() const { return fail_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t feed_acks() const { return feed_acks_; }
  const std::vector<ClientSpan>& client_spans() const {
    return client_spans_;
  }
  void set_record_spans(bool on) { record_spans_ = on; }

 private:
  void BuildTruth() {
    // Truth for every sampled pool entry at every slice the run can
    // reach, precomputed before any request is sent.
    const bool single = w_.candidates == 0;
    for (std::size_t p = 0; p < in_.pool_size(); ++p) {
      if (single && p % kMreStride != 0) continue;
      const std::size_t n = single ? 1 : std::min(kMreCandidates, in_.width);
      for (std::size_t j = 0; j < n; ++j) {
        sample_pairs_.emplace_back(in_.pool_user[p],
                                   in_.pool_services[p * in_.width + j]);
      }
    }
    // The feed runs at most ~70 s; slices beyond that wrap in SliceAt.
    const std::size_t slices = w_.feed_rps > 0.0 ? 64 : 1;
    truth_.resize(slices);
    for (std::size_t t = 0; t < slices; ++t) {
      truth_[t].reserve(sample_pairs_.size());
      for (const auto& [u, s] : sample_pairs_) {
        truth_[t].push_back(
            in_.Truth(u, s, static_cast<amf::data::SliceId>(t)));
      }
    }
  }

  std::uint64_t Track(Kind kind, std::size_t index, std::int64_t due,
                      std::int64_t now) {
    const std::uint64_t id = next_id_++;
    Pending& p = ring_[id & (kRing - 1)];
    if (p.live) Fail(p, &fail_.timeout);  // wrapped: never answered
    p = Pending{id, due, now, static_cast<std::uint32_t>(index), kind, phase_,
                true};
    ++attempted_;
    if (kind == Kind::kRead) {
      ++reads_outstanding_;
    } else {
      ++other_outstanding_;
    }
    return id;
  }

  void Retire(Pending& p) {
    p.live = false;
    if (p.kind == Kind::kRead) {
      --reads_outstanding_;
      --conns_[conn_of_[p.id & (kRing - 1)]].reads_outstanding;
    } else {
      --other_outstanding_;
    }
  }

  void Fail(Pending& p, std::uint64_t* counter) {
    ++*counter;
    Retire(p);
  }

  void SendRead(std::size_t conn, std::int64_t due, std::int64_t now) {
    const std::uint64_t k = read_next_++;
    const std::size_t p = k % in_.pool_size();
    conn_of_[next_id_ & (kRing - 1)] = static_cast<std::uint8_t>(conn);
    const std::uint64_t id = Track(Kind::kRead, p, due, now);
    ++conns_[conn].reads_outstanding;
    AppendRead(in_, k, id, &conns_[conn].wbuf);
  }

  void PumpFeed(std::int64_t now) {
    if (!feed_on_) return;
    for (;;) {
      const auto due = feed_start_ns_ +
                       static_cast<std::int64_t>(
                           static_cast<double>(feed_next_) * 1e9 / feed_rps_);
      if (due > now) return;
      const std::uint64_t id = Track(Kind::kFeed, 0, due, now);
      AppendFeed(in_, feed_next_, feed_rps_, id, &conns_[0].wbuf);
      ++feed_next_;
    }
  }

  /// One pass: flush every write buffer, read every socket, handle the
  /// responses. False on a dead connection.
  bool Pump() {
    for (Conn& c : conns_) {
      while (c.woff < c.wbuf.size()) {
        const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                                 c.wbuf.size() - c.woff, MSG_NOSIGNAL);
        if (n > 0) {
          c.woff += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return Dead();
      }
      if (c.woff == c.wbuf.size()) {
        c.wbuf.clear();
        c.woff = 0;
      }
    }
    char buf[1 << 16];
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      Conn& c = conns_[ci];
      bool got = false;
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.rbuf.append(buf, static_cast<std::size_t>(n));
          got = true;
          if (static_cast<std::size_t>(n) == sizeof(buf)) continue;
          break;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return Dead();  // EOF or reset: the SUT went away
      }
      if (got && !HandleBuffered(c, NowNs())) return Dead();
    }
    return true;
  }

  bool Dead() {
    for (Pending& p : ring_) {
      if (p.live) Fail(p, &fail_.transport);
    }
    return false;
  }

  bool HandleBuffered(Conn& c, std::int64_t now) {
    std::size_t off = 0;
    while (off < c.rbuf.size()) {
      Frame frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeResult r = DecodeFrame(
          std::string_view(c.rbuf).substr(off), &frame, &consumed, &error);
      if (r == DecodeResult::kNeedMore) break;
      if (r == DecodeResult::kProtocolError) return false;
      Handle(frame, now);
      off += consumed;
    }
    c.rbuf.erase(0, off);
    return true;
  }

  bool InRange(double v) const {
    return std::isfinite(v) && v > 0.0 && v <= r_max_;
  }

  void Handle(const Frame& frame, std::int64_t now) {
    const std::uint64_t id = frame.header.request_id;
    Pending& p = ring_[id & (kRing - 1)];
    if (!frame.header.is_response || !p.live || p.id != id) {
      ++fail_.unexpected;
      return;
    }
    const bool ok_status = frame.header.status == Status::kOk;
    switch (p.kind) {
      case Kind::kFeed:
        if (ok_status) {
          ++feed_acks_;
          ++ok_;
        } else {
          ++(frame.header.status == Status::kShed ? fail_.shed : fail_.status);
        }
        Retire(p);
        return;
      case Kind::kVerifySingle: {
        double v = std::nan("");
        if (ok_status && amf::serve::ParsePredictResponse(frame.payload, &v) &&
            InRange(v)) {
          wire_single_[p.index] = v;
          ++ok_;  // a mismatch found later is moved to the failures
        } else {
          ++fail_.invalid;
        }
        Retire(p);
        return;
      }
      case Kind::kVerifyMany: {
        bool valid = ok_status && amf::serve::ParsePredictManyResponse(
                                      frame.payload, &values_) &&
                     values_.size() == kVerifyManyWidth;
        for (std::size_t j = 0; valid && j < values_.size(); ++j) {
          valid = InRange(values_[j]);
          wire_many_[p.index * kVerifyManyWidth + j] = values_[j];
        }
        ++(valid ? ok_ : fail_.invalid);
        Retire(p);
        return;
      }
      case Kind::kRead:
        break;
    }

    // A read.
    bool valid = ok_status;
    double single = 0.0;
    if (valid && w_.candidates == 0) {
      valid = amf::serve::ParsePredictResponse(frame.payload, &single) &&
              InRange(single);
    } else if (valid) {
      valid = amf::serve::ParsePredictManyResponse(frame.payload, &values_) &&
              values_.size() == in_.width;
      for (std::size_t j = 0; valid && j < values_.size(); ++j) {
        valid = InRange(values_[j]);
      }
    }
    const Phase ph = p.phase;
    const std::int64_t due = p.due_ns, sent = p.send_ns;
    const std::size_t pool = p.index;
    Retire(p);
    if (!valid) {
      ++(ok_status ? fail_.invalid : fail_.status);
      return;
    }
    ++ok_;
    PhaseStats& s = stats_[ph];
    ++s.reads_ok;
    if (ph == kCapacity || ph == kCapacityTraced) {
      if (now < s.end_ns) {
        const auto w = static_cast<std::size_t>(
            static_cast<double>(now - s.start_ns) * 1e-9 / kCapacityWindowS);
        s.window_ok[std::min(w, s.window_ok.size() - 1)] += 1.0;
      }
    } else if (ph == kOpen) {
      const auto w = static_cast<std::size_t>(
          static_cast<double>(due - s.start_ns) * 1e-9 / kLatencyWindowS);
      s.lat_ms[std::min(w, s.lat_ms.size() - 1)].push_back(
          static_cast<double>(now - due) * 1e-6);
      s.late_ms.push_back(static_cast<double>(sent - due) * 1e-6);
      if (record_spans_) {
        client_spans_.push_back(ClientSpan{
            due, sent, now, in_.pool_user[pool],
            in_.pool_services[pool * in_.width]});
      }
    }
    if (ph == kCapacity || ph == kCapacityTraced || ph == kOpen) {
      SampleErrors(pool, single, now);
    }
  }

  void SampleErrors(std::size_t pool, double single, std::int64_t now) {
    const bool one = w_.candidates == 0;
    if (one && pool % kMreStride != 0) return;
    const std::size_t t =
        feed_on_ && w_.feed_rps > 0.0
            ? in_.SliceAt(static_cast<double>(now - feed_start_ns_) * 1e-9)
            : 0;
    const std::vector<double>& truth = truth_[std::min(t, truth_.size() - 1)];
    if (one) {
      sampled_pred_.push_back(single);
      sampled_truth_.push_back(truth[pool / kMreStride]);
      return;
    }
    const std::size_t n = std::min(kMreCandidates, in_.width);
    for (std::size_t j = 0; j < n; ++j) {
      sampled_pred_.push_back(values_[j]);
      sampled_truth_.push_back(truth[pool * n + j]);
    }
  }

  const Inputs& in_;
  const Workload& w_;
  double r_max_;
  std::vector<Pending> ring_;
  std::vector<std::uint8_t> conn_of_ = std::vector<std::uint8_t>(kRing, 0);
  std::vector<Conn> conns_;
  std::size_t first_read_ = 0;
  Phase phase_ = kVerify;
  PhaseStats stats_[kPhases];

  std::uint64_t next_id_ = 1;
  std::uint64_t read_next_ = 0;
  std::size_t reads_outstanding_ = 0;
  std::size_t other_outstanding_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t feed_acks_ = 0;
  Failures fail_;

  bool feed_on_ = false;
  double feed_rps_ = 0.0;
  std::int64_t feed_start_ns_ = 0;
  std::uint64_t feed_next_ = 0;

  std::vector<double> values_;
  std::vector<double> wire_single_, wire_many_;
  std::vector<std::pair<amf::data::UserId, amf::data::ServiceId>> sample_pairs_;
  std::vector<std::vector<double>> truth_;  ///< [slice][sample]
  std::vector<double> sampled_pred_, sampled_truth_;
  bool record_spans_ = false;
  std::vector<ClientSpan> client_spans_;
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

std::string JsonNumber(double v) {
  char tmp[64];
  std::snprintf(tmp, sizeof(tmp), "%.17g", std::isfinite(v) ? v : 0.0);
  return tmp;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// Ordered JSON object builder (values are pre-rendered JSON).
class JsonObject {
 public:
  JsonObject& Raw(std::string_view key, std::string_view json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " +
             std::string(json);
    return *this;
  }
  JsonObject& Num(std::string_view key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(std::string_view key, std::string_view v) {
    return Raw(key, JsonString(v));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double SafeDiv(double a, double b) { return b != 0.0 ? a / b : 0.0; }

struct Join {
  std::uint64_t joined = 0;
  std::vector<double> pre_us, post_us, call_us, total_ms;
};

/// Joins each client span to the decorator span of the same request: same
/// (user, key) and a call that started between the client's send and
/// receive.
Join JoinSpans(const std::vector<ClientSpan>& client, std::vector<Span> dec) {
  auto key = [](std::uint32_t u, std::uint32_t k) {
    return (std::uint64_t{u} << 32) | k;
  };
  std::sort(dec.begin(), dec.end(), [&](const Span& a, const Span& b) {
    const std::uint64_t ka = key(a.user, a.key), kb = key(b.user, b.key);
    return ka != kb ? ka < kb : a.start_ns < b.start_ns;
  });
  Join j;
  for (const ClientSpan& c : client) {
    const std::uint64_t k = key(c.user, c.key);
    auto it = std::lower_bound(
        dec.begin(), dec.end(), std::make_pair(k, c.send_ns),
        [&](const Span& s, const std::pair<std::uint64_t, std::int64_t>& v) {
          const std::uint64_t ks = key(s.user, s.key);
          return ks != v.first ? ks < v.first : s.start_ns < v.second;
        });
    if (it == dec.end() || key(it->user, it->key) != k ||
        it->start_ns > c.recv_ns) {
      continue;
    }
    ++j.joined;
    j.pre_us.push_back(static_cast<double>(it->start_ns - c.send_ns) * 1e-3);
    j.call_us.push_back(static_cast<double>(it->end_ns - it->start_ns) * 1e-3);
    j.post_us.push_back(static_cast<double>(c.recv_ns - it->end_ns) * 1e-3);
    j.total_ms.push_back(static_cast<double>(c.recv_ns - c.due_ns) * 1e-6);
  }
  return j;
}

struct SutReport {
  std::map<std::string, std::map<std::string, double>> windows;
  std::map<std::string, double> final;
  std::vector<Span> spans;
};

bool ReadReport(LineChannel& ch, SutReport* out, std::string* error) {
  std::string line;
  for (;;) {
    if (!ch.ReadLine(&line, kSpawnTimeoutS)) {
      *error = "SUT report cut short";
      return false;
    }
    if (line.rfind("win ", 0) == 0) {
      std::istringstream in(line.substr(4));
      std::string name;
      in >> name;
      out->windows[name] = Record::Parse(line.substr(4 + name.size()));
    } else if (line.rfind("final ", 0) == 0) {
      out->final = Record::Parse(line.substr(6));
    } else if (line.rfind("spans ", 0) == 0) {
      const std::size_t n = std::stoull(line.substr(6));
      out->spans.resize(n);
      if (!ch.ReadBytes(out->spans.data(), n * sizeof(Span), kSpawnTimeoutS)) {
        *error = "SUT spans cut short";
        return false;
      }
    } else if (line == "done") {
      return true;
    } else {
      *error = "SUT: " + line;
      return false;
    }
  }
}

/// Starts the SUT `runs` times, timing each set-up from "go" to the first
/// answered PING into *setup_s, with the SUT's own stage timings in
/// *stages; every instance but the last exits at once. The last runs on
/// the run's seed, the others on seeds derived from it.
std::unique_ptr<SutProcess> StartSut(
    const GeneratorOptions& opt, const Placement& placement, int runs,
    std::vector<double>* setup_s,
    std::vector<std::map<std::string, double>>* stages, std::uint16_t* port) {
  std::unique_ptr<SutProcess> proc;
  for (int i = 0; i < runs; ++i) {
    proc = std::make_unique<SutProcess>();
    const std::string wal = opt.work_dir + "/wal-" + std::to_string(i);
    const std::uint64_t seed =
        i + 1 == runs ? opt.seed
                      : amf::common::DeriveSeed(opt.seed, kSetupSeedStream + i);
    if (!proc->Spawn({"perfbench", "sut", "--workload", opt.workload,
                      "--seed", std::to_string(seed), "--wal-dir", wal},
                     placement.sut, placement.applied)) {
      std::cerr << "perfbench: cannot start the SUT\n";
      return nullptr;
    }
    LineChannel& ch = proc->channel();
    std::string line;
    if (!ch.ReadLine(&line, kSpawnTimeoutS) || line != "ready") {
      std::cerr << "perfbench: SUT did not start: " << line << "\n";
      return nullptr;
    }
    const std::int64_t t0 = NowNs();
    ch.WriteLine("go");
    if (!ch.ReadLine(&line, kSpawnTimeoutS) || line.rfind("port ", 0) != 0) {
      std::cerr << "perfbench: SUT set-up failed: " << line << "\n";
      return nullptr;
    }
    *port = static_cast<std::uint16_t>(std::stoi(line.substr(5)));
    stages->push_back(Record::Parse(line));
    amf::serve::Client client;
    if (!client.ConnectWithRetry("127.0.0.1", *port, 10.0) || !client.Ping()) {
      std::cerr << "perfbench: SUT does not answer PING\n";
      return nullptr;
    }
    setup_s->push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (i + 1 < runs) {
      client.Close();
      ch.WriteLine("exit");
      if (!proc->WaitExit(30.0)) {
        std::cerr << "perfbench: set-up instance did not exit cleanly\n";
        return nullptr;
      }
    }
  }
  return proc;
}

/// Sends `command` and expects "ok".
bool Command(LineChannel& ch, const std::string& command) {
  std::string line;
  return ch.WriteLine(command) && ch.ReadLine(&line, kSpawnTimeoutS) &&
         line == "ok";
}

/// Capacity: the median OK-read rate over a closed-loop phase's windows.
double MedianRate(const PhaseStats& s) {
  std::vector<double> rates;
  for (const double n : s.window_ok) rates.push_back(n / kCapacityWindowS);
  return MedianOf(rates);
}

/// Open-loop latency: medians over windows of each window's percentile,
/// plus the p99.9 of all samples.
struct Latency {
  double p50 = 0, p95 = 0, p99 = 0, p999 = 0;
  std::size_t samples = 0, windows = 0;
  std::vector<double> window_p99;
};

Latency Summarize(const PhaseStats& open) {
  std::vector<double> p50s, p95s, p99s, all;
  for (const std::vector<double>& win : open.lat_ms) {
    if (win.empty()) continue;
    p50s.push_back(Pct(win, 50.0));
    p95s.push_back(Pct(win, 95.0));
    p99s.push_back(Pct(win, 99.0));
    all.insert(all.end(), win.begin(), win.end());
  }
  return Latency{MedianOf(p50s), MedianOf(p95s), MedianOf(p99s),
                 Pct(all, 99.9), all.size(), p50s.size(), p99s};
}

using Values = std::map<std::string, double>;

double Get(const Values& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// The metrics of one run, with their sample counts.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           double samples) {
    metrics_.push_back(Metric{name, value, unit,
                              static_cast<std::uint64_t>(samples)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Everything a run measured, for the metric formulas below.
struct Outcome {
  const Engine* eng = nullptr;
  SutReport rep;
  std::vector<double> setup_s;
  std::vector<Values> setup_stages;  // the SUT's own timings, per set-up
  Latency open;
  double ok_rate = 0.0;
};

void AddEndToEnd(const Outcome& o, MetricSet* m) {
  const Engine& eng = *o.eng;
  const Values& fresh = o.rep.windows.at("fresh");
  m->Add("setup_s", MedianOf(o.setup_s), "s", o.setup_s.size());
  m->Add("capacity_rps", MedianRate(eng.stats(kCapacity)), "req/s",
         eng.stats(kCapacity).window_ok.size());
  m->Add("p50_ms", o.open.p50, "ms", o.open.samples);
  m->Add("ok_rate", o.ok_rate, "ratio", eng.attempted());
  const amf::eval::Metrics acc = eng.errors();
  m->Add("mre", acc.mre, "ratio", eng.error_samples());
  m->Add("npre", acc.npre, "ratio", eng.error_samples());
  m->Add("fresh_p50_ms", Get(fresh, "fresh_p50_ms"), "ms",
         Get(fresh, "fresh_n"));
  m->Add("rss_mb", Get(o.rep.final, "rss_mb"), "MiB", 1);
}

void AddPerLayer(const Outcome& o, MetricSet* m) {
  const Engine& eng = *o.eng;
  const Values& ow = o.rep.windows.at("open");   // open phase, traced
  const Values& cw = o.rep.windows.at("capt");   // traced capacity half
  const Values& fresh = o.rep.windows.at("fresh");
  const Values& fin = o.rep.final;
  const PhaseStats& open = eng.stats(kOpen);
  const Join j = JoinSpans(eng.client_spans(), o.rep.spans);
  const double secs = Get(ow, "secs");
  const double busy = Get(ow, "tick_busy_s");
  const double ticks = Get(ow, "ticks");
  const double updates = Get(ow, "updates");
  const double calls = Get(ow, "pair_calls") + Get(ow, "many_calls");
  const double capt_calls = Get(cw, "pair_calls") + Get(cw, "many_calls");
  const double pre = Pct(j.pre_us, 50.0);
  const double call = Pct(j.call_us, 50.0);
  const double post = Pct(j.post_us, 50.0);
  const double joined_p50_us = 1e3 * Pct(j.total_ms, 50.0);
  const double untraced = MedianRate(eng.stats(kCapacity));
  const double traced = MedianRate(eng.stats(kCapacityTraced));
  const double clients = static_cast<double>(eng.client_spans().size());

  m->Add("client.late_p99_ms", Pct(open.late_ms, 99.0), "ms",
         open.late_ms.size());
  m->Add("client.p99_ms", o.open.p99, "ms", o.open.samples);
  m->Add("client.p999_ms", o.open.p999, "ms", o.open.samples);
  m->Add("serve.pre_us_p50", pre, "us", j.joined);
  m->Add("serve.pre_us_p99", Pct(j.pre_us, 99.0), "us", j.joined);
  m->Add("serve.post_us_p50", post, "us", j.joined);
  m->Add("serve.batch_mean",
         SafeDiv(Get(ow, "pair_items") + Get(ow, "many_calls"), calls),
         "req/call", calls);
  m->Add("serve.backend_calls_per_s", SafeDiv(capt_calls, Get(cw, "secs")),
         "1/s", capt_calls);
  m->Add("serve.protocol_errors", Get(fin, "protocol_errors_total"), "count",
         1);
  m->Add("serve.slow_reader_drops", Get(fin, "slow_reader_drops_total"),
         "count", 1);
  m->Add("adapt.pairs_us_p50", Get(ow, "pairs_us_p50"), "us",
         Get(ow, "pair_calls"));
  m->Add("adapt.pairs_us_p99", Get(ow, "pairs_us_p99"), "us",
         Get(ow, "pair_calls"));
  m->Add("adapt.many_us_p50", Get(ow, "many_us_p50"), "us",
         Get(ow, "many_calls"));
  m->Add("adapt.many_us_p99", Get(ow, "many_us_p99"), "us",
         Get(ow, "many_calls"));
  m->Add("adapt.many_ns_per_candidate", Get(ow, "many_ns_per_candidate"),
         "ns", Get(ow, "many_items"));
  m->Add("adapt.report_ns_p50", Get(fin, "report_ns_p50"), "ns",
         Get(fin, "reports_traced"));
  m->Add("adapt.shed", Get(fin, "ring_dropped_total"), "count", 1);
  m->Add("adapt.tick_ms_p50", Get(ow, "tick_ms_p50"), "ms", ticks);
  m->Add("adapt.tick_ms_p99", Get(ow, "tick_ms_p99"), "ms", ticks);
  m->Add("adapt.tick_busy_share", SafeDiv(busy, secs), "ratio", ticks);
  m->Add("adapt.tick_obs_per_busy_s", SafeDiv(Get(ow, "accepted"), busy),
         "1/s", ticks);
  m->Add("adapt.fresh_p99_ms", Get(fresh, "fresh_p99_ms"), "ms",
         Get(fresh, "fresh_n"));
  m->Add("adapt.merge_ms_p50", Get(ow, "merge_ms_p50"), "ms",
         Get(ow, "merges"));
  m->Add("adapt.metrics_last_wins_gap", Get(fin, "metrics_last_wins_gap"),
         "count", 1);
  m->Add("core.updates_per_s", SafeDiv(updates, secs), "1/s", ticks);
  // Updates beyond the accepted observations are replays.
  m->Add("core.replay_share",
         SafeDiv(std::max(0.0, updates - Get(ow, "facade_accepted")),
                 updates),
         "ratio", updates);
  m->Add("core.seqlock_retries_per_kreq",
         SafeDiv(Get(ow, "seqlock_retries"),
                 static_cast<double>(open.reads_ok) / 1e3),
         "1/kreq", static_cast<double>(open.reads_ok));
  m->Add("core.replica_rows_per_tick", SafeDiv(Get(ow, "replica_rows"), ticks),
         "rows", ticks);
  m->Add("core.rejected", Get(fin, "rejected_total"), "count", 1);
  m->Add("stream.append_ms_p50", Get(ow, "wal_append_ms_p50"), "ms",
         Get(ow, "journal_appended"));
  m->Add("stream.fsync_ms_p99", Get(ow, "wal_fsync_ms_p99"), "ms",
         Get(ow, "wal_fsyncs"));
  m->Add("stream.fsyncs_per_s", SafeDiv(Get(ow, "wal_fsyncs"), secs), "1/s",
         Get(ow, "wal_fsyncs"));
  m->Add("obs.trace_overhead_pct", 100.0 * SafeDiv(untraced - traced, untraced),
         "%",
         static_cast<double>(eng.stats(kCapacity).window_ok.size() +
                             eng.stats(kCapacityTraced).window_ok.size()));
  m->Add("trace.joined_share", SafeDiv(static_cast<double>(j.joined), clients),
         "ratio", clients);
  // Layer budget: pre + call + post medians against the joined requests'
  // own client p50 (medians of parts need not sum to the whole's).
  m->Add("trace.budget_gap_pct",
         100.0 * SafeDiv(pre + call + post - joined_p50_us, joined_p50_us),
         "%", j.joined);
}

std::string JsonList(const std::vector<std::string>& rendered) {
  std::string out = "[";
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    out += (i ? ", " : "") + rendered[i];
  }
  return out + "]";
}

}  // namespace

int RunGenerator(const GeneratorOptions& opt) {
  const Workload& w = *FindWorkload(opt.workload);
  const Placement placement = Place();
  const Inputs in = MakeInputs(w, opt.seed);
  const double r_max = amf::core::MakeResponseTimeConfig().transform.r_max;
  ::mkdir(opt.work_dir.c_str(), 0755);

  Outcome o;
  const int setup_runs = opt.trace ? 1 : kSetupRuns;
  std::uint16_t port = 0;
  const std::unique_ptr<SutProcess> sut =
      StartSut(opt, placement, setup_runs, &o.setup_s, &o.setup_stages, &port);
  if (sut == nullptr) return 1;
  LineChannel& ch = sut->channel();
  Engine eng(in, r_max);
  o.eng = &eng;
  if (!eng.Connect(port)) {
    std::cerr << "perfbench: cannot connect\n";
    return 1;
  }

  // --- Verification with training paused. -------------------------------
  if (!Command(ch, "pause")) return 1;
  const bool verify_sent = eng.RunVerify();
  std::string line;
  if (!ch.WriteLine("verify") || !ch.ReadLine(&line, kSpawnTimeoutS)) return 1;
  const std::uint64_t mismatches =
      verify_sent ? eng.CountMismatches(line) : kVerifySingles + kVerifyMany;
  if (!Command(ch, "resume")) return 1;

  // --- Load phases. -------------------------------------------------------
  const double warm_s = std::max(0.5, 0.1 * opt.seconds);
  const double cap_s = 0.4 * opt.seconds;
  const double open_s = 0.5 * opt.seconds;
  const bool feed = w.feed_rps > 0.0;
  bool ok = true;  // no transport failure or timeout so far
  auto mark = [&](const std::string& label) { ch.WriteLine("mark " + label); };

  if (feed) eng.StartFeed(w.feed_rps, NowNs());
  ok = ok && eng.RunClosed(kWarmup, warm_s);
  mark("cap");
  // A traced run halves the capacity phase and traces the open phase and
  // the second half; the open phase comes first so its spans are the ones
  // that fit the decorator's span buffer.
  ok = ok && eng.RunClosed(kCapacity, opt.trace ? cap_s / 2 : cap_s);
  mark("open");
  if (opt.trace && !Command(ch, "trace 1")) return 1;
  eng.set_record_spans(opt.trace);
  ok = ok && eng.RunOpen(kOpen, open_s, w.open_rps);
  eng.set_record_spans(false);
  if (opt.trace) {
    // The open phase's spans are the ones joined; the traced capacity
    // half only needs tracing to cost what it costs.
    if (!Command(ch, "keep-spans")) return 1;
    mark("capt");
    ok = ok && eng.RunClosed(kCapacityTraced, cap_s / 2);
  }
  if (feed) {
    eng.StopFeed();
    ok = ok && eng.Drain(/*reads_only=*/false);
  }
  mark("post");
  if (!feed) {
    // Freshness probe: the read phases are over, so it disturbs nothing.
    mark("probe");
    eng.StartFeed(kProbeRps, NowNs());
    ok = ok && eng.RunIdle(kProbe, kProbeSeconds);
    eng.StopFeed();
    ok = ok && eng.Drain(/*reads_only=*/false);
    mark("probe_end");
  }
  std::string finish =
      feed ? "finish fresh=cap,post" : "finish fresh=probe,probe_end";
  finish += opt.trace ? " open=open,capt capt=capt,post spans=open,capt"
                      : " open=open,post";
  ch.WriteLine(finish);
  std::string error;
  if (!ReadReport(ch, &o.rep, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 1;
  }

  // --- Gates: each violation fails the run and counts against ok_rate. ----
  std::vector<std::string> problems;
  if (!sut->WaitExit(30.0)) problems.push_back("SUT did not exit cleanly");
  const Values& fin = o.rep.final;
  const Failures& f = eng.failures();
  const double acks = static_cast<double>(eng.feed_acks());
  const double conservation_gap = std::abs(Get(fin, "identity_delta") - acks);
  const double rejected = Get(fin, "rejected_total");
  const double proto = Get(fin, "protocol_errors_total");
  const double drops = Get(fin, "slow_reader_drops_total");
  if (!ok) problems.push_back("transport failure or timeout");
  if (mismatches > 0) {
    problems.push_back("verification mismatches: " +
                       std::to_string(mismatches));
  }
  if (conservation_gap != 0.0) {
    problems.push_back("conservation: acks != per-shard identity");
  }
  if (Get(fin, "decorator_acks") != acks) {
    problems.push_back("conservation: acks != decorator acks");
  }
  if (rejected > 0) problems.push_back("validator rejections");
  if (proto > 0) problems.push_back("protocol errors");
  if (drops > 0) problems.push_back("slow-reader drops");
  if (f.total() - f.shed > 0) problems.push_back("failed or invalid answers");
  const double attempted = static_cast<double>(eng.attempted());
  const double failed =
      std::min(attempted, static_cast<double>(f.total() + mismatches) +
                              conservation_gap + rejected + proto + drops);
  o.ok_rate = (attempted - failed) / attempted;
  o.open = Summarize(eng.stats(kOpen));

  MetricSet metrics;
  if (opt.trace) {
    AddPerLayer(o, &metrics);
  } else {
    AddEndToEnd(o, &metrics);
  }
  JsonObject samples, metric_json;
  for (const Metric& m : metrics.metrics()) {
    if (!std::isfinite(m.value)) {
      problems.push_back("metric " + m.name + " is not finite");
    }
    samples.Num(m.name, static_cast<double>(m.samples));
    metric_json.Raw(
        m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }

  // A generator running later than the SUT answers measures itself, not
  // the SUT: such a run is void. That is a property of the measurement,
  // not of the outputs, so it is flagged in the metadata only.
  const double late_p99 = Pct(eng.stats(kOpen).late_ms, 99.0);
  const bool valid = !(late_p99 > o.open.p50);

  // --- Metadata line, then the result line. -------------------------------
  std::vector<std::string> windows, problem_list;
  for (const double n : eng.stats(kCapacity).window_ok) {
    windows.push_back(JsonNumber(n / kCapacityWindowS));
  }
  for (const std::string& p : problems) problem_list.push_back(JsonString(p));
  JsonObject placement_json;
  placement_json.Str("allowed", CpuList(placement.allowed))
      .Str("generator", CpuList(placement.generator))
      .Str("sut", CpuList(placement.sut))
      .Raw("applied", placement.applied ? "true" : "false");
  JsonObject phases;
  phases.Num("warmup", warm_s)
      .Num("capacity", cap_s)
      .Num("open", open_s)
      .Num("capacity_window", kCapacityWindowS)
      .Num("latency_window", kLatencyWindowS)
      .Num("probe", feed ? 0.0 : kProbeSeconds);
  JsonObject load;
  load.Num("connections", static_cast<double>(eng.connections()))
      .Num("read_connections", static_cast<double>(w.read_connections))
      .Num("closed_connections", static_cast<double>(w.closed_connections))
      .Num("pipeline_depth", static_cast<double>(w.pipeline_depth))
      .Num("open_rps", w.open_rps)
      .Num("feed_rps", w.feed_rps)
      .Num("candidates", w.candidates)
      .Num("setup_runs", setup_runs);
  JsonObject sut_json;
  sut_json.Num("users", static_cast<double>(w.users))
      .Num("services", static_cast<double>(w.services))
      .Num("shards", static_cast<double>(w.shards))
      .Str("journal",
           w.journal ? amf::stream::FsyncPolicyName(*w.journal) : "off")
      .Num("warm_samples", static_cast<double>(in.warm.size()));
  JsonObject gates;
  gates.Num("verify_mismatches", static_cast<double>(mismatches))
      .Num("feed_acks", acks)
      .Num("identity_delta", Get(fin, "identity_delta"))
      .Num("rejected", rejected)
      .Num("quarantined", Get(fin, "quarantined_total"))
      .Num("protocol_errors", proto)
      .Num("slow_reader_drops", drops)
      .Num("shed", static_cast<double>(f.shed))
      .Num("late_p99_ms", late_p99)
      .Num("trace_dropped_records", Get(fin, "dropped_records"));
  JsonObject setup;
  {
    std::vector<std::string> runs;
    for (const double v : o.setup_s) runs.push_back(JsonNumber(v));
    setup.Raw("runs_s", JsonList(runs));
    for (const char* key : {"total_s", "register_s", "ingest_s", "train_s",
                            "listen_s", "epochs"}) {
      std::vector<std::string> vals;
      for (const Values& st : o.setup_stages) {
        vals.push_back(JsonNumber(Get(st, key)));
      }
      setup.Raw(key, JsonList(vals));
    }
  }
  JsonObject latency;
  latency.Num("p50", o.open.p50)
      .Num("p95", o.open.p95)
      .Num("p99", o.open.p99)
      .Num("p999_all", o.open.p999)
      .Num("samples", static_cast<double>(o.open.samples))
      .Num("windows", static_cast<double>(o.open.windows));
  {
    std::vector<std::string> p99s;
    for (const double v : o.open.window_p99) p99s.push_back(JsonNumber(v));
    latency.Raw("window_p99", JsonList(p99s));
  }
  JsonObject meta;
  meta.Str("workload", w.name)
      .Num("seed", static_cast<double>(opt.seed))
      .Num("trace", opt.trace ? 1 : 0)
      .Num("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .Raw("placement", placement_json.str())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Raw("phase_seconds", phases.str())
      .Raw("load", load.str())
      .Raw("sut", sut_json.str())
      .Raw("setup", setup.str())
      .Raw("samples", samples.str())
      .Raw("gates", gates.str())
      .Raw("capacity_windows_rps", JsonList(windows))
      .Raw("open_latency_ms", latency.str())
      .Raw("valid", valid ? "true" : "false")
      .Raw("problems", JsonList(problem_list));
  std::cout << JsonObject().Raw("metadata", meta.str()).str() << "\n";

  const bool correct = problems.empty();
  std::cout << JsonObject()
                   .Raw("correct", correct ? "true" : "false")
                   .Num("attempted", attempted)
                   .Num("failed", failed)
                   .Raw("metrics", metric_json.str())
                   .str()
            << std::endl;
  for (const std::string& p : problems) {
    std::cerr << "perfbench: " << p << "\n";
  }
  return correct ? 0 : 1;
}

}  // namespace perfbench
