#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/timer.h"
#include "obs/export.h"
#include "serve/protocol.h"

namespace amf::serve {

namespace {

// epoll user-data tags for the two non-connection fds. Connection ids
// start at 1 and count up; these live at the top of the space.
constexpr std::uint64_t kListenTag = ~std::uint64_t{0};
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0} - 1;

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(adapt::ConcurrentPredictionService* service,
               const ServerConfig& config)
    : Server(new ConcurrentBackend(service), config) {
  owned_backend_.reset(backend_);
}

Server::Server(Backend* backend, const ServerConfig& config)
    : backend_(backend), config_(config), coalescers_(backend->shard_count()) {
  RegisterMetrics();
}

Server::~Server() { Shutdown(); }

void Server::RegisterMetrics() {
  obs::MetricsRegistry& reg = backend_->metrics();
  accepted_ = reg.GetCounter("serve.accepted");
  closed_ = reg.GetCounter("serve.closed");
  accept_overflow_ = reg.GetCounter("serve.accept_overflow");
  protocol_errors_ = reg.GetCounter("serve.protocol_errors");
  slow_reader_drops_ = reg.GetCounter("serve.slow_reader_drops");
  requests_ = reg.GetCounter("serve.requests");
  coalesce_requests_ = reg.GetCounter("serve.coalesce.requests");
  coalesce_flushes_ = reg.GetCounter("serve.coalesce.flushes");
  connections_gauge_ = reg.GetGauge("serve.connections");
  paused_gauge_ = reg.GetGauge("serve.paused_connections");
  // Request latency from frame arrival (enqueue, for coalesced PREDICTs)
  // to response bytes encoded. Sub-millisecond territory: widen the low
  // end well below the default 1us floor is unnecessary, but cap at 1s —
  // anything slower is a pathology the overflow bucket should flag.
  obs::LatencyHistogramOptions lat;
  lat.min_value = 1e-7;
  lat.max_value = 1.0;
  lat.buckets = 64;
  request_hist_ = reg.GetLatencyHistogram("serve.request.seconds", lat);
  // Batch sizes are small integers; log-spaced 1..4096 gives exact low
  // buckets where the interesting resolution is.
  obs::LatencyHistogramOptions bs;
  bs.min_value = 1.0;
  bs.max_value = 4096.0;
  bs.buckets = 24;
  batch_size_hist_ = reg.GetLatencyHistogram("serve.coalesce.batch_size", bs);
}

bool Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    last_error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    last_error_ = "bad host: " + config_.host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    last_error_ = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    last_error_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    last_error_ = std::string("epoll/eventfd: ") + std::strerror(errno);
    Shutdown();
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true, std::memory_order_release);
  stop_requested_.store(false, std::memory_order_release);
  loop_thread_ = std::thread(&Server::LoopThread, this);
  if (config_.run_trainer) {
    trainer_thread_ = std::thread(&Server::TrainerThread, this);
  }
  return true;
}

void Server::Shutdown() {
  // Idempotent: a second call (destructor after explicit Shutdown) finds
  // the threads already joined and the fds already closed.
  if (loop_thread_.joinable()) {
    stop_requested_.store(true, std::memory_order_release);
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    loop_thread_.join();  // the loop thread runs the ordered drain
  }
  if (trainer_thread_.joinable()) {
    stop_requested_.store(true, std::memory_order_release);
    trainer_cv_.notify_all();
    trainer_thread_.join();  // final Tick (ring drain) + FlushJournal
  } else if (running_.load(std::memory_order_acquire)) {
    // No built-in trainer: the shutdown durability point is still ours.
    backend_->FlushJournal();
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void Server::TrainerThread() {
  common::Stopwatch clock;
  auto next = std::chrono::steady_clock::now();
  const auto interval = std::chrono::milliseconds(config_.train_interval_ms);
  std::unique_lock<std::mutex> lk(trainer_mu_);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    next += interval;
    const auto now = std::chrono::steady_clock::now();
    if (next < now) next = now;  // fell behind: skip forward, don't burst
    trainer_cv_.wait_until(lk, next, [this] {
      return stop_requested_.load(std::memory_order_acquire);
    });
    if (stop_requested_.load(std::memory_order_acquire)) break;
    lk.unlock();
    backend_->Tick(clock.ElapsedSeconds());
    backend_->SyncJournalIfDue();
    lk.lock();
  }
  lk.unlock();
  // Shutdown durability point: drain whatever the ring still holds (the
  // drain journals it), then push the WAL tail to disk.
  backend_->Tick(clock.ElapsedSeconds());
  backend_->FlushJournal();
}

void Server::LoopThread() {
  std::vector<epoll_event> events(128);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                     config_.tick_interval_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        HandleAccept();
        continue;
      }
      if (tag == kWakeTag) {
        std::uint64_t buf;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &buf, sizeof(buf));
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this wake-up
      Connection& c = it->second;
      bool alive = true;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        alive = false;
      }
      if (alive && (events[i].events & EPOLLOUT) != 0) {
        alive = FlushWrites(c) && ApplyBackpressure(c);
      }
      if (alive && (events[i].events & EPOLLIN) != 0) {
        alive = HandleReadable(c);
      }
      if (!alive) CloseConnection(tag);
    }
    // Revisit connections whose read buffers still hold complete frames.
    // A mid-parse backpressure break leaves them there, and level-
    // triggered EPOLLIN only fires for NEW socket bytes — without this
    // pass a pipelining peer that stopped sending would stall with
    // requests parked in rbuf forever (and the drop rung could never
    // engage on its growing backlog).
    if (!pending_parse_.empty()) {
      pending_scratch_.clear();
      pending_scratch_.swap(pending_parse_);
      for (const std::uint64_t id : pending_scratch_) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        if (it->second.paused) continue;  // resume path re-queues below
        if (!ProcessBuffered(it->second)) CloseConnection(id);
      }
    }
    // Natural batching: answer every PREDICT this wake read — including
    // those the pass above parsed — with one PredictQoSPairs call per
    // shard, so batch size follows load.
    FlushCoalescers();
    // Keep acked observations inside the WAL fsync window even when the
    // trainer is idle.
    backend_->SyncJournalIfDue();
  }

  // --- Ordered graceful drain (runs on the loop thread) ---
  // 1. Stop accepting.
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Every request already read was answered by the wake that read it
  // (FlushCoalescers ends each iteration), so nothing is parked here.
  // 2. Drain write buffers under the deadline.
  const double deadline =
      MonotonicSeconds() + config_.drain_deadline_ms * 1e-3;
  for (;;) {
    bool backlog = false;
    std::vector<std::uint64_t> dead;
    for (auto& [id, c] : conns_) {
      if (!FlushWrites(c)) {
        dead.push_back(id);
      } else if (c.backlog_bytes() > 0) {
        backlog = true;
      }
    }
    for (std::uint64_t id : dead) CloseConnection(id);
    if (!backlog || MonotonicSeconds() >= deadline) break;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 10);
    (void)n;  // next pass retries every connection; events only pace us
  }
  // 3. Close everything.
  while (!conns_.empty()) CloseConnection(conns_.begin()->first);
}

void Server::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    if (conns_.size() >= config_.max_connections) {
      accept_overflow_->Increment();
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    Connection& c = conns_[id];
    c.fd = fd;
    c.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    accepted_->Increment();
    connections_gauge_->Set(static_cast<double>(conns_.size()));
  }
}

void Server::CloseConnection(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (it->second.paused && paused_count_ > 0) {
    --paused_count_;
    paused_gauge_->Set(static_cast<double>(paused_count_));
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
  closed_->Increment();
  connections_gauge_->Set(static_cast<double>(conns_.size()));
}

void Server::UpdateEpoll(Connection& c) {
  const bool want_write = c.backlog_bytes() > 0;
  const bool want_read = !c.paused;
  // Skip the syscall when the interest set is unchanged (the common case
  // on a fast reader: always EPOLLIN, never EPOLLOUT).
  if (want_write == c.want_write && want_read == !c.paused_registered) {
    return;
  }
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = c.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  c.want_write = want_write;
  c.paused_registered = c.paused;
}

bool Server::FlushWrites(Connection& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                             c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n > 0) {
      c.woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // signal mid-send: retry
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // peer reset / dead socket
  }
  if (c.woff == c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
  } else if (c.woff > (1u << 16) && c.woff * 2 > c.wbuf.size()) {
    // Compact once the written prefix dominates, so the buffer does not
    // hold drained bytes forever under sustained pipelining.
    c.wbuf.erase(0, c.woff);
    c.woff = 0;
  }
  UpdateEpoll(c);
  return true;
}

bool Server::ApplyBackpressure(Connection& c) {
  const std::size_t backlog = c.backlog_bytes();
  if (backlog > config_.write_drop_bytes) {
    // Rung 2: not draining even while paused. Drop the connection —
    // bounded memory beats an unbounded queue for one slow reader.
    slow_reader_drops_->Increment();
    return false;
  }
  if (!c.paused && backlog > config_.write_pause_bytes) {
    c.paused = true;  // rung 1: stop parsing new requests from this peer
    ++paused_count_;
    paused_gauge_->Set(static_cast<double>(paused_count_));
    UpdateEpoll(c);
  } else if (c.paused && backlog < config_.write_pause_bytes / 2) {
    c.paused = false;  // rung 3: hysteresis resume
    --paused_count_;
    paused_gauge_->Set(static_cast<double>(paused_count_));
    UpdateEpoll(c);
    if (!c.rbuf.empty()) {
      // Frames parked during the pause won't retrigger EPOLLIN; let the
      // housekeeping pass pick them back up.
      pending_parse_.push_back(c.id);
    }
  }
  return true;
}

bool Server::HandleReadable(Connection& c) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.rbuf.append(buf, static_cast<std::size_t>(n));
      if (static_cast<ssize_t>(sizeof(buf)) == n) continue;
      break;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EINTR) continue;  // signal mid-recv: retry, not a reset
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  return ProcessBuffered(c);
}

bool Server::ProcessBuffered(Connection& c) {
  std::size_t off = 0;
  bool deferred = false;
  while (off < c.rbuf.size()) {
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    const DecodeResult r = DecodeFrame(
        std::string_view(c.rbuf).substr(off), &frame, &consumed, &error);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kProtocolError) {
      protocol_errors_->Increment();
      // A peer whose fixed header still parses (known request opcode,
      // recoverable request_id) gets one kError frame before the close so
      // it can tell rejection from a crash; unframeable garbage cannot be
      // trusted to parse a frame and is closed silently.
      FrameHeader rejected;
      if (PeekRequestHeader(std::string_view(c.rbuf).substr(off), &rejected)) {
        SendErrorAndNote(c, rejected.opcode, rejected.request_id);
      }
      return false;
    }
    off += consumed;
    if (!HandleFrame(c, frame)) {
      protocol_errors_->Increment();
      if (!frame.header.is_response) {
        // The frame decoded — the peer framed correctly and the payload
        // semantics were wrong (count lie, short parse). Tell it.
        SendErrorAndNote(c, frame.header.opcode, frame.header.request_id);
      }
      return false;
    }
    if (c.backlog_bytes() > config_.write_pause_bytes) {
      deferred = true;
      break;  // backpressure rung 1: stop parsing, keep the unread bytes
    }
  }
  c.rbuf.erase(0, off);
  if (deferred && !c.rbuf.empty()) {
    // Complete frames may remain; epoll won't re-announce already-recv'd
    // bytes, so the housekeeping pass must come back for them.
    pending_parse_.push_back(c.id);
  }
  return FlushWrites(c) && ApplyBackpressure(c);
}

bool Server::HandleFrame(Connection& c, const Frame& frame) {
  if (frame.header.is_response) return false;  // clients send requests only
  requests_->Increment();
  const double t0 = MonotonicSeconds();
  switch (frame.header.opcode) {
    case Opcode::kPing:
      AppendPingResponse(c.wbuf, frame.header.request_id);
      break;
    case Opcode::kPredict: {
      PredictPayload p;
      if (!ParsePredict(frame.payload, &p)) return false;
      PendingPredict req;
      req.conn_id = c.id;
      req.request_id = frame.header.request_id;
      req.user = p.user;
      req.service = p.service;
      req.enqueued_monotonic_s = t0;
      // Route to the user's home shard BEFORE batching: every coalesced
      // batch then flushes into exactly one shard-local PredictQoSPairs.
      const std::size_t shard = backend_->ShardOfUser(p.user);
      if (coalescers_[shard].Add(req)) FlushCoalescer(shard);
      return true;  // latency recorded at emit time, not here
    }
    case Opcode::kPredictMany: {
      PredictManyPayload p;
      if (!ParsePredictMany(frame.payload, &p)) return false;
      std::vector<double> values(p.services.size());
      const bool known = backend_->PredictQoSMany(p.user, p.services, values);
      AppendPredictManyResponse(c.wbuf, frame.header.request_id,
                                known ? Status::kOk : Status::kUnknownEntity,
                                values);
      break;
    }
    case Opcode::kReportObs: {
      data::QoSSample sample;
      if (!ParseReportObs(frame.payload, &sample)) return false;
      const bool accepted = backend_->ReportObservation(sample);
      AppendReportObsResponse(c.wbuf, frame.header.request_id,
                              accepted ? Status::kOk : Status::kShed);
      break;
    }
    case Opcode::kMetrics: {
      scratch_ = obs::ToJson(backend_->metrics().Snapshot());
      AppendMetricsResponse(c.wbuf, frame.header.request_id, scratch_);
      break;
    }
  }
  request_hist_->Record(MonotonicSeconds() - t0);
  return true;
}

void Server::FlushCoalescers() {
  for (std::size_t s = 0; s < coalescers_.size(); ++s) FlushCoalescer(s);
}

void Server::SendErrorAndNote(Connection& c, Opcode opcode,
                              std::uint64_t request_id) {
  AppendErrorResponse(c.wbuf, opcode, request_id);
  (void)FlushWrites(c);  // best effort — the connection closes right after
}

void Server::FlushCoalescer(std::size_t shard) {
  Coalescer& coalescer = coalescers_[shard];
  if (coalescer.empty()) return;
  // Touched connections get one FlushWrites pass after the whole batch is
  // encoded (one send syscall for many responses on a shared conn).
  std::vector<std::uint64_t> touched;
  const std::size_t n = coalescer.Flush(
      *backend_, [this, &touched](const PendingPredict& req, double value) {
        auto it = conns_.find(req.conn_id);
        if (it == conns_.end()) return;  // conn died while queued
        const Status status =
            std::isnan(value) ? Status::kUnknownEntity : Status::kOk;
        AppendPredictResponse(it->second.wbuf, req.request_id, status, value);
        request_hist_->Record(MonotonicSeconds() - req.enqueued_monotonic_s);
        if (touched.empty() || touched.back() != req.conn_id)
          touched.push_back(req.conn_id);
      });
  coalesce_flushes_->Increment();
  coalesce_requests_->Increment(n);
  batch_size_hist_->Record(static_cast<double>(n));
  for (const std::uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    if (!FlushWrites(it->second) || !ApplyBackpressure(it->second)) {
      CloseConnection(id);
    }
  }
}

}  // namespace amf::serve
