// Networked serving front-end (DESIGN.md §14).
//
// A single-threaded epoll event loop that exposes a serving Backend —
// one ConcurrentPredictionService, or N user-sharded instances behind a
// ShardedPredictionService (serve/backend.h) — over the length-prefixed
// binary protocol in serve/protocol.h. The loop owns every connection;
// the prediction hot path stays wait-free end to end:
//
//   PREDICT       -> routed to its user's home shard, then that shard's
//                    request coalescer (serve/coalescer.h): the singles
//                    one loop wake reads are scored by ONE shard-local
//                    PredictQoSPairs call per shard (seqlock reads, one
//                    shared lock), bit-identical to per-request
//                    PredictQoS.
//   PREDICT_MANY  -> PredictQoSMany immediately (already a batch).
//   REPORT_OBS    -> lock-free ring push; kShed when the ring is full
//                    (journal-before-ack durability happens at the
//                    trainer's drain, as everywhere else).
//   METRICS       -> obs::ToJson of the service registry, which includes
//                    the serve.* series this server registers.
//   PING          -> liveness echo.
//
// Slow readers are paused then dropped per the ladder in connection.h;
// malformed frames close the connection (serve.protocol_errors).
//
// An optional built-in trainer thread runs Tick + SyncJournalIfDue on an
// absolute-deadline schedule so a standalone `amf_server` process keeps
// learning and keeps acked observations inside the WAL's fsync window
// without any external driver.
//
// Graceful shutdown (Shutdown() or destructor) drains, in order:
//   1. stop accepting (close the listen socket); every request already
//      read was answered by the wake that read it, so no coalescer holds
//      a request at this point,
//   2. drain connection write buffers under drain_deadline_ms,
//   3. close all connections and exit the loop thread,
//   4. stop the trainer thread: its final Tick drains the ingest ring
//      (journal-before-ack for everything accepted), then FlushJournal
//      fsyncs the WAL tail. Only then does Shutdown return — observations
//      the server acked are on disk when the process exits.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include <memory>
#include <vector>

#include "adapt/concurrent_service.h"
#include "serve/backend.h"
#include "serve/coalescer.h"
#include "serve/connection.h"
#include "serve/protocol.h"

namespace amf::serve {

struct ServerConfig {
  /// Listen address. Port 0 binds an ephemeral port (read it back from
  /// port() after Start) — tests and single-host drills never race over
  /// a fixed number.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Backpressure ladder thresholds (see connection.h).
  std::size_t write_pause_bytes = 256 * 1024;
  std::size_t write_drop_bytes = 4 * 1024 * 1024;

  /// Event-loop housekeeping cadence (journal SyncIfDue) when the loop is
  /// otherwise idle — the epoll timeout — and the built-in trainer
  /// thread's Tick period.
  int tick_interval_ms = 5;
  int train_interval_ms = 20;
  /// Run the built-in trainer thread. Off for tests that drive Tick
  /// themselves.
  bool run_trainer = true;

  /// Graceful-shutdown budget for draining connection write buffers.
  int drain_deadline_ms = 2000;

  /// Max connections accepted concurrently; beyond it, accepts are
  /// closed immediately (serve.accept_overflow).
  std::size_t max_connections = 1024;
};

/// One serving endpoint over a Backend (single-instance or user-sharded;
/// see serve/backend.h). The backend/service must outlive the server.
/// PREDICT requests route to a per-shard coalescer by the backend's
/// ShardOfUser BEFORE batching, so every coalesced batch flushes into
/// exactly one shard's PredictQoSPairs. Start() spawns the loop (and
/// optionally trainer) thread; Shutdown() — idempotent, also run by the
/// destructor — performs the ordered drain documented above.
class Server {
 public:
  /// Single-instance convenience: wraps the service in an owned
  /// ConcurrentBackend (one coalescer).
  Server(adapt::ConcurrentPredictionService* service,
         const ServerConfig& config);
  Server(Backend* backend, const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the loop thread. False on bind/listen
  /// failure (errno-style message in last_error()).
  bool Start();

  /// Bound port (valid after Start; resolves config.port == 0).
  std::uint16_t port() const { return port_; }
  const std::string& last_error() const { return last_error_; }

  /// Ordered graceful drain; see the file comment. Safe to call twice.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Native handle of the event-loop thread (valid between Start and
  /// Shutdown). The EINTR signal-storm test pthread_kills it to land
  /// signals mid-recv/mid-send on exactly the thread doing socket IO.
  std::thread::native_handle_type loop_native_handle() {
    return loop_thread_.native_handle();
  }

 private:
  void LoopThread();
  void TrainerThread();

  void HandleAccept();
  /// Reads until EAGAIN, peels frames, dispatches. Returns false when the
  /// connection must be closed (EOF, error, protocol error, drop ladder).
  bool HandleReadable(Connection& c);
  /// Parses/dispatches frames already sitting in c.rbuf (no recv). A
  /// backpressure break re-queues the connection on pending_parse_ so the
  /// housekeeping pass resumes it — epoll never re-announces bytes we
  /// already recv'd.
  bool ProcessBuffered(Connection& c);
  bool HandleFrame(Connection& c, const struct Frame& frame);
  /// Writes wbuf until EAGAIN; returns false on a dead socket.
  bool FlushWrites(Connection& c);
  /// Applies the pause/drop/resume ladder after wbuf changed. Returns
  /// false when the connection was dropped.
  bool ApplyBackpressure(Connection& c);
  /// Flushes one shard's coalescer batch into its home shard.
  void FlushCoalescer(std::size_t shard);
  /// Flushes every non-empty coalescer (once per loop wake).
  void FlushCoalescers();
  /// Appends a kError frame for a rejected request and pushes it out
  /// best-effort (the connection closes right after).
  void SendErrorAndNote(Connection& c, Opcode opcode,
                        std::uint64_t request_id);
  void CloseConnection(std::uint64_t id);
  void UpdateEpoll(Connection& c);
  void RegisterMetrics();

  std::unique_ptr<Backend> owned_backend_;  // single-service ctor
  Backend* backend_;
  ServerConfig config_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: Shutdown() pokes the blocked loop
  std::uint16_t port_ = 0;
  std::string last_error_;

  std::thread loop_thread_;
  std::thread trainer_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  // Trainer pacing: condition_variable wait_until on absolute deadlines
  // (next += interval) so Tick cadence does not drift with Tick cost.
  std::mutex trainer_mu_;
  std::condition_variable trainer_cv_;

  std::unordered_map<std::uint64_t, Connection> conns_;
  std::uint64_t next_conn_id_ = 1;
  /// One coalescer per backend shard — PREDICTs route by user id before
  /// batching, so each flush is one shard-local PredictQoSPairs.
  std::vector<Coalescer> coalescers_;
  std::string scratch_;  ///< response-encode scratch for METRICS
  /// Connections with complete-but-unparsed frames in rbuf (mid-parse
  /// backpressure break or a resume from pause). Drained each
  /// housekeeping pass; ids may repeat, a stale id just misses in conns_.
  std::vector<std::uint64_t> pending_parse_;
  std::vector<std::uint64_t> pending_scratch_;

  // serve.* instrumentation (registry-owned handles; wait-free).
  obs::Counter* accepted_ = nullptr;
  obs::Counter* closed_ = nullptr;
  obs::Counter* accept_overflow_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* slow_reader_drops_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* coalesce_requests_ = nullptr;
  obs::Counter* coalesce_flushes_ = nullptr;
  obs::Gauge* connections_gauge_ = nullptr;
  obs::Gauge* paused_gauge_ = nullptr;
  obs::LatencyHistogram* request_hist_ = nullptr;
  obs::LatencyHistogram* batch_size_hist_ = nullptr;
  std::size_t paused_count_ = 0;  // loop-thread only; mirrored to gauge
};

}  // namespace amf::serve
