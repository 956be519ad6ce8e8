// End-to-end tests for the epoll serving front-end (serve/server.h):
// every opcode over a real loopback socket, coalescing observable in the
// server-side counters, a lone request answered without a timer wait,
// malformed frames closing the connection (with
// one terminal kError frame when the fixed header was parseable, a
// silent close for unframeable garbage, never UB), the PING wire-marker
// handshake, EINTR immunity under a directed signal storm, the
// slow-reader backpressure ladder's drop rung, and the graceful-shutdown
// contract — requests already read are answered and journaled
// observations are flushed before exit.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/concurrent_service.h"
#include "common/rng.h"
#include "core/amf_predictor.h"
#include "obs/export.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "stream/wal.h"

namespace amf::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kUsers = 16;
constexpr std::size_t kServices = 32;

std::unique_ptr<adapt::ConcurrentPredictionService> MakeTrainedService() {
  adapt::PredictionServiceConfig cfg;
  cfg.model = core::MakeResponseTimeConfig(2014);
  auto service =
      std::make_unique<adapt::ConcurrentPredictionService>(cfg, 4096);
  for (std::size_t u = 0; u < kUsers; ++u) {
    service->RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    service->RegisterService(std::string("s").append(std::to_string(s)));
  }
  common::Rng rng(41);
  double now = 0.0;
  for (std::size_t i = 0; i < kUsers * kServices / 2; ++i) {
    now += 1e-3;
    service->ReportObservation(data::QoSSample{
        .slice = 0,
        .user = static_cast<data::UserId>(rng.Index(kUsers)),
        .service = static_cast<data::ServiceId>(rng.Index(kServices)),
        .value = rng.LogNormal(-1.0, 0.5),
        .timestamp = now});
    if ((i & 255) == 255) service->Tick(now);
  }
  service->TrainToConvergence(now);
  return service;
}

double Counter(const adapt::ConcurrentPredictionService& service,
               const std::string& name) {
  const std::string json = obs::ToJson(service.metrics().Snapshot());
  return ExtractMetricNumber(json, name).value_or(0.0);
}

TEST(ServeServerTest, EveryOpcodeRoundTripsOverLoopback) {
  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();
  ASSERT_GT(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));
  EXPECT_TRUE(client.Ping());

  // PREDICT answers bit-identical to an in-process PredictQoS.
  const auto over_wire = client.Predict(3, 5);
  ASSERT_TRUE(over_wire.has_value());
  const auto in_process = service->PredictQoS(3, 5);
  ASSERT_TRUE(in_process.has_value());
  EXPECT_EQ(*over_wire, *in_process);

  // Unknown entity -> kUnknownEntity -> nullopt from the client.
  EXPECT_FALSE(client.Predict(kUsers + 9, 0).has_value());

  // PREDICT_MANY agrees with PredictQoSMany element-wise.
  const std::vector<data::ServiceId> candidates = {0, 7, 19, kServices + 4};
  const auto many = client.PredictMany(2, candidates);
  ASSERT_TRUE(many.has_value());
  ASSERT_EQ(many->size(), candidates.size());
  std::vector<double> local(candidates.size());
  ASSERT_TRUE(service->PredictQoSMany(2, candidates, local));
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (std::isnan(local[i])) {
      EXPECT_TRUE(std::isnan((*many)[i])) << i;
    } else {
      EXPECT_EQ((*many)[i], local[i]) << i;
    }
  }

  // REPORT_OBS lands in the ring (kOk) and unknown ids still ack kOk —
  // ingest is fire-and-forget; validation happens at the drain.
  const auto st = client.ReportObservation(data::QoSSample{
      .slice = 0, .user = 1, .service = 1, .value = 0.25, .timestamp = 1.0});
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(*st, Status::kOk);

  // METRICS returns a JSON snapshot that includes the serving counters.
  const auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("serve.requests"), std::string::npos);
  EXPECT_GE(ExtractMetricNumber(*metrics, "serve.requests").value_or(0.0),
            1.0);

  server.Shutdown();
  // After shutdown the client sees EOF.
  EXPECT_TRUE(client.WaitForClose(5.0));
}

TEST(ServeServerTest, PipelinedPredictsCoalesceIntoFewerFlushes) {
  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client;
  ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));

  // One write carrying 32 pipelined PREDICTs: the server's read loop
  // ingests them together, so the wake that reads them flushes them as
  // batches, not as 32 singles.
  constexpr std::uint64_t kCount = 32;
  std::string burst;
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    AppendPredictRequest(burst, id,
                         static_cast<data::UserId>(id % kUsers),
                         static_cast<data::ServiceId>(id % kServices));
  }
  ASSERT_TRUE(client.SendRaw(burst));

  // All 32 responses come back, in order, each matching the solo path.
  std::uint64_t next_id = 1;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  std::string rbuf;
  while (next_id <= kCount &&
         std::chrono::steady_clock::now() < deadline) {
    char tmp[4096];
    const ssize_t n = ::recv(client.fd(), tmp, sizeof(tmp), 0);
    if (n <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    rbuf.append(tmp, static_cast<std::size_t>(n));
    std::size_t off = 0;
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    while (DecodeFrame(std::string_view(rbuf).substr(off), &frame, &consumed,
                       &error) == DecodeResult::kFrame) {
      EXPECT_EQ(frame.header.request_id, next_id);
      EXPECT_EQ(frame.header.status, Status::kOk);
      double value = 0.0;
      ASSERT_TRUE(ParsePredictResponse(frame.payload, &value));
      const auto solo = service->PredictQoS(
          static_cast<data::UserId>(next_id % kUsers),
          static_cast<data::ServiceId>(next_id % kServices));
      ASSERT_TRUE(solo.has_value());
      EXPECT_EQ(value, *solo);
      ++next_id;
      off += consumed;
    }
    rbuf.erase(0, off);
  }
  EXPECT_EQ(next_id, kCount + 1);

  const double coalesced = Counter(*service, "serve.coalesce.requests");
  const double flushes = Counter(*service, "serve.coalesce.flushes");
  EXPECT_EQ(coalesced, static_cast<double>(kCount));
  EXPECT_GE(flushes, 1.0);
  EXPECT_LT(flushes, coalesced);  // ratio > 1: batching actually happened

  server.Shutdown();
}

TEST(ServeServerTest, LonePredictIsAnsweredWithoutWaitingOnATimer) {
  // A single outstanding PREDICT must be answered by the loop wake that
  // read it. A long housekeeping tick makes any timer-driven flush show
  // up as a whole-millisecond round trip (a batching window rounded up
  // to epoll's 1 ms granularity, or the tick itself).
  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  cfg.tick_interval_ms = 1000;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client;
  ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));
  ASSERT_TRUE(client.Predict(0, 0).has_value());  // warm the connection

  constexpr int kRequests = 101;
  std::vector<double> rtt_ms;
  for (int i = 0; i < kRequests; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto value =
        client.Predict(static_cast<data::UserId>(i % kUsers),
                       static_cast<data::ServiceId>(i % kServices));
    const auto t1 = std::chrono::steady_clock::now();
    ASSERT_TRUE(value.has_value()) << i;
    rtt_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::nth_element(rtt_ms.begin(), rtt_ms.begin() + kRequests / 2,
                   rtt_ms.end());
  EXPECT_LT(rtt_ms[kRequests / 2], 0.5) << "median round trip, ms";
  // Every lone request was its own batch.
  EXPECT_EQ(Counter(*service, "serve.coalesce.flushes"),
            Counter(*service, "serve.coalesce.requests"));
  server.Shutdown();
}

TEST(ServeServerTest, MalformedFrameClosesConnectionAndCounts) {
  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();

  struct Case {
    const char* name;
    std::string bytes;
  };
  std::vector<Case> cases;
  {
    // Oversized length prefix.
    std::string wire;
    const std::uint32_t huge = kMaxFrameLen + 1;
    wire.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
    cases.push_back({"oversized-length", wire});
  }
  {
    // Garbage opcode.
    std::string wire;
    const std::uint32_t len = kFrameFixedBytes;
    wire.append(reinterpret_cast<const char*>(&len), sizeof(len));
    wire.push_back('\x7f');
    wire.push_back('\0');
    wire.append(8, '\0');
    cases.push_back({"garbage-opcode", wire});
  }
  {
    // A response opcode sent BY a client (server never accepts these).
    std::string wire;
    AppendPingResponse(wire, 1);
    cases.push_back({"client-sent-response", wire});
  }
  {
    // Payload size contradicting the opcode.
    std::string wire;
    const std::uint32_t len = kFrameFixedBytes + 3;
    wire.append(reinterpret_cast<const char*>(&len), sizeof(len));
    wire.push_back(static_cast<char>(Opcode::kPredict));
    wire.push_back('\0');
    wire.append(8, '\0');
    wire.append(3, 'x');
    cases.push_back({"short-predict-payload", wire});
  }
  {
    // PREDICT_MANY whose count field lies about the payload.
    std::string wire;
    AppendPredictManyRequest(wire, 1, 0,
                             std::vector<data::ServiceId>{1, 2});
    std::uint32_t bogus = 100;
    std::memcpy(wire.data() + 4 + kFrameFixedBytes + 4, &bogus,
                sizeof(bogus));
    cases.push_back({"predict-many-count-lie", wire});
  }

  double expected_errors = Counter(*service, "serve.protocol_errors");
  for (const Case& c : cases) {
    Client client;
    ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()))
        << c.name;
    // Prove the connection works first, so the close we observe is a
    // reaction to the malformed bytes and not a flaky connect.
    ASSERT_TRUE(client.Ping()) << c.name;
    ASSERT_TRUE(client.SendRaw(c.bytes)) << c.name;
    EXPECT_TRUE(client.WaitForClose(5.0)) << c.name;
    expected_errors += 1.0;
    EXPECT_EQ(Counter(*service, "serve.protocol_errors"), expected_errors)
        << c.name;
  }

  // The server survives all of it and still serves fresh connections.
  Client healthy;
  ASSERT_TRUE(healthy.ConnectWithRetry("127.0.0.1", server.port()));
  EXPECT_TRUE(healthy.Ping());
  server.Shutdown();
}

TEST(ServeServerTest, SlowReaderIsDroppedNotBufferedForever) {
  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  // Tiny ladder with a drop rung below one response frame: once the
  // kernel socket buffers stop absorbing, a single ~64KB response
  // overshoots pause AND drop in one append — the connection must die,
  // not sit paused with an ever-full buffer.
  cfg.write_pause_bytes = 4 * 1024;
  cfg.write_drop_bytes = 32 * 1024;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client;
  ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));
  // Clamp our receive window: an explicit SO_RCVBUF disables the
  // kernel's rcvbuf auto-tuning (which on loopback can absorb tens of
  // MB and let the server's kernel buffers soak up every response
  // without its userspace backlog ever growing).
  const int tiny = 16 * 1024;
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &tiny,
                         sizeof(tiny)),
            0);

  // Many PREDICT_MANY requests with large candidate lists, never reading
  // a byte back: ~64KB response frames fill the kernel buffers, then the
  // server's write buffer. SendRaw may legitimately fail partway — the
  // server resetting the connection mid-send IS the drop we're after.
  std::vector<data::ServiceId> candidates(8192);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = static_cast<data::ServiceId>(i % kServices);
  }
  std::string req;
  for (std::uint64_t id = 1; id <= 96; ++id) {
    AppendPredictManyRequest(req, id, 0, candidates);
  }
  (void)client.SendRaw(req);

  // The server must hang up on us (the drop rung), not stall or grow.
  // Wait for the drop before calling WaitForClose: that call reads and
  // discards responses, and a server slower than this client (a
  // sanitizer build, a loaded host) would then never see a backlog.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Counter(*service, "serve.slow_reader_drops") < 1.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(Counter(*service, "serve.slow_reader_drops"), 1.0);
  EXPECT_TRUE(client.WaitForClose(10.0));

  server.Shutdown();
}

TEST(ServeServerTest, ShutdownAnswersCoalescedRequestsBeforeClosing) {
  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client;
  ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));
  constexpr std::uint64_t kCount = 8;
  std::string burst;
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    AppendPredictRequest(burst, id, 1, static_cast<data::ServiceId>(id));
  }
  ASSERT_TRUE(client.SendRaw(burst));
  // Give the event loop a moment to read the requests before we pull
  // the plug: every request it read must be answered, and the answers
  // delivered, before the drain closes the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::thread shutdown_thread([&] { server.Shutdown(); });

  // Every queued request is still answered...
  std::uint64_t got = 0;
  std::string rbuf;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool eof = false;
  while (!eof && std::chrono::steady_clock::now() < deadline) {
    char tmp[4096];
    const ssize_t n = ::recv(client.fd(), tmp, sizeof(tmp), 0);
    if (n == 0) {
      eof = true;  // ...and then the server closes cleanly.
      break;
    }
    if (n < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    rbuf.append(tmp, static_cast<std::size_t>(n));
    std::size_t off = 0;
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    while (DecodeFrame(std::string_view(rbuf).substr(off), &frame, &consumed,
                       &error) == DecodeResult::kFrame) {
      EXPECT_EQ(frame.header.opcode, Opcode::kPredict);
      ++got;
      off += consumed;
    }
    rbuf.erase(0, off);
  }
  shutdown_thread.join();
  EXPECT_EQ(got, kCount);
  EXPECT_TRUE(eof);
}

TEST(ServeServerTest, ShutdownFlushesJournaledObservations) {
  const std::string dir =
      ::testing::TempDir() + "/serve_server_test_journal";
  fs::remove_all(dir);

  auto service = MakeTrainedService();
  stream::JournalConfig jc;
  jc.directory = dir;
  jc.fsync_policy = stream::FsyncPolicy::kInterval;
  jc.fsync_interval_ms = 3600 * 1000.0;  // only an explicit flush syncs
  service->EnableJournal(jc);

  ServerConfig cfg;
  cfg.run_trainer = true;  // shutdown's final Tick runs the journal drain
  cfg.train_interval_ms = 5;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client;
  ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));
  constexpr int kReports = 20;
  for (int i = 0; i < kReports; ++i) {
    const auto st = client.ReportObservation(data::QoSSample{
        .slice = 0,
        .user = static_cast<data::UserId>(i % kUsers),
        .service = static_cast<data::ServiceId>(i % kServices),
        .value = 0.5,
        .timestamp = 100.0 + i});
    ASSERT_TRUE(st.has_value());
    ASSERT_EQ(*st, Status::kOk);
  }
  server.Shutdown();

  // Every acknowledged observation reached the journal segments despite
  // the hour-long fsync interval: the drain's FlushJournal did it.
  const auto read = stream::ReadJournal(dir);
  EXPECT_EQ(read.records.size(), static_cast<std::size_t>(kReports));
  fs::remove_all(dir);
}

TEST(ServeServerTest, PingHandshakeCarriesWireMarker) {
  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client;
  ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));
  // Client::Ping already refuses a marker mismatch; returning true means
  // the server advertised exactly this build's marker.
  EXPECT_TRUE(client.Ping());

  // Raw check of the byte itself: version nibble + endianness bit.
  std::string wire;
  AppendPingRequest(wire, 424242);
  ASSERT_TRUE(client.SendRaw(wire));
  std::string rbuf;
  Frame frame;
  std::size_t consumed = 0;
  std::string error;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    char tmp[256];
    const ssize_t n = ::recv(client.fd(), tmp, sizeof(tmp), 0);
    if (n > 0) rbuf.append(tmp, static_cast<std::size_t>(n));
    if (DecodeFrame(rbuf, &frame, &consumed, &error) == DecodeResult::kFrame) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(frame.header.opcode, Opcode::kPing);
  ASSERT_EQ(frame.header.request_id, 424242u);
  std::uint8_t marker = 0;
  ASSERT_TRUE(ParsePingResponse(frame.payload, &marker));
  EXPECT_EQ(marker, kWireMarker);
  EXPECT_EQ(marker >> 4, kProtocolVersion);
  server.Shutdown();
}

/// Reads until EOF, returning every byte the server sent first.
std::string DrainUntilClose(Client& client) {
  std::string bytes;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    char tmp[4096];
    const ssize_t n = ::recv(client.fd(), tmp, sizeof(tmp), 0);
    if (n > 0) {
      bytes.append(tmp, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;  // EOF
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return bytes;
}

TEST(ServeServerTest, RejectedRequestGetsErrorFrameBeforeClose) {
  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();

  // A well-framed PREDICT whose payload size lies: the fixed header is
  // recoverable, so the close must be preceded by one kError frame
  // echoing the rejected request's opcode and id.
  {
    Client client;
    ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));
    std::string wire;
    const std::uint32_t len = kFrameFixedBytes + 3;
    wire.append(reinterpret_cast<const char*>(&len), sizeof(len));
    wire.push_back(static_cast<char>(Opcode::kPredict));
    wire.push_back('\0');
    const std::uint64_t id = 777;
    wire.append(reinterpret_cast<const char*>(&id), sizeof(id));
    wire.append(3, 'x');
    ASSERT_TRUE(client.SendRaw(wire));

    const std::string bytes = DrainUntilClose(client);
    Frame frame;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(DecodeFrame(bytes, &frame, &consumed, &error),
              DecodeResult::kFrame);
    EXPECT_EQ(consumed, bytes.size());  // exactly one terminal frame
    EXPECT_EQ(frame.header.opcode, Opcode::kPredict);
    EXPECT_TRUE(frame.header.is_response);
    EXPECT_EQ(frame.header.status, Status::kError);
    EXPECT_EQ(frame.header.request_id, 777u);
    EXPECT_TRUE(frame.payload.empty());
  }

  // Unframeable garbage (unknown opcode) still closes silently: a peer
  // that cannot frame bytes cannot be trusted to parse a frame.
  {
    Client client;
    ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));
    std::string wire;
    const std::uint32_t len = kFrameFixedBytes;
    wire.append(reinterpret_cast<const char*>(&len), sizeof(len));
    wire.push_back('\x7f');
    wire.push_back('\0');
    wire.append(8, '\0');
    ASSERT_TRUE(client.SendRaw(wire));
    EXPECT_TRUE(DrainUntilClose(client).empty());
  }
  server.Shutdown();
}

void SigUsr1NoOp(int) {}  // handler exists only to interrupt syscalls

TEST(ServeServerTest, SignalStormNeverClosesConnectionsOrChangesAnswers) {
  // Install a SIGUSR1 handler WITHOUT SA_RESTART, so every signal that
  // lands mid-syscall makes recv/send/epoll_wait return EINTR instead of
  // restarting transparently — exactly the condition that used to be
  // misread as a dead socket.
  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = SigUsr1NoOp;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  Server server(service.get(), cfg);
  ASSERT_TRUE(server.Start()) << server.last_error();

  Client client;
  ASSERT_TRUE(client.ConnectWithRetry("127.0.0.1", server.port()));
  ASSERT_TRUE(client.Ping());
  const double closed_before = Counter(*service, "serve.closed");
  const double errors_before = Counter(*service, "serve.protocol_errors");

  // Direct the storm at the event-loop thread specifically — that is the
  // thread inside recv/send/epoll_wait.
  std::atomic<bool> stop{false};
  std::thread storm([&server, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      ::pthread_kill(server.loop_native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  // Pipelined PREDICT load under the storm; every answer must still be
  // bit-identical to the in-process control.
  constexpr std::uint64_t kPerRound = 32;
  for (int round = 0; round < 30; ++round) {
    std::string burst;
    for (std::uint64_t id = 1; id <= kPerRound; ++id) {
      AppendPredictRequest(burst, id,
                           static_cast<data::UserId>(id % kUsers),
                           static_cast<data::ServiceId>(id % kServices));
    }
    ASSERT_TRUE(client.SendRaw(burst));
    std::uint64_t next_id = 1;
    std::string rbuf;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (next_id <= kPerRound &&
           std::chrono::steady_clock::now() < deadline) {
      char tmp[4096];
      const ssize_t n = ::recv(client.fd(), tmp, sizeof(tmp), 0);
      if (n <= 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      rbuf.append(tmp, static_cast<std::size_t>(n));
      std::size_t off = 0;
      Frame frame;
      std::size_t consumed = 0;
      std::string error;
      while (DecodeFrame(std::string_view(rbuf).substr(off), &frame,
                         &consumed, &error) == DecodeResult::kFrame) {
        EXPECT_EQ(frame.header.request_id, next_id);
        EXPECT_EQ(frame.header.status, Status::kOk);
        double value = 0.0;
        ASSERT_TRUE(ParsePredictResponse(frame.payload, &value));
        const auto solo = service->PredictQoS(
            static_cast<data::UserId>(next_id % kUsers),
            static_cast<data::ServiceId>(next_id % kServices));
        ASSERT_TRUE(solo.has_value());
        EXPECT_EQ(value, *solo);  // bitwise, storm or no storm
        ++next_id;
        off += consumed;
      }
      rbuf.erase(0, off);
    }
    ASSERT_EQ(next_id, kPerRound + 1) << "round " << round;
  }

  stop.store(true, std::memory_order_relaxed);
  storm.join();

  // Zero connections were torn down and nothing was misread as a
  // protocol error: EINTR was retried everywhere, not treated as death.
  EXPECT_EQ(Counter(*service, "serve.closed"), closed_before);
  EXPECT_EQ(Counter(*service, "serve.protocol_errors"), errors_before);
  EXPECT_TRUE(client.Ping());  // the connection is still fully usable

  server.Shutdown();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);
}

TEST(ServeServerTest, StartFailsCleanlyWhenPortIsTaken) {
  const auto service = MakeTrainedService();
  ServerConfig cfg;
  cfg.run_trainer = false;
  Server first(service.get(), cfg);
  ASSERT_TRUE(first.Start()) << first.last_error();

  ServerConfig clash = cfg;
  clash.port = first.port();
  Server second(service.get(), clash);
  EXPECT_FALSE(second.Start());
  EXPECT_FALSE(second.last_error().empty());
  first.Shutdown();
}

}  // namespace
}  // namespace amf::serve
