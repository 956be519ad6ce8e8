// Serving front-end benchmark: latency vs offered load over the binary
// protocol, plus the request-coalescing ratio (DESIGN.md §14).
//
// Boots a warmed ConcurrentPredictionService behind serve::Server on an
// ephemeral loopback port in this process, then drives the standard
// phase plan (warmup -> three open-loop offered-load levels ->
// flash-crowd burst -> mixed read/report closed loop) through real
// sockets. Open-loop phases send on absolute deadlines, so the reported
// p50/p95/p99 include queueing honestly (no coordinated omission).
//
// Emits BENCH_serving.json. Flags:
//   --quick       smaller rates/durations (CI smoke)
//   --out <path>  JSON output path (default BENCH_serving.json)
//
// Honesty notes:
//   - Client and server share this host, so the latencies are loopback
//     RTT + server time, and high offered loads contend with the server
//     for cores; the numbers compare load levels against each other on
//     one machine, they are not cross-machine capacity claims.
//   - The coalescing ratio is computed from server-side counter deltas
//     (serve.coalesce.requests / serve.coalesce.flushes), not inferred
//     by the client.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "adapt/concurrent_service.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/amf_predictor.h"
#include "obs/export.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace {

using namespace amf;

constexpr std::size_t kUsers = 64;
constexpr std::size_t kServices = 256;
constexpr std::size_t kConnections = 8;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: serving [--quick] [--out path]\n";
      return 1;
    }
  }

  adapt::PredictionServiceConfig cfg;
  cfg.model = core::MakeResponseTimeConfig(2014);
  adapt::ConcurrentPredictionService service(cfg, 4096);
  for (std::size_t u = 0; u < kUsers; ++u) {
    service.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    service.RegisterService(std::string("s").append(std::to_string(s)));
  }
  {
    common::Rng rng(2014 ^ 0x5e);
    common::Stopwatch clock;
    for (std::size_t i = 0; i < kUsers * kServices / 4; ++i) {
      service.ReportObservation(data::QoSSample{
          .slice = 0,
          .user = static_cast<data::UserId>(rng.Index(kUsers)),
          .service = static_cast<data::ServiceId>(rng.Index(kServices)),
          .value = rng.LogNormal(-1.0, 0.5),
          .timestamp = clock.ElapsedSeconds()});
      if ((i & 1023) == 1023) service.Tick(clock.ElapsedSeconds());
    }
    service.TrainToConvergence(clock.ElapsedSeconds());
  }

  serve::ServerConfig sc;
  sc.port = 0;  // ephemeral
  serve::Server server(&service, sc);
  if (!server.Start()) {
    std::cerr << "serving bench: " << server.last_error() << "\n";
    return 2;
  }

  serve::LoadGenConfig lg;
  lg.port = server.port();
  const std::string before = obs::ToJson(service.metrics().Snapshot());
  std::vector<serve::PhaseResult> results;
  for (const serve::LoadPhase& phase : serve::StandardPhasePlan(
           quick, kConnections, kUsers, kServices)) {
    std::cerr << "serving bench: phase " << phase.name << "\n";
    const auto result = serve::RunLoadPhase(lg, phase);
    if (!result) {
      std::cerr << "serving bench: phase " << phase.name << " failed\n";
      return 2;
    }
    results.push_back(*result);
  }
  const std::string after = obs::ToJson(service.metrics().Snapshot());
  server.Shutdown();

  const std::string json = serve::RenderServingReport(
      quick, kConnections, results,
      serve::ComputeServingDeltas(before, after));
  std::ofstream os(out_path, std::ios::trunc);
  if (!os.good()) {
    std::cerr << "serving bench: cannot open " << out_path << "\n";
    return 2;
  }
  os << json;
  std::cout << json;
  return 0;
}
