// crash_recovery_drill: kill -9 loop against the durable observation
// journal (DESIGN.md §12).
//
// A child process streams a deterministic observation sequence into a
// QoSPredictionService with checkpoints + the WAL under fsync=always,
// acknowledging each observation over a pipe only after its journal
// append is durable. The parent SIGKILLs the child mid-stream several
// times (kills land anywhere — mid-append, mid-checkpoint); each respawn
// recovers (checkpoint + journal replay) and resumes exactly where the
// journal ends. After a final uncrashed round the parent verifies the
// drill's two contracts:
//
//   1. zero acked loss — every acknowledged observation is in the
//      recovered state (the journal's last LSN covers every ack), and
//   2. bit-identity — the recovered model factors and predictions equal
//      an uncrashed control fed the same stream in one process.
//
// Emits a JSON summary (--out FILE) for CI assertions. Exit 0 on
// success, 2 on any contract violation.
//
//   crash_recovery_drill [--samples N --kill-rounds K --out FILE
//                         --dir DIR --seed S]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/prediction_service.h"
#include "common/check.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "stream/wal.h"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define AMF_DRILL_POSIX 1
#endif

namespace {

using namespace amf;

constexpr std::size_t kUsers = 6;
constexpr std::size_t kServices = 10;
constexpr std::size_t kTickEvery = 20;

// The deterministic observation stream: pairs cycle with strictly
// increasing timestamps, so every sample is validator-clean.
data::QoSSample Sample(std::size_t i) {
  return data::QoSSample{
      .slice = 0,
      .user = static_cast<data::UserId>(i % kUsers),
      .service = static_cast<data::ServiceId>((i / kUsers) % kServices),
      .value = 0.2 + 0.003 * static_cast<double>(i % 97),
      .timestamp = 1.0 + 0.1 * static_cast<double>(i)};
}

adapt::PredictionServiceConfig DrillConfig(std::uint64_t seed) {
  // replay_epochs_per_tick = 0: applying a sample sequence is then
  // RNG-free and clock-independent, which is what makes "crashed run ==
  // uncrashed control" a bitwise statement rather than a statistical one.
  return adapt::PredictionServiceConfig{core::MakeResponseTimeConfig(seed),
                                        core::TrainerConfig{}, 0};
}

std::unique_ptr<adapt::QoSPredictionService> MakeService(
    const std::string& dir, std::uint64_t seed) {
  auto svc = std::make_unique<adapt::QoSPredictionService>(DrillConfig(seed));
  for (std::size_t u = 0; u < kUsers; ++u) {
    svc->RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    svc->RegisterService(std::string("s").append(std::to_string(s)));
  }
  core::CheckpointManagerConfig ckpt;
  ckpt.directory = dir + "/ckpt";
  ckpt.interval_seconds = 2.0;  // every 20 samples of trainer time
  ckpt.retention = 3;
  svc->EnableCheckpoints(ckpt);
  stream::JournalConfig wal;
  wal.directory = dir + "/wal";
  wal.fsync_policy = stream::FsyncPolicy::kAlways;
  wal.segment_max_bytes = 4096;  // force rotation + watermark GC
  svc->EnableJournal(wal);
  return svc;
}

#ifdef AMF_DRILL_POSIX

[[noreturn]] void RunChild(int ack_fd, const std::string& dir,
                           std::uint64_t seed, std::size_t samples) {
  auto svc = MakeService(dir, seed);
  svc->Recover();
  // The journal IS the resume cursor: record lsn maps 1:1 to stream
  // index, so everything durable is exactly the stream prefix [0, lsn).
  const std::size_t resume =
      static_cast<std::size_t>(svc->journal()->last_lsn());
  for (std::size_t i = resume; i < samples; ++i) {
    svc->ReportObservation(Sample(i));
    if (svc->journal()->last_lsn() != i + 1) _exit(3);  // journal-dropped
    if ((i + 1) % kTickEvery == 0) svc->Tick(Sample(i).timestamp);
    // Durable (fsync=always happened inside ReportObservation) -> ack.
    const std::uint32_t ack = static_cast<std::uint32_t>(i);
    if (write(ack_fd, &ack, sizeof(ack)) != sizeof(ack)) _exit(4);
  }
  svc->Tick(Sample(samples - 1).timestamp);
  _exit(0);
}

#endif  // AMF_DRILL_POSIX

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    AMF_CHECK_MSG(common::StartsWith(key, "--"),
                  "expected --flag value, got " << key);
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef AMF_DRILL_POSIX
  (void)argc;
  (void)argv;
  std::cout << "{\"skipped\": \"requires POSIX fork/kill\"}\n";
  return 0;
#else
  const auto args = ParseArgs(argc, argv);
  const auto get = [&](const std::string& k, const std::string& def) {
    const auto it = args.find(k);
    return it == args.end() ? def : it->second;
  };
  const std::size_t samples =
      static_cast<std::size_t>(std::stoul(get("samples", "400")));
  const std::size_t kill_rounds =
      static_cast<std::size_t>(std::stoul(get("kill-rounds", "6")));
  const auto seed = static_cast<std::uint64_t>(std::stoul(get("seed", "17")));
  const std::string dir = get("dir", "amf_crash_drill");
  const std::string out = get("out", "");

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::size_t rounds = 0, kills = 0;
  std::int64_t max_acked = -1;
  bool completed = false;
  // Each killed round must make >= 1 durable ack of progress, so the
  // loop terminates well within samples + kill_rounds rounds.
  while (rounds < kill_rounds + samples && !completed) {
    int pipe_fds[2];
    AMF_CHECK_MSG(pipe(pipe_fds) == 0, "pipe() failed");
    const pid_t child = fork();
    AMF_CHECK_MSG(child >= 0, "fork() failed");
    if (child == 0) {
      close(pipe_fds[0]);
      RunChild(pipe_fds[1], dir, seed, samples);
    }
    close(pipe_fds[1]);
    ++rounds;
    // Kill after a fixed amount of fresh progress for the first
    // kill_rounds rounds; afterwards let the child run to completion.
    const bool lethal = rounds <= kill_rounds;
    const std::int64_t kill_after = max_acked + 30;
    std::uint32_t ack = 0;
    ssize_t got;
    while ((got = read(pipe_fds[0], &ack, sizeof(ack))) == sizeof(ack)) {
      max_acked = std::max(max_acked, static_cast<std::int64_t>(ack));
      if (lethal && max_acked >= kill_after) {
        kill(child, SIGKILL);  // lands anywhere: mid-append, mid-ckpt
        ++kills;
        break;
      }
    }
    if (got == 0) completed = true;  // EOF: child finished every sample
    close(pipe_fds[0]);
    int status = 0;
    waitpid(child, &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      std::cerr << "child failed with exit " << WEXITSTATUS(status) << "\n";
      return 2;
    }
  }
  AMF_CHECK_MSG(completed, "drill never reached an uncrashed round");

  // --- Verification ------------------------------------------------------
  auto recovered = MakeService(dir, seed);
  const adapt::QoSPredictionService::RecoveryReport rec =
      recovered->Recover();
  const std::uint64_t recovered_lsn = recovered->journal()->last_lsn();

  // Contract 1: zero acked loss. Ack i implies record i+1 was durable,
  // and the journal's LSNs are the stream prefix.
  const std::uint64_t acked = static_cast<std::uint64_t>(max_acked + 1);
  const std::uint64_t acked_loss = acked > recovered_lsn
                                       ? acked - recovered_lsn
                                       : 0;

  // Contract 2: bit-identity with an uncrashed control run.
  adapt::QoSPredictionService control(DrillConfig(seed));
  for (std::size_t u = 0; u < kUsers; ++u) {
    control.RegisterUser(std::string("u").append(std::to_string(u)));
  }
  for (std::size_t s = 0; s < kServices; ++s) {
    control.RegisterService(std::string("s").append(std::to_string(s)));
  }
  for (std::size_t i = 0; i < samples; ++i) {
    control.ReportObservation(Sample(i));
    if ((i + 1) % kTickEvery == 0) control.Tick(Sample(i).timestamp);
  }
  control.Tick(Sample(samples - 1).timestamp);

  std::uint64_t factor_mismatches = 0;
  const core::AmfModel& a = recovered->model();
  const core::AmfModel& b = control.model();
  if (a.num_users() != b.num_users() ||
      a.num_services() != b.num_services()) {
    ++factor_mismatches;
  } else {
    for (data::UserId u = 0; u < a.num_users(); ++u) {
      const auto fa = a.UserFactors(u);
      const auto fb = b.UserFactors(u);
      for (std::size_t k = 0; k < fa.size(); ++k) {
        if (fa[k] != fb[k]) ++factor_mismatches;
      }
    }
    for (data::ServiceId s = 0; s < a.num_services(); ++s) {
      const auto fa = a.ServiceFactors(s);
      const auto fb = b.ServiceFactors(s);
      for (std::size_t k = 0; k < fa.size(); ++k) {
        if (fa[k] != fb[k]) ++factor_mismatches;
      }
    }
  }
  std::uint64_t prediction_mismatches = 0;
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t s = 0; s < kServices; ++s) {
      const auto pa = recovered->PredictQoS(static_cast<data::UserId>(u),
                                            static_cast<data::ServiceId>(s));
      const auto pb = control.PredictQoS(static_cast<data::UserId>(u),
                                         static_cast<data::ServiceId>(s));
      if (pa.has_value() != pb.has_value() ||
          (pa && (*pa != *pb || !std::isfinite(*pa)))) {
        ++prediction_mismatches;
      }
    }
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"samples\": " << samples << ",\n"
       << "  \"rounds\": " << rounds << ",\n"
       << "  \"kills\": " << kills << ",\n"
       << "  \"acked\": " << acked << ",\n"
       << "  \"recovered_lsn\": " << recovered_lsn << ",\n"
       << "  \"acked_loss\": " << acked_loss << ",\n"
       << "  \"final_checkpoint_restored\": "
       << (rec.checkpoint_restored ? "true" : "false") << ",\n"
       << "  \"final_watermark\": " << rec.watermark << ",\n"
       << "  \"final_replayed\": " << rec.replayed << ",\n"
       << "  \"quarantined_segments\": " << rec.quarantined_segments << ",\n"
       << "  \"factor_bit_mismatches\": " << factor_mismatches << ",\n"
       << "  \"prediction_bit_mismatches\": " << prediction_mismatches << "\n"
       << "}";
  if (!out.empty()) {
    std::ofstream os(out, std::ios::trunc);
    AMF_CHECK_MSG(os.good(), "cannot open --out file " << out);
    os << json.str() << "\n";
  }
  std::cout << json.str() << "\n";

  const bool ok = acked_loss == 0 && factor_mismatches == 0 &&
                  prediction_mismatches == 0 && kills == kill_rounds &&
                  recovered_lsn == samples;
  if (!ok) {
    std::cerr << "CRASH DRILL FAILED\n";
    return 2;
  }
  return 0;
#endif  // AMF_DRILL_POSIX
}
