// Load generator and result reporting (see generator.cpp).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct GeneratorOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the SUT's journal; created if missing.
  std::string work_dir;
};

/// Runs one workload end to end and prints the metadata line and the
/// result line on stdout. Returns the process exit code: 0 only when
/// every correctness gate passed.
int RunGenerator(const GeneratorOptions& options);

}  // namespace perfbench
