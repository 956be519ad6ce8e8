// SUT harness (see sut.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "workload.h"

namespace perfbench {

/// Serves `workload` for the generator on the fd 3 / fd 4 control
/// channel. `wal_dir` holds the journal when the workload arms one.
int RunSut(const Workload& workload, std::uint64_t seed,
           const std::string& wal_dir);

}  // namespace perfbench
