// perfbench: the end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR
//       runs the generator, which spawns this binary again as
//   perfbench sut --workload NAME --seed N --wal-dir DIR
//       the SUT harness, driven over fds 3/4.
//
// run.py builds the binary and calls the first form.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "generator.h"
#include "sut.h"
#include "workload.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int first = 1;
  const bool sut = argc > 1 && std::string(argv[1]) == "sut";
  if (sut) first = 2;
  std::map<std::string, std::string> args;
  for (int i = first; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if ((argc - first) % 2 != 0) return Usage();
  const perfbench::Workload* workload =
      perfbench::FindWorkload(args["workload"]);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args["workload"] << "'\n";
    return 2;
  }
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  if (sut) return perfbench::RunSut(*workload, seed, args["wal-dir"]);

  perfbench::GeneratorOptions opt;
  opt.workload = workload->name;
  opt.seed = seed;
  opt.seconds = std::atof(args["seconds"].c_str());
  opt.trace = args["trace"] == "1";
  opt.work_dir = args.count("work-dir") ? args["work-dir"] : ".perfbench-work";
  if (!(opt.seconds > 0.0)) return Usage();
  return perfbench::RunGenerator(opt);
}
