// perfbench entry point:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress to stderr, the host's steal share during the measured
// phase to stdout and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tpch-wakeblock-w1|serve-ingest --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string flag = argv[i];
      std::string value = argv[i + 1];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return Usage("bad flag value");
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed);
  // Paths are relative to the checkout root, where run.py starts us.
  args.work_dir = ".bench_build/work/" + tag + "-" + std::to_string(getpid());
  args.trace_file = ".bench_build/traces/" + tag + ".json";
  namespace fs = std::filesystem;
  fs::create_directories(args.work_dir);
  if (args.trace) {
    fs::create_directories(fs::path(args.trace_file).parent_path());
  }

  perfbench::RunResult result;
  int code = 0;
  try {
    if (args.workload == "tpch-wakeblock-w1") {
      result = perfbench::RunTpchWakeblock(args);
    } else if (args.workload == "serve-ingest") {
      result = perfbench::RunServeIngest(args);
    } else {
      code = Usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    code = 1;
  }
  std::error_code ignored;
  fs::remove_all(args.work_dir, ignored);
  if (code != 0) return code;
  for (const std::string& why : result.problems) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
  // Steal moves every latency of a run together; repeat.py reads this
  // line to tell a noisy host from a slower program.
  if (result.steal_pct >= 0) {
    std::printf("perfbench: host steal %.2f%% during the measured phase\n",
                result.steal_pct);
  }
  std::cout << result.ToJson() << std::endl;
  return 0;
}
