// absbench: the repository's benchmark harness.
//
//   absbench --workload dense-tts|sparse-tts|serve-mix --seed N --seconds S
//            --trace 0|1 [--target E --cap S] [--instance-seed K]
//            [--work-dir DIR] [--trace-out FILE]
//
// Prints one JSON object as its last line: correct, attempted, failed,
// metrics ({"name": {"value", "unit"}}) and env. absbench/run.py wraps it.
// Exit codes: 0 ok, 1 a reported solution did not verify, 2 usage,
// 3 the run is invalid (an error, or serve-mix's backlog grew).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "absbench: %s\nusage: absbench --workload "
               "dense-tts|sparse-tts|serve-mix --seed N --seconds S "
               "--trace 0|1 [--target E --cap S] [--instance-seed K] "
               "[--work-dir DIR] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  absbench::Options options;
  bool have_target = false;
  long long target = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--target") {
      target = std::strtoll(value.c_str(), nullptr, 10);
      have_target = true;
    } else if (flag == "--cap") {
      options.cap_seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--instance-seed") {
      options.instance_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) return usage("--seconds must be positive");

  absbench::Sheet sheet;
  bool verified = false;
  try {
    if (options.workload == "dense-tts" || options.workload == "sparse-tts") {
      if (!have_target || options.cap_seconds <= 0) {
        return usage("the solve workloads need --target and --cap");
      }
      verified = absbench::run_solve(options, target, sheet);
    } else if (options.workload == "serve-mix") {
      verified = absbench::run_serve_mix(options, sheet);
    } else {
      const std::string why = "unknown workload " + options.workload;
      return usage(why.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "absbench: %s\n", error.what());
    return 3;
  }
  std::printf("%s\n", sheet.json().c_str());
  std::fflush(stdout);
  return verified ? 0 : 1;
}
