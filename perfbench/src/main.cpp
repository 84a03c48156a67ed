// perfbench_harness: the measuring half of the benchmark (run.py builds it,
// starts the daemon for serve-mix and assembles the final result line).
//
//   perfbench_harness --workload sweep-util --seed 7 --seconds 10
//       --trace 0 --threads 4 --out-dir .bench_build/perfbench
//
// The last stdout line is a JSON document with the metrics, the counts of
// checked and failed operations, and provenance; the lines before it are
// the human-readable report.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// A Debug or sanitizer build measures something else than what users
/// run; its numbers are never reported.
const char* build_defect() {
#ifndef NDEBUG
  return "assertions enabled (NDEBUG not defined): Debug-style build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type is not Release or RelWithDebInfo";
  }
  return nullptr;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--socket") {
      options.socket = value;
    } else if (flag == "--expected") {
      options.expected_path = value;
    } else if (flag == "--write-expected") {
      options.write_expected = value;
    } else if (flag == "--threads") {
      options.threads = std::stoul(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  if (!(options.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    if (const char* defect = build_defect()) {
      std::fprintf(stderr, "perfbench: refusing to measure: %s\n", defect);
      return 3;
    }

    Result result;
    result.info = {
        {"workload", options.workload},
        {"seed", std::to_string(options.seed)},
        {"seconds", std::to_string(options.seconds)},
        {"trace", options.trace ? "1" : "0"},
        {"cpu", cpu_model()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"threads", std::to_string(options.threads)},
        {"compiler", PERFBENCH_COMPILER},
        {"flags", PERFBENCH_CXX_FLAGS},
        {"build_type", PERFBENCH_BUILD_TYPE},
    };

    if (options.workload == "sweep-util" || options.workload == "sweep-demand") {
      perfbench::run_sweep_workload(options, result);
    } else if (options.workload == "serve-mix") {
      perfbench::run_serve_workload(options, result);
    } else if (options.workload == "sim-validate") {
      perfbench::run_sim_workload(options, result);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    std::fflush(stdout);
    std::cout << result.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
