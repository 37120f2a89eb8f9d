// perfbench: the repository benchmark.
//
//   perfbench --workload <k2000-sync|qasp-bulk|http-jobs> --seed <n>
//             --seconds <s> --trace <0|1> --refs <references.json>
//             [--trace-out <spans.json>]
//   perfbench derive-refs --refs <references.json> --seconds <s>
//
// A run prints a host fingerprint and the workload's set-up as '#' lines,
// then, as its last line, one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// perfbench/run.py builds this binary and forwards its arguments.
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "obs/build_info.hpp"
#include "references.hpp"
#include "workloads.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_fingerprint() {
  const dabs::obs::BuildInfo& build = dabs::obs::build_info();
  std::cout << "# host: cpu=\"" << cpu_model()
            << "\" nproc=" << std::thread::hardware_concurrency()
            << "\n# build: compiler=\"" << build.compiler
            << "\" build_type=" << build.build_type << " flags=\""
            << build.flags << "\" DABS_NATIVE="
            << (PERFBENCH_DABS_NATIVE ? "ON" : "OFF") << " git=" << build.git
            << " version=" << build.version << "\n";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <k2000-sync|qasp-bulk|http-jobs>"
               " --seed <n> --seconds <s> --trace <0|1> --refs <path>"
               " [--trace-out <path>]\n"
               "       perfbench derive-refs --refs <path> --seconds <s>\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool derive = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "derive-refs") {
      derive = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      usage("unexpected argument '" + a + "'");
    }
  }
  const auto need = [&](const std::string& key) {
    const auto it = args.find(key);
    if (it == args.end()) usage("missing --" + key);
    return it->second;
  };

  try {
    if (derive) {
      perfbench::derive_references(need("refs"), std::stod(need("seconds")));
      return 0;
    }
    perfbench::RunOptions opts;
    opts.workload = need("workload");
    opts.seed = std::stoull(need("seed"));
    opts.seconds = std::stod(need("seconds"));
    opts.trace = need("trace") == "1";
    opts.trace_path = args.count("trace-out") ? args["trace-out"] : "";
    if (opts.seconds <= 0.0) usage("--seconds must be positive");

    const auto refs = perfbench::load_references(need("refs"));
    print_fingerprint();
    perfbench::RunResult result;
    if (opts.workload == "http-jobs") {
      result = perfbench::run_http_workload(opts);
    } else if (refs.count(opts.workload) != 0) {
      result = perfbench::run_solver_workload(opts, refs.at(opts.workload));
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
    std::cout << "# ledger: workload=" << opts.workload
              << " attempted=" << result.attempted
              << " failed=" << result.failed
              << " correct=" << (result.correct ? "true" : "false") << "\n";
    for (const perfbench::Metric& m : result.metrics) {
      std::cout << "# " << m.name << " = " << perfbench::format_number(m.value)
                << " " << m.unit << "\n";
    }
    std::cout << result.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
