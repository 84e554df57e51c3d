// perfbench — the M2AI benchmark program.
//
//   m2ai_perfbench --workload serve_realtime|serve_saturate|offline_suite
//                  --seed N --seconds S --trace 0|1 [--commit ID]
//
// Builds the workload's inputs from the seed, measures for S seconds, checks
// the outputs, and prints every metric with its unit and sample count. The
// last stdout line is the result object: end-to-end metrics, or with
// --trace 1 the per-layer metrics of a traced single-threaded replay.
// Exit code 0 when the run completed (the result says whether it was
// correct), 2 on bad arguments, 1 on an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: m2ai_perfbench --workload serve_realtime|serve_saturate|"
               "offline_suite --seed N --seconds S --trace 0|1 [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--commit") {
      opt.commit = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || opt.seconds <= 0.0) return usage();

  try {
    perfbench::Result result;
    if (opt.workload == "serve_realtime") {
      result = perfbench::run_serve_realtime(opt);
    } else if (opt.workload == "serve_saturate") {
      result = perfbench::run_serve_saturate(opt);
    } else if (opt.workload == "offline_suite") {
      result = perfbench::run_offline_suite(opt);
    } else {
      return usage();
    }
    const double failed_share =
        result.attempted == 0 ? 1.0
                              : static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted);
    result.set_layer("failed_share", failed_share, "share", result.attempted);
    perfbench::print_result(opt, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m2ai_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
