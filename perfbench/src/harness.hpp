// Shared pieces of the perfbench program: clocks, process CPU and memory,
// order statistics, the result record every workload fills, and its
// printing (human-readable lines, a detail JSON line, and the final result
// line the benchmark contract asks for).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock in nanoseconds (steady_clock).
std::int64_t now_ns();
// Process CPU time (user + system, all threads) in seconds.
double process_cpu_s();
// Peak resident set size of the process in MiB.
double peak_rss_mb();

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
// Takes a copy because it sorts.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// 64-bit FNV-1a, folded incrementally.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* data, std::size_t n);
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
  void add_str(const std::string& s) { add(s.data(), s.size()); add_u64(s.size()); }
  std::string hex() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // 0: layer not on this workload's path
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> checks;  // one line per correctness check
  std::vector<std::string> notes;   // stage budget and other context
  std::string labels_digest;        // digest of every label / CSV row
  int threads_used = 0;

  void set_e2e(const std::string& name, double value, const std::string& unit,
               std::uint64_t samples);
  void set_layer(const std::string& name, double value, const std::string& unit,
                 std::uint64_t samples);
  // Records a named check; a failing check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
};

// Every end-to-end and per-layer metric name, in BENCHMARK.json order. A
// workload that leaves one unset reports it as 0 with 0 samples.
const std::vector<std::pair<std::string, std::string>>& end_to_end_names();
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

// Prints the fingerprint, every metric with unit and sample count, checks,
// notes, a `PERFBENCH_DETAIL {...}` line, and finally the contract's result
// line (end-to-end metrics, or per-layer ones when tracing).
void print_result(const Options& opt, const Result& result);

}  // namespace perfbench
