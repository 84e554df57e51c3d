#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "kern/backend.hpp"
#include "kern/micro.hpp"
#include "par/parallel_for.hpp"
#include "workloads.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

void set_metric(std::vector<Metric>& list, const std::string& name, double value,
                const std::string& unit, std::uint64_t samples) {
  for (Metric& m : list) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  list.push_back(Metric{name, value, unit, samples});
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

// Metrics listed in BENCHMARK.json order, with the values this run set.
std::vector<Metric> complete(const std::vector<Metric>& set,
                             const std::vector<std::pair<std::string, std::string>>& names) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : names) {
    Metric m{name, 0.0, unit, 0};
    for (const Metric& s : set) {
      if (s.name == name) m = s;
    }
    out.push_back(m);
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics, bool with_samples) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
      << ", \"unit\": \"" << m.unit << "\"";
    if (with_samples) o << ", \"samples\": " << m.samples;
    o << "}";
  }
  o << "}";
  return o.str();
}

}  // namespace

void Result::set_e2e(const std::string& name, double value, const std::string& unit,
                     std::uint64_t samples) {
  set_metric(end_to_end, name, value, unit, samples);
}

void Result::set_layer(const std::string& name, double value, const std::string& unit,
                       std::uint64_t samples) {
  set_metric(per_layer, name, value, unit, samples);
}

void Result::check(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) correct = false;
  checks.push_back(std::string(ok ? "PASS " : "FAIL ") + name + ": " + detail);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"label_latency_p50_ms", "ms"},
      {"label_latency_p99_ms", "ms"},
      {"throughput_reports_per_s", "1/s"},
      {"cpu_s_per_mreport", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"proto.feed_ns_per_report", "ns"},
      {"proto.rejected_records", "count"},
      {"assembler.accumulate_ns_per_report", "ns"},
      {"assembler.close_us_per_frame", "us"},
      {"assembler.dropped_reports", "count"},
      {"model.predict_us_per_request", "us"},
      {"model.predict_batch_us_per_request", "us"},
      {"serve.mean_batch_size", "requests"},
      {"serve.offer_retries_per_kreport", "1/kreport"},
      {"serve.gen_lateness_p99_ms", "ms"},
      {"serve.latency_drift_ratio", "ratio"},
      {"serve.cores_used", "cores"},
      {"stage.critical_path_us", "us"},
      {"stage.waiting_us", "us"},
      {"kern.gemv_ns", "ns"},
      {"kern.gemm_bias_ns", "ns"},
      {"kern.conv1d_row_ns", "ns"},
      {"kern.noise_projection_ns", "ns"},
      {"sim.run_sample_ms", "ms"},
      {"core.generate_dataset_s", "s"},
      {"core.train_s", "s"},
      {"core.evaluate_s", "s"},
      {"exp.cache_hit_rate", "share"},
      {"exp.parallel_speedup", "x"},
      {"trace.overhead_share", "share"},
      {"failed_share", "share"},
  };
  return names;
}

void print_result(const Options& opt, const Result& result) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::ostringstream fp;
  fp << "{\"nproc\": " << nproc << ", \"cpu_model\": \"" << json_escape(cpu_model())
     << "\", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
     << ", \"fma\": " << (__builtin_cpu_supports("fma") ? "true" : "false")
     << ", \"kern_backend\": \"" << m2ai::kern::active_backend_name()
     << "\", \"compiler\": \"" << json_escape(__VERSION__) << "\", \"commit\": \""
     << json_escape(opt.commit) << "\", \"seed\": " << opt.seed
     << ", \"threads_used\": " << result.threads_used << "}";

  std::printf("perfbench %s  seed %llu  %.0f s  trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("host %s\n", fp.str().c_str());
  const auto print_list = [](const char* title, const std::vector<Metric>& list) {
    std::printf("%s\n", title);
    for (const Metric& m : list) {
      if (m.samples == 0) {
        std::printf("  %-36s %14s %-9s (not on this workload's path)\n", m.name.c_str(),
                    "-", m.unit.c_str());
      } else {
        std::printf("  %-36s %14.6g %-9s n=%llu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<unsigned long long>(m.samples));
      }
    }
  };
  const std::vector<Metric> e2e = complete(result.end_to_end, end_to_end_names());
  const std::vector<Metric> layer = complete(result.per_layer, per_layer_names());
  print_list("end-to-end", e2e);
  if (opt.trace) print_list("per-layer (traced replay + untraced timed run)", layer);
  for (const std::string& note : result.notes) std::printf("note %s\n", note.c_str());
  for (const std::string& line : result.checks) std::printf("check %s\n", line.c_str());

  const double failed_share =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf(
      "PERFBENCH_DETAIL {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"host\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"failed_share\": %s, \"labels_digest\": \"%s\", \"end_to_end\": %s%s%s}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      fp.str().c_str(), result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), json_number(failed_share).c_str(),
      result.labels_digest.c_str(), metrics_json(e2e, true).c_str(),
      opt.trace ? ", \"per_layer\": " : "",
      opt.trace ? metrics_json(layer, true).c_str() : "");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(opt.trace ? layer : e2e, false).c_str());
  std::fflush(stdout);
}

int core_budget() { return m2ai::par::hardware_threads(); }

void add_kern_layers(Result& result) {
  const m2ai::kern::KernMicro micro = m2ai::kern::measure_micro(m2ai::kern::active());
  result.set_layer("kern.gemv_ns", micro.gemv_ns, "ns", 1);
  result.set_layer("kern.gemm_bias_ns", micro.gemm_bias_ns, "ns", 1);
  result.set_layer("kern.conv1d_row_ns", micro.conv1d_row_ns, "ns", 1);
  result.set_layer("kern.noise_projection_ns", micro.noise_projection_ns, "ns", 1);
}

}  // namespace perfbench
