// offline_suite: Figs. 10, 16 and 17 at smoke scale through exp::run_cells,
// repeated for the run's seconds. Every pass regenerates its datasets (each
// run_cells call owns a fresh DatasetCache), so a pass is the full
// simulate -> frames -> train -> evaluate path.
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "exp/fingerprint.hpp"
#include "exp/runner.hpp"
#include "experiments/experiments.hpp"
#include "obs/metrics.hpp"
#include "par/parallel_for.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace m2ai;

namespace {

constexpr double kScale = 0.1;  // m2ai_bench --smoke
constexpr int kSetupRepeats = 3;

// The suite's experiments with every dataset seed and the runner's cell
// seed derived from `seed`. Cells that shared a dataset still share it.
exp::Registry build_registry(std::uint64_t seed) {
  exp::Registry all;
  bench::register_fig10_calibration(all);
  bench::register_fig16_inputs(all);
  bench::register_fig17_networks(all);
  exp::Registry registry;
  for (exp::Experiment e : all.all()) {
    for (exp::Cell& cell : e.cells) cell.config.seed ^= seed * 0x9e3779b97f4a7c15ULL;
    registry.add(std::move(e));
  }
  return registry;
}

// One sample per distinct dataset config: fills the process-wide lazy state
// (steering tables) before timing, and times Pipeline::run_sample.
std::vector<double> warm_samples(const exp::Registry& registry) {
  std::map<std::string, core::ExperimentConfig> distinct;
  for (const exp::Experiment& e : registry.all()) {
    for (const exp::Cell& cell : e.cells) {
      distinct.emplace(exp::dataset_fingerprint(cell.config), cell.config);
    }
  }
  std::vector<core::ExperimentConfig> configs;
  for (const auto& [fp, config] : distinct) configs.push_back(config);
  std::vector<double> ms(configs.size());
  par::parallel_for(configs.size(), [&](std::size_t i) {
    core::Pipeline pipeline(configs[i].pipeline, configs[i].seed);
    const std::int64_t t0 = now_ns();
    pipeline.run_sample(1, pipeline.fork_sample_rng());
    ms[i] = static_cast<double>(now_ns() - t0) / 1e6;
  });
  return ms;
}

// Rows that differ from the reference pass, counted per cell.
std::uint64_t differing_cells(const exp::SuiteResult& ref, const exp::SuiteResult& got) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    if (i >= got.outcomes.size() || got.outcomes[i].rows != ref.outcomes[i].rows ||
        got.outcomes[i].experiment_id != ref.outcomes[i].experiment_id) {
      ++bad;
    }
  }
  if (got.outcomes.size() > ref.outcomes.size()) bad += got.outcomes.size() - ref.outcomes.size();
  return bad;
}

}  // namespace

Result run_offline_suite(const Options& opt) {
  Result res;
  util::set_log_level(util::LogLevel::kWarn);
  // As in m2ai_bench: the suite always counts its cache traffic and reader
  // reports through the obs registry.
  obs::set_enabled(true);
  const int threads = core_budget();
  par::set_num_threads(threads);
  res.threads_used = threads;
  bench::set_scale_override(kScale);

  std::vector<double> setup_times, sim_ms;
  exp::Registry registry;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    registry = build_registry(opt.seed);
    sim_ms = warm_samples(registry);
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  res.set_e2e("setup_s", median(setup_times), "s", setup_times.size());
  res.set_layer("sim.run_sample_ms", median(sim_ms), "ms", sim_ms.size());

  exp::RunnerOptions runner;
  runner.suite_seed ^= opt.seed;
  runner.verbose = false;

  // ---- Timed passes, each checked against the first.
  obs::Counter& readings = obs::registry().counter("reader.readings");
  std::vector<double> wall_ms, speedups;
  double cpu_total = 0.0, wall_total = 0.0;
  std::uint64_t reports = 0, bad_cells = 0, cells = 0;
  exp::SuiteResult reference;
  const std::int64_t start = now_ns();
  for (;;) {
    const std::uint64_t r0 = readings.value();
    const double c0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    exp::SuiteResult pass = exp::run_cells(registry, {}, runner);
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    cpu_total += process_cpu_s() - c0;
    wall_total += wall;
    reports += readings.value() - r0;
    wall_ms.push_back(wall * 1e3);
    speedups.push_back(pass.cell_seconds / pass.wall_seconds);
    cells += registry.total_cells();
    if (wall_ms.size() == 1) {
      if (pass.outcomes.size() != registry.total_cells()) {
        bad_cells += registry.total_cells();
      }
      reference = std::move(pass);
    } else {
      bad_cells += differing_cells(reference, pass);
    }
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (wall_ms.size() >= 2 && elapsed + wall > opt.seconds) break;
  }
  res.set_e2e("label_latency_p50_ms", quantile(wall_ms, 0.5), "ms", wall_ms.size());
  res.set_e2e("label_latency_p99_ms", quantile(wall_ms, 0.99), "ms", wall_ms.size());
  res.set_e2e("throughput_reports_per_s", static_cast<double>(reports) / wall_total, "1/s",
              reports);
  res.set_e2e("cpu_s_per_mreport", cpu_total / (static_cast<double>(reports) / 1e6), "s",
              reports);
  res.set_layer("serve.cores_used", cpu_total / wall_total, "cores", wall_ms.size());
  res.set_layer("exp.cache_hit_rate", reference.cache.hit_rate(), "share",
                reference.cache.hits + reference.cache.misses);
  res.set_layer("exp.parallel_speedup", median(speedups), "x", speedups.size());
  res.notes.push_back("suite_wall_s " + std::to_string(quantile(wall_ms, 0.5) / 1e3) +
                      " s (median of " + std::to_string(wall_ms.size()) + " passes at " +
                      std::to_string(threads) + " threads, scale " + std::to_string(kScale) +
                      ")");

  Digest digest;
  for (const exp::CellOutcome& out : reference.outcomes) {
    digest.add_str(out.experiment_id);
    for (const auto& row : out.rows) {
      for (const std::string& field : row) digest.add_str(field);
    }
  }
  res.labels_digest = digest.hex();
  res.check("csv_repeatable", bad_cells == 0,
            std::to_string(bad_cells) + " of " + std::to_string(cells) +
                " cells differ from the first pass (each pass regenerates its datasets)");

  if (opt.trace) {
    // Single-threaded replay of the same cells: the CSV rows must not depend
    // on the thread count, and its wall time over the timed median is the
    // suite's parallel speedup.
    par::ScopedNumThreads serial(1);
    const std::int64_t t0 = now_ns();
    const exp::SuiteResult single = exp::run_cells(registry, {}, runner);
    const double single_s = static_cast<double>(now_ns() - t0) / 1e9;
    const std::uint64_t bad = differing_cells(reference, single);
    cells += registry.total_cells();
    bad_cells += bad;
    res.check("csv_thread_invariant", bad == 0,
              std::to_string(bad) + " cells differ between 1 and " +
                  std::to_string(threads) + " threads");
    res.set_layer("exp.parallel_speedup", single_s / (quantile(wall_ms, 0.5) / 1e3), "x",
                  wall_ms.size() + 1);

    // The core calls one cell makes, timed from outside on the suite's first
    // dataset config.
    const core::ExperimentConfig& config = registry.all().front().cells.front().config;
    std::int64_t c0 = now_ns();
    const core::DataSplit split = core::generate_dataset(config);
    const double generate_s = static_cast<double>(now_ns() - c0) / 1e9;
    c0 = now_ns();
    const core::M2AIResult m2ai = core::train_and_evaluate(config, split);
    const double total_s = static_cast<double>(now_ns() - c0) / 1e9;
    const std::uint64_t samples = split.train.size() + split.test.size();
    res.set_layer("core.generate_dataset_s", generate_s, "s", samples);
    res.set_layer("core.train_s", m2ai.train_seconds, "s", split.train.size());
    res.set_layer("core.evaluate_s", total_s - m2ai.train_seconds, "s", split.test.size());
    add_kern_layers(res);
  }
  res.attempted = cells;
  res.failed = bad_cells;
  res.set_e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  return res;
}

}  // namespace perfbench
