// The three perfbench workloads. Each builds its inputs from the seed,
// measures for opt.seconds, checks its outputs, and fills a Result; with
// opt.trace it also replays its own input through the same public calls,
// timing each call from outside, for the per-layer metrics.
#pragma once

#include "harness.hpp"

namespace perfbench {

// Open loop, wire-byte ingest, ~100 readers at their native report pace.
Result run_serve_realtime(const Options& opt);
// Closed loop, in-memory offer() ingest, phase-aligned readers.
Result run_serve_saturate(const Options& opt);
// Reduced experiment suite through exp::run_cells.
Result run_offline_suite(const Options& opt);

// Threads the process may run busy at once: the host's core count.
int core_budget();
// kern.* micro-timings of the active backend (kern::measure_micro).
void add_kern_layers(Result& result);

}  // namespace perfbench
