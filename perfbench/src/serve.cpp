// serve_realtime and serve_saturate: reader streams driven through
// serve::Service by one generator thread, then checked label for label
// against a single-threaded replay of the same input through
// proto::FrameParser -> serve::StreamAssembler -> core::M2AINetwork.
//
// Every stream replays one of kSources simulated samples (reports shifted by
// one sample duration per repeat). A stream's labels therefore depend only
// on its source and on how many windows it sent, so the replay runs once per
// source, as far as the furthest stream of that source got.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "par/parallel_for.hpp"
#include "proto/parser.hpp"
#include "proto/wire.hpp"
#include "serve/assembler.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace m2ai;

namespace {

constexpr int kSources = 8;
constexpr int kStreams = 100;
constexpr int kSetupRepeats = 3;
constexpr int kNumClasses = 12;
// Sequences kept from the replay to time predict_batch on.
constexpr std::size_t kBatchProbe = 64;

// The unbounded report stream of one source: its sample's reports, repeated
// with every repeat shifted by the sample duration.
struct SourceStream {
  const std::vector<sim::TagReport>* base = nullptr;
  double period = 0.0;
  double t_begin = 0.0;
  double window = 0.0;

  sim::TagReport report(std::size_t k) const {
    const std::size_t n = base->size();
    sim::TagReport r = (*base)[k % n];
    r.time_sec += period * static_cast<double>(k / n);
    return r;
  }
  // Same window arithmetic as serve::StreamAssembler::ingest.
  long window_of(std::size_t k) const {
    return static_cast<long>(std::floor((report(k).time_sec - t_begin) / window));
  }
  // Reports that fall before window `w_end`.
  std::size_t reports_before(long w_end) const {
    std::size_t k = 0;
    while (window_of(k) < w_end) ++k;
    return k;
  }
};

struct ServeInputs {
  core::PipelineConfig pipeline;
  core::ModelConfig model;
  std::vector<core::SampleRun> runs;
  std::vector<SourceStream> sources;
  std::vector<double> sim_ms;  // per source, Pipeline::run_sample wall time
  int sequence_frames = 0;

  int num_tags() const { return pipeline.num_persons * pipeline.tags_per_person; }
  std::unique_ptr<core::M2AINetwork> network() const {
    return std::make_unique<core::M2AINetwork>(model, pipeline.feature_mode, num_tags(),
                                               pipeline.num_antennas, kNumClasses);
  }
};

ServeInputs simulate_sources(std::uint64_t seed) {
  ServeInputs in;
  in.model.seed = seed * 2654435761ULL + 7;
  in.sequence_frames = in.pipeline.windows_per_sample;
  core::Pipeline pipeline(in.pipeline, seed);
  std::vector<util::Rng> rngs;
  for (int a = 0; a < kSources; ++a) rngs.push_back(pipeline.fork_sample_rng());
  in.runs.resize(kSources);
  in.sim_ms.resize(kSources);
  par::parallel_for(kSources, [&](std::size_t a) {
    const std::int64_t t0 = now_ns();
    const int activity = 1 + static_cast<int>((a + seed) % kNumClasses);
    in.runs[a] = pipeline.run_sample(activity, rngs[a]);
    in.sim_ms[a] = static_cast<double>(now_ns() - t0) / 1e6;
  });
  // Window 0 starts where Pipeline::run_sample starts framing.
  const double t_begin = in.pipeline.phase_calibration
                             ? in.pipeline.bootstrap_sec + 0.5 * in.pipeline.window_sec
                             : 0.5 * in.pipeline.window_sec;
  for (const core::SampleRun& run : in.runs) {
    in.sources.push_back(SourceStream{&run.reports, in.pipeline.sample_duration_sec(),
                                      t_begin, in.pipeline.window_sec});
  }
  return in;
}

// Wire bytes of each source's first reports, one inventory frame per report.
struct WireInputs {
  std::vector<std::vector<std::uint8_t>> bytes;      // per source
  std::vector<std::vector<std::size_t>> offsets;     // per source, n + 1
  const std::uint8_t* frame(int source, std::size_t k, std::size_t& len) const {
    const auto& off = offsets[static_cast<std::size_t>(source)];
    len = off[k + 1] - off[k];
    return bytes[static_cast<std::size_t>(source)].data() + off[k];
  }
};

WireInputs serialize_sources(const ServeInputs& in, long windows) {
  WireInputs wire;
  const proto::WireOptions options;
  for (const SourceStream& src : in.sources) {
    const std::size_t n = src.reports_before(windows);
    std::vector<std::uint8_t> bytes;
    std::vector<std::size_t> offsets{0};
    for (std::size_t k = 0; k < n; ++k) {
      proto::append_report_frame(src.report(k), options, bytes);
      offsets.push_back(bytes.size());
    }
    wire.bytes.push_back(std::move(bytes));
    wire.offsets.push_back(std::move(offsets));
  }
  return wire;
}

// Per-call times of the traced replay, summed.
struct LayerTimes {
  std::uint64_t feed_reports = 0;
  std::int64_t feed_ns = 0;
  std::uint64_t accumulate_calls = 0;
  std::int64_t accumulate_ns = 0;
  std::uint64_t close_frames = 0;
  std::int64_t close_ns = 0;
  std::uint64_t predict_calls = 0;
  std::int64_t predict_ns = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rejected_records = 0;
  std::vector<core::FrameSequence> probe;  // first sequences, for predict_batch
};

// Labels of one source's stream fed up to `windows_end`, then flushed —
// exactly the calls the service makes for one stream, in one thread.
// `times` null runs untraced.
std::vector<int> replay(const ServeInputs& in, int source, long windows_end,
                        const WireInputs* wire, core::M2AINetwork& net,
                        LayerTimes* times) {
  const SourceStream& src = in.sources[static_cast<std::size_t>(source)];
  serve::StreamAssembler assembler(in.pipeline,
                                   in.runs[static_cast<std::size_t>(source)].calibrator.get(),
                                   in.num_tags(), src.t_begin);
  proto::FrameParser parser;
  std::vector<sim::TagReport> parsed;
  std::deque<core::SpectrumFrame> recent;
  std::vector<int> labels(static_cast<std::size_t>(std::max<long>(windows_end, 1)), -1);
  const auto seq_len = static_cast<std::size_t>(in.sequence_frames);
  std::size_t closed = 0;
  bool requested = false;

  const auto predict = [&] {
    const core::FrameSequence seq(recent.begin(), recent.end());
    const std::int64_t t0 = times ? now_ns() : 0;
    const int label = net.predict(seq);
    if (times) {
      times->predict_ns += now_ns() - t0;
      ++times->predict_calls;
      if (times->probe.size() < kBatchProbe) times->probe.push_back(seq);
    }
    if (closed > labels.size()) labels.resize(closed, -1);
    labels[closed - 1] = label;
    requested = true;
  };
  const auto on_frames = [&](std::vector<core::SpectrumFrame> frames) {
    for (core::SpectrumFrame& frame : frames) {
      recent.push_back(std::move(frame));
      if (recent.size() > seq_len) recent.pop_front();
      ++closed;
      if (recent.size() == seq_len) predict();
    }
  };
  const auto ingest = [&](const sim::TagReport& report) {
    if (times == nullptr) {
      on_frames(assembler.ingest(report));
      return;
    }
    const std::int64_t t0 = now_ns();
    std::vector<core::SpectrumFrame> frames = assembler.ingest(report);
    const std::int64_t dt = now_ns() - t0;
    if (frames.empty()) {
      times->accumulate_ns += dt;
      ++times->accumulate_calls;
    } else {
      times->close_ns += dt;
      times->close_frames += frames.size();
    }
    on_frames(std::move(frames));
  };

  const std::size_t n = src.reports_before(windows_end);
  for (std::size_t k = 0; k < n; ++k) {
    if (wire == nullptr) {
      ingest(src.report(k));
      continue;
    }
    std::size_t len = 0;
    const std::uint8_t* bytes = wire->frame(source, k, len);
    parsed.clear();
    const std::int64_t t0 = times ? now_ns() : 0;
    parser.feed(bytes, len, parsed);
    if (times) {
      times->feed_ns += now_ns() - t0;
      times->feed_reports += parsed.size();
    }
    for (const sim::TagReport& r : parsed) ingest(r);
  }
  on_frames(assembler.flush());
  if (!requested && !recent.empty()) predict();
  if (times) {
    times->dropped += assembler.stats().late_dropped + assembler.stats().invalid_dropped;
    times->rejected_records += parser.stats().rejected_records();
  }
  return labels;
}

// Index of the report whose arrival closes window `f` of a source.
std::vector<std::size_t> closers(const SourceStream& src, long windows) {
  std::vector<std::size_t> out;
  std::size_t k = 0;
  for (long f = 0; f < windows; ++f) {
    while (src.window_of(k) <= f) ++k;
    out.push_back(k);
  }
  return out;
}

struct LabelCheck {
  std::uint64_t expected = 0;
  std::uint64_t missing = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t unexpected = 0;
};

// Compares one stream's predictions with the replay labels of its source.
// The stream sent windows [0, windows); it is labelled at every frame from
// sequence_frames - 1 on (or once, at its last frame, if it never filled a
// sequence).
// Labels of frames below `digest_frames` go into `digest`.
void check_stream(const std::vector<serve::Prediction>& preds,
                  const std::vector<int>& reference, long windows, int sequence_frames,
                  long digest_frames, LabelCheck& check, Digest& digest) {
  const long first = std::min<long>(sequence_frames - 1, windows - 1);
  std::vector<int> got(static_cast<std::size_t>(windows), -1);
  for (const serve::Prediction& p : preds) {
    const auto f = static_cast<long>(p.frame_index);
    if (f < digest_frames) {
      digest.add_u64(p.frame_index);
      digest.add_u64(static_cast<std::uint64_t>(p.label));
    }
    if (f < first || f >= windows || got[static_cast<std::size_t>(f)] != -1) {
      ++check.unexpected;
      continue;
    }
    got[static_cast<std::size_t>(f)] = p.label;
  }
  for (long f = first; f < windows; ++f) {
    ++check.expected;
    const int label = got[static_cast<std::size_t>(f)];
    if (label == -1) {
      ++check.missing;
    } else if (static_cast<std::size_t>(f) >= reference.size() ||
               label != reference[static_cast<std::size_t>(f)]) {
      ++check.mismatched;
    }
  }
}

double p99_ratio(std::vector<std::pair<double, double>> due_and_latency) {
  if (due_and_latency.size() < 4) return 1.0;
  std::sort(due_and_latency.begin(), due_and_latency.end());
  const std::size_t half = due_and_latency.size() / 2;
  std::vector<double> a, b;
  for (std::size_t i = 0; i < due_and_latency.size(); ++i) {
    (i < half ? a : b).push_back(due_and_latency[i].second);
  }
  const double pa = quantile(a, 0.99);
  return pa > 0.0 ? quantile(b, 0.99) / pa : 1.0;
}

// Runs the untraced replay (labels for the check), and with tracing a second,
// traced replay for the per-layer metrics and the trace overhead, plus
// predict_batch timed at the timed run's mean micro-batch.
struct ReplayRun {
  std::vector<std::vector<int>> labels;  // per source
  LayerTimes times;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  bool traced_labels_match = true;
  std::int64_t batch_ns = 0;
  std::uint64_t batch_requests = 0;
};

ReplayRun replay_sources(const ServeInputs& in, const std::vector<long>& windows_end,
                         const WireInputs* wire, bool trace, double mean_batch) {
  ReplayRun run;
  auto net = in.network();
  std::int64_t t0 = now_ns();
  for (int a = 0; a < kSources; ++a) {
    run.labels.push_back(replay(in, a, windows_end[static_cast<std::size_t>(a)], wire,
                                *net, nullptr));
  }
  run.untraced_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (!trace) return run;
  t0 = now_ns();
  for (int a = 0; a < kSources; ++a) {
    const std::vector<int> labels =
        replay(in, a, windows_end[static_cast<std::size_t>(a)], wire, *net, &run.times);
    if (labels != run.labels[static_cast<std::size_t>(a)]) run.traced_labels_match = false;
  }
  run.traced_s = static_cast<double>(now_ns() - t0) / 1e9;

  const std::vector<core::FrameSequence>& probe = run.times.probe;
  if (!probe.empty()) {
    const std::size_t batch = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(std::max(mean_batch, 1.0))), 1, probe.size());
    for (std::size_t i = 0; i + batch <= probe.size(); i += batch) {
      std::vector<const core::FrameSequence*> seqs;
      for (std::size_t j = i; j < i + batch; ++j) seqs.push_back(&probe[j]);
      const std::int64_t b0 = now_ns();
      net->predict_batch(seqs);
      run.batch_ns += now_ns() - b0;
      run.batch_requests += batch;
    }
  }
  return run;
}

double per(std::int64_t total, std::uint64_t count, double scale) {
  return static_cast<double>(total) / scale / static_cast<double>(std::max<std::uint64_t>(count, 1));
}

// Per-layer rows both serve workloads share, from the traced replay and the
// service counters of the timed run.
void add_replay_layers(Result& res, const ReplayRun& rr, const serve::ServiceStats& stats,
                       bool wire) {
  const LayerTimes& t = rr.times;
  if (wire) {
    res.set_layer("proto.feed_ns_per_report", per(t.feed_ns, t.feed_reports, 1.0), "ns",
                  t.feed_reports);
    res.set_layer("proto.rejected_records",
                  static_cast<double>(stats.wire.rejected_records() + t.rejected_records),
                  "count", stats.wire.reports + t.feed_reports);
  }
  res.set_layer("assembler.accumulate_ns_per_report",
                per(t.accumulate_ns, t.accumulate_calls, 1.0), "ns", t.accumulate_calls);
  res.set_layer("assembler.close_us_per_frame", per(t.close_ns, t.close_frames, 1e3), "us",
                t.close_frames);
  res.set_layer("assembler.dropped_reports",
                static_cast<double>(stats.late_dropped + stats.invalid_dropped + t.dropped),
                "count", stats.reports + t.accumulate_calls + t.close_frames);
  res.set_layer("model.predict_us_per_request", per(t.predict_ns, t.predict_calls, 1e3), "us",
                t.predict_calls);
  res.set_layer("model.predict_batch_us_per_request", per(rr.batch_ns, rr.batch_requests, 1e3),
                "us", rr.batch_requests);
  res.set_layer("serve.mean_batch_size",
                static_cast<double>(stats.predictions) /
                    static_cast<double>(std::max<std::uint64_t>(stats.batches, 1)),
                "requests", stats.batches);
  res.set_layer("trace.overhead_share",
                rr.untraced_s > 0.0 ? rr.traced_s / rr.untraced_s - 1.0 : 0.0, "share",
                t.predict_calls);
}

// Critical path of one label from the traced replay: the closing report's
// parse, the window close, and one predict. The timed run's median label
// latency minus that is time the label spent waiting.
void add_stage_budget(Result& res, const ReplayRun& rr, double p50_ms, bool wire) {
  const LayerTimes& t = rr.times;
  const double parse_us = wire ? per(t.feed_ns, t.feed_reports, 1e3) : 0.0;
  const double close_us = per(t.close_ns, t.close_frames, 1e3);
  const double predict_us = per(t.predict_ns, t.predict_calls, 1e3);
  const double accumulate_us = per(t.accumulate_ns, t.accumulate_calls, 1e3);
  const double critical = parse_us + close_us + predict_us;
  const double waiting = p50_ms * 1e3 - critical;
  res.set_layer("stage.critical_path_us", critical, "us", t.predict_calls);
  res.set_layer("stage.waiting_us", waiting, "us", t.predict_calls);
  const double reports_per_label =
      static_cast<double>(t.accumulate_calls + t.close_frames) /
      static_cast<double>(std::max<std::uint64_t>(t.predict_calls, 1));
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "stage budget per label (traced replay, us): parse %.3f + close %.1f + "
                "predict %.1f = %.1f critical path; timed label_latency_p50 %.1f us -> "
                "waiting %.1f us (%.0f%%). Off the critical path per label: accumulate "
                "%.1f reports x %.3f us. Trace overhead %.1f%% (replay %.3f s traced vs "
                "%.3f s untraced).",
                parse_us, close_us, predict_us, critical, p50_ms * 1e3, waiting,
                p50_ms > 0.0 ? 100.0 * waiting / (p50_ms * 1e3) : 0.0, reports_per_label,
                accumulate_us,
                rr.untraced_s > 0.0 ? 100.0 * (rr.traced_s / rr.untraced_s - 1.0) : 0.0,
                rr.traced_s, rr.untraced_s);
  res.notes.push_back(buf);
}

// Label and accounting checks shared by both serve workloads. Returns the
// labels that failed (missing, wrong, or unexpected).
// `digest_frames` bounds the labels digested per stream, so a closed loop,
// whose streams get as far as the run's speed allows, digests the same set
// on every run.
std::uint64_t check_labels(Result& res, const serve::Service& svc, const ServeInputs& in,
                           const ReplayRun& rr, const std::vector<long>& stream_windows,
                           long digest_frames) {
  LabelCheck lc;
  Digest digest;
  for (int s = 0; s < kStreams; ++s) {
    check_stream(svc.predictions(s), rr.labels[static_cast<std::size_t>(s % kSources)],
                 stream_windows[static_cast<std::size_t>(s)], in.sequence_frames,
                 digest_frames, lc, digest);
  }
  res.labels_digest = digest.hex();
  res.attempted = lc.expected;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%llu labels expected, %llu missing, %llu differ from the single-threaded "
                "replay, %llu unexpected",
                static_cast<unsigned long long>(lc.expected),
                static_cast<unsigned long long>(lc.missing),
                static_cast<unsigned long long>(lc.mismatched),
                static_cast<unsigned long long>(lc.unexpected));
  res.check("labels_equal_replay", lc.missing + lc.mismatched + lc.unexpected == 0, buf);
  res.check("traced_replay_labels", rr.traced_labels_match,
            "traced and untraced replays give the same labels");
  return lc.missing + lc.mismatched + lc.unexpected;
}

bool check_accounting(Result& res, const serve::ServiceStats& st, std::uint64_t offered) {
  const std::uint64_t accounted =
      st.reports + st.late_dropped + st.invalid_dropped + st.wire.rejected_records();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "offered %llu == assembled %llu + late %llu + invalid %llu + "
                "wire-rejected %llu",
                static_cast<unsigned long long>(offered),
                static_cast<unsigned long long>(st.reports),
                static_cast<unsigned long long>(st.late_dropped),
                static_cast<unsigned long long>(st.invalid_dropped),
                static_cast<unsigned long long>(st.wire.rejected_records()));
  const bool bytes_ok = st.wire.bytes_fed == st.wire.frame_bytes + st.wire.resync_bytes +
                                                 st.wire.truncated_bytes;
  res.check("report_accounting", accounted == offered && bytes_ok, buf);
  return accounted == offered && bytes_ok;
}

void check_threads(Result& res, int threads) {
  res.threads_used = threads;
  const int budget = core_budget();
  res.check("thread_budget", threads <= std::max(budget, 3),
            std::to_string(threads) + " busy threads (1 generator + " +
                std::to_string(threads - 2) + " DSP workers + 1 NN) on " +
                std::to_string(budget) + " cores");
}

// Generator + DSP workers + NN thread stay one below the core count: the
// service's idle threads spin, and with every core busy the OS preempts one
// of them for a whole time slice, which showed up as label-latency tails.
serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.dsp_workers = std::max(1, core_budget() - 3);
  return config;
}

// Builds the inputs kSetupRepeats times and reports the median set-up time;
// every repeat yields the same inputs, the last one is kept.
template <typename Prepare>
auto timed_setup(Result& res, Prepare prepare) {
  std::vector<double> times;
  std::optional<decltype(prepare())> inputs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    inputs.emplace(prepare());
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  res.set_e2e("setup_s", median(times), "s", times.size());
  return std::move(*inputs);
}

void wait_until(std::int64_t due) {
  for (;;) {
    const std::int64_t now = now_ns();
    if (now >= due) return;
    if (due - now > 2'000'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 1'000'000));
    } else {
      std::this_thread::yield();
    }
  }
}

// ------------------------------------------------------------ serve_realtime

// The windows before a stream's first label (T - 1 frames must close first)
// are sent this many times faster than native pace, so the run spends its
// seconds on labelled windows.
constexpr double kWarmupSpeedup = 4.0;

struct Event {
  std::int64_t due_ns = 0;  // relative to the schedule start
  std::int32_t stream = 0;
  std::uint32_t k = 0;      // report index within the stream
  bool paced = false;       // at native pace (past the warm-up windows)
};

struct RealtimeInputs {
  ServeInputs serve;
  WireInputs wire;
  std::vector<double> phase_s;                    // per stream
  std::vector<std::size_t> reports;               // per source: reports per stream
  std::vector<std::vector<std::size_t>> closers;  // per source: closer of each frame
  std::vector<Event> events;                      // every report, by due time
};

// Due time of report k of stream s, relative to the schedule start.
std::int64_t realtime_due_ns(const SourceStream& src, std::size_t k, double phase_s,
                             double warm_s) {
  const double t = src.report(k).time_sec - src.t_begin;
  const double g = t < warm_s ? t / kWarmupSpeedup : warm_s / kWarmupSpeedup + (t - warm_s);
  return static_cast<std::int64_t>(std::llround((phase_s + g) * 1e9));
}

RealtimeInputs prepare_realtime(std::uint64_t seed, long windows, long warm) {
  RealtimeInputs r;
  r.serve = simulate_sources(seed);
  r.wire = serialize_sources(r.serve, windows);
  const double window = r.serve.pipeline.window_sec;
  const double warm_s = static_cast<double>(warm) * window;
  util::Rng rng(seed ^ 0x7068617365ULL);
  // Stratified: stream s starts at a random point of the s-th of kStreams
  // equal slices of one window, so window closes spread evenly and every
  // seed sees the same arrival density.
  for (int s = 0; s < kStreams; ++s) {
    r.phase_s.push_back(window * (static_cast<double>(s) + rng.uniform()) / kStreams);
  }
  for (int a = 0; a < kSources; ++a) {
    const SourceStream& src = r.serve.sources[static_cast<std::size_t>(a)];
    r.reports.push_back(r.wire.offsets[static_cast<std::size_t>(a)].size() - 1);
    r.closers.push_back(closers(src, windows));
  }
  for (int s = 0; s < kStreams; ++s) {
    const SourceStream& src = r.serve.sources[static_cast<std::size_t>(s % kSources)];
    for (std::size_t k = 0; k < r.reports[static_cast<std::size_t>(s % kSources)]; ++k) {
      r.events.push_back(Event{realtime_due_ns(src, k, r.phase_s[static_cast<std::size_t>(s)], warm_s),
                               s, static_cast<std::uint32_t>(k), src.window_of(k) >= warm});
    }
  }
  std::sort(r.events.begin(), r.events.end(), [](const Event& x, const Event& y) {
    return x.due_ns != y.due_ns ? x.due_ns < y.due_ns : x.stream < y.stream;
  });
  return r;
}

}  // namespace

Result run_serve_realtime(const Options& opt) {
  Result res;
  const core::PipelineConfig defaults;
  const long warm = defaults.windows_per_sample - 1;
  const long measured = std::max<long>(2, std::lround(opt.seconds / defaults.window_sec));
  const long windows = warm + measured;
  const double warm_s = static_cast<double>(warm) * defaults.window_sec;

  const RealtimeInputs in =
      timed_setup(res, [&] { return prepare_realtime(opt.seed, windows, warm); });
  const ServeInputs& si = in.serve;

  const serve::ServeConfig config = serve_config();
  serve::Service svc(config, si.pipeline, si.network());
  for (int s = 0; s < kStreams; ++s) {
    svc.add_stream(si.runs[static_cast<std::size_t>(s % kSources)].calibrator.get(),
                   si.sources[0].t_begin);
  }
  svc.start();

  // ---- Open loop: every report at its due time, however late we are.
  std::vector<std::vector<double>> late_ms(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    late_ms[static_cast<std::size_t>(s)].resize(in.reports[static_cast<std::size_t>(s % kSources)]);
  }
  std::vector<double> paced_late;
  paced_late.reserve(in.events.size());
  const std::int64_t t0 = now_ns() + 20'000'000;
  bool paced = false;
  double cpu0 = 0.0;
  std::int64_t wall0 = 0, first_due = 0, last_due = 0, last_send = 0;
  std::uint64_t paced_reports = 0;
  for (const Event& ev : in.events) {
    const std::int64_t due = t0 + ev.due_ns;
    std::int64_t now = now_ns();
    if (now < due) {
      wait_until(due);
      now = now_ns();
    }
    if (ev.paced && !paced) {
      paced = true;
      cpu0 = process_cpu_s();
      wall0 = now;
      first_due = due;
    }
    std::size_t len = 0;
    const std::uint8_t* bytes = in.wire.frame(ev.stream % kSources, ev.k, len);
    svc.push_bytes(ev.stream, bytes, len);
    const double late = static_cast<double>(now - due) / 1e6;
    late_ms[static_cast<std::size_t>(ev.stream)][ev.k] = late;
    if (ev.paced) {
      paced_late.push_back(late);
      ++paced_reports;
      last_due = due;
      last_send = now;
    }
  }
  const double cpu1 = process_cpu_s();
  const std::int64_t wall1 = now_ns();
  svc.finish();
  const serve::ServiceStats stats = svc.stats();

  // ---- Label latency, from the due time of the report that closed the window.
  std::vector<std::pair<double, double>> due_and_latency;
  for (int s = 0; s < kStreams; ++s) {
    const auto a = static_cast<std::size_t>(s % kSources);
    for (const serve::Prediction& p : svc.predictions(s)) {
      const auto f = static_cast<long>(p.frame_index);
      if (f < warm || f + 1 >= windows) continue;  // the last frame closes at flush
      const std::size_t k = in.closers[a][static_cast<std::size_t>(f)];
      const double l = late_ms[static_cast<std::size_t>(s)][k] + p.latency_ms;
      due_and_latency.emplace_back(
          static_cast<double>(realtime_due_ns(si.sources[a], k, in.phase_s[static_cast<std::size_t>(s)], warm_s)),
          l);
    }
  }
  std::vector<double> latency;
  for (const auto& [due, l] : due_and_latency) latency.push_back(l);
  const double p50 = quantile(latency, 0.5);
  const double p99 = quantile(latency, 0.99);
  const double drift = p99_ratio(due_and_latency);
  const double span_s = static_cast<double>(last_send - wall0) / 1e9;
  const double offered_span_s = static_cast<double>(last_due - first_due) / 1e9;
  const double achieved = span_s > 0.0 ? static_cast<double>(paced_reports) / span_s : 0.0;
  const double offered_rate =
      offered_span_s > 0.0 ? static_cast<double>(paced_reports) / offered_span_s : 0.0;
  const double late_p99 = quantile(paced_late, 0.99);

  res.set_e2e("label_latency_p50_ms", p50, "ms", due_and_latency.size());
  res.set_e2e("label_latency_p99_ms", p99, "ms", due_and_latency.size());
  res.set_e2e("throughput_reports_per_s", achieved, "1/s", paced_reports);
  res.set_e2e("cpu_s_per_mreport", (cpu1 - cpu0) / (static_cast<double>(paced_reports) / 1e6),
              "s", paced_reports);
  res.set_layer("serve.gen_lateness_p99_ms", late_p99, "ms", paced_late.size());
  res.set_layer("serve.latency_drift_ratio", drift, "ratio", due_and_latency.size());
  res.set_layer("serve.cores_used", (cpu1 - cpu0) / (static_cast<double>(wall1 - wall0) / 1e9),
                "cores", paced_reports);
  res.set_layer("sim.run_sample_ms", median(si.sim_ms), "ms", si.sim_ms.size());

  // ---- Correctness.
  const double mean_batch = static_cast<double>(stats.predictions) /
                            static_cast<double>(std::max<std::uint64_t>(stats.batches, 1));
  const ReplayRun rr = replay_sources(si, std::vector<long>(kSources, windows), &in.wire,
                                      opt.trace, mean_batch);
  const std::uint64_t bad_labels =
      check_labels(res, svc, si, rr, std::vector<long>(kStreams, windows), windows);
  std::uint64_t offered = 0;
  for (int s = 0; s < kStreams; ++s) offered += in.reports[static_cast<std::size_t>(s % kSources)];
  const bool accounted = check_accounting(res, stats, offered);
  // Falling behind: the generator could not hold the schedule, or the tail
  // grew through the run (a backlog).
  const bool sustained = achieved >= 0.98 * offered_rate && late_p99 <= 50.0 &&
                         !(drift > 3.0 && p99 > 50.0);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "achieved %.0f of %.0f offered reports/s, generator lateness p99 %.3f ms, "
                "latency drift %.2f",
                achieved, offered_rate, late_p99, drift);
  res.check("sustained", sustained, buf);
  check_threads(res, 1 + config.dsp_workers + 1);
  res.failed = accounted && sustained ? bad_labels : res.attempted;

  if (opt.trace) {
    add_replay_layers(res, rr, stats, true);
    res.set_layer("serve.offer_retries_per_kreport", 0.0, "1/kreport", 0);
    add_stage_budget(res, rr, p50, true);
    add_kern_layers(res);
  }
  res.set_e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  return res;
}

// ------------------------------------------------------------ serve_saturate

// Every stream gets far past this many windows in a run (~100 at 200k
// reports/s and 7 s); the labels digest covers only these.
constexpr long kSaturateDigestFrames = 32;

Result run_serve_saturate(const Options& opt) {
  Result res;
  const ServeInputs si = timed_setup(res, [&] { return simulate_sources(opt.seed); });
  const serve::ServeConfig config = serve_config();
  serve::Service svc(config, si.pipeline, si.network());
  for (int s = 0; s < kStreams; ++s) {
    svc.add_stream(si.runs[static_cast<std::size_t>(s % kSources)].calibrator.get(),
                   si.sources[0].t_begin);
  }
  svc.start();

  // ---- Closed loop: offer each stream's next report until its ring refuses.
  // A report's wait runs from its first refused offer to its acceptance.
  struct Cursor {
    std::size_t next = 0;
    long window = 0;
    std::int64_t blocked_since = 0;
    std::vector<double> closer_wait_ms;     // per frame closed by a report
    std::vector<std::int64_t> closer_time;  // when that report was accepted
  };
  std::vector<Cursor> cur(kStreams);
  const double warm_s = 2.0;
  const std::int64_t t_start = now_ns();
  const std::int64_t t_steady = t_start + static_cast<std::int64_t>(warm_s * 1e9);
  const std::int64_t t_end = t_steady + static_cast<std::int64_t>(opt.seconds * 1e9);
  bool steady = false;
  double cpu0 = 0.0;
  std::int64_t wall0 = 0;
  std::uint64_t accepted = 0, accepted0 = 0, retries = 0, retries0 = 0;
  std::vector<double> waits;
  for (;;) {
    const std::int64_t now = now_ns();
    if (now >= t_end) break;
    if (!steady && now >= t_steady) {
      steady = true;
      cpu0 = process_cpu_s();
      wall0 = now;
      accepted0 = accepted;
      retries0 = retries;
    }
    const std::uint64_t accepted_before = accepted;
    for (int s = 0; s < kStreams; ++s) {
      Cursor& c = cur[static_cast<std::size_t>(s)];
      const SourceStream& src = si.sources[static_cast<std::size_t>(s % kSources)];
      for (int burst = 0; burst < 64; ++burst) {
        const sim::TagReport report = src.report(c.next);
        if (!svc.offer(s, report)) {
          ++retries;
          if (c.blocked_since == 0) c.blocked_since = now_ns();
          break;
        }
        const std::int64_t t = now_ns();
        const double wait = c.blocked_since ? static_cast<double>(t - c.blocked_since) / 1e6 : 0.0;
        c.blocked_since = 0;
        if (steady) waits.push_back(wait);
        for (const long w = src.window_of(c.next); c.window < w; ++c.window) {
          c.closer_wait_ms.push_back(wait);
          c.closer_time.push_back(t);
        }
        ++c.next;
        ++accepted;
      }
    }
    // Every ring was full: the rings still hold seconds of work, so a short
    // sleep costs no throughput and keeps the generator off the cores the
    // service runs on.
    if (accepted == accepted_before) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double cpu1 = process_cpu_s();
  const std::int64_t wall1 = now_ns();
  const std::uint64_t steady_reports = accepted - accepted0;
  // Complete every stream's window in progress, so each stream ends on a
  // window boundary and its last label is comparable with the replay.
  std::uint64_t offered = accepted;
  std::vector<long> stream_windows;
  for (int s = 0; s < kStreams; ++s) {
    Cursor& c = cur[static_cast<std::size_t>(s)];
    const SourceStream& src = si.sources[static_cast<std::size_t>(s % kSources)];
    while (c.next > 0 && src.window_of(c.next) == c.window) {
      svc.push(s, src.report(c.next++));
      ++offered;
    }
    stream_windows.push_back(c.window + 1);
  }
  svc.finish();
  const serve::ServiceStats stats = svc.stats();

  std::vector<std::pair<double, double>> when_and_latency;
  for (int s = 0; s < kStreams; ++s) {
    const Cursor& c = cur[static_cast<std::size_t>(s)];
    for (const serve::Prediction& p : svc.predictions(s)) {
      const std::size_t f = p.frame_index;
      if (f >= c.closer_time.size()) continue;  // closed at flush
      if (c.closer_time[f] < wall0 || c.closer_time[f] >= t_end) continue;
      const double l = c.closer_wait_ms[f] + p.latency_ms;
      when_and_latency.emplace_back(static_cast<double>(c.closer_time[f]), l);
    }
  }
  const double span_s = static_cast<double>(wall1 - wall0) / 1e9;
  std::vector<double> latency;
  for (const auto& [when, l] : when_and_latency) latency.push_back(l);
  const double p50 = quantile(latency, 0.5);
  res.set_e2e("label_latency_p50_ms", p50, "ms", latency.size());
  res.set_e2e("label_latency_p99_ms", quantile(latency, 0.99), "ms", latency.size());
  res.set_e2e("throughput_reports_per_s", static_cast<double>(steady_reports) / span_s, "1/s",
              steady_reports);
  res.set_e2e("cpu_s_per_mreport", (cpu1 - cpu0) / (static_cast<double>(steady_reports) / 1e6),
              "s", steady_reports);
  res.set_layer("serve.gen_lateness_p99_ms", quantile(waits, 0.99), "ms", waits.size());
  res.set_layer("serve.latency_drift_ratio", p99_ratio(when_and_latency), "ratio",
                when_and_latency.size());
  res.set_layer("serve.cores_used", (cpu1 - cpu0) / span_s, "cores", steady_reports);
  res.set_layer("serve.offer_retries_per_kreport",
                1000.0 * static_cast<double>(retries - retries0) /
                    static_cast<double>(std::max<std::uint64_t>(steady_reports, 1)),
                "1/kreport", steady_reports);
  res.set_layer("sim.run_sample_ms", median(si.sim_ms), "ms", si.sim_ms.size());

  // ---- Correctness: replay each source as far as its furthest stream got.
  std::vector<long> source_windows(kSources, 1);
  for (int s = 0; s < kStreams; ++s) {
    long& w = source_windows[static_cast<std::size_t>(s % kSources)];
    w = std::max(w, stream_windows[static_cast<std::size_t>(s)]);
  }
  const double mean_batch = static_cast<double>(stats.predictions) /
                            static_cast<double>(std::max<std::uint64_t>(stats.batches, 1));
  const ReplayRun rr = replay_sources(si, source_windows, nullptr, opt.trace, mean_batch);
  const std::uint64_t bad_labels =
      check_labels(res, svc, si, rr, stream_windows, kSaturateDigestFrames);
  const bool accounted = check_accounting(res, stats, offered);
  check_threads(res, 1 + config.dsp_workers + 1);
  res.failed = accounted ? bad_labels : res.attempted;

  if (opt.trace) {
    add_replay_layers(res, rr, stats, false);
    add_stage_budget(res, rr, p50, false);
    add_kern_layers(res);
  }
  res.set_e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  return res;
}

}  // namespace perfbench
