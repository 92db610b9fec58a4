// lightor_perfbench — the end-to-end benchmark of LIGHTOR.
//
//   lightor_perfbench --workload recorded_pipeline|viewer_wire|live_channels
//                     --seed N --seconds S --trace 0|1 [--dir D] [--quick]
//                     [--verbose]
//
// Generates the workload's inputs from the seed, runs one warm-up round,
// then runs whole rounds of the same operations, each after a timed
// set-up of its own (training, a fresh database, the server), until
// `seconds` have passed, and reports each timing, set-up included, at
// zero CPU steal (see Phase in bench.h). The last line of stdout is one
// JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half (spans around every
// client call and server handler) followed by the layer probes, and the
// metrics are the per-layer ones. A failed operation or a wrong output
// makes the exit code 1. README.md explains every metric.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>

#include "bench.h"
#include "common/logging.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, printed with --trace 0 (see BENCHMARK.json).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"}, {"init_p50_ms", "ms"},
    {"write_p50_ms", "ms"},    {"read_p50_ms", "ms"},
    {"p5_start", "ratio"},     {"p5_end", "ratio"},
};

// The per-layer metrics, printed with --trace 1.
constexpr MetricDef kPerLayer[] = {
    {"storage.crawl_ms", "ms"},
    {"core.detect_ms", "ms"},
    {"core.detect_batch_ms", "ms"},
    {"core.detect_ratio", "ratio"},
    {"storage.put_highlight_us", "us"},
    {"core.stream_ingest_msgs_per_s", "msgs/s"},
    {"core.provisional_us", "us"},
    {"core.finalize_ms", "ms"},
    {"storage.session_append_us", "us"},
    {"storage.log_bytes_per_session", "bytes"},
    {"storage.sessions_since_us", "us"},
    {"serving.group_plays_us", "us"},
    {"serving.refine_pass_us", "us"},
    {"core.plays_kept_ratio", "ratio"},
    {"serving.visit_warm_us", "us"},
    {"serving.highlights_us", "us"},
    {"serving.session_us", "us"},
    {"serving.refine_ms", "ms"},
    {"serving.ingest_batch_us", "us"},
    {"serving.provisional_staleness_p50_ms", "ms"},
    {"net.parse_us", "us"},
    {"net.decode_us", "us"},
    {"net.decode_batch_us", "us"},
    {"net.encode_us", "us"},
    {"net.response_bytes", "bytes"},
    {"wait.init_ms", "ms"},
    {"wait.write_us", "us"},
    {"wait.read_us", "us"},
    {"init_tail_ms", "ms"},
    {"write_tail_ms", "ms"},
    {"read_tail_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"machine.steal_pct", "%"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: lightor_perfbench --workload "
               "recorded_pipeline|viewer_wire|live_channels --seed N "
               "--seconds S --trace 0|1 [--dir D] [--quick] [--verbose]\n",
               why);
  std::exit(2);
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  config.dir = ".bench_build/work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--dir") {
      config.dir = value();
    } else if (arg == "--quick") {
      config.quick = true;
    } else if (arg == "--verbose") {
      config.verbose = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (config.seconds <= 0.0) Usage("--seconds must be positive");
  return config;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Machine-wide CPU time, in clock ticks.
struct CpuTicks {
  unsigned long long steal = 0;  ///< taken by the hypervisor for others
  unsigned long long total = 0;
};

/// Reads the aggregate line of /proc/stat (zeros when unavailable).
CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// Runs rounds until `seconds` have passed (at least one). Each round
/// first sets up on its own, timed: it trains the Initializer and starts
/// a fresh stack with it. The round's steal covers set-up and round.
/// Returns false when a set-up failed.
bool RunRounds(Workload& workload, const core::TrainingVideo& training,
               const RunConfig& config, double seconds, SpanLog* spans,
               Tally& tally, Phase& phase) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::function<net::Router(net::Router)> wrap;
  if (spans != nullptr) {
    wrap = [spans](net::Router r) { return TraceRoutes(std::move(r), spans); };
  }
  do {
    auto round = std::make_unique<RoundStats>();
    tally.Attempt();
    const CpuTicks before = ReadCpuTicks();
    const auto t0 = Clock::now();
    auto lightor = TrainLightor(training);
    if (!lightor.ok()) {
      tally.Fail("training: " + lightor.status().ToString());
      return false;
    }
    auto stack = MakeStack(*workload.inputs().platform, *lightor.value(),
                           workload.spec(), config.dir + "/round", wrap);
    if (!stack.ok()) {
      tally.Fail("set-up: " + stack.status().ToString());
      return false;
    }
    round->setup_s = SecondsBetween(t0, Clock::now());
    workload.RunRound(*stack.value(), spans, tally, *round);
    const CpuTicks after = ReadCpuTicks();
    if (after.total > before.total) {
      round->steal = static_cast<double>(after.steal - before.steal) /
                     static_cast<double>(after.total - before.total);
    }
    phase.rounds.push_back(std::move(round));
  } while (Clock::now() < deadline);
  return true;
}

/// e2e p50 minus the layer calls it crosses, in `unit` seconds.
double Wait(double e2e_p50_ms,
            const std::vector<std::pair<std::string, double>>& crossings,
            const Metrics& layers, double unit) {
  double sum_ms = 0.0;
  for (const auto& [name, times] : crossings) {
    for (const auto& [layer, value] : layers) {
      if (layer != name) continue;
      const bool us = name.size() > 3 && name.compare(name.size() - 3, 3,
                                                      "_us") == 0;
      sum_ms += times * (us ? value * 1e-3 : value);
    }
  }
  return (e2e_p50_ms - sum_ms) * 1e-3 / unit;
}

/// Human-readable summary of a phase on stderr.
void Describe(const RunConfig& config, const Workload& workload,
              const Phase& phase) {
  const StealSlopes slopes = workload.steal_slopes();
  const auto [steal_lo, steal_hi] = phase.StealRange();
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu rounds, steal %.1f%%-%.1f%%, "
               "at zero steal: throughput %.6g/s, set-up %.6g s\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               phase.rounds.size(), 100.0 * steal_lo, 100.0 * steal_hi,
               phase.Throughput(slopes), phase.SetupSeconds(slopes));
  const std::tuple<const char*, Samples RoundStats::*, double> rows[] = {
      {"init ms", &RoundStats::init_ms, slopes.init},
      {"write ms", &RoundStats::write_ms, slopes.write},
      {"read ms", &RoundStats::read_ms, slopes.read}};
  for (const auto& [what, which, slope] : rows) {
    const Samples all = phase.Pooled(which);
    int p = 0;
    const double tail = all.Tail(&p);
    std::fprintf(stderr,
                 "  %-9s n=%-7zu p50 %.6g (at zero steal %.6g)  p%d %.6g\n",
                 what, all.size(), all.Median(),
                 phase.LatencyP50(which, slope), p, tail);
  }
  if (config.verbose) {
    for (size_t i = 0; i < phase.rounds.size(); ++i) {
      const RoundStats& r = *phase.rounds[i];
      std::fprintf(stderr,
                   "  round %zu: %.6g/s, steal %.1f%%, p50 init %.6g write "
                   "%.6g read %.6g ms, set-up %.6g s\n",
                   i + 1, r.throughput, 100.0 * r.steal, r.init_ms.Median(),
                   r.write_ms.Median(), r.read_ms.Median(), r.setup_s);
    }
  }
}

int Main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  common::SetLogLevelFromString("warning");
  std::unique_ptr<Workload> workload;
  if (config.workload == "recorded_pipeline") {
    workload = MakeRecordedPipeline();
  } else if (config.workload == "viewer_wire") {
    workload = MakeViewerWire();
  } else if (config.workload == "live_channels") {
    workload = MakeLiveChannels();
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);

  // Inputs first (untimed): they need a trained model for the oracle
  // dots. Training is deterministic, so the model each round's set-up
  // trains again is the same one.
  const core::TrainingVideo training = TrainingVideo();
  auto trained = TrainLightor(training);
  if (!trained.ok()) {
    std::fprintf(stderr, "perfbench: training failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  const core::Lightor& lightor = *trained.value();
  if (auto st = workload->Prepare(config, lightor); !st.ok()) {
    std::fprintf(stderr, "perfbench: input generation failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  // A set-up that fails is tallied as a failure and leaves the metrics
  // unmeasured, which fails the run below.
  Tally tally;
  Metrics metrics;
  const StealSlopes slopes = workload->steal_slopes();
  Phase warmup, phase, untraced, traced;
  SpanLog spans;
  const bool warmed =
      RunRounds(*workload, training, config, 0.0, nullptr, tally, warmup);
  if (warmed && !config.trace &&
      RunRounds(*workload, training, config, config.seconds, nullptr, tally,
                phase)) {
    const Precision p5 =
        PrecisionAtK(workload->inputs().videos, phase.rounds.back()->served);
    metrics = {{"setup_s", phase.SetupSeconds(slopes)},
               {"peak_rss_mb", PeakRssMb()},
               {"throughput_per_s", phase.Throughput(slopes)},
               {"init_p50_ms", phase.LatencyP50(&RoundStats::init_ms,
                                                slopes.init)},
               {"write_p50_ms", phase.LatencyP50(&RoundStats::write_ms,
                                                 slopes.write)},
               {"read_p50_ms", phase.LatencyP50(&RoundStats::read_ms,
                                                slopes.read)},
               {"p5_start", p5.start},
               {"p5_end", p5.end}};
    Describe(config, *workload, phase);
  } else if (warmed && config.trace &&
             RunRounds(*workload, training, config, config.seconds / 2,
                       nullptr, tally, untraced) &&
             RunRounds(*workload, training, config, config.seconds / 2,
                       &spans, tally, traced)) {
    ProbeLayers(workload->inputs(), lightor, config.dir, spans, tally,
                metrics);
    const Workload::Crossings cross = workload->crossings();
    const Metrics layers = metrics;
    metrics.emplace_back(
        "wait.init_ms",
        Wait(untraced.LatencyP50(&RoundStats::init_ms, slopes.init),
             cross.init, layers, 1e-3));
    metrics.emplace_back(
        "wait.write_us",
        Wait(untraced.LatencyP50(&RoundStats::write_ms, slopes.write),
             cross.write, layers, 1e-6));
    metrics.emplace_back(
        "wait.read_us",
        Wait(untraced.LatencyP50(&RoundStats::read_ms, slopes.read),
             cross.read, layers, 1e-6));
    metrics.emplace_back("init_tail_ms",
                         untraced.Pooled(&RoundStats::init_ms).Tail(nullptr));
    metrics.emplace_back("write_tail_ms",
                         untraced.Pooled(&RoundStats::write_ms).Tail(nullptr));
    metrics.emplace_back("read_tail_ms",
                         untraced.Pooled(&RoundStats::read_ms).Tail(nullptr));
    const double u = untraced.Throughput(slopes);
    const double t = traced.Throughput(slopes);
    metrics.emplace_back("trace.overhead_pct", 100.0 * (u - t) / u);
    double steal = 0.0;
    for (const auto& r : untraced.rounds) steal += r->steal;
    metrics.emplace_back(
        "machine.steal_pct",
        100.0 * steal / static_cast<double>(untraced.rounds.size()));
    Describe(config, *workload, untraced);
    const std::string path =
        config.dir + "/spans_" + config.workload + ".json";
    if (!spans.WriteJson(path)) {
      tally.Fail("writing " + path);
    } else {
      std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
    }
  }

  for (const std::string& msg : tally.messages()) {
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  }

  // The result line: every metric of the mode, by name and unit.
  const MetricDef* defs = config.trace ? kPerLayer : kEndToEnd;
  const size_t count = config.trace ? std::size(kPerLayer)
                                    : std::size(kEndToEnd);
  bool complete = true;
  std::string line = "{\"correct\": ";
  line += tally.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted());
  line += ", \"failed\": " + std::to_string(tally.failed());
  line += ", \"metrics\": {";
  for (size_t i = 0; i < count; ++i) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const auto& m) {
                                   return m.first == defs[i].name;
                                 });
    if (it == metrics.end() || !std::isfinite(it->second)) {
      complete = false;
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   defs[i].name);
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", it->second);
    if (line.back() != '{') line += ", ";
    line += "\"" + std::string(defs[i].name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);

  std::filesystem::remove_all(config.dir + "/round", ec);
  const bool passed = complete && tally.correct() && tally.failed() == 0;
  return passed ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
