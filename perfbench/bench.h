#ifndef LIGHTOR_PERFBENCH_BENCH_H_
#define LIGHTOR_PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark: clocks and sample sets, the
// in-memory span log of the traced run, the pass/fail tally, the inputs
// every workload generates from its seed, and the serving stack each
// round runs against.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/lightor.h"
#include "core/message.h"
#include "net/server.h"
#include "serving/api.h"
#include "serving/highlight_server.h"
#include "sim/platform.h"
#include "storage/database.h"
#include "storage/record.h"

namespace perfbench {

using namespace lightor;  // NOLINT

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now()) * 1e3;
}

/// A set of measurements; quantiles sort a copy.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The highest of p99 / p90 / p50 that has at least ten samples beyond
  /// it (a tail with fewer is no tail); `*percentile` gets which.
  double Tail(int* percentile) const;

 private:
  std::vector<double> values_;
};

/// Operations attempted / failed plus correctness mismatches. Shared by
/// the load threads of a workload.
class Tally {
 public:
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& what);
  void Mismatch(const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  bool correct() const { return mismatches_.load() == 0; }
  /// The first few failure / mismatch messages, for stderr.
  std::vector<std::string> messages() const;

 private:
  void Note(const std::string& what);
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> mismatches_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;  ///< guarded by mu_
};

int64_t NowNs();

/// One call into a layer, recorded from the benchmark's side of the call.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t op = 0;      ///< the operation (root span id) it belongs to
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of the traced run, kept in memory and written out at the end.
class SpanLog {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1); }
  void Record(const Span& span);
  /// Self time (duration minus the time its child spans cover) of every
  /// span named `name`, in units of `unit_seconds` (1e-3 = ms).
  Samples SelfTimes(const std::string& name, double unit_seconds) const;
  /// Writes the spans as a JSON array, one span per line.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Records one span around its scope when `log` is non-null. Spans
/// opened while another is open on the same thread become its children;
/// `parent` names the cause explicitly instead (a server-side span whose
/// client-side cause ran on another thread).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
  uint64_t saved_current_ = 0;
  uint64_t saved_op_ = 0;
};

constexpr int kConnections = 4;  ///< load threads / client connections
constexpr size_t kTopK = 5;
constexpr double kChatRateScale = 2.0;  ///< chat-rate multiplier, all channels

/// Input sizes; `Quick()` shrinks everything for the self-test.
struct Sizes {
  // recorded_pipeline; refinement follows the paper's Fig. 8 protocol
  // (bench/fig8_extractor.cc): 5 iterations of 10 viewers per red dot.
  int rp_channels = 8, rp_videos_per_channel = 8;
  int rp_refine_rounds = 5, rp_sessions_per_dot = 10;
  // viewer_wire
  int vw_warm = 48, vw_cold_per_conn = 4, vw_ops_per_conn = 5000;
  // live_channels
  int lc_channels = 48, lc_frame_channels = 6;
  double lc_slice_seconds = 120.0;
  // layer probes (traced runs)
  int probe_videos = 8, probe_sessions_per_dot = 4, probe_repeats = 200;
  static Sizes Quick();
};

/// One recorded video of the generated catalog, as the benchmark sees it.
struct VideoInput {
  std::string id;
  double length = 0.0;
  std::vector<common::Interval> truth;  ///< simulator's highlight spans
  std::vector<core::Message> messages;  ///< its chat, timestamp-ordered
  /// `DetectBatch` on the chat, as the records a first visit publishes.
  std::vector<storage::HighlightRecord> oracle;
};

/// Everything generated from the seed before timing starts.
struct Inputs {
  Sizes sizes;
  std::unique_ptr<sim::Platform> platform;
  std::vector<VideoInput> videos;
  /// Viewer sessions around the oracle dots of the first `probe_videos`
  /// videos, for the layer probes of the traced run.
  std::vector<std::vector<serving::LogSessionRequest>> probe_sessions;
};

/// Builds a `channels` x `videos_per_channel` catalog, the oracle dots
/// of every video and the probe sessions.
Inputs MakeInputs(uint64_t seed, const Sizes& sizes, int channels,
                  int videos_per_channel, const core::Lightor& lightor);

/// Simulated viewer sessions around each of `dots` (`per_dot` each).
/// `next_session_id` is advanced past the ids handed out.
std::vector<serving::LogSessionRequest> SimulateSessions(
    const sim::Platform& platform, const std::string& video_id,
    const std::vector<storage::HighlightRecord>& dots, int per_dot,
    common::Rng& rng, uint64_t* next_session_id);

/// The labelled video the Initializer trains on. Fixed, so the model is
/// the same for every seed and the seed varies only the workload.
core::TrainingVideo TrainingVideo();

/// A pipeline whose Initializer is trained on `video`.
common::Result<std::unique_ptr<core::Lightor>> TrainLightor(
    const core::TrainingVideo& video);

/// The records the serving layer publishes for a list of red dots.
std::vector<storage::HighlightRecord> RecordsFromDots(
    const std::string& video_id, const std::vector<core::RedDot>& dots,
    const core::Lightor& lightor);

/// Mean Video Precision@K (start, end) of served highlights vs truth.
struct Precision {
  double start = 0.0;
  double end = 0.0;
};
Precision PrecisionAtK(
    const std::vector<VideoInput>& videos,
    const std::vector<std::vector<storage::HighlightRecord>>& served);

/// One serving stack: a fresh database directory, a HighlightServer and,
/// for the wire workloads, an HttpServer on an ephemeral loopback port.
struct Stack {
  std::string dir;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<serving::HighlightServer> server;
  std::unique_ptr<net::HttpServer> http;
  /// Shuts the listener and the server down (drains). Idempotent.
  void Stop();
  ~Stack();
};

/// How a workload's stack is configured.
struct StackSpec {
  bool wire = false;
  size_t ingest_workers = 0;
};

/// Opens a fresh database under `dir` and starts the stack on it.
/// `wrap_routes`, when set, wraps the product route table (the traced
/// run adds handler spans with it).
common::Result<std::unique_ptr<Stack>> MakeStack(
    const sim::Platform& platform, const core::Lightor& lightor,
    const StackSpec& spec, const std::string& dir,
    const std::function<net::Router(net::Router)>& wrap_routes = {});

/// Header carrying the client-side span id to the handler wrapper.
constexpr const char* kSpanHeader = "x-perfbench-span";

/// A route table serving the workloads' routes of `inner`, each handler
/// call a span whose parent is the client span named by `kSpanHeader`.
net::Router TraceRoutes(net::Router inner, SpanLog* spans);

/// What one round measured.
struct RoundStats {
  double setup_s = 0.0;     ///< training + database open + server ready
  double throughput = 0.0;  ///< the round's work per second
  /// Share of the machine's CPU time the hypervisor gave to other guests
  /// from the start of the round's set-up to its end (steal, /proc/stat).
  double steal = 0.0;
  Samples init_ms;   ///< the call that places a video's dots
  Samples write_ms;  ///< the write viewers or broadcasters send
  Samples read_ms;   ///< the highlight read viewers poll
  /// Served highlights per video at the end of the round (for P@K).
  std::vector<std::vector<storage::HighlightRecord>> served;
  std::mutex mu;  ///< guards the samples while load threads merge
  /// Merges one load thread's samples.
  void Merge(const Samples& init, const Samples& write, const Samples& read);
};

/// How fast each timing of a workload falls with CPU steal, as a share of
/// its value at zero steal per unit of steal (-3.8: a rate 38% lower at
/// 10% steal). Measured on the rounds of ten runs per workload (see
/// README.md); used as the prior of the zero-steal fit below.
struct StealSlopes {
  double setup = 0.0;
  double throughput = 0.0;
  double init = 0.0;
  double write = 0.0;
  double read = 0.0;
};

/// The rounds of one timed phase.
///
/// On a shared virtual machine the hypervisor lends this machine's CPUs
/// to other guests (CPU steal). Round throughput falls almost linearly
/// with the steal measured during the round (viewer_wire: about 35k
/// requests/s at 1% steal, 9k at 20%), and runs can spend tens of seconds
/// at 10-20%. So every timing is reported as its value at zero steal:
/// each round gives a rate (throughput as is, a time through its
/// reciprocal), and a line rate = a + b * steal is fitted through the
/// rounds by least squares with a ridge penalty pulling b towards
/// `slope * a` (weight `kStealPriorWeight`, in units of steal). Every
/// run uses this one estimator: where the rounds' steal varies by more
/// than the weight (standard deviation) the data set the slope, where it
/// varies less the prior does, and where it is near zero the slope
/// hardly matters and a is the mean rate.
struct Phase {
  std::vector<std::unique_ptr<RoundStats>> rounds;
  static constexpr double kStealPriorWeight = 0.08;

  /// Work per second at zero steal.
  double Throughput(const StealSlopes& slopes) const;
  /// Median latency (ms) of one kind of operation at zero steal.
  double LatencyP50(Samples RoundStats::*which, double slope) const;
  /// Set-up time (s) at zero steal.
  double SetupSeconds(const StealSlopes& slopes) const;
  /// Every operation of one kind, over all rounds.
  Samples Pooled(Samples RoundStats::*which) const;
  /// Lowest and highest steal over the rounds.
  std::pair<double, double> StealRange() const;
};

/// Common run parameters.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool verbose = false;  ///< one stderr line per round
  std::string dir;  ///< scratch directory for databases and span files
};

/// A workload: generates its inputs, then runs whole rounds of the same
/// operations, each on a fresh stack.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual StackSpec spec() const = 0;
  /// Generates the inputs from the seed (untimed).
  virtual common::Status Prepare(const RunConfig& config,
                                 const core::Lightor& lightor) = 0;
  /// One round on `stack` (fresh). Stops the stack before returning.
  /// Records client and handler spans when `spans` is non-null.
  virtual void RunRound(Stack& stack, SpanLog* spans, Tally& tally,
                        RoundStats& stats) = 0;
  /// The layer calls each end-to-end operation crosses, as probe
  /// metric names (see probe.cc) with how many times it crosses each.
  struct Crossings {
    std::vector<std::pair<std::string, double>> init, write, read;
  };
  virtual Crossings crossings() const = 0;
  virtual StealSlopes steal_slopes() const = 0;
  const Inputs& inputs() const { return inputs_; }

 protected:
  Inputs inputs_;
};

std::unique_ptr<Workload> MakeRecordedPipeline();
std::unique_ptr<Workload> MakeViewerWire();
std::unique_ptr<Workload> MakeLiveChannels();

/// Ordered metric list printed in the result line.
using Metrics = std::vector<std::pair<std::string, double>>;

/// Calls each layer's public function on the workload's own inputs,
/// under spans, and appends the per-layer metrics (see probe.cc).
void ProbeLayers(const Inputs& inputs, const core::Lightor& lightor,
                 const std::string& dir, SpanLog& spans, Tally& tally,
                 Metrics& metrics);

}  // namespace perfbench

#endif  // LIGHTOR_PERFBENCH_BENCH_H_
