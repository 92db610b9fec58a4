/// Microbenchmarks (google-benchmark) for the hot paths of every
/// subsystem: window generation, featurization, similarity, peak finding,
/// LR training, extractor stages, storage throughput, and LSTM inference.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/extractor.h"
#include "core/features.h"
#include "core/initializer.h"
#include "core/streaming.h"
#include "ml/logistic_regression.h"
#include "ml/lstm.h"
#include "net/codec.h"
#include "net/http.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serving/highlight_server.h"
#include "sim/platform.h"
#include "sim/viewer_simulator.h"
#include "storage/database.h"
#include "text/similarity.h"

using namespace lightor;  // NOLINT

namespace {

const sim::LabeledVideo& BenchVideo() {
  static const sim::Corpus* corpus =
      new sim::Corpus(sim::MakeCorpus(sim::GameType::kDota2, 1, 3030));
  return (*corpus)[0];
}

const std::vector<core::Message>& BenchMessages() {
  static const std::vector<core::Message>* messages =
      new std::vector<core::Message>(sim::ToCoreMessages(BenchVideo().chat));
  return *messages;
}

void BM_GenerateWindows(benchmark::State& state) {
  const auto& messages = BenchMessages();
  const double length = BenchVideo().truth.meta.length;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::GenerateWindows(messages, length, core::WindowOptions{}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(messages.size()));
}
BENCHMARK(BM_GenerateWindows);

void BM_WindowFeaturization(benchmark::State& state) {
  const auto& messages = BenchMessages();
  const double length = BenchVideo().truth.meta.length;
  const auto windows =
      core::GenerateWindows(messages, length, core::WindowOptions{});
  core::WindowFeaturizer featurizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(featurizer.ComputeAll(messages, windows));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(windows.size()));
}
BENCHMARK(BM_WindowFeaturization);

void BM_MessageSimilarity(benchmark::State& state) {
  std::vector<std::string> messages;
  for (int i = 0; i < 30; ++i) {
    messages.push_back(i % 2 ? "what a play gg" : "rampage PogChamp wow");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::MessageSetSimilarity(messages));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(messages.size()));
}
BENCHMARK(BM_MessageSimilarity);

void BM_FindMessagePeak(benchmark::State& state) {
  const auto timestamps = core::Timestamps(BenchMessages());
  const common::Interval span(100.0, 200.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FindMessagePeak(timestamps, span));
  }
}
BENCHMARK(BM_FindMessagePeak);

void BM_LogisticRegressionFit(benchmark::State& state) {
  common::Rng rng(1);
  ml::Dataset data;
  for (int i = 0; i < 500; ++i) {
    const int label = i % 4 == 0 ? 1 : 0;
    data.Add({rng.Uniform(0, 1) + label * 0.4, rng.Uniform(0, 1),
              rng.Uniform(0, 1) * (label ? 0.5 : 1.0)},
             label);
  }
  for (auto _ : state) {
    ml::LogisticRegression lr;
    benchmark::DoNotOptimize(lr.Fit(data));
  }
}
BENCHMARK(BM_LogisticRegressionFit);

void BM_InitializerDetect(benchmark::State& state) {
  static core::HighlightInitializer* init = [] {
    auto* model = new core::HighlightInitializer();
    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 3031);
    (void)model->Train({bench::ToTraining(corpus[0])});
    return model;
  }();
  const auto& messages = BenchMessages();
  const double length = BenchVideo().truth.meta.length;
  for (auto _ : state) {
    benchmark::DoNotOptimize(init->Detect(messages, length, 5));
  }
}
BENCHMARK(BM_InitializerDetect);

// Live-ingest throughput: messages/sec through a fresh streaming engine
// (items_processed), with per-message latency implied by the mean.
void BM_StreamingIngest(benchmark::State& state) {
  static core::HighlightInitializer* init = [] {
    auto* model = new core::HighlightInitializer();
    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 3031);
    (void)model->Train({bench::ToTraining(corpus[0])});
    return model;
  }();
  const auto& messages = BenchMessages();
  for (auto _ : state) {
    core::StreamingInitializer engine(init);
    for (const auto& m : messages) {
      benchmark::DoNotOptimize(engine.Ingest(m));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(messages.size()));
}
BENCHMARK(BM_StreamingIngest);

// Mid-broadcast scoring: what a provisional publish costs after the
// whole chat has been ingested (worst case — most closed windows).
void BM_StreamingProvisional(benchmark::State& state) {
  static core::HighlightInitializer* init = [] {
    auto* model = new core::HighlightInitializer();
    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 3031);
    (void)model->Train({bench::ToTraining(corpus[0])});
    return model;
  }();
  core::StreamingInitializer engine(init);
  (void)engine.IngestBatch(BenchMessages());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Provisional(5));
  }
}
BENCHMARK(BM_StreamingProvisional);

void BM_ExtractorFilterAndRefine(benchmark::State& state) {
  sim::ViewerSimulator viewers;
  common::Rng rng(5);
  const auto& truth = BenchVideo().truth;
  const double dot = truth.highlights[0].span.start - 2.0;
  const auto plays =
      sim::ToCorePlays(viewers.CollectPlays(truth, dot, 30, rng));
  core::HighlightExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.RefineOnce(plays, dot));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plays.size()));
}
BENCHMARK(BM_ExtractorFilterAndRefine);

void BM_ChatStorePutGet(benchmark::State& state) {
  const auto& chat = BenchVideo().chat;
  for (auto _ : state) {
    storage::ChatStore store;
    for (size_t i = 0; i < chat.size(); i += 4) {
      storage::ChatRecord rec;
      rec.video_id = "v";
      rec.timestamp = chat[i].timestamp;
      rec.user = chat[i].user;
      rec.text = chat[i].text;
      store.Put(std::move(rec));
    }
    benchmark::DoNotOptimize(store.GetRange("v", 100.0, 200.0));
  }
}
BENCHMARK(BM_ChatStorePutGet);

void BM_AppendLogThroughput(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "lightor_bench";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "bench.log").string();
  std::filesystem::remove(path);
  storage::AppendLog log;
  (void)log.Open(path);
  const std::vector<uint8_t> payload(256, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(payload));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
  log.Close();
  std::filesystem::remove(path);
}
BENCHMARK(BM_AppendLogThroughput);

void BM_LstmForward(benchmark::State& state) {
  ml::LstmOptions opts;
  opts.hidden_size = 16;
  opts.num_layers = 2;
  opts.max_sequence_length = 64;
  ml::CharLstmClassifier model(opts);
  const std::string text =
      "PogChamp what a play rampage insane gg clip it baron steal";
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictProbability(text));
  }
}
BENCHMARK(BM_LstmForward);

void BM_CrowdSimulation(benchmark::State& state) {
  sim::ViewerSimulator viewers;
  common::Rng rng(9);
  const auto& truth = BenchVideo().truth;
  const double dot = truth.highlights[0].span.start;
  for (auto _ : state) {
    benchmark::DoNotOptimize(viewers.CollectPlays(truth, dot, 10, rng));
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_CrowdSimulation);

// ---- obs instrumentation overhead ----------------------------------------
// The acceptance bar: a disabled registry keeps instrumented hot loops
// within noise of an un-instrumented baseline (compare the *Disabled
// variants against BM_ObsBaselineLoop).

void BM_ObsBaselineLoop(benchmark::State& state) {
  uint64_t local = 0;
  for (auto _ : state) {
    ++local;
    benchmark::DoNotOptimize(local);
  }
}
BENCHMARK(BM_ObsBaselineLoop);

void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::Counter* counter =
      obs::Registry::Global().GetCounter("lightor_bench_counter_total");
  for (auto _ : state) {
    counter->Increment();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsCounterIncrementDisabled(benchmark::State& state) {
  obs::Counter* counter =
      obs::Registry::Global().GetCounter("lightor_bench_counter_total");
  obs::SetMetricsEnabled(false);
  for (auto _ : state) {
    counter->Increment();
    benchmark::DoNotOptimize(counter);
  }
  obs::SetMetricsEnabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrementDisabled);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram* histogram = obs::Registry::Global().GetHistogram(
      "lightor_bench_latency_seconds", obs::Histogram::LatencyBounds());
  double v = 0.0;
  for (auto _ : state) {
    histogram->Observe(v);
    v += 0.001;
    if (v > 12.0) v = 0.0;
    benchmark::DoNotOptimize(histogram);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsHistogramObserveDisabled(benchmark::State& state) {
  obs::Histogram* histogram = obs::Registry::Global().GetHistogram(
      "lightor_bench_latency_seconds", obs::Histogram::LatencyBounds());
  obs::SetMetricsEnabled(false);
  for (auto _ : state) {
    histogram->Observe(0.004);
    benchmark::DoNotOptimize(histogram);
  }
  obs::SetMetricsEnabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserveDisabled);

void BM_ObsScopedSpan(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedSpan);

// ---- request tracing overhead (/highlights hot path) ---------------------
// Acceptance bar: the full per-request telemetry pipeline — generated
// trace context, span collector, handler stage timing, wide-event emit
// under default tail sampling — must cost < 5% of a /highlights request.
// Compare BM_ServingGetHighlightsTraced against BM_ServingGetHighlights;
// BM_ObsRequestTelemetryOnly is the absolute cost of the machinery alone.

struct ServingBench {
  serving::HighlightServer* server;
  std::string video_id;
};

const ServingBench& BenchServing() {
  static const ServingBench* bench = [] {
    sim::Platform::Options popts;
    popts.num_channels = 1;
    popts.videos_per_channel = 1;
    popts.seed = 3033;
    auto* platform = new sim::Platform(popts);
    const auto dir =
        std::filesystem::temp_directory_path() / "lightor_bench_serving_db";
    std::filesystem::remove_all(dir);
    auto* db = new std::unique_ptr<storage::Database>(
        std::move(storage::DB::Open(storage::OpenOptions(dir.string())).value().db));
    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 3031);
    auto* lightor = new core::Lightor(core::LightorOptions{});
    (void)lightor->TrainInitializer({bench::ToTraining(corpus[0])});
    serving::ServerOptions sopts;
    sopts.platform =
        serving::Borrow(static_cast<const sim::Platform*>(platform));
    sopts.db = serving::Borrow(db->get());
    sopts.lightor = serving::Borrow(static_cast<const core::Lightor*>(lightor));
    sopts.refine_batch_sessions = 0;
    auto server = serving::HighlightServer::Create(sopts);
    const std::string video_id = platform->AllVideoIds()[0];
    // Prime the snapshot: the benchmark measures the cached hot path the
    // HTTP front-end serves, not first-visit initialization.
    (void)server.value()->OnPageVisit({video_id, "bench"});
    return new ServingBench{server.value().release(), video_id};
  }();
  return *bench;
}

// One /highlights request as the IO thread runs it, minus the socket:
// parse the wire bytes, run the handler (snapshot read + JSON encode),
// serialize the response.
std::string HighlightsWire(const std::string& video_id) {
  return "GET /highlights?video_id=" + video_id +
         " HTTP/1.1\r\nhost: localhost\r\n\r\n";
}

void HighlightsRequestOnce(const ServingBench& sb, const std::string& wire) {
  net::RequestParser parser;
  parser.Append(wire);
  (void)parser.Parse();
  const net::HttpRequest& request = parser.request();
  auto highlights = sb.server->GetHighlights(request.QueryParam("video_id"));
  net::HttpResponse response =
      net::JsonResponse(200, net::EncodeJson(highlights.value()));
  benchmark::DoNotOptimize(response.Serialize(/*keep_alive=*/true));
}

void BM_HighlightsRequestPath(benchmark::State& state) {
  const ServingBench& sb = BenchServing();
  const std::string wire = HighlightsWire(sb.video_id);
  for (auto _ : state) {
    HighlightsRequestOnce(sb, wire);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HighlightsRequestPath);

void BM_HighlightsRequestPathTraced(benchmark::State& state) {
  const ServingBench& sb = BenchServing();
  const std::string wire = HighlightsWire(sb.video_id);
  for (auto _ : state) {
    const obs::TraceContext ctx = obs::GenerateTraceContext();
    obs::SpanCollector collector;
    const uint64_t start_us = obs::TraceNowMicros();
    {
      obs::ScopedTraceContext guard(ctx, &collector);
      obs::ScopedStage stage(obs::Stage::kHandler);
      HighlightsRequestOnce(sb, wire);
    }
    obs::WideEvent event;
    event.trace_hi = ctx.trace_hi;
    event.trace_lo = ctx.trace_lo;
    event.span_id = ctx.span_id;
    event.route = "/highlights";
    event.method = "GET";
    event.status = 200;
    event.start_us = start_us;
    event.total_us = obs::TraceNowMicros() - start_us;
    obs::RequestLog::Global().Emit(std::move(event), &collector);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HighlightsRequestPathTraced);

void BM_ObsRequestTelemetryOnly(benchmark::State& state) {
  for (auto _ : state) {
    const obs::TraceContext ctx = obs::GenerateTraceContext();
    obs::SpanCollector collector;
    const uint64_t start_us = obs::TraceNowMicros();
    {
      obs::ScopedTraceContext guard(ctx, &collector);
      obs::ScopedStage stage(obs::Stage::kHandler);
    }
    obs::WideEvent event;
    event.trace_hi = ctx.trace_hi;
    event.trace_lo = ctx.trace_lo;
    event.span_id = ctx.span_id;
    event.route = "/highlights";
    event.method = "GET";
    event.status = 200;
    event.start_us = start_us;
    event.total_us = obs::TraceNowMicros() - start_us;
    obs::RequestLog::Global().Emit(std::move(event), &collector);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRequestTelemetryOnly);

// --------------------------------------------------------------------------
// net: HTTP parser and JSON wire codec

std::string BenchHttpRequest() {
  const std::string body =
      "{\"video_id\":\"dota2_channel0_v0\",\"user\":\"bench\"}";
  return "POST /visit HTTP/1.1\r\nhost: localhost\r\n"
         "content-type: application/json\r\ncontent-length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

void BM_NetRequestParseOneShot(benchmark::State& state) {
  const std::string wire = BenchHttpRequest();
  for (auto _ : state) {
    net::RequestParser parser;
    parser.Append(wire);
    benchmark::DoNotOptimize(parser.Parse());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_NetRequestParseOneShot);

void BM_NetRequestParseFragmented(benchmark::State& state) {
  // Worst-case kernel fragmentation: 16-byte reads, Parse after each.
  const std::string wire = BenchHttpRequest();
  for (auto _ : state) {
    net::RequestParser parser;
    for (size_t off = 0; off < wire.size(); off += 16) {
      parser.Append(std::string_view(wire).substr(off, 16));
      benchmark::DoNotOptimize(parser.Parse());
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_NetRequestParseFragmented);

serving::LogSessionRequest BenchSession() {
  serving::LogSessionRequest request;
  request.video_id = "dota2_channel0_v0";
  request.user = "bench";
  request.session_id = 42;
  for (int i = 0; i < 64; ++i) {
    sim::InteractionEvent event;
    event.wall_time = i * 1.5;
    event.type = i % 2 == 0 ? sim::InteractionType::kPlay
                            : sim::InteractionType::kSeekForward;
    event.position = i * 10.0;
    event.target = i * 10.0 + 5.0;
    request.events.push_back(event);
  }
  return request;
}

void BM_NetCodecEncodeSession(benchmark::State& state) {
  const serving::LogSessionRequest request = BenchSession();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::EncodeJson(request));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(request.events.size()));
}
BENCHMARK(BM_NetCodecEncodeSession);

void BM_NetCodecDecodeSession(benchmark::State& state) {
  const std::string json = net::EncodeJson(BenchSession());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::DecodeLogSessionRequest(json));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(json.size()));
}
BENCHMARK(BM_NetCodecDecodeSession);

}  // namespace

/// BENCHMARK_MAIN plus the observability hooks: `--log-level=...` adjusts
/// logging, and `--obs-json=FILE` (or env LIGHTOR_OBS_JSON=FILE) writes
/// the registry's JSON export after the run — the BENCH_*.json-style
/// trajectory the tentpole asks for.
int main(int argc, char** argv) {
  std::string obs_json;
  if (const char* env = std::getenv("LIGHTOR_OBS_JSON")) obs_json = env;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--obs-json=", 11) == 0) {
      obs_json = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      if (!lightor::common::SetLogLevelFromString(argv[i] + 12)) {
        std::fprintf(stderr, "bad --log-level: %s\n", argv[i] + 12);
        return 2;
      }
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!obs_json.empty()) {
    const auto status = lightor::obs::WriteFile(
        obs_json, lightor::obs::ExportJson(lightor::obs::Registry::Global()));
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
