#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unordered_map>

#include "core/evaluation.h"
#include "net/service.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/viewer_simulator.h"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Tail(int* percentile) const {
  const size_t n = values_.size();
  const int p = n >= 1000 ? 99 : n >= 100 ? 90 : 50;
  if (percentile != nullptr) *percentile = p;
  return Quantile(p / 100.0);
}

void Tally::Note(const std::string& what) {
  std::lock_guard<std::mutex> lk(mu_);
  if (messages_.size() < 8) messages_.push_back(what);
}

void Tally::Fail(const std::string& what) {
  failed_.fetch_add(1);
  Note("failed: " + what);
}

void Tally::Mismatch(const std::string& what) {
  mismatches_.fetch_add(1);
  Note("mismatch: " + what);
}

std::vector<std::string> Tally::messages() const {
  std::lock_guard<std::mutex> lk(mu_);
  return messages_;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void SpanLog::Record(const Span& span) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(span);
}

Samples SpanLog::SelfTimes(const std::string& name,
                           double unit_seconds) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  Samples out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    int64_t self = s.end_ns - s.start_ns;
    if (auto it = child_ns.find(s.id); it != child_ns.end()) {
      self -= it->second;
    }
    out.Add(static_cast<double>(self) * 1e-9 / unit_seconds);
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

namespace {
thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_op = 0;
}  // namespace

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t parent)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.id = log_->NextId();
  span_.name = name;
  span_.parent = parent != 0 ? parent : t_current_span;
  span_.op = parent != 0 ? parent : (t_current_op != 0 ? t_current_op
                                                       : span_.id);
  saved_current_ = t_current_span;
  saved_op_ = t_current_op;
  t_current_span = span_.id;
  t_current_op = span_.op;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  t_current_span = saved_current_;
  t_current_op = saved_op_;
  log_->Record(span_);
}

Sizes Sizes::Quick() {
  Sizes s;
  s.rp_channels = 2;
  s.rp_videos_per_channel = 4;
  s.vw_warm = 8;
  s.vw_cold_per_conn = 2;
  s.vw_ops_per_conn = 200;
  s.lc_channels = 8;
  s.lc_frame_channels = 2;
  s.probe_videos = 2;
  s.probe_repeats = 20;
  return s;
}

core::TrainingVideo TrainingVideo() {
  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 1007);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  return tv;
}

common::Result<std::unique_ptr<core::Lightor>> TrainLightor(
    const core::TrainingVideo& video) {
  core::LightorOptions options;
  options.top_k = kTopK;
  auto lightor = std::make_unique<core::Lightor>(options);
  LIGHTOR_RETURN_IF_ERROR(lightor->TrainInitializer({video}));
  return lightor;
}

std::vector<storage::HighlightRecord> RecordsFromDots(
    const std::string& video_id, const std::vector<core::RedDot>& dots,
    const core::Lightor& lightor) {
  const double fallback = lightor.options().extractor.fallback_length;
  std::vector<storage::HighlightRecord> records;
  for (size_t i = 0; i < dots.size(); ++i) {
    storage::HighlightRecord rec;
    rec.video_id = video_id;
    rec.dot_index = static_cast<int32_t>(i);
    rec.dot_position = dots[i].position;
    rec.start = dots[i].position;
    rec.end = dots[i].position + fallback;
    rec.score = dots[i].score;
    records.push_back(std::move(rec));
  }
  return records;
}

std::vector<serving::LogSessionRequest> SimulateSessions(
    const sim::Platform& platform, const std::string& video_id,
    const std::vector<storage::HighlightRecord>& dots, int per_dot,
    common::Rng& rng, uint64_t* next_session_id) {
  std::vector<serving::LogSessionRequest> out;
  auto video = platform.GetVideo(video_id);
  if (!video.ok()) return out;
  const sim::ViewerSimulator viewers;
  for (const auto& dot : dots) {
    for (int u = 0; u < per_dot; ++u) {
      const uint64_t id = (*next_session_id)++;
      const std::string user = "viewer" + std::to_string(id);
      sim::ViewerSession session = viewers.SimulateSession(
          video.value().truth, dot.dot_position, rng, user);
      serving::LogSessionRequest req;
      req.video_id = video_id;
      req.user = user;
      req.session_id = id;
      req.events = std::move(session.events);
      out.push_back(std::move(req));
    }
  }
  return out;
}

Inputs MakeInputs(uint64_t seed, const Sizes& sizes, int channels,
                  int videos_per_channel, const core::Lightor& lightor) {
  Inputs inputs;
  inputs.sizes = sizes;
  sim::Platform::Options options;
  options.num_channels = channels;
  options.videos_per_channel = videos_per_channel;
  options.seed = seed;
  // One chat rate for every channel (about 4k messages per video): the
  // platform's popularity skew would make a catalog's total work swing
  // with the seed far more than any change under test.
  options.min_rate_scale = kChatRateScale;
  options.max_rate_scale = kChatRateScale;
  inputs.platform = std::make_unique<sim::Platform>(options);
  for (const std::string& id : inputs.platform->AllVideoIds()) {
    auto video = inputs.platform->GetVideo(id);
    if (!video.ok()) continue;
    VideoInput v;
    v.id = id;
    v.length = video.value().truth.meta.length;
    for (const auto& h : video.value().truth.highlights) {
      v.truth.push_back(h.span);
    }
    v.messages = sim::ToCoreMessages(video.value().chat);
    v.oracle = RecordsFromDots(
        id, lightor.initializer().DetectBatch(v.messages, v.length, kTopK),
        lightor);
    inputs.videos.push_back(std::move(v));
  }
  common::Rng rng(seed ^ 0x70726f6265ULL);
  uint64_t session_id = 1;
  const size_t probes =
      std::min(inputs.videos.size(), static_cast<size_t>(sizes.probe_videos));
  for (size_t i = 0; i < probes; ++i) {
    inputs.probe_sessions.push_back(SimulateSessions(
        *inputs.platform, inputs.videos[i].id, inputs.videos[i].oracle,
        sizes.probe_sessions_per_dot, rng, &session_id));
  }
  return inputs;
}

Precision PrecisionAtK(
    const std::vector<VideoInput>& videos,
    const std::vector<std::vector<storage::HighlightRecord>>& served) {
  Precision p;
  size_t n = 0;
  for (size_t i = 0; i < videos.size() && i < served.size(); ++i) {
    if (served[i].empty()) continue;
    std::vector<common::Seconds> starts, ends;
    for (const auto& rec : served[i]) {
      starts.push_back(rec.start);
      ends.push_back(rec.end);
    }
    p.start += core::VideoPrecisionStart(starts, videos[i].truth);
    p.end += core::VideoPrecisionEnd(ends, videos[i].truth);
    ++n;
  }
  if (n > 0) {
    p.start /= static_cast<double>(n);
    p.end /= static_cast<double>(n);
  }
  return p;
}

void Stack::Stop() {
  if (http != nullptr) http->Shutdown();
  if (server != nullptr) server->Shutdown();
}

Stack::~Stack() {
  Stop();
  http.reset();
  server.reset();
  db.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

common::Result<std::unique_ptr<Stack>> MakeStack(
    const sim::Platform& platform, const core::Lightor& lightor,
    const StackSpec& spec, const std::string& dir,
    const std::function<net::Router(net::Router)>& wrap_routes) {
  auto stack = std::make_unique<Stack>();
  stack->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto opened = storage::DB::Open(storage::OpenOptions(dir));
  if (!opened.ok()) return opened.status();
  stack->db = std::move(opened.value().db);

  serving::ServerOptions options;
  options.platform = serving::Borrow(&platform);
  options.db = serving::Borrow(stack->db.get());
  options.lightor = serving::Borrow(&lightor);
  options.top_k = kTopK;
  // Refinement runs only where a workload calls Refine, so every round
  // does the same work.
  options.refine_batch_sessions = 0;
  options.num_workers = 0;
  options.ingest_workers = spec.ingest_workers;
  if (spec.ingest_workers > 0) {
    options.ingest_quantum_messages = 256;
    options.ingest_queue_messages = 1 << 20;
    options.stream_publish_max_delay_seconds = 0.05;
  }
  auto server = serving::HighlightServer::Create(std::move(options));
  if (!server.ok()) return server.status();
  stack->server = std::move(server).value();

  if (spec.wire) {
    net::Router routes = net::BuildRoutes(stack->server.get());
    if (wrap_routes) routes = wrap_routes(std::move(routes));
    auto http = net::HttpServer::Create(net::NetOptions{}, std::move(routes));
    if (!http.ok()) return http.status();
    stack->http = std::move(http).value();
  }
  return stack;
}

net::Router TraceRoutes(net::Router inner, SpanLog* spans) {
  auto product = std::make_shared<net::Router>(std::move(inner));
  net::Router traced;
  // The routes the workloads call; the traced stack serves only these.
  static const std::pair<const char*, const char*> kRoutes[] = {
      {"POST", "/visit"},    {"POST", "/session"},   {"POST", "/ingest"},
      {"POST", "/finalize"}, {"GET", "/highlights"}};
  for (const auto& [method, path] : kRoutes) {
    int status = 0;
    const net::HttpHandler* handler = product->Find(method, path, &status);
    if (handler == nullptr) continue;
    traced.Handle(method, path,
                  [product, handler, spans](const net::HttpRequest& req) {
                    uint64_t parent = 0;
                    if (const auto* v = req.FindHeader(kSpanHeader)) {
                      parent = std::strtoull(std::string(*v).c_str(),
                                             nullptr, 10);
                    }
                    ScopedSpan span(spans, "net.handler", parent);
                    return (*handler)(req);
                  });
  }
  return traced;
}

void RoundStats::Merge(const Samples& init, const Samples& write,
                       const Samples& read) {
  std::lock_guard<std::mutex> lk(mu);
  init_ms.Merge(init);
  write_ms.Merge(write);
  read_ms.Merge(read);
}

namespace {

/// The value at zero steal of the line rate = a + b * steal that
/// minimises sum (rate - a - b * steal)^2 + n * w^2 * (b - slope * a)^2
/// over the (steal, rate) points, w = Phase::kStealPriorWeight. NaN when
/// there are no points or the fit does not give a positive rate (the
/// run then fails as unmeasured).
double RateAtZeroSteal(const std::vector<std::pair<double, double>>& points,
                       double slope) {
  const double n = static_cast<double>(points.size());
  const double w2 = Phase::kStealPriorWeight * Phase::kStealPriorWeight;
  double sx = 0.0, sxx = 0.0, sy = 0.0, sxy = 0.0;
  for (const auto& [x, y] : points) {
    sx += x;
    sxx += x * x;
    sy += y;
    sxy += x * y;
  }
  // The normal equations [a11 a12; a12 a22] (a, b) = (sy, sxy).
  const double a11 = n * (1.0 + w2 * slope * slope);
  const double a12 = sx - n * w2 * slope;
  const double a22 = sxx + n * w2;
  const double det = a11 * a22 - a12 * a12;
  const double a = det > 0.0 ? (sy * a22 - a12 * sxy) / det : 0.0;
  return a > 0.0 && std::isfinite(a) ? a : std::nan("");
}

std::vector<std::pair<double, double>> Points(
    const std::vector<std::unique_ptr<RoundStats>>& rounds,
    const std::function<double(const RoundStats&)>& rate) {
  std::vector<std::pair<double, double>> points;
  for (const auto& r : rounds) points.emplace_back(r->steal, rate(*r));
  return points;
}

}  // namespace

double Phase::Throughput(const StealSlopes& slopes) const {
  return RateAtZeroSteal(
      Points(rounds, [](const RoundStats& r) { return r.throughput; }),
      slopes.throughput);
}

double Phase::LatencyP50(Samples RoundStats::*which, double slope) const {
  return 1.0 / RateAtZeroSteal(Points(rounds,
                                      [which](const RoundStats& r) {
                                        return 1.0 / (r.*which).Median();
                                      }),
                               slope);
}

double Phase::SetupSeconds(const StealSlopes& slopes) const {
  return 1.0 / RateAtZeroSteal(
                   Points(rounds,
                          [](const RoundStats& r) { return 1.0 / r.setup_s; }),
                   slopes.setup);
}

std::pair<double, double> Phase::StealRange() const {
  double lo = 1.0, hi = 0.0;
  for (const auto& r : rounds) {
    lo = std::min(lo, r->steal);
    hi = std::max(hi, r->steal);
  }
  return {std::min(lo, hi), hi};
}

Samples Phase::Pooled(Samples RoundStats::*which) const {
  Samples out;
  for (const auto& r : rounds) out.Merge((*r).*which);
  return out;
}

}  // namespace perfbench
