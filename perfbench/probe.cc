// Layer probes of the traced run. Each per-layer metric is timed from
// outside: the benchmark calls the layer's public function on the
// workload's own inputs (its first `probe_videos` videos, their chat,
// oracle dots and probe sessions), one span per call, and reports the
// median self time of the spans of that name. Every workload probes every
// layer, so every traced run reports the same metrics; README.md maps
// each to the end-to-end metric it should move on each workload.

#include <filesystem>

#include "bench.h"
#include "core/streaming.h"
#include "net/codec.h"
#include "net/http.h"
#include "serving/refine.h"
#include "storage/crawler.h"

namespace perfbench {
namespace {

/// A video's chat cut into slices of video time, as live_channels sends
/// it.
std::vector<std::vector<core::Message>> Slices(const VideoInput& video,
                                               double slice_seconds) {
  std::vector<std::vector<core::Message>> out;
  for (const auto& m : video.messages) {
    const size_t s = static_cast<size_t>(m.timestamp / slice_seconds);
    if (out.size() <= s) out.resize(s + 1);
    out[s].push_back(m);
  }
  std::erase_if(out, [](const auto& batch) { return batch.empty(); });
  return out;
}

std::string HttpRequestBytes(const char* method, const std::string& target,
                             const std::string& body) {
  std::string out = std::string(method) + " " + target +
                    " HTTP/1.1\r\nhost: 127.0.0.1\r\n";
  if (!body.empty()) {
    out += "content-type: application/json\r\ncontent-length: " +
           std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

class Prober {
 public:
  Prober(const Inputs& inputs, const core::Lightor& lightor,
         const std::string& dir, SpanLog& spans, Tally& tally)
      : inputs_(inputs),
        lightor_(lightor),
        dir_(dir),
        spans_(spans),
        tally_(tally) {
    const size_t n = std::min(inputs.videos.size(),
                              inputs.probe_sessions.size());
    for (size_t i = 0; i < n; ++i) videos_.push_back(&inputs.videos[i]);
  }

  void Run(Metrics& m) {
    CoreAndStorage(m);
    Serving(m);
    Ingest(m);
    Wire(m);
  }

 private:
  double MedianOf(const char* name, double unit) const {
    return spans_.SelfTimes(name, unit).Median();
  }

  void Check(bool ok, const std::string& what) {
    tally_.Attempt();
    if (!ok) tally_.Fail("probe: " + what);
  }

  common::Result<std::unique_ptr<Stack>> Fresh(const char* name,
                                               StackSpec spec) {
    return MakeStack(*inputs_.platform, lightor_, spec, dir_ + "/" + name);
  }

  /// Crawl, Initializer, persistence, streaming engine, session log and
  /// the Extractor's pass, straight on a database with no server.
  void CoreAndStorage(Metrics& m) {
    const std::string dir = dir_ + "/probe-storage";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    auto opened = storage::DB::Open(storage::OpenOptions(dir));
    Check(opened.ok(), "open probe database");
    if (!opened.ok()) return;
    storage::Database& db = *opened.value().db;
    storage::Crawler crawler(inputs_.platform.get(), &db);
    const int repeats = inputs_.sizes.probe_repeats;
    const double delta = lightor_.options().extractor.delta;
    double stream_msgs = 0.0, stream_seconds = 0.0;
    double log_bytes = 0.0, sessions_logged = 0.0;
    double plays_used = 0.0, plays_grouped = 0.0;

    for (size_t v = 0; v < videos_.size(); ++v) {
      const VideoInput& video = *videos_[v];
      {
        ScopedSpan op(&spans_, "probe.first_visit");
        {
          ScopedSpan span(&spans_, "storage.crawl");
          auto crawled = crawler.EnsureChat(video.id);
          Check(crawled.ok() && crawled.value(), "crawl " + video.id);
        }
        std::vector<core::RedDot> dots;
        {
          ScopedSpan span(&spans_, "core.detect");
          auto detected =
              lightor_.Initialize(video.messages, video.length, kTopK);
          Check(detected.ok(), "detect " + video.id);
          if (detected.ok()) dots = std::move(detected.value());
        }
        const auto records = RecordsFromDots(video.id, dots, lightor_);
        if (records != video.oracle) {
          tally_.Mismatch("Initialize of " + video.id +
                          " differs from DetectBatch");
        }
        for (const auto& rec : records) {
          ScopedSpan span(&spans_, "storage.put_highlight");
          Check(db.PutHighlight(rec).ok(), "put highlight");
        }
      }
      {
        ScopedSpan span(&spans_, "core.detect_batch");
        auto dots =
            lightor_.initializer().DetectBatch(video.messages, video.length,
                                               kTopK);
        Check(!dots.empty(), "detect batch " + video.id);
      }

      // The engine as Detect drives it: messages at or after the video's
      // end fit in no window and only feed the adjustment stage.
      core::StreamingInitializer engine(&lightor_.initializer());
      for (auto batch : Slices(video, inputs_.sizes.lc_slice_seconds)) {
        std::vector<core::Message> tail;
        while (!batch.empty() && batch.back().timestamp >= video.length) {
          tail.insert(tail.begin(), std::move(batch.back()));
          batch.pop_back();
        }
        if (!batch.empty()) {
          const int64_t t0 = NowNs();
          {
            ScopedSpan span(&spans_, "core.stream_ingest");
            auto counts = engine.IngestBatch(batch);
            Check(counts.ok() && counts.value().accepted == batch.size(),
                  "stream ingest " + video.id);
          }
          stream_seconds += static_cast<double>(NowNs() - t0) * 1e-9;
          stream_msgs += static_cast<double>(batch.size());
        }
        for (const auto& m : tail) {
          Check(engine.RecordTailTimestamp(m.timestamp).ok(), "tail");
        }
      }
      for (int r = 0; r < repeats / 10 + 1; ++r) {
        ScopedSpan span(&spans_, "core.provisional");
        Check(!engine.Provisional(kTopK).empty() || video.messages.empty(),
              "provisional " + video.id);
      }
      {
        ScopedSpan span(&spans_, "core.finalize");
        auto dots = engine.Finalize(video.length, kTopK);
        Check(dots.ok(), "finalize " + video.id);
        if (dots.ok() &&
            RecordsFromDots(video.id, dots.value(), lightor_) != video.oracle) {
          tally_.Mismatch("Finalize of " + video.id +
                          " differs from DetectBatch");
        }
      }

      const auto bytes_before = db.GetStats().interaction_log_bytes;
      for (const auto& session : inputs_.probe_sessions[v]) {
        ScopedSpan span(&spans_, "storage.session_append");
        for (const auto& ev : session.events) {
          storage::InteractionRecord rec;
          rec.video_id = session.video_id;
          rec.user = session.user;
          rec.session_id = session.session_id;
          rec.event = serving::FromSimType(ev.type);
          rec.wall_time = ev.wall_time;
          rec.position = ev.position;
          rec.target = ev.target;
          Check(db.PutInteraction(rec).ok(), "put interaction");
        }
      }
      log_bytes += static_cast<double>(db.GetStats().interaction_log_bytes -
                                       bytes_before);
      sessions_logged +=
          static_cast<double>(inputs_.probe_sessions[v].size());

      std::map<uint64_t, std::vector<storage::InteractionRecord>> sessions;
      for (int r = 0; r < repeats / 10 + 1; ++r) {
        ScopedSpan span(&spans_, "storage.sessions_since");
        sessions = db.interactions().SessionsSince(video.id, 0);
      }
      for (int r = 0; r < repeats / 10 + 1; ++r) {
        ScopedSpan span(&spans_, "serving.group_plays");
        auto grouped = serving::GroupPlaysByDot(sessions, video.oracle, delta);
        if (r == 0) {
          for (const auto& [dot, plays] : grouped) {
            plays_grouped += static_cast<double>(plays.size());
          }
        }
      }
      for (int r = 0; r < repeats / 10 + 1; ++r) {
        ScopedSpan span(&spans_, "serving.refine_pass");
        auto pass =
            serving::RunRefinePass(lightor_, video.id, video.oracle, sessions);
        if (r == 0) {
          for (const auto& dot : pass.report.dots) {
            plays_used += static_cast<double>(dot.plays_used);
          }
        }
      }
    }
    opened.value().db.reset();
    std::filesystem::remove_all(dir, ec);

    const double detect = MedianOf("core.detect", 1e-3);
    const double detect_batch = MedianOf("core.detect_batch", 1e-3);
    m.emplace_back("storage.crawl_ms", MedianOf("storage.crawl", 1e-3));
    m.emplace_back("core.detect_ms", detect);
    m.emplace_back("core.detect_batch_ms", detect_batch);
    m.emplace_back("core.detect_ratio",
                   detect_batch > 0.0 ? detect / detect_batch : 0.0);
    m.emplace_back("storage.put_highlight_us",
                   MedianOf("storage.put_highlight", 1e-6));
    m.emplace_back("core.stream_ingest_msgs_per_s",
                   stream_seconds > 0.0 ? stream_msgs / stream_seconds : 0.0);
    m.emplace_back("core.provisional_us", MedianOf("core.provisional", 1e-6));
    m.emplace_back("core.finalize_ms", MedianOf("core.finalize", 1e-3));
    m.emplace_back("storage.session_append_us",
                   MedianOf("storage.session_append", 1e-6));
    m.emplace_back("storage.log_bytes_per_session",
                   sessions_logged > 0.0 ? log_bytes / sessions_logged : 0.0);
    m.emplace_back("storage.sessions_since_us",
                   MedianOf("storage.sessions_since", 1e-6));
    m.emplace_back("serving.group_plays_us",
                   MedianOf("serving.group_plays", 1e-6));
    m.emplace_back("serving.refine_pass_us",
                   MedianOf("serving.refine_pass", 1e-6));
    m.emplace_back("core.plays_kept_ratio",
                   plays_grouped > 0.0 ? plays_used / plays_grouped : 0.0);
  }

  /// The in-process serving calls, on a quiet HighlightServer.
  void Serving(Metrics& m) {
    auto stack = Fresh("probe-serving", StackSpec{});
    Check(stack.ok(), "probe serving stack");
    if (!stack.ok()) return;
    serving::HighlightServer& server = *stack.value()->server;
    const int repeats = inputs_.sizes.probe_repeats;
    for (size_t v = 0; v < videos_.size(); ++v) {
      const VideoInput& video = *videos_[v];
      auto cold = server.OnPageVisit({video.id, "viewer"});
      Check(cold.ok() && cold.value().first_visit, "cold visit " + video.id);
      for (int r = 0; r < repeats; ++r) {
        {
          ScopedSpan span(&spans_, "serving.visit_warm");
          auto warm = server.OnPageVisit({video.id, "viewer"});
          Check(warm.ok() && !warm.value().first_visit,
                "warm visit " + video.id);
        }
        ScopedSpan span(&spans_, "serving.highlights");
        auto current = server.GetHighlights(video.id);
        Check(current.ok(), "highlights " + video.id);
      }
      for (const auto& session : inputs_.probe_sessions[v]) {
        ScopedSpan span(&spans_, "serving.session");
        Check(server.LogSession(session).ok(), "log session");
      }
      ScopedSpan span(&spans_, "serving.refine");
      Check(server.Refine(video.id).ok(), "refine " + video.id);
    }
    m.emplace_back("serving.visit_warm_us",
                   MedianOf("serving.visit_warm", 1e-6));
    m.emplace_back("serving.highlights_us",
                   MedianOf("serving.highlights", 1e-6));
    m.emplace_back("serving.session_us", MedianOf("serving.session", 1e-6));
    m.emplace_back("serving.refine_ms", MedianOf("serving.refine", 1e-3));
  }

  /// Live ingest in process: the synchronous IngestChat path per batch,
  /// and the fair-share scheduler's provisional staleness.
  void Ingest(Metrics& m) {
    const double slice = inputs_.sizes.lc_slice_seconds;
    {
      auto stack = Fresh("probe-ingest", StackSpec{});
      Check(stack.ok(), "probe ingest stack");
      if (!stack.ok()) return;
      for (const VideoInput* video : videos_) {
        for (auto& batch : Slices(*video, slice)) {
          const size_t count = batch.size();
          serving::IngestChatRequest req{video->id, std::move(batch)};
          ScopedSpan span(&spans_, "serving.ingest_batch");
          auto ack = stack.value()->server->IngestChat(req);
          Check(ack.ok() && ack.value().accepted == count,
                "ingest " + video->id);
        }
      }
    }
    m.emplace_back("serving.ingest_batch_us",
                   MedianOf("serving.ingest_batch", 1e-6));

    auto stack = Fresh("probe-staleness", StackSpec{false, 1});
    Check(stack.ok(), "probe staleness stack");
    if (!stack.ok()) return;
    serving::HighlightServer& server = *stack.value()->server;
    std::vector<std::vector<std::vector<core::Message>>> slices;
    size_t longest = 0;
    for (const VideoInput* video : videos_) {
      slices.push_back(Slices(*video, slice));
      longest = std::max(longest, slices.back().size());
    }
    for (size_t s = 0; s < longest; ++s) {
      for (size_t v = 0; v < videos_.size(); ++v) {
        if (s >= slices[v].size()) continue;
        auto ack = server.IngestChat({videos_[v]->id, slices[v][s]});
        Check(ack.ok() && !ack.value().throttled, "async ingest");
      }
    }
    server.FlushIngest();
    Samples staleness;
    for (const auto& channel : server.ChannelsSnapshot()) {
      if (channel.publishes > 0) {
        staleness.Add(channel.max_staleness_seconds * 1e3);
      }
    }
    m.emplace_back("serving.provisional_staleness_p50_ms",
                   staleness.Median());
  }

  /// The wire codec and parser on the requests and responses the
  /// workloads send: parse, decode, batch-frame decode and encode.
  void Wire(Metrics& m) {
    std::vector<std::string> requests, session_bodies, visit_bodies, frames;
    std::vector<serving::GetHighlightsResponse> responses;
    std::vector<serving::IngestChatRequest> pending;
    const size_t per_frame =
        static_cast<size_t>(inputs_.sizes.lc_frame_channels);
    for (size_t v = 0; v < videos_.size(); ++v) {
      const VideoInput& video = *videos_[v];
      requests.push_back(
          HttpRequestBytes("GET", "/highlights?video_id=" + video.id, ""));
      visit_bodies.push_back(
          net::EncodeJson(serving::PageVisitRequest{video.id, "viewer"}));
      requests.push_back(HttpRequestBytes("POST", "/visit",
                                          visit_bodies.back()));
      for (const auto& session : inputs_.probe_sessions[v]) {
        session_bodies.push_back(net::EncodeJson(session));
        requests.push_back(
            HttpRequestBytes("POST", "/session", session_bodies.back()));
      }
      serving::GetHighlightsResponse resp;
      resp.highlights = video.oracle;
      resp.snapshot_version = 1;
      responses.push_back(std::move(resp));
    }
    // Batch frames of `per_frame` channels, one slice each.
    std::vector<std::vector<std::vector<core::Message>>> slices;
    size_t longest = 0;
    for (const VideoInput* video : videos_) {
      slices.push_back(Slices(*video, inputs_.sizes.lc_slice_seconds));
      longest = std::max(longest, slices.back().size());
    }
    for (size_t s = 0; s < longest; ++s) {
      for (size_t v = 0; v < videos_.size(); ++v) {
        if (s < slices[v].size()) {
          pending.push_back({videos_[v]->id, slices[v][s]});
        }
        if (pending.size() == per_frame || v + 1 == videos_.size()) {
          if (!pending.empty()) {
            frames.push_back(net::EncodeIngestBatchRequest(pending));
          }
          pending.clear();
        }
      }
    }

    const int repeats = std::max(1, inputs_.sizes.probe_repeats / 20);
    for (int r = 0; r < repeats; ++r) {
      for (const auto& bytes : requests) {
        net::RequestParser parser;
        ScopedSpan span(&spans_, "net.parse");
        parser.Append(bytes);
        Check(parser.Parse() == net::RequestParser::State::kReady, "parse");
      }
      for (const auto& body : session_bodies) {
        ScopedSpan span(&spans_, "net.decode");
        Check(net::DecodeLogSessionRequest(body).ok(), "decode session");
      }
      for (const auto& body : visit_bodies) {
        ScopedSpan span(&spans_, "net.decode");
        Check(net::DecodePageVisitRequest(body).ok(), "decode visit");
      }
      for (const auto& frame : frames) {
        ScopedSpan span(&spans_, "net.decode_batch");
        Check(net::DecodeIngestBatchRequest(frame).ok(), "decode frame");
      }
    }
    double bytes = 0.0;
    for (int r = 0; r < repeats * 10; ++r) {
      for (const auto& resp : responses) {
        std::string body;
        {
          ScopedSpan span(&spans_, "net.encode");
          body = net::EncodeJson(resp);
        }
        if (r == 0) bytes += static_cast<double>(body.size());
      }
    }
    m.emplace_back("net.parse_us", MedianOf("net.parse", 1e-6));
    m.emplace_back("net.decode_us", MedianOf("net.decode", 1e-6));
    m.emplace_back("net.decode_batch_us", MedianOf("net.decode_batch", 1e-6));
    m.emplace_back("net.encode_us", MedianOf("net.encode", 1e-6));
    m.emplace_back("net.response_bytes",
                   responses.empty()
                       ? 0.0
                       : bytes / static_cast<double>(responses.size()));
  }

  const Inputs& inputs_;
  const core::Lightor& lightor_;
  std::string dir_;
  SpanLog& spans_;
  Tally& tally_;
  std::vector<const VideoInput*> videos_;
};

}  // namespace

void ProbeLayers(const Inputs& inputs, const core::Lightor& lightor,
                 const std::string& dir, SpanLog& spans, Tally& tally,
                 Metrics& metrics) {
  Prober(inputs, lightor, dir, spans, tally).Run(metrics);
}

}  // namespace perfbench
