// recorded_pipeline: the paper's two stages over a platform's backlog of
// recorded videos, in process. Four load threads each own a disjoint
// quarter of the catalog. Each video gets a cold OnPageVisit (crawl +
// Initializer + persist), then rounds of pre-simulated viewers, each
// reading the dots (GetHighlights) and logging its session (LogSession,
// durable before the ack), with a Refine and a GetHighlights after each
// round. The sessions were recorded beforehand by running the
// reference WebService through the same visit -> sessions -> refine
// loop, so the served end state must equal the reference's.

#include <filesystem>
#include <thread>

#include "bench.h"
#include "serving/web_service.h"

namespace perfbench {
namespace {

class RecordedPipeline : public Workload {
 public:
  StackSpec spec() const override { return StackSpec{}; }

  common::Status Prepare(const RunConfig& config,
                         const core::Lightor& lightor) override {
    const Sizes sizes = config.quick ? Sizes::Quick() : Sizes();
    inputs_ = MakeInputs(config.seed, sizes, sizes.rp_channels,
                         sizes.rp_videos_per_channel, lightor);
    return RecordReference(config, lightor);
  }

  void RunRound(Stack& stack, SpanLog* spans, Tally& tally,
                RoundStats& stats) override {
    const size_t n = inputs_.videos.size();
    std::vector<std::vector<storage::HighlightRecord>> served(n);
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        Samples init, write, read;
        for (size_t i = static_cast<size_t>(t); i < n; i += kConnections) {
          served[i] = DriveVideo(*stack.server, i, spans, tally, init, write,
                                 read);
        }
        stats.Merge(init, write, read);
      });
    }
    for (auto& th : threads) th.join();
    const double seconds = SecondsBetween(start, Clock::now());
    stack.Stop();

    const size_t stored = stack.db->interactions().TotalRecords();
    if (stored != events_per_round_) {
      tally.Mismatch("stored " + std::to_string(stored) +
                     " interaction records, sent " +
                     std::to_string(events_per_round_));
    }
    stats.throughput = static_cast<double>(n) / seconds;
    stats.served = std::move(served);
  }

  StealSlopes steal_slopes() const override {
    return {-1.5, -1.9, -2.1, 1.1, 0.2};
  }

  Crossings crossings() const override {
    return {{{"storage.crawl_ms", 1.0},
             {"core.detect_ms", 1.0},
             {"storage.put_highlight_us", static_cast<double>(kTopK)}},
            {{"storage.session_append_us", 1.0}},
            {{"serving.highlights_us", 1.0}}};
  }

 private:
  /// Runs one video through the pipeline; returns its final highlights.
  std::vector<storage::HighlightRecord> DriveVideo(
      serving::HighlightServer& server, size_t index, SpanLog* spans,
      Tally& tally, Samples& init, Samples& write, Samples& read) {
    const VideoInput& video = inputs_.videos[index];
    {
      tally.Attempt();
      ScopedSpan span(spans, "op.first_visit");
      const auto t0 = Clock::now();
      auto visit = server.OnPageVisit({video.id, "viewer"});
      init.Add(MsSince(t0));
      if (!visit.ok()) {
        tally.Fail("OnPageVisit " + video.id + ": " +
                   visit.status().ToString());
      } else if (!visit.value().first_visit ||
                 visit.value().highlights != video.oracle) {
        tally.Mismatch("first visit of " + video.id +
                       " differs from DetectBatch");
      }
    }
    std::vector<storage::HighlightRecord> last;
    for (const auto& round : sessions_[index]) {
      for (const auto& session : round) {
        // The viewer's page reads the dots, then the session is logged.
        Read(server, video.id, spans, tally, read);
        tally.Attempt();
        ScopedSpan span(spans, "op.session");
        const auto t0 = Clock::now();
        const common::Status st = server.LogSession(session);
        write.Add(MsSince(t0));
        if (!st.ok()) tally.Fail("LogSession: " + st.ToString());
      }
      {
        tally.Attempt();
        ScopedSpan span(spans, "op.refine");
        auto report = server.Refine(video.id);
        if (!report.ok()) {
          tally.Fail("Refine " + video.id + ": " +
                     report.status().ToString());
        }
      }
      auto current = Read(server, video.id, spans, tally, read);
      if (current.ok()) last = std::move(current.value().highlights);
    }
    if (last != expected_final_[index]) {
      tally.Mismatch("final highlights of " + video.id +
                     " differ from the reference WebService");
    }
    return last;
  }

  /// One timed GetHighlights.
  static common::Result<serving::GetHighlightsResponse> Read(
      serving::HighlightServer& server, const std::string& video_id,
      SpanLog* spans, Tally& tally, Samples& read) {
    tally.Attempt();
    ScopedSpan span(spans, "op.highlights");
    const auto t0 = Clock::now();
    auto current = server.GetHighlights(video_id);
    read.Add(MsSince(t0));
    if (!current.ok()) {
      tally.Fail("GetHighlights " + video_id + ": " +
                 current.status().ToString());
    }
    return current;
  }

  /// The reference WebService runs the same loop once, sequentially; the
  /// sessions it was fed and the highlights it ends with become the
  /// workload's inputs and expected outputs.
  common::Status RecordReference(const RunConfig& config,
                                 const core::Lightor& lightor) {
    const std::string dir = config.dir + "/reference";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    auto opened = storage::DB::Open(storage::OpenOptions(dir));
    if (!opened.ok()) return opened.status();
    std::unique_ptr<storage::Database> db = std::move(opened.value().db);
    serving::ServerOptions options;
    options.platform = serving::Borrow(
        static_cast<const sim::Platform*>(inputs_.platform.get()));
    options.db = serving::Borrow(db.get());
    options.lightor = serving::Borrow(&lightor);
    options.top_k = kTopK;
    serving::WebService reference(options);

    const Sizes& sizes = inputs_.sizes;
    common::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 1);
    uint64_t session_id = 1;
    events_per_round_ = 0;
    sessions_.assign(inputs_.videos.size(), {});
    expected_final_.assign(inputs_.videos.size(), {});
    for (size_t i = 0; i < inputs_.videos.size(); ++i) {
      const std::string& id = inputs_.videos[i].id;
      auto visit = reference.OnPageVisit({id, "viewer"});
      if (!visit.ok()) return visit.status();
      for (int r = 0; r < sizes.rp_refine_rounds; ++r) {
        auto current = reference.GetHighlights(id);
        if (!current.ok()) return current.status();
        auto round = SimulateSessions(*inputs_.platform, id,
                                      current.value().highlights,
                                      sizes.rp_sessions_per_dot, rng,
                                      &session_id);
        for (const auto& session : round) {
          LIGHTOR_RETURN_IF_ERROR(reference.LogSession(session));
          events_per_round_ += session.events.size();
        }
        sessions_[i].push_back(std::move(round));
        auto report = reference.Refine(id);
        if (!report.ok()) return report.status();
      }
      auto final_dots = reference.GetHighlights(id);
      if (!final_dots.ok()) return final_dots.status();
      expected_final_[i] = std::move(final_dots.value().highlights);
    }
    db.reset();
    std::filesystem::remove_all(dir, ec);
    return common::Status::OK();
  }

  /// Per video, per refinement round: the sessions to log.
  std::vector<std::vector<std::vector<serving::LogSessionRequest>>> sessions_;
  std::vector<std::vector<storage::HighlightRecord>> expected_final_;
  size_t events_per_round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeRecordedPipeline() {
  return std::make_unique<RecordedPipeline>();
}

}  // namespace perfbench
