// viewer_wire: what many viewers cost, over loopback HTTP. Four
// keep-alive connections run closed loops over pre-encoded requests:
// mostly GET /highlights polls, beside warm POST /visit, POST /session
// (durable before the ack) and a fixed trickle of cold POST /visit on
// never-visited videos. Background refinement is off, so the Extractor
// never runs and every round does the same work.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/codec.h"

namespace perfbench {
namespace {

// The mix (README.md gives the reasons). No trace in the repository or
// the paper gives a poll rate, so the read share is an assumption: polls
// dominate, as every open player page reads the dots. The writes keep the
// ratio of the repository's own closed-loop mix (net/loadgen.h: visit 4,
// session 8), one warm visit per two sessions.
constexpr double kReadWeight = 0.70;       ///< GET /highlights
constexpr double kWarmVisitWeight = 0.10;  ///< POST /visit, warm video
                                           ///< (the rest: POST /session)

struct WireOp {
  enum Kind { kRead, kWarmVisit, kSession, kColdVisit };
  Kind kind = kRead;
  const char* method = "GET";
  std::string target;
  std::string body;
  const std::string* expect = nullptr;  ///< the exact response body
};

const char* SpanName(WireOp::Kind kind) {
  switch (kind) {
    case WireOp::kRead:
      return "op.highlights";
    case WireOp::kWarmVisit:
      return "op.visit";
    case WireOp::kSession:
      return "op.session";
    case WireOp::kColdVisit:
      return "op.first_visit";
  }
  return "op";
}

class ViewerWire : public Workload {
 public:
  StackSpec spec() const override { return StackSpec{true, 0}; }

  common::Status Prepare(const RunConfig& config,
                         const core::Lightor& lightor) override {
    const Sizes sizes = config.quick ? Sizes::Quick() : Sizes();
    const int cold = sizes.vw_cold_per_conn * kConnections;
    const int total = sizes.vw_warm + cold;
    // Twice the videos needed, so the cold trickle can take videos of
    // typical size: a cold visit costs in proportion to the video's chat,
    // and a few outliers would otherwise decide its median.
    inputs_ = MakeInputs(config.seed, sizes, (2 * total + 7) / 8, 8, lightor);
    SelectVideos(static_cast<size_t>(sizes.vw_warm),
                 static_cast<size_t>(cold));
    warm_ = static_cast<size_t>(sizes.vw_warm);

    // The exact bodies the server must answer with: the oracle dots, at
    // snapshot version 1 (nothing refines them).
    const size_t n = inputs_.videos.size();
    highlights_body_.resize(n);
    visit_body_.resize(n);
    first_visit_body_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const auto& oracle = inputs_.videos[i].oracle;
      serving::GetHighlightsResponse h;
      h.highlights = oracle;
      h.snapshot_version = 1;
      highlights_body_[i] = net::EncodeJson(h);
      serving::PageVisitResponse v;
      v.highlights = oracle;
      v.snapshot_version = 1;
      visit_body_[i] = net::EncodeJson(v);
      v.first_visit = true;
      first_visit_body_[i] = net::EncodeJson(v);
      // The served bytes are compared with these, so every served body
      // decodes back to the oracle dots when these do.
      auto decoded_h = net::DecodeGetHighlightsResponse(highlights_body_[i]);
      auto decoded_v = net::DecodePageVisitResponse(first_visit_body_[i]);
      if (!decoded_h.ok() || !decoded_v.ok() ||
          decoded_h.value().highlights != oracle ||
          decoded_v.value().highlights != oracle ||
          !net::DecodePageVisitResponse(visit_body_[i]).ok()) {
        return common::Status::Internal(
            "expected response body does not decode to the oracle dots");
      }
    }

    common::Rng rng(config.seed * 0x2545f4914f6cdd1dULL + 3);
    uint64_t session_id = 1;
    std::vector<std::vector<serving::LogSessionRequest>> pool(warm_);
    events_per_round_ = 0;
    ops_.assign(kConnections, {});
    for (int c = 0; c < kConnections; ++c) {
      auto& ops = ops_[static_cast<size_t>(c)];
      const int count = sizes.vw_ops_per_conn;
      for (int k = 0; k < count; ++k) {
        WireOp op;
        const size_t v =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(warm_) - 1));
        const std::string& id = inputs_.videos[v].id;
        const double draw = rng.NextDouble();
        if (draw < kReadWeight) {
          op.kind = WireOp::kRead;
          op.target = "/highlights?video_id=" + id;
          op.expect = &highlights_body_[v];
        } else if (draw < kReadWeight + kWarmVisitWeight) {
          op.kind = WireOp::kWarmVisit;
          op.method = "POST";
          op.target = "/visit";
          op.body = net::EncodeJson(serving::PageVisitRequest{id, "viewer"});
          op.expect = &visit_body_[v];
        } else {
          if (pool[v].empty()) {
            pool[v] = SimulateSessions(*inputs_.platform, id,
                                       inputs_.videos[v].oracle, 1, rng,
                                       &session_id);
          }
          serving::LogSessionRequest session = std::move(pool[v].back());
          pool[v].pop_back();
          events_per_round_ += session.events.size();
          op.kind = WireOp::kSession;
          op.method = "POST";
          op.target = "/session";
          op.body = net::EncodeJson(session);
          op.expect = &ok_body_;
        }
        ops.push_back(std::move(op));
      }
      // The cold trickle: evenly spaced, each on its own video.
      for (int k = sizes.vw_cold_per_conn - 1; k >= 0; --k) {
        const size_t v = warm_ + static_cast<size_t>(
                                     c * sizes.vw_cold_per_conn + k);
        WireOp op;
        op.kind = WireOp::kColdVisit;
        op.method = "POST";
        op.target = "/visit";
        op.body = net::EncodeJson(
            serving::PageVisitRequest{inputs_.videos[v].id, "viewer"});
        op.expect = &first_visit_body_[v];
        const size_t at = static_cast<size_t>(
            (k + 1) * count / (sizes.vw_cold_per_conn + 1));
        ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(at),
                   std::move(op));
      }
    }
    return common::Status::OK();
  }

  void RunRound(Stack& stack, SpanLog* spans, Tally& tally,
                RoundStats& stats) override {
    WarmUp(*stack.server, tally);
    const uint16_t port = stack.http->port();
    size_t total_ops = 0;
    for (const auto& ops : ops_) total_ops += ops.size();

    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Samples init, write, read;
        net::HttpClient client("127.0.0.1", port);
        for (const WireOp& op : ops_[static_cast<size_t>(c)]) {
          tally.Attempt();
          ScopedSpan span(spans, SpanName(op.kind));
          if (spans != nullptr) {
            client.set_header(kSpanHeader, std::to_string(span.id()));
          }
          const auto t0 = Clock::now();
          auto resp = client.Request(op.method, op.target, op.body);
          const double ms = MsSince(t0);
          switch (op.kind) {
            case WireOp::kRead:
              read.Add(ms);
              break;
            case WireOp::kSession:
              write.Add(ms);
              break;
            case WireOp::kColdVisit:
              init.Add(ms);
              break;
            case WireOp::kWarmVisit:
              break;
          }
          if (!resp.ok()) {
            tally.Fail(op.target + ": " + resp.status().ToString());
          } else if (resp.value().status != 200) {
            tally.Fail(op.target + ": HTTP " +
                       std::to_string(resp.value().status) + " " +
                       resp.value().body);
          } else if (resp.value().body != *op.expect) {
            tally.Mismatch(op.target + " " + op.body + " answered " +
                           resp.value().body);
          }
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
                     " interaction records, acked " +
                     std::to_string(events_per_round_));
    }
    stats.throughput = static_cast<double>(total_ops) / seconds;
    stats.served.clear();
    for (const auto& v : inputs_.videos) stats.served.push_back(v.oracle);
  }

  StealSlopes steal_slopes() const override {
    return {-1.6, -3.8, -0.9, -1.9, -1.7};
  }

  Crossings crossings() const override {
    return {{{"net.parse_us", 1.0},
             {"net.decode_us", 1.0},
             {"storage.crawl_ms", 1.0},
             {"core.detect_ms", 1.0},
             {"storage.put_highlight_us", static_cast<double>(kTopK)},
             {"net.encode_us", 1.0}},
            {{"net.parse_us", 1.0},
             {"net.decode_us", 1.0},
             {"storage.session_append_us", 1.0}},
            {{"net.parse_us", 1.0},
             {"serving.highlights_us", 1.0},
             {"net.encode_us", 1.0}}};
  }

 private:
  /// Visits the warm set in process (untimed) so the wire traffic finds
  /// their dots published.
  void WarmUp(serving::HighlightServer& server, Tally& tally) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = static_cast<size_t>(t); i < warm_;
             i += kConnections) {
          const VideoInput& video = inputs_.videos[i];
          tally.Attempt();
          auto visit = server.OnPageVisit({video.id, "viewer"});
          if (!visit.ok()) {
            tally.Fail("warm-up visit " + video.id + ": " +
                       visit.status().ToString());
          } else if (!visit.value().first_visit ||
                     visit.value().highlights != video.oracle) {
            tally.Mismatch("first visit of " + video.id +
                           " differs from DetectBatch");
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  /// Keeps `warm` videos plus, after them, the `cold` videos whose chat
  /// volume is nearest the catalog's median. Probe inputs stay aligned:
  /// the probes use the first videos, which are kept in place.
  void SelectVideos(size_t warm, size_t cold) {
    std::vector<VideoInput>& videos = inputs_.videos;
    std::vector<size_t> sizes;
    for (const auto& v : videos) sizes.push_back(v.messages.size());
    std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                     sizes.end());
    const double median = static_cast<double>(sizes[sizes.size() / 2]);
    std::vector<VideoInput> rest(std::make_move_iterator(videos.begin() +
                                                         static_cast<std::ptrdiff_t>(warm)),
                                 std::make_move_iterator(videos.end()));
    videos.resize(warm);
    std::stable_sort(rest.begin(), rest.end(),
                     [median](const VideoInput& a, const VideoInput& b) {
                       return std::abs(static_cast<double>(a.messages.size()) -
                                       median) <
                              std::abs(static_cast<double>(b.messages.size()) -
                                       median);
                     });
    for (size_t i = 0; i < cold && i < rest.size(); ++i) {
      videos.push_back(std::move(rest[i]));
    }
  }

  size_t warm_ = 0;
  std::vector<std::string> highlights_body_, visit_body_, first_visit_body_;
  const std::string ok_body_ = "{\"ok\":true}";
  std::vector<std::vector<WireOp>> ops_;  ///< per connection
  size_t events_per_round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeViewerWire() {
  return std::make_unique<ViewerWire>();
}

}  // namespace perfbench
