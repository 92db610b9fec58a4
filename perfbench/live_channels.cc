// live_channels: many live channels over loopback HTTP. Each channel
// replays a recorded video's chat in timestamp order: the chat is cut into
// fixed slices of video time, and a batch frame (POST /ingest, a JSON
// array) carries one slice of several channels. Four connections each
// own a quarter of the channels. The server runs the fair-share ingest
// scheduler with no rate limit, so nothing is throttled. After every
// frame the connection polls GET /highlights on one of the frame's
// channels for its provisional dots; at the end of its stream every
// channel gets a POST /finalize with the stream's length.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/codec.h"

namespace perfbench {
namespace {

struct Frame {
  std::string body;            ///< encoded batch frame
  std::vector<size_t> videos;  ///< channel (video index) per entry
  std::vector<size_t> counts;  ///< messages per entry
  size_t poll = 0;             ///< the channel polled after it
  std::string poll_target;
};

class LiveChannels : public Workload {
 public:
  StackSpec spec() const override { return StackSpec{true, 2}; }

  common::Status Prepare(const RunConfig& config,
                         const core::Lightor& lightor) override {
    const Sizes sizes = config.quick ? Sizes::Quick() : Sizes();
    inputs_ = MakeInputs(config.seed, sizes, (sizes.lc_channels + 7) / 8, 8,
                         lightor);
    inputs_.videos.resize(static_cast<size_t>(sizes.lc_channels));
    const size_t n = inputs_.videos.size();
    const double slice = sizes.lc_slice_seconds;
    const size_t per_frame = static_cast<size_t>(sizes.lc_frame_channels);

    messages_per_round_ = 0;
    frames_.assign(kConnections, {});
    finalize_body_.clear();
    finalized_.clear();
    size_t past_length = 0;
    for (const VideoInput& video : inputs_.videos) {
      messages_per_round_ += video.messages.size();
      // The broadcaster names the stream's length: the recorded video's,
      // or its last chat message's when the chat runs on past it. Left
      // to the server, such a stream resolves the platform's shorter
      // length and cannot be finalized (see the FOUND note in
      // CHANGES.md).
      const double length =
          video.messages.empty()
              ? video.length
              : std::max(video.length, video.messages.back().timestamp);
      if (length > video.length) ++past_length;
      finalize_body_.push_back(
          net::EncodeJson(serving::FinalizeStreamRequest{video.id, length}));
      finalized_.push_back(RecordsFromDots(
          video.id,
          lightor.initializer().DetectBatch(video.messages, length, kTopK),
          lightor));
    }
    std::fprintf(stderr,
                 "perfbench: %zu of %zu channels chat past the platform's "
                 "video length; /finalize names each stream's length\n",
                 past_length, n);
    for (int c = 0; c < kConnections; ++c) {
      // This connection's channels, in groups of one frame each.
      std::vector<std::vector<size_t>> groups;
      for (size_t v = static_cast<size_t>(c); v < n; v += kConnections) {
        if (groups.empty() || groups.back().size() == per_frame) {
          groups.emplace_back();
        }
        groups.back().push_back(v);
      }
      size_t slices = 0;
      for (size_t v = static_cast<size_t>(c); v < n; v += kConnections) {
        const auto& msgs = inputs_.videos[v].messages;
        if (!msgs.empty()) {
          slices = std::max(
              slices, static_cast<size_t>(msgs.back().timestamp / slice) + 1);
        }
      }
      // Slice-major order: every connection's channels advance through
      // video time together, as live streams do.
      std::vector<size_t> cursor(n, 0);
      for (size_t s = 0; s < slices; ++s) {
        const double until = static_cast<double>(s + 1) * slice;
        for (const auto& group : groups) {
          Frame frame;
          std::vector<serving::IngestChatRequest> entries;
          for (size_t v : group) {
            const auto& msgs = inputs_.videos[v].messages;
            serving::IngestChatRequest req;
            req.video_id = inputs_.videos[v].id;
            while (cursor[v] < msgs.size() &&
                   msgs[cursor[v]].timestamp < until) {
              req.messages.push_back(msgs[cursor[v]++]);
            }
            if (req.messages.empty()) continue;
            frame.videos.push_back(v);
            frame.counts.push_back(req.messages.size());
            entries.push_back(std::move(req));
          }
          if (entries.empty()) continue;
          frame.body = net::EncodeIngestBatchRequest(entries);
          frame.poll = frame.videos[s % frame.videos.size()];
          frame.poll_target =
              "/highlights?video_id=" + inputs_.videos[frame.poll].id;
          frames_[static_cast<size_t>(c)].push_back(std::move(frame));
        }
      }
    }
    return common::Status::OK();
  }

  void RunRound(Stack& stack, SpanLog* spans, Tally& tally,
                RoundStats& stats) override {
    const uint16_t port = stack.http->port();
    const size_t n = inputs_.videos.size();
    std::vector<std::vector<storage::HighlightRecord>> served(n);
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Samples init, write, read;
        net::HttpClient client("127.0.0.1", port);
        std::map<size_t, uint64_t> version;  // last polled, per channel
        auto call = [&](const char* name, const char* method,
                        const std::string& target, const std::string& body,
                        Samples& samples) {
          tally.Attempt();
          ScopedSpan span(spans, name);
          if (spans != nullptr) {
            client.set_header(kSpanHeader, std::to_string(span.id()));
          }
          const auto t0 = Clock::now();
          auto resp = client.Request(method, target, body);
          samples.Add(MsSince(t0));
          if (!resp.ok()) {
            tally.Fail(target + ": " + resp.status().ToString());
            return std::string();
          }
          if (resp.value().status != 200) {
            tally.Fail(target + ": HTTP " +
                       std::to_string(resp.value().status) + " " +
                       resp.value().body);
            return std::string();
          }
          return std::move(resp.value().body);
        };
        for (const Frame& frame : frames_[static_cast<size_t>(c)]) {
          const std::string acked =
              call("op.ingest", "POST", "/ingest", frame.body, write);
          if (!acked.empty()) CheckAcks(frame, acked, tally);
          const std::string polled =
              call("op.highlights", "GET", frame.poll_target, "", read);
          if (polled.empty()) continue;
          auto decoded = net::DecodeGetHighlightsResponse(polled);
          if (!decoded.ok() || !decoded.value().provisional) {
            tally.Mismatch(frame.poll_target + " answered " + polled);
            continue;
          }
          uint64_t& last = version[frame.poll];
          if (decoded.value().snapshot_version < last) {
            tally.Mismatch(frame.poll_target + ": snapshot version went back");
          }
          last = decoded.value().snapshot_version;
        }
        for (size_t v = static_cast<size_t>(c); v < n; v += kConnections) {
          const std::string body =
              call("op.finalize", "POST", "/finalize", finalize_body_[v], init);
          if (body.empty()) continue;
          auto decoded = net::DecodeFinalizeStreamResponse(body);
          if (!decoded.ok() || decoded.value().highlights != finalized_[v]) {
            tally.Mismatch("finalized dots of " + inputs_.videos[v].id +
                           " differ from DetectBatch");
          } else if (decoded.value().snapshot_version < version[v]) {
            tally.Mismatch("finalize of " + inputs_.videos[v].id +
                           ": snapshot version went back");
          } else {
            served[v] = std::move(decoded.value().highlights);
          }
        }
        stats.Merge(init, write, read);
      });
    }
    for (auto& th : threads) th.join();
    const double seconds = SecondsBetween(start, Clock::now());
    stack.Stop();
    stats.throughput = static_cast<double>(messages_per_round_) / seconds;
    stats.served = std::move(served);
  }

  StealSlopes steal_slopes() const override {
    return {-1.2, -2.1, -1.3, -1.9, -2.9};
  }

  Crossings crossings() const override {
    // A frame is acked once admitted; its engine work runs later on the
    // drain workers, outside the round trip.
    return {{{"net.parse_us", 1.0},
             {"core.finalize_ms", 1.0},
             {"storage.put_highlight_us", static_cast<double>(kTopK)},
             {"net.encode_us", 1.0}},
            {{"net.parse_us", 1.0}, {"net.decode_batch_us", 1.0}},
            {{"net.parse_us", 1.0},
             {"serving.highlights_us", 1.0},
             {"net.encode_us", 1.0}}};
  }

 private:
  /// Every entry of the frame is acked whole: accepted equals sent.
  static void CheckAcks(const Frame& frame, const std::string& body,
                        Tally& tally) {
    auto entries = net::DecodeIngestBatchResponse(body);
    if (!entries.ok() || entries.value().size() != frame.videos.size()) {
      tally.Mismatch("ingest frame answered " + body);
      return;
    }
    for (size_t i = 0; i < frame.videos.size(); ++i) {
      const auto& e = entries.value()[i];
      if (e.status != 200 || e.response.accepted != frame.counts[i] ||
          e.response.rejected != 0 || e.response.throttled) {
        tally.Mismatch("ingest entry " + e.video_id + " answered status " +
                       std::to_string(e.status) + ", accepted " +
                       std::to_string(e.response.accepted) + " of " +
                       std::to_string(frame.counts[i]));
      }
    }
  }

  std::vector<std::vector<Frame>> frames_;  ///< per connection
  std::vector<std::string> finalize_body_;  ///< per channel
  /// Per channel: DetectBatch over its chat at the finalized length.
  std::vector<std::vector<storage::HighlightRecord>> finalized_;
  size_t messages_per_round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeLiveChannels() {
  return std::make_unique<LiveChannels>();
}

}  // namespace perfbench
