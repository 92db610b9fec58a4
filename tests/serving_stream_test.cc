/// Live-ingest serving path: provisional snapshots mid-broadcast, the
/// finalize swap, and the differential guarantee that a finalized stream
/// serves exactly what the batch path computes over the same chat.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serving/highlight_server.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/replay.h"
#include "storage/database.h"

namespace lightor::serving {
namespace {

class ServingStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("lightor_stream_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_ref");

    sim::Platform::Options popts;
    popts.num_channels = 2;
    popts.videos_per_channel = 2;
    popts.seed = 91;
    platform_ = std::make_unique<sim::Platform>(popts);

    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 92);
    core::TrainingVideo tv;
    tv.messages = sim::ToCoreMessages(corpus[0].chat);
    tv.video_length = corpus[0].truth.meta.length;
    for (const auto& h : corpus[0].truth.highlights) {
      tv.highlights.push_back(h.span);
    }
    lightor_ = std::make_unique<core::Lightor>();
    ASSERT_TRUE(lightor_->TrainInitializer({tv}).ok());

    video_id_ = platform_->AllVideoIds()[0];
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_ref");
  }

  std::unique_ptr<storage::Database> OpenDb(const std::string& dir) {
    auto db = storage::DB::Open(storage::OpenOptions(dir));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db.value().db);
  }

  ServerOptions BaseOptions(storage::Database* db) {
    ServerOptions opts;
    opts.platform = Borrow<const sim::Platform>(platform_.get());
    opts.db = Borrow(db);
    opts.lightor = Borrow<const core::Lightor>(lightor_.get());
    return opts;
  }

  std::vector<core::Message> ChatOf(const std::string& video_id) {
    auto video = platform_->GetVideo(video_id);
    EXPECT_TRUE(video.ok());
    return sim::ToCoreMessages(video.value().chat);
  }

  /// Streams a whole chat log through IngestChat in fixed-size batches.
  IngestChatResponse StreamAll(HighlightServer& server,
                               const std::string& video_id,
                               const std::vector<core::Message>& messages,
                               size_t batch_size = 37) {
    IngestChatResponse total;
    for (size_t i = 0; i < messages.size(); i += batch_size) {
      IngestChatRequest req;
      req.video_id = video_id;
      req.messages.assign(
          messages.begin() + static_cast<ptrdiff_t>(i),
          messages.begin() +
              static_cast<ptrdiff_t>(std::min(i + batch_size, messages.size())));
      auto resp = server.IngestChat(req);
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
      total.accepted += resp.value().accepted;
      total.rejected += resp.value().rejected;
      total.provisional_published |= resp.value().provisional_published;
      total.snapshot_version = resp.value().snapshot_version;
    }
    return total;
  }

  std::string dir_;
  std::unique_ptr<sim::Platform> platform_;
  std::unique_ptr<core::Lightor> lightor_;
  std::string video_id_;
};

void ExpectSameRecords(const std::vector<storage::HighlightRecord>& a,
                       const std::vector<storage::HighlightRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].video_id, b[i].video_id) << "record " << i;
    EXPECT_EQ(a[i].dot_index, b[i].dot_index) << "record " << i;
    EXPECT_EQ(a[i].dot_position, b[i].dot_position) << "record " << i;
    EXPECT_EQ(a[i].start, b[i].start) << "record " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "record " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "record " << i;
    EXPECT_EQ(a[i].iteration, b[i].iteration) << "record " << i;
    EXPECT_EQ(a[i].converged, b[i].converged) << "record " << i;
  }
}

// A recorded first visit runs `Detect`, not the live engine: it leaves
// the engine's series unchanged, while a live /ingest batch moves the
// message count by exactly the messages it accepted.
TEST_F(ServingStreamTest, RecordedFirstVisitIsNotLiveIngest) {
  obs::Registry& registry = obs::Registry::Global();
  const obs::Counter& messages =
      *registry.GetCounter("lightor_stream_messages_total");
  const obs::Counter& windows_closed =
      *registry.GetCounter("lightor_stream_windows_closed_total");
  const obs::Counter& finalized =
      *registry.GetCounter("lightor_stream_finalize_total");
  const obs::Histogram& ingest_seconds = *registry.GetHistogram(
      "lightor_stream_ingest_seconds", obs::Histogram::LatencyBounds());
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const uint64_t messages_before = messages.value();
  const uint64_t closed_before = windows_closed.value();
  const uint64_t finalized_before = finalized.value();
  const uint64_t ingest_before = ingest_seconds.count();
  auto visit = server.value()->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(visit.ok()) << visit.status().ToString();
  ASSERT_TRUE(visit.value().first_visit);
  ASSERT_FALSE(visit.value().highlights.empty());
  EXPECT_EQ(messages.value(), messages_before);
  EXPECT_EQ(windows_closed.value(), closed_before);
  EXPECT_EQ(finalized.value(), finalized_before);
  EXPECT_EQ(ingest_seconds.count(), ingest_before);

  // A live batch with one out-of-order message at its end.
  IngestChatRequest req;
  req.video_id = platform_->AllVideoIds()[1];
  const auto chat = ChatOf(req.video_id);
  ASSERT_GT(chat.size(), 60u);
  req.messages.assign(chat.begin(), chat.begin() + 60);
  ASSERT_LT(chat[0].timestamp, chat[59].timestamp);
  req.messages.push_back(chat[0]);
  auto ingested = server.value()->IngestChat(req);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested.value().accepted, 60u);
  EXPECT_EQ(ingested.value().rejected, 1u);
  EXPECT_EQ(messages.value() - messages_before, ingested.value().accepted);
}

// Live ingest has only the bag-of-words engine, so a server refuses a
// pipeline trained with any other similarity backend.
TEST_F(ServingStreamTest, CreateRejectsNonBagOfWordsBackend) {
  core::LightorOptions options;
  options.initializer.similarity_backend = core::SimilarityBackend::kTfIdf;
  const core::Lightor tfidf(options);
  auto db = OpenDb(dir_);
  ServerOptions opts = BaseOptions(db.get());
  opts.lightor = Borrow<const core::Lightor>(&tfidf);
  EXPECT_TRUE(HighlightServer::Create(opts).status().IsInvalidArgument());
}

// The acceptance criterion: a live-ingested video, once finalized, serves
// exactly the records a fresh server computes through the batch
// first-visit path over the same platform chat.
TEST_F(ServingStreamTest, FinalizedStreamMatchesBatchServedHighlights) {
  auto live_db = OpenDb(dir_);
  auto live = HighlightServer::Create(BaseOptions(live_db.get()));
  ASSERT_TRUE(live.ok());

  const auto messages = ChatOf(video_id_);
  const auto total = StreamAll(*live.value(), video_id_, messages);
  EXPECT_EQ(total.accepted, messages.size());
  EXPECT_EQ(total.rejected, 0u);

  FinalizeStreamRequest freq;
  freq.video_id = video_id_;  // length <= 0: resolve from the platform
  auto fin = live.value()->FinalizeStream(freq);
  ASSERT_TRUE(fin.ok()) << fin.status().ToString();
  EXPECT_EQ(fin.value().video_length,
            platform_->GetVideo(video_id_).value().truth.meta.length);
  EXPECT_FALSE(fin.value().highlights.empty());

  // Batch reference on its own database.
  auto batch_db = OpenDb(dir_ + "_ref");
  auto batch = HighlightServer::Create(BaseOptions(batch_db.get()));
  ASSERT_TRUE(batch.ok());
  auto visit = batch.value()->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(visit.ok());
  EXPECT_TRUE(visit.value().first_visit);

  ExpectSameRecords(fin.value().highlights, visit.value().highlights);

  // The finalized snapshot is served as non-provisional and persisted.
  auto got = live.value()->GetHighlights(video_id_);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().provisional);
  ExpectSameRecords(got.value().highlights, visit.value().highlights);
  ExpectSameRecords(live_db->highlights().GetLatest(video_id_),
                    batch_db->highlights().GetLatest(video_id_));
}

TEST_F(ServingStreamTest, ProvisionalSnapshotServedMidBroadcast) {
  auto db = OpenDb(dir_);
  auto opts = BaseOptions(db.get());
  opts.stream_refresh_messages = 50;
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok());

  const auto messages = ChatOf(video_id_);
  ASSERT_GT(messages.size(), 200u);

  // Before the first publish: visible as live, nothing to render yet.
  IngestChatRequest req;
  req.video_id = video_id_;
  req.messages.assign(messages.begin(), messages.begin() + 10);
  auto first = server.value()->IngestChat(req);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().provisional_published);
  EXPECT_EQ(first.value().snapshot_version, 0u);
  auto visit = server.value()->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(visit.ok());
  EXPECT_TRUE(visit.value().provisional);
  EXPECT_FALSE(visit.value().first_visit);  // must not batch-initialize
  EXPECT_TRUE(visit.value().highlights.empty());
  auto got = server.value()->GetHighlights(video_id_);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().provisional);
  EXPECT_TRUE(got.value().highlights.empty());

  // Crossing the refresh threshold publishes a provisional snapshot.
  req.messages.assign(messages.begin() + 10, messages.begin() + 200);
  auto second = server.value()->IngestChat(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().provisional_published);
  EXPECT_GE(second.value().snapshot_version, 1u);
  got = server.value()->GetHighlights(video_id_);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().provisional);
  EXPECT_EQ(got.value().snapshot_version, second.value().snapshot_version);
  visit = server.value()->OnPageVisit({video_id_, "u"});
  ASSERT_TRUE(visit.ok());
  EXPECT_TRUE(visit.value().provisional);

  // Nothing provisional ever touches the database.
  EXPECT_FALSE(db->highlights().HasVideo(video_id_));
}

TEST_F(ServingStreamTest, IngestRejectedOnceVideoHasRecordedHighlights) {
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->OnPageVisit({video_id_, "u"}).ok());

  IngestChatRequest req;
  req.video_id = video_id_;
  req.messages = ChatOf(video_id_);
  EXPECT_TRUE(
      server.value()->IngestChat(req).status().IsFailedPrecondition());
}

TEST_F(ServingStreamTest, FinalizeRequiresAnActiveStream) {
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok());

  FinalizeStreamRequest freq;
  freq.video_id = video_id_;
  EXPECT_TRUE(
      server.value()->FinalizeStream(freq).status().IsFailedPrecondition());

  const auto messages = ChatOf(video_id_);
  StreamAll(*server.value(), video_id_, messages);
  ASSERT_TRUE(server.value()->FinalizeStream(freq).ok());
  // The swap is one-shot: the engine is consumed.
  EXPECT_TRUE(
      server.value()->FinalizeStream(freq).status().IsFailedPrecondition());
}

TEST_F(ServingStreamTest, FinalizeWithBadLengthHandsTheStreamBack) {
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok());
  StreamAll(*server.value(), video_id_, ChatOf(video_id_));

  FinalizeStreamRequest freq;
  freq.video_id = video_id_;
  freq.video_length = 30.0;  // far behind the watermark
  EXPECT_TRUE(
      server.value()->FinalizeStream(freq).status().IsInvalidArgument());

  freq.video_length = 0.0;  // retry with auto-resolution succeeds
  EXPECT_TRUE(server.value()->FinalizeStream(freq).ok());
}

// Live chat can run past the platform's recorded length. Without a length
// from the caller, /finalize resolves max(platform length, watermark), so
// such a stream finalizes on the first try and serves the DetectBatch
// dots at that length.
TEST_F(ServingStreamTest, FinalizeWithoutLengthCoversChatPastPlatformLength) {
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok());

  const double platform_length =
      platform_->FindVideo(video_id_)->truth.meta.length;
  auto messages = ChatOf(video_id_);
  for (int i = 1; i <= 40; ++i) {
    messages.push_back({platform_length + 3.0 * i, "late" + std::to_string(i),
                        "still watching the post-game " + std::to_string(i)});
  }
  const double watermark = messages.back().timestamp;
  const auto total = StreamAll(*server.value(), video_id_, messages);
  ASSERT_EQ(total.accepted, messages.size());

  FinalizeStreamRequest freq;
  freq.video_id = video_id_;  // no length: the server resolves it
  auto fin = server.value()->FinalizeStream(freq);
  ASSERT_TRUE(fin.ok()) << fin.status().ToString();
  EXPECT_EQ(fin.value().video_length, watermark);

  const size_t top_k = BaseOptions(db.get()).top_k;
  const auto dots =
      lightor_->initializer().DetectBatch(messages, watermark, top_k);
  const double fallback = lightor_->options().extractor.fallback_length;
  std::vector<storage::HighlightRecord> expected;
  for (size_t i = 0; i < dots.size(); ++i) {
    storage::HighlightRecord rec;
    rec.video_id = video_id_;
    rec.dot_index = static_cast<int32_t>(i);
    rec.dot_position = dots[i].position;
    rec.start = dots[i].position;
    rec.end = dots[i].position + fallback;
    rec.score = dots[i].score;
    expected.push_back(std::move(rec));
  }
  ASSERT_FALSE(expected.empty());
  ExpectSameRecords(fin.value().highlights, expected);
  auto got = server.value()->GetHighlights(video_id_);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().provisional);
  ExpectSameRecords(got.value().highlights, expected);
}

TEST_F(ServingStreamTest, RefineRejectedWhileVideoIsLive) {
  auto db = OpenDb(dir_);
  auto opts = BaseOptions(db.get());
  opts.stream_refresh_messages = 20;
  auto server = HighlightServer::Create(opts);
  ASSERT_TRUE(server.ok());
  StreamAll(*server.value(), video_id_, ChatOf(video_id_));

  EXPECT_TRUE(
      server.value()->Refine(video_id_).status().IsFailedPrecondition());

  FinalizeStreamRequest freq;
  freq.video_id = video_id_;
  ASSERT_TRUE(server.value()->FinalizeStream(freq).ok());
  // Finalized videos re-enter the ordinary refinement lifecycle (no
  // sessions logged yet, so the pass simply consumes an empty batch).
  EXPECT_TRUE(server.value()->Refine(video_id_).ok());
}

TEST_F(ServingStreamTest, OutOfOrderMessagesAreCountedAndDropped) {
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok());

  core::Message a, b, c;
  a.timestamp = 100.0;
  a.text = "first";
  b.timestamp = 50.0;  // rewinds: dropped
  b.text = "straggler";
  c.timestamp = 120.0;
  c.text = "third";
  IngestChatRequest req;
  req.video_id = video_id_;
  req.messages = {a, b, c};
  auto resp = server.value()->IngestChat(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().accepted, 2u);
  EXPECT_EQ(resp.value().rejected, 1u);
}

TEST_F(ServingStreamTest, IngestRejectedAfterShutdown) {
  auto db = OpenDb(dir_);
  auto server = HighlightServer::Create(BaseOptions(db.get()));
  ASSERT_TRUE(server.ok());
  IngestChatRequest req;
  req.video_id = video_id_;
  req.messages = ChatOf(video_id_);
  ASSERT_TRUE(server.value()->IngestChat(req).ok());
  server.value()->Shutdown();  // drops the live stream
  EXPECT_TRUE(
      server.value()->IngestChat(req).status().IsFailedPrecondition());
}

// ---- the timestamp-ordered replay driver ---------------------------------

TEST(ChatReplayDriverTest, MergesFeedsInTimestampOrder) {
  sim::ChatLog a, b;
  for (int i = 0; i < 6; ++i) {
    sim::ChatMessage m;
    m.timestamp = i * 10.0;  // 0, 10, 20, ...
    m.text = "a" + std::to_string(i);
    a.push_back(m);
    m.timestamp = i * 10.0 + 5.0;  // 5, 15, 25, ...
    m.text = "b" + std::to_string(i);
    b.push_back(m);
  }
  sim::ChatReplayDriver::Options opts;
  opts.batch_size = 4;
  sim::ChatReplayDriver driver(opts);
  driver.AddVideo("va", a);
  driver.AddVideo("vb", b);

  double last_ts = -1.0;
  std::vector<std::string> order;
  auto run = driver.Run([&](const std::string& id,
                            std::vector<core::Message> batch) {
    EXPECT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), 4u);
    for (const auto& m : batch) {
      EXPECT_GE(m.timestamp, last_ts);  // globally ordered feed
      last_ts = m.timestamp;
    }
    order.push_back(id);
    return common::Status::OK();
  });
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().messages, 12u);
  EXPECT_EQ(run.value().videos, 2u);
  EXPECT_EQ(run.value().horizon, 55.0);
  // Interleaved timestamps force the driver to alternate feeds.
  EXPECT_GT(order.size(), 2u);
}

TEST(ChatReplayDriverTest, SinkErrorAbortsTheReplay) {
  sim::ChatLog a;
  sim::ChatMessage m;
  for (int i = 0; i < 10; ++i) {
    m.timestamp = i;
    a.push_back(m);
  }
  sim::ChatReplayDriver::Options opts;
  opts.batch_size = 2;
  sim::ChatReplayDriver driver(opts);
  driver.AddVideo("v", a);
  size_t calls = 0;
  auto run = driver.Run(
      [&](const std::string&, std::vector<core::Message>) -> common::Status {
        if (++calls == 2) return common::Status::InvalidArgument("boom");
        return common::Status::OK();
      });
  EXPECT_TRUE(run.status().IsInvalidArgument());
  EXPECT_EQ(calls, 2u);
}

}  // namespace
}  // namespace lightor::serving
