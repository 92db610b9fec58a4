#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/initializer.h"
#include "core/streaming.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "testing/streaming_replay.h"
#include "text/similarity.h"
#include "text/tfidf.h"

namespace lightor::core {
namespace {

TrainingVideo ToTraining(const sim::LabeledVideo& video) {
  TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(video.chat);
  tv.video_length = video.truth.meta.length;
  for (const auto& h : video.truth.highlights) tv.highlights.push_back(h.span);
  return tv;
}

/// Exact (bitwise) red-dot equality — the differential contract is that
/// the live engine produces the very doubles `Detect` does.
void ExpectSameDots(const std::vector<RedDot>& streaming,
                    const std::vector<RedDot>& batch) {
  ASSERT_EQ(streaming.size(), batch.size());
  for (size_t i = 0; i < streaming.size(); ++i) {
    EXPECT_EQ(streaming[i].position, batch[i].position) << "dot " << i;
    EXPECT_EQ(streaming[i].score, batch[i].score) << "dot " << i;
    EXPECT_EQ(streaming[i].peak, batch[i].peak) << "dot " << i;
    EXPECT_EQ(streaming[i].window.start, batch[i].window.start) << "dot " << i;
    EXPECT_EQ(streaming[i].window.end, batch[i].window.end) << "dot " << i;
  }
}

class StreamingDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new sim::Corpus(sim::MakeCorpus(sim::GameType::kDota2, 5, 31));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static HighlightInitializer Trained(InitializerOptions options) {
    HighlightInitializer initializer(options);
    EXPECT_TRUE(initializer.Train({ToTraining((*corpus_)[0])}).ok());
    return initializer;
  }

  static sim::Corpus* corpus_;
};

sim::Corpus* StreamingDifferentialTest::corpus_ = nullptr;

TEST_F(StreamingDifferentialTest, ReplayMatchesDetectExactly) {
  const auto initializer = Trained({});
  for (size_t v = 1; v < corpus_->size(); ++v) {
    const auto& video = (*corpus_)[v];
    const auto messages = sim::ToCoreMessages(video.chat);
    const double length = video.truth.meta.length;
    ExpectSameDots(testing::StreamingReplay(initializer, messages, length, 5),
                   initializer.Detect(messages, length, 5));
  }
}

TEST_F(StreamingDifferentialTest, MatchesDetectWithRegressionAdjustment) {
  InitializerOptions options;
  options.adjustment_kind = AdjustmentKind::kRegression;
  const auto initializer = Trained(options);
  const auto& video = (*corpus_)[3];
  const auto messages = sim::ToCoreMessages(video.chat);
  const double length = video.truth.meta.length;
  ExpectSameDots(testing::StreamingReplay(initializer, messages, length, 5),
                 initializer.Detect(messages, length, 5));
}

TEST_F(StreamingDifferentialTest, MatchesDetectWhenChatRunsPastVideoEnd) {
  // Chat occasionally trails past the declared video length; Detect clips
  // windows at the end but still reads the trailing timestamps for burst
  // features. The replay must agree.
  const auto initializer = Trained({});
  const auto& video = (*corpus_)[1];
  const auto messages = sim::ToCoreMessages(video.chat);
  ASSERT_FALSE(messages.empty());
  const double truncated = messages.back().timestamp * 0.8;
  ExpectSameDots(testing::StreamingReplay(initializer, messages, truncated, 5),
                 initializer.Detect(messages, truncated, 5));
}

TEST_F(StreamingDifferentialTest, BatchIngestFinalizeMatchesDetect) {
  const auto initializer = Trained({});
  const auto& video = (*corpus_)[4];
  const auto messages = sim::ToCoreMessages(video.chat);
  const double length = video.truth.meta.length;
  StreamingInitializer engine(&initializer);
  // Live ingest arrives in frames; cut the log into uneven ones.
  size_t next = 0;
  for (size_t frame = 1; next < messages.size(); frame = frame * 3 % 97 + 1) {
    const size_t end = std::min(messages.size(), next + frame);
    const std::vector<Message> batch(messages.begin() + next,
                                     messages.begin() + end);
    auto counts = engine.IngestBatch(batch);
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    EXPECT_EQ(counts.value().accepted, batch.size());
    EXPECT_EQ(counts.value().rejected, 0u);
    next = end;
  }
  EXPECT_EQ(engine.stats().messages_ingested, messages.size());
  auto dots = engine.Finalize(length, 5);
  ASSERT_TRUE(dots.ok()) << dots.status().ToString();
  ExpectSameDots(dots.value(), initializer.Detect(messages, length, 5));
  EXPECT_TRUE(engine.finalized());
}

TEST_F(StreamingDifferentialTest, ProvisionalDotsAvailableMidStream) {
  const auto initializer = Trained({});
  const auto& video = (*corpus_)[1];
  const auto messages = sim::ToCoreMessages(video.chat);
  StreamingInitializer engine(&initializer);
  size_t with_dots = 0;
  for (size_t i = 0; i < messages.size(); ++i) {
    ASSERT_TRUE(engine.Ingest(messages[i]).ok());
    if (i % 500 == 499 && !engine.Provisional(5).empty()) ++with_dots;
  }
  EXPECT_GT(with_dots, 0u);
  for (const auto& dot : engine.Provisional(5)) {
    EXPECT_GE(dot.position, 0.0);
    EXPECT_LE(dot.position, engine.stats().watermark);
  }
}

TEST_F(StreamingDifferentialTest, EmptyChatYieldsNoDots) {
  const auto initializer = Trained({});
  StreamingInitializer engine(&initializer);
  auto dots = engine.Finalize(1000.0, 5);
  ASSERT_TRUE(dots.ok());
  EXPECT_TRUE(dots.value().empty());
  ExpectSameDots(dots.value(), initializer.Detect({}, 1000.0, 5));
}

TEST_F(StreamingDifferentialTest, SingleMessageMatchesDetect) {
  const auto initializer = Trained({});
  Message m;
  m.timestamp = 42.0;
  m.user = "solo";
  m.text = "first blood";
  StreamingInitializer engine(&initializer);
  ASSERT_TRUE(engine.Ingest(m).ok());
  auto dots = engine.Finalize(1000.0, 5);
  ASSERT_TRUE(dots.ok());
  ExpectSameDots(dots.value(), initializer.Detect({m}, 1000.0, 5));
}

TEST_F(StreamingDifferentialTest, RejectsOutOfOrderTimestampAndContinues) {
  const auto initializer = Trained({});
  StreamingInitializer engine(&initializer);
  Message m;
  m.text = "gg";
  m.timestamp = 100.0;
  ASSERT_TRUE(engine.Ingest(m).ok());
  m.timestamp = 50.0;  // goes backwards
  EXPECT_TRUE(engine.Ingest(m).IsInvalidArgument());
  EXPECT_EQ(engine.stats().messages_rejected, 1u);
  EXPECT_EQ(engine.stats().messages_ingested, 1u);
  m.timestamp = 100.0;  // equal timestamps are fine
  EXPECT_TRUE(engine.Ingest(m).ok());
  m.timestamp = 130.0;
  EXPECT_TRUE(engine.Ingest(m).ok());
  EXPECT_EQ(engine.stats().messages_ingested, 3u);
  EXPECT_EQ(engine.stats().watermark, 130.0);
}

TEST_F(StreamingDifferentialTest, FinalizeIsOneShotAndStopsIngest) {
  const auto initializer = Trained({});
  StreamingInitializer engine(&initializer);
  Message m;
  m.text = "gg";
  m.timestamp = 10.0;
  ASSERT_TRUE(engine.Ingest(m).ok());
  ASSERT_TRUE(engine.Finalize(100.0, 5).ok());
  EXPECT_TRUE(engine.Finalize(100.0, 5).status().IsFailedPrecondition());
  EXPECT_TRUE(engine.Ingest(m).IsFailedPrecondition());
}

TEST_F(StreamingDifferentialTest, FinalizeRejectsLengthBehindWatermark) {
  const auto initializer = Trained({});
  StreamingInitializer engine(&initializer);
  Message m;
  m.text = "gg";
  for (double t = 0.0; t < 500.0; t += 1.0) {
    m.timestamp = t;
    ASSERT_TRUE(engine.Ingest(m).ok());
  }
  // 100 s cuts into windows that already closed with their full spans.
  EXPECT_TRUE(engine.Finalize(100.0, 5).status().IsInvalidArgument());
  EXPECT_FALSE(engine.finalized());
  auto dots = engine.Finalize(500.0, 5);
  EXPECT_TRUE(dots.ok());
}

TEST(StreamingSimilarityTest, MatchesBatchBitForBit) {
  const std::vector<std::string> messages = {
      "gg wp",       "GG easy clap",   "what a play", "gg",
      "POGGERS",     "that was insane", "",            "gg wp wp",
      "nice one gg", "clap clap clap"};
  text::StreamingSetSimilarity streaming;
  const text::Tokenizer tokenizer{text::TokenizerOptions{}};
  text::Vocabulary vocabulary;
  std::vector<text::TokenId> ids;
  for (size_t n = 0; n < messages.size(); ++n) {
    ids.clear();
    tokenizer.TokenizeToIds(messages[n], vocabulary, ids);
    streaming.AddMessage(text::TokenSpan(ids));
    const std::vector<std::string> prefix(messages.begin(),
                                          messages.begin() + n + 1);
    EXPECT_EQ(streaming.Value(), text::MessageSetSimilarity(prefix))
        << "prefix " << n + 1;
  }
  // Clipping removes a suffix: PrefixValue must equal a batch run over
  // just the prefix even though the vocabulary has seen later messages.
  for (size_t n = 1; n <= messages.size(); ++n) {
    const std::vector<std::string> prefix(messages.begin(),
                                          messages.begin() + n);
    EXPECT_EQ(streaming.PrefixValue(n), text::MessageSetSimilarity(prefix))
        << "clipped prefix " << n;
  }
}

TEST(TopKWindowsTest, PartialSelectionMatchesFullSortReference) {
  InitializerOptions options;
  // Deterministic pseudo-random probabilities over many unique starts.
  std::vector<SlidingWindow> scored;
  uint64_t state = 12345;
  for (size_t i = 0; i < 4000; ++i) {
    SlidingWindow w;
    w.span = common::Interval(static_cast<double>(i) * 12.5,
                              static_cast<double>(i) * 12.5 + 25.0);
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    w.probability = static_cast<double>(state >> 11) / 9007199254740992.0;
    scored.push_back(w);
  }
  // Adversarial case for the prefix heuristic: the top windows cluster
  // within min_separation, forcing the scan deep into the sorted order.
  for (size_t i = 100; i < 120; ++i) scored[i].probability = 0.99;

  // Reference: full sort + greedy δ-separation scan.
  auto reference = scored;
  std::sort(reference.begin(), reference.end(),
            [](const SlidingWindow& a, const SlidingWindow& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.span.start < b.span.start;
            });
  std::vector<SlidingWindow> expected;
  for (const auto& w : reference) {
    if (expected.size() >= 5) break;
    const bool too_close = std::any_of(
        expected.begin(), expected.end(), [&](const SlidingWindow& p) {
          return std::abs(p.span.start - w.span.start) <=
                 options.min_separation;
        });
    if (!too_close) expected.push_back(w);
  }

  HighlightInitializer initializer(options);
  const auto picked = initializer.TopKWindows(scored, 5);
  ASSERT_EQ(picked.size(), expected.size());
  for (size_t i = 0; i < picked.size(); ++i) {
    EXPECT_EQ(picked[i].span.start, expected[i].span.start);
    EXPECT_EQ(picked[i].probability, expected[i].probability);
  }
}

TEST(JaccardCapTest, SmallSetsUnchangedAndLargeSetsDeterministic) {
  const std::vector<std::string> small = {"gg wp", "gg wp", "nice play"};
  // Below the cap: plain mean over all 3 pairs. Two identical messages
  // give 1.0; "gg wp" vs "nice play" gives 0.
  EXPECT_NEAR(text::JaccardSetSimilarity(small), 1.0 / 3.0, 1e-12);

  std::vector<std::string> storm;
  for (size_t i = 0; i < 600; ++i) {
    storm.push_back(i % 2 == 0 ? "gg gg gg" : "clap clap");
  }
  const double a = text::JaccardSetSimilarity(storm);
  const double b = text::JaccardSetSimilarity(storm);
  EXPECT_EQ(a, b);  // deterministic sampling
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
}

}  // namespace
}  // namespace lightor::core
