/// Differential property tests for the zero-copy hot path: the interned
/// token-id representation (Tokenizer::TokenizeToIds + Vocabulary +
/// StreamingSetSimilarity + WindowFeaturizer::ComputeFromIds) must be
/// bit-exact with the legacy string path it replaced, on randomized
/// inputs: the featurizer across every similarity backend, the live engine
/// (bag-of-words) against Detect across both adjustment modes. These are
/// the tests the hot-path benchmarks lean on: the bench only times the id
/// path because this file proves it computes the same doubles.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/features.h"
#include "core/initializer.h"
#include "core/streaming.h"
#include "core/window.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "testing/streaming_replay.h"
#include "text/streaming_similarity.h"
#include "text/token_ids.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace lightor {
namespace {

/// Random chat-like text designed to hit the tokenizer's edge paths:
/// mixed case (lowercase folding), punctuation wrapping (strip path),
/// sub-minimum-length leftovers, repeated words (interning hits), the
/// occasional >128-byte token (the heap fallback in TokenizeToIds), and
/// messages that tokenize to nothing.
std::string RandomMessage(common::Rng& rng) {
  static const char* const kWords[] = {
      "gg",     "WOW",   "Kreygasm", "nice",  "clip",  "IT",
      "lol",    "POG",   "that",     "was",   "SICK",  "?!",
      "...",    "x",     "CLUTCH",   "team",  "fight", "no",
      "way",    "omg!!", "(huh)",    "[ok]",  "a",     "B",
  };
  const int words = static_cast<int>(rng.UniformInt(0, 8));
  std::string out;
  for (int w = 0; w < words; ++w) {
    if (w > 0) out += rng.Bernoulli(0.1) ? "\t" : " ";
    if (rng.Bernoulli(0.02)) {
      // Long-token fallback: spam past the 128-byte stack buffer.
      out.append(static_cast<size_t>(rng.UniformInt(129, 200)),
                 rng.Bernoulli(0.5) ? 'A' : 'z');
    } else {
      out += kWords[rng.UniformInt(0, 23)];
    }
  }
  if (rng.Bernoulli(0.1)) out += "   ";
  return out;
}

class SeededHotpathTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededHotpathTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// Property: TokenizeToIds emits exactly the token sequence Tokenize
// emits (resolved through the vocabulary arena), and its word count
// equals CountWords — for every tokenizer option combination.
TEST_P(SeededHotpathTest, TokenizeToIdsMatchesStringTokenizer) {
  common::Rng rng(GetParam());
  for (const bool lowercase : {true, false}) {
    for (const bool strip : {true, false}) {
      text::TokenizerOptions options;
      options.lowercase = lowercase;
      options.strip_punctuation = strip;
      const text::Tokenizer tokenizer(options);
      text::Vocabulary vocabulary;
      std::vector<text::TokenId> ids;
      for (int m = 0; m < 200; ++m) {
        const std::string message = RandomMessage(rng);
        const auto tokens = tokenizer.Tokenize(message);
        ids.clear();
        const size_t words =
            tokenizer.TokenizeToIds(message, vocabulary, ids);
        EXPECT_EQ(words, tokenizer.CountWords(message)) << message;
        ASSERT_EQ(ids.size(), tokens.size()) << message;
        for (size_t k = 0; k < ids.size(); ++k) {
          EXPECT_EQ(vocabulary.TokenOf(static_cast<int32_t>(ids[k])),
                    tokens[k])
              << message;
        }
      }
    }
  }
}

// Property: the vocabulary arena behaves like a first-seen-order map —
// same token, same id; Lookup agrees with AddToken; TokenOf round-trips.
TEST_P(SeededHotpathTest, VocabularyInterningIsStable) {
  common::Rng rng(GetParam() * 7919 + 3);
  text::Vocabulary vocabulary;
  std::vector<std::string> by_id;
  for (int i = 0; i < 5000; ++i) {
    std::string token;
    const int len = static_cast<int>(rng.UniformInt(1, 12));
    for (int k = 0; k < len; ++k) {
      token += static_cast<char>('a' + rng.UniformInt(0, 25));
    }
    const int32_t id = vocabulary.AddToken(token);
    ASSERT_GE(id, 0);
    if (static_cast<size_t>(id) == by_id.size()) {
      by_id.push_back(token);  // fresh id: first sighting
    }
    EXPECT_EQ(by_id[static_cast<size_t>(id)], token);
    EXPECT_EQ(vocabulary.Lookup(token), id);
    EXPECT_EQ(vocabulary.TokenOf(id), token);
  }
  EXPECT_EQ(vocabulary.size(), by_id.size());
}

// Property: StreamingSetSimilarity over globally interned ids returns the
// same doubles as the frozen string-path StringSetSimilarity, including
// clipped prefixes, and across Reset-reuse (the epoch remap must not leak
// state between windows).
TEST_P(SeededHotpathTest, StreamingSimilarityBitExactWithLegacy) {
  common::Rng rng(GetParam() * 104729 + 17);
  const text::Tokenizer tokenizer{text::TokenizerOptions{}};
  text::Vocabulary vocabulary;  // per-video: shared across windows
  text::StreamingSetSimilarity streaming;  // reused via Reset
  std::vector<text::TokenId> ids;
  for (int window = 0; window < 20; ++window) {
    streaming.Reset();
    text::StringSetSimilarity legacy;  // window-local, like the old code
    const int messages = static_cast<int>(rng.UniformInt(0, 40));
    for (int m = 0; m < messages; ++m) {
      const std::string message = RandomMessage(rng);
      ids.clear();
      tokenizer.TokenizeToIds(message, vocabulary, ids);
      streaming.AddMessage(text::TokenSpan(ids));
      legacy.AddMessage(tokenizer.Tokenize(message));
      // Bit-exact at every step, not just at the end.
      EXPECT_EQ(streaming.Value(), legacy.Value());
    }
    ASSERT_EQ(streaming.message_count(), legacy.message_count());
    for (int probe = 0; probe < 4; ++probe) {
      const size_t n =
          static_cast<size_t>(rng.UniformInt(0, messages + 2));
      EXPECT_EQ(streaming.PrefixValue(n), legacy.PrefixValue(n));
    }
  }
}

// Property: ComputeFromIds over a once-tokenized video equals the legacy
// per-window Compute bit for bit, and ComputeAll (which picks the id path
// for bag-of-words and the string path otherwise) equals the per-window
// reference for every similarity backend.
TEST_P(SeededHotpathTest, FeaturizerIdPathMatchesLegacyAllBackends) {
  common::Rng rng(GetParam() * 65537 + 29);
  std::vector<core::Message> messages;
  double t = 0.0;
  const int count = static_cast<int>(rng.UniformInt(30, 120));
  for (int m = 0; m < count; ++m) {
    t += rng.Uniform(0.0, 4.0);
    core::Message message;
    message.timestamp = t;
    message.text = RandomMessage(rng);
    messages.push_back(std::move(message));
  }
  const double video_length = t + 5.0;
  const auto windows =
      core::GenerateWindows(messages, video_length, core::WindowOptions{});
  ASSERT_FALSE(windows.empty());
  for (const auto backend :
       {core::SimilarityBackend::kBagOfWords, core::SimilarityBackend::kTfIdf,
        core::SimilarityBackend::kEmbedding,
        core::SimilarityBackend::kJaccard}) {
    const core::WindowFeaturizer featurizer({}, backend);
    const auto all = featurizer.ComputeAll(messages, windows);
    ASSERT_EQ(all.size(), windows.size());
    const auto tokenized = featurizer.TokenizeAll(messages);
    text::StreamingSetSimilarity scratch;
    for (size_t w = 0; w < windows.size(); ++w) {
      const auto reference = featurizer.Compute(messages, windows[w]);
      EXPECT_EQ(all[w].message_number, reference.message_number);
      EXPECT_EQ(all[w].message_length, reference.message_length);
      EXPECT_EQ(all[w].message_similarity, reference.message_similarity);
      if (backend == core::SimilarityBackend::kBagOfWords) {
        const auto from_ids =
            featurizer.ComputeFromIds(tokenized, windows[w], scratch);
        EXPECT_EQ(from_ids.message_number, reference.message_number);
        EXPECT_EQ(from_ids.message_length, reference.message_length);
        EXPECT_EQ(from_ids.message_similarity, reference.message_similarity);
      }
    }
  }
}

/// End-to-end: the live engine (which rides the id path) must produce the
/// exact red dots of `Detect` under either adjustment mode, whether it is
/// fed one message at a time or in ingest batches.
class HotpathPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new sim::Corpus(sim::MakeCorpus(sim::GameType::kDota2, 3, 77));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }
  static sim::Corpus* corpus_;
};

sim::Corpus* HotpathPipelineTest::corpus_ = nullptr;

void ExpectSameDots(const std::vector<core::RedDot>& streaming,
                    const std::vector<core::RedDot>& detect) {
  ASSERT_EQ(streaming.size(), detect.size());
  for (size_t i = 0; i < streaming.size(); ++i) {
    EXPECT_EQ(streaming[i].position, detect[i].position);
    EXPECT_EQ(streaming[i].score, detect[i].score);
    EXPECT_EQ(streaming[i].peak, detect[i].peak);
    EXPECT_EQ(streaming[i].window.start, detect[i].window.start);
    EXPECT_EQ(streaming[i].window.end, detect[i].window.end);
  }
}

TEST_F(HotpathPipelineTest, StreamingMatchesDetectAcrossAdjustments) {
  core::TrainingVideo training;
  training.messages = sim::ToCoreMessages((*corpus_)[0].chat);
  training.video_length = (*corpus_)[0].truth.meta.length;
  for (const auto& h : (*corpus_)[0].truth.highlights) {
    training.highlights.push_back(h.span);
  }
  for (const auto adjustment :
       {core::AdjustmentKind::kConstant, core::AdjustmentKind::kRegression}) {
    core::InitializerOptions options;
    options.adjustment_kind = adjustment;
    core::HighlightInitializer initializer(options);
    ASSERT_TRUE(initializer.Train({training}).ok());
    for (size_t v = 1; v < corpus_->size(); ++v) {
      const auto messages = sim::ToCoreMessages((*corpus_)[v].chat);
      const double length = (*corpus_)[v].truth.meta.length;
      const auto detect = initializer.Detect(messages, length, 5);
      ExpectSameDots(testing::StreamingReplay(initializer, messages, length, 5),
                     detect);

      core::StreamingInitializer engine(&initializer);
      std::vector<core::Message> windowed;
      for (const auto& m : messages) {
        if (m.timestamp < length) windowed.push_back(m);
      }
      auto counts = engine.IngestBatch(windowed);
      ASSERT_TRUE(counts.ok());
      EXPECT_EQ(counts.value().accepted, windowed.size());
      for (size_t i = windowed.size(); i < messages.size(); ++i) {
        ASSERT_TRUE(engine.RecordTailTimestamp(messages[i].timestamp).ok());
      }
      auto dots = engine.Finalize(length, 5);
      ASSERT_TRUE(dots.ok());
      ExpectSameDots(dots.value(), detect);
    }
  }
}

}  // namespace
}  // namespace lightor
