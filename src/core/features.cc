#include "core/features.h"

#include <algorithm>

#include <cassert>

#include "common/stats.h"
#include "text/embedding.h"
#include "text/similarity.h"
#include "text/streaming_similarity.h"
#include "text/tfidf.h"
#include "text/vectorizer.h"

namespace lightor::core {

size_t FeatureSetWidth(FeatureSet set) {
  switch (set) {
    case FeatureSet::kNum:
      return 1;
    case FeatureSet::kNumLen:
      return 2;
    case FeatureSet::kAll:
      return 3;
  }
  return 3;
}

std::vector<double> SelectFeatures(const WindowFeatures& features,
                                   FeatureSet set) {
  switch (set) {
    case FeatureSet::kNum:
      return {features.message_number};
    case FeatureSet::kNumLen:
      return {features.message_number, features.message_length};
    case FeatureSet::kAll:
      return features.ToVector();
  }
  return features.ToVector();
}

WindowFeaturizer::WindowFeaturizer(text::TokenizerOptions tokenizer_options,
                                   SimilarityBackend similarity_backend)
    : tokenizer_options_(tokenizer_options),
      similarity_backend_(similarity_backend) {}

WindowFeatures WindowFeaturizer::Compute(const std::vector<Message>& messages,
                                         const SlidingWindow& window) const {
  WindowFeatures f;
  const size_t n = window.message_count();
  f.message_number = static_cast<double>(n);
  if (n == 0) return f;

  const text::Tokenizer tokenizer(tokenizer_options_);
  double total_words = 0.0;
  std::vector<std::string> texts;
  texts.reserve(n);
  for (size_t i = window.first_message; i < window.last_message; ++i) {
    total_words += static_cast<double>(tokenizer.CountWords(messages[i].text));
    texts.push_back(messages[i].text);
  }
  f.message_length = total_words / static_cast<double>(n);
  // A single message is trivially "similar to itself"; report 0 so
  // degenerate windows do not inflate the feature.
  if (n < 2) return f;
  switch (similarity_backend_) {
    case SimilarityBackend::kBagOfWords:
      f.message_similarity =
          text::MessageSetSimilarity(texts, tokenizer_options_);
      break;
    case SimilarityBackend::kTfIdf:
      f.message_similarity =
          text::TfIdfSetSimilarity(texts, tokenizer_options_);
      break;
    case SimilarityBackend::kEmbedding: {
      const text::HashingEmbedder embedder(32, 17, tokenizer_options_);
      f.message_similarity = text::EmbeddingSetSimilarity(texts, embedder);
      break;
    }
    case SimilarityBackend::kJaccard:
      f.message_similarity =
          text::JaccardSetSimilarity(texts, tokenizer_options_);
      break;
  }
  return f;
}

text::TokenizedMessages WindowFeaturizer::TokenizeAll(
    const std::vector<Message>& messages) const {
  const text::Tokenizer tokenizer(tokenizer_options_);
  text::TokenizedMessages tokenized;
  for (const Message& m : messages) tokenized.Add(tokenizer, m.text);
  return tokenized;
}

WindowFeatures WindowFeaturizer::ComputeFromIds(
    const text::TokenizedMessages& tokenized, const SlidingWindow& window,
    text::StreamingSetSimilarity& similarity) const {
  assert(similarity_backend_ == SimilarityBackend::kBagOfWords);
  WindowFeatures f;
  const size_t n = window.message_count();
  f.message_number = static_cast<double>(n);
  if (n == 0) return f;
  // Same arrival-order sum of per-message whitespace word counts as the
  // string path, so the mean is the same double.
  double total_words = 0.0;
  for (size_t i = window.first_message; i < window.last_message; ++i) {
    total_words += tokenized.word_count(i);
  }
  f.message_length = total_words / static_cast<double>(n);
  if (n < 2) return f;
  similarity.Reset();
  for (size_t i = window.first_message; i < window.last_message; ++i) {
    similarity.AddMessage(tokenized.ids(i));
  }
  f.message_similarity = similarity.Value();
  return f;
}

std::vector<WindowFeatures> WindowFeaturizer::ComputeAll(
    const std::vector<Message>& messages,
    const std::vector<SlidingWindow>& windows) const {
  // For the bag-of-words backend the whole log is tokenized and interned
  // once, and one scorer serves every window (a reset is an epoch bump,
  // not a re-zeroed vocabulary-sized table). Other backends re-tokenize
  // per window through the string path.
  std::vector<WindowFeatures> out;
  out.reserve(windows.size());
  if (similarity_backend_ == SimilarityBackend::kBagOfWords) {
    const text::TokenizedMessages tokenized = TokenizeAll(messages);
    text::StreamingSetSimilarity similarity;
    for (const SlidingWindow& window : windows) {
      out.push_back(ComputeFromIds(tokenized, window, similarity));
    }
  } else {
    for (const SlidingWindow& window : windows) {
      out.push_back(Compute(messages, window));
    }
  }
  return out;
}

std::vector<std::vector<double>> NormalizeFeatures(
    const std::vector<WindowFeatures>& raw, FeatureSet set) {
  std::vector<std::vector<double>> rows;
  rows.reserve(raw.size());
  for (const auto& f : raw) rows.push_back(SelectFeatures(f, set));
  if (rows.empty()) return rows;
  // Robust [0,1] scaling: per-column 5th/95th percentiles with clamping.
  // Plain min-max is hostage to a single outlier window (one bot storm
  // with a huge message count compresses every real burst towards 0 and
  // can flip the learned weight's sign on a small training set).
  const size_t width = rows[0].size();
  std::vector<double> lo(width), hi(width);
  for (size_t c = 0; c < width; ++c) {
    std::vector<double> column;
    column.reserve(rows.size());
    for (const auto& row : rows) column.push_back(row[c]);
    lo[c] = common::Quantile(column, 0.02);
    hi[c] = common::Quantile(column, 0.98);
  }
  for (auto& row : rows) {
    for (size_t c = 0; c < width; ++c) {
      const double range = hi[c] - lo[c];
      row[c] = range > 0.0
                   ? std::clamp((row[c] - lo[c]) / range, 0.0, 1.0)
                   : 0.0;
    }
  }
  return rows;
}

}  // namespace lightor::core
