#ifndef LIGHTOR_CORE_FEATURES_H_
#define LIGHTOR_CORE_FEATURES_H_

#include <vector>

#include "core/message.h"
#include "core/window.h"
#include "ml/scaler.h"
#include "text/streaming_similarity.h"
#include "text/token_ids.h"
#include "text/tokenizer.h"

namespace lightor::core {

/// The three general features of the Highlight Initializer (Section IV-C).
struct WindowFeatures {
  double message_number = 0.0;      ///< # messages in the window
  double message_length = 0.0;      ///< mean words per message
  double message_similarity = 0.0;  ///< avg cosine to one-cluster k-means center

  std::vector<double> ToVector() const {
    return {message_number, message_length, message_similarity};
  }
};

/// Which feature columns a model uses — Fig. 6(a) compares `msg num`,
/// `msg num + msg len`, and all three.
enum class FeatureSet { kNum, kNumLen, kAll };

/// Backend for the message-similarity feature. The paper uses binary
/// bag-of-words + one-cluster k-means and notes the feature "can be
/// further enhanced with more sophisticated word representation (e.g.,
/// word embedding)" — the alternatives exist for that ablation.
enum class SimilarityBackend {
  kBagOfWords,  ///< the paper's formulation (default)
  kTfIdf,       ///< TF-IDF-weighted vectors, same k-means-center cosine
  kEmbedding,   ///< hashing-trick word embeddings
  kJaccard,     ///< mean pairwise Jaccard of token sets
};

/// Number of columns in a feature set.
size_t FeatureSetWidth(FeatureSet set);

/// Projects a full 3-feature row onto `set`'s columns.
std::vector<double> SelectFeatures(const WindowFeatures& features,
                                   FeatureSet set);

/// Computes raw (un-normalized) window features from chat messages.
class WindowFeaturizer {
 public:
  explicit WindowFeaturizer(text::TokenizerOptions tokenizer_options = {},
                            SimilarityBackend similarity_backend =
                                SimilarityBackend::kBagOfWords);

  /// Features of one window over its message range. Legacy string path:
  /// re-tokenizes the window's messages on every call. Kept as the
  /// reference implementation for the id path's differential tests and as
  /// the fallback for non-BoW similarity backends.
  WindowFeatures Compute(const std::vector<Message>& messages,
                         const SlidingWindow& window) const;

  /// Tokenizes and interns every message exactly once into a per-video
  /// vocabulary. Windows overlap (stride < size), so the legacy path
  /// tokenized most messages at least twice — this is the shared input
  /// the id-path Compute consumes instead.
  text::TokenizedMessages TokenizeAll(
      const std::vector<Message>& messages) const;

  /// Features of one window over pre-tokenized ids. Bit-exact with the
  /// string Compute for the bag-of-words backend (window-local first-seen
  /// id order and every reduction order are preserved); requires
  /// similarity_backend() == kBagOfWords. `similarity` is scratch, reset
  /// here, so one scorer's remap table serves every window.
  WindowFeatures ComputeFromIds(const text::TokenizedMessages& tokenized,
                                const SlidingWindow& window,
                                text::StreamingSetSimilarity& similarity) const;

  /// Features of every window, computed serially on the caller's thread.
  /// Uses the interned id path for the bag-of-words backend and the
  /// legacy string path otherwise.
  std::vector<WindowFeatures> ComputeAll(
      const std::vector<Message>& messages,
      const std::vector<SlidingWindow>& windows) const;

  SimilarityBackend similarity_backend() const { return similarity_backend_; }
  const text::TokenizerOptions& tokenizer_options() const {
    return tokenizer_options_;
  }

 private:
  text::TokenizerOptions tokenizer_options_;
  SimilarityBackend similarity_backend_;
};

/// Normalizes raw per-window features to [0, 1] **within one video**
/// (min-max over that video's windows) and projects to `set`. Per-video
/// normalization is what makes the features transfer across videos and
/// games: absolute chat volume varies wildly, relative volume does not.
std::vector<std::vector<double>> NormalizeFeatures(
    const std::vector<WindowFeatures>& raw, FeatureSet set);

}  // namespace lightor::core

#endif  // LIGHTOR_CORE_FEATURES_H_
