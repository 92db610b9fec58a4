#ifndef LIGHTOR_CORE_INITIALIZER_H_
#define LIGHTOR_CORE_INITIALIZER_H_

#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "core/adjustment.h"
#include "core/features.h"
#include "core/message.h"
#include "core/window.h"
#include "ml/logistic_regression.h"

namespace lightor::core {

/// An approximate highlight start position placed on the progress bar.
struct RedDot {
  common::Seconds position = 0.0;      ///< adjusted start estimate
  double score = 0.0;                  ///< window probability
  common::Interval window;             ///< the window that produced it
  common::Seconds peak = 0.0;          ///< message peak inside the window
};

/// Configuration of the Highlight Initializer (Section IV).
struct InitializerOptions {
  WindowOptions window;                ///< sliding-window generation
  FeatureSet feature_set = FeatureSet::kAll;
  SimilarityBackend similarity_backend = SimilarityBackend::kBagOfWords;
  ml::LogisticRegressionOptions lr;
  /// Minimum spacing δ between returned red dots (120 s in the paper).
  double min_separation = 120.0;
  /// Good-dot slack: r is good for h=[s,e] iff r ∈ [s - slack, e].
  double good_dot_slack = 10.0;
  /// Search range and step for the adjustment constant c.
  double adjustment_min = 0.0;
  double adjustment_max = 60.0;
  double adjustment_step = 1.0;
  /// Adjustment variant: the paper's constant shift (default) or the
  /// Section IX future-work regression on burst-shape features.
  AdjustmentKind adjustment_kind = AdjustmentKind::kConstant;
  /// Training labels: a window is positive iff it holds messages and
  /// overlaps the reaction window [h.start + 5, h.start + 15 +
  /// discussion_lag] of some highlight h — viewers react to the event
  /// shortly after it starts, not for the whole duration of a long
  /// highlight.
  double discussion_lag = 40.0;
};

/// A labelled training video for the Initializer: chat plus ground-truth
/// highlight spans (one hand-labelled video suffices — Fig. 6(b)).
struct TrainingVideo {
  std::vector<Message> messages;  ///< sorted by timestamp
  common::Seconds video_length = 0.0;
  std::vector<common::Interval> highlights;
};

/// Returns 1 when placing a dot at `dot` is "good" for the highlight
/// `h`: not after the end, not more than `slack` before the start.
bool IsGoodRedDot(common::Seconds dot, const common::Interval& highlight,
                  double slack = 10.0);

/// Returns true if `dot` is good for at least one of `highlights`.
bool IsGoodRedDotForAny(common::Seconds dot,
                        const std::vector<common::Interval>& highlights,
                        double slack = 10.0);

/// The Highlight Initializer: a logistic-regression window classifier
/// (prediction stage) plus a learned constant reaction-delay shift
/// (adjustment stage). Implements Algorithm 1.
class HighlightInitializer {
 public:
  explicit HighlightInitializer(InitializerOptions options = {});

  /// Trains both stages on labelled videos. Returns InvalidArgument when
  /// `videos` is empty or produces no positive window.
  common::Status Train(const std::vector<TrainingVideo>& videos);

  /// Prediction stage only: generates de-overlapped windows and fills in
  /// each window's probability. Requires a trained model.
  std::vector<SlidingWindow> ScoreWindows(const std::vector<Message>& messages,
                                          common::Seconds video_length) const;

  /// Full Algorithm 1: top-k windows (respecting min_separation), peaks,
  /// and adjusted red-dot positions, ordered by descending score. Runs
  /// serially on the caller's thread: windows, features over the interned
  /// log, then `SelectDots`.
  std::vector<RedDot> Detect(const std::vector<Message>& messages,
                             common::Seconds video_length, size_t k) const;

  /// Forwards to `Detect`; kept for the callers that still name it.
  std::vector<RedDot> DetectBatch(const std::vector<Message>& messages,
                                  common::Seconds video_length,
                                  size_t k) const;

  /// The scoring tail of Algorithm 1, shared by `Detect` and the live
  /// engine: normalize `raw` (the features of the de-overlapped `windows`)
  /// within the video, predict, take the top k under δ-separation, and
  /// place each dot at its peak in `timestamps`, adjusted.
  std::vector<RedDot> SelectDots(std::vector<SlidingWindow> windows,
                                 const std::vector<WindowFeatures>& raw,
                                 const std::vector<common::Seconds>& timestamps,
                                 size_t k) const;

  /// Selects the top-k scored windows subject to the δ-separation rule
  /// (exposed for evaluation of the prediction stage in isolation).
  std::vector<SlidingWindow> TopKWindows(std::vector<SlidingWindow> scored,
                                         size_t k) const;

  bool trained() const { return model_.fitted(); }
  const WindowFeaturizer& featurizer() const { return featurizer_; }
  double adjustment_c() const { return adjustment_c_; }
  const ml::LogisticRegression& model() const { return model_; }
  /// Mutable model access for deserialization (core/model_io.h).
  ml::LogisticRegression& mutable_model() { return model_; }
  const InitializerOptions& options() const { return options_; }

  /// Labels windows for training/evaluation against ground truth: 1 iff
  /// the window overlaps [h.start, h.end + discussion_lag] for some h.
  std::vector<int> LabelWindows(
      const std::vector<SlidingWindow>& windows,
      const std::vector<common::Interval>& highlights) const;

  /// Directly installs the adjustment constant (tests/deserialization).
  void SetAdjustment(double c) { adjustment_c_ = c; }

  /// The trained adjustment model (constant or regression).
  const AdjustmentModel& adjustment_model() const { return adjustment_model_; }

  /// Burst features in a fixed-width interval around a peak (the input
  /// the regression adjustment conditions on; exposed for analysis).
  BurstFeatures FeaturesAroundPeak(
      const std::vector<common::Seconds>& timestamps,
      common::Seconds peak) const;

 private:
  /// Normalizes `raw` within the video and sets each window's probability.
  void Predict(std::vector<SlidingWindow>& windows,
               const std::vector<WindowFeatures>& raw) const;

  /// Trains the adjustment model on (peak, features, highlight)
  /// observations collected from the training videos.
  common::Status LearnAdjustment(const std::vector<TrainingVideo>& videos);

  InitializerOptions options_;
  WindowFeaturizer featurizer_;
  ml::LogisticRegression model_;
  double adjustment_c_ = 20.0;
  AdjustmentModel adjustment_model_;
};

}  // namespace lightor::core

#endif  // LIGHTOR_CORE_INITIALIZER_H_
