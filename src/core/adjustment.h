#ifndef LIGHTOR_CORE_ADJUSTMENT_H_
#define LIGHTOR_CORE_ADJUSTMENT_H_

#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "core/message.h"
#include "ml/linear_regression.h"

namespace lightor::core {

/// The adjustment stage maps a burst's message peak back to the
/// highlight's start. The paper ships the constant model
/// (`time_start = time_peak − c`) and explicitly defers "a more
/// sophisticated regression model" to future work (Section IX); this
/// module implements both.
enum class AdjustmentKind {
  kConstant,    ///< the paper's reward-maximizing constant c
  kRegression,  ///< ridge regression of the delay on burst-shape features
};

/// Burst-shape features the regression variant conditions on: sharper and
/// denser bursts tend to follow the highlight start more closely.
struct BurstFeatures {
  double message_count = 0.0;   ///< messages in the discussion interval
  double burst_spread = 0.0;    ///< stddev of message timestamps (s)
  double peak_offset = 0.0;     ///< peak position within the interval (s)

  std::vector<double> ToVector() const {
    return {message_count, burst_spread, peak_offset};
  }
};

/// Computes burst features for a discussion interval. `timestamps` must
/// be sorted (see `Timestamps`).
BurstFeatures ComputeBurstFeatures(
    const std::vector<common::Seconds>& timestamps,
    const common::Interval& interval);

/// Timestamp-only overload for the streaming engine (which keeps
/// timestamps but not texts); bit-identical to the Message overload for
/// equal timestamp sequences.
BurstFeatures ComputeBurstFeatures(
    const std::vector<common::Seconds>& timestamps,
    const common::Interval& interval);

/// One training observation: the burst's peak time and features, plus the
/// ground-truth highlight interval.
struct AdjustmentObservation {
  common::Seconds peak = 0.0;
  BurstFeatures features;
  common::Interval highlight;
};

/// Options for training either variant.
struct AdjustmentOptions {
  AdjustmentKind kind = AdjustmentKind::kConstant;
  /// Constant-model search grid.
  double search_min = 0.0;
  double search_max = 60.0;
  double search_step = 1.0;
  /// Good-dot slack used by the constant model's reward.
  double good_dot_slack = 10.0;
  /// Regression ridge penalty.
  double l2_lambda = 1e-3;
};

/// A trained adjustment model: predicts the start position from a peak
/// (and burst features, for the regression variant).
class AdjustmentModel {
 public:
  explicit AdjustmentModel(AdjustmentOptions options = {});

  /// Trains on observations. The constant variant maximizes the good-dot
  /// reward (with the argmax-plateau-median tie-break); the regression
  /// variant fits delay ≈ f(features) by ridge least squares.
  common::Status Train(const std::vector<AdjustmentObservation>& observations);

  /// Predicted highlight start for a burst peaked at `peak`.
  common::Seconds PredictStart(common::Seconds peak,
                               const BurstFeatures& features) const;

  /// The effective delay subtracted for these features.
  double PredictedDelay(const BurstFeatures& features) const;

  bool trained() const { return trained_; }
  AdjustmentKind kind() const { return options_.kind; }
  double constant() const { return constant_; }
  const ml::LinearRegression& regression() const { return regression_; }

 private:
  AdjustmentOptions options_;
  double constant_ = 20.0;
  ml::LinearRegression regression_;
  bool trained_ = false;
};

}  // namespace lightor::core

#endif  // LIGHTOR_CORE_ADJUSTMENT_H_
