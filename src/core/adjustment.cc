#include "core/adjustment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.h"
#include "core/initializer.h"
#include "core/window.h"

namespace lightor::core {

BurstFeatures ComputeBurstFeatures(
    const std::vector<common::Seconds>& timestamps,
    const common::Interval& interval) {
  BurstFeatures f;
  const auto lo =
      std::lower_bound(timestamps.begin(), timestamps.end(), interval.start);
  const auto hi = std::lower_bound(lo, timestamps.end(), interval.end);
  const size_t n = static_cast<size_t>(hi - lo);
  f.message_count = static_cast<double>(n);
  if (n == 0) return f;
  double mean = 0.0;
  for (auto it = lo; it != hi; ++it) mean += *it;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (auto it = lo; it != hi; ++it) var += (*it - mean) * (*it - mean);
  f.burst_spread = std::sqrt(var / static_cast<double>(n));
  f.peak_offset = FindMessagePeak(timestamps, interval) - interval.start;
  return f;
}

AdjustmentModel::AdjustmentModel(AdjustmentOptions options)
    : options_(options) {}

common::Status AdjustmentModel::Train(
    const std::vector<AdjustmentObservation>& observations) {
  if (observations.empty()) {
    return common::Status::InvalidArgument(
        "AdjustmentModel::Train: no observations");
  }
  if (options_.kind == AdjustmentKind::kConstant) {
    int best_reward = -1;
    std::vector<double> best_cs;
    for (double c = options_.search_min; c <= options_.search_max;
         c += options_.search_step) {
      int reward = 0;
      for (const auto& obs : observations) {
        if (IsGoodRedDot(obs.peak - c, obs.highlight,
                         options_.good_dot_slack)) {
          ++reward;
        }
      }
      if (reward > best_reward) {
        best_reward = reward;
        best_cs.assign(1, c);
      } else if (reward == best_reward) {
        best_cs.push_back(c);
      }
    }
    // The reward is flat over a plateau of c values (any shift landing
    // inside [s - slack, e] scores the same). Within the plateau, pick
    // the value closest to the empirical reaction delay
    // median(peak − start): c IS the crowd's reaction time (the paper's
    // reading of its stable 23–27 s constant), and that interpretation
    // places dots at the highlight start rather than merely inside it.
    std::vector<double> delays;
    delays.reserve(observations.size());
    for (const auto& obs : observations) {
      delays.push_back(obs.peak - obs.highlight.start);
    }
    const double reaction_delay = common::Median(std::move(delays));
    double best_dist = std::numeric_limits<double>::infinity();
    for (double c : best_cs) {
      const double dist = std::abs(c - reaction_delay);
      if (dist < best_dist) {
        best_dist = dist;
        constant_ = c;
      }
    }
  } else {
    std::vector<std::vector<double>> rows;
    std::vector<double> delays;
    for (const auto& obs : observations) {
      rows.push_back(obs.features.ToVector());
      delays.push_back(obs.peak - obs.highlight.start);
    }
    ml::LinearRegressionOptions lr_opts;
    lr_opts.l2_lambda = options_.l2_lambda;
    regression_ = ml::LinearRegression(lr_opts);
    LIGHTOR_RETURN_IF_ERROR(regression_.Fit(rows, delays));
  }
  trained_ = true;
  return common::Status::OK();
}

double AdjustmentModel::PredictedDelay(const BurstFeatures& features) const {
  if (options_.kind == AdjustmentKind::kConstant || !regression_.fitted()) {
    return constant_;
  }
  // A regression can extrapolate wildly on out-of-range features; clamp
  // to the plausible human-reaction band.
  return std::clamp(regression_.Predict(features.ToVector()),
                    options_.search_min, options_.search_max);
}

common::Seconds AdjustmentModel::PredictStart(
    common::Seconds peak, const BurstFeatures& features) const {
  return std::max(0.0, peak - PredictedDelay(features));
}

}  // namespace lightor::core
