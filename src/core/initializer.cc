#include "core/initializer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lightor::core {

namespace {

obs::Counter& WindowsScoredCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_core_windows_scored_total");
  return *counter;
}

obs::Histogram& ScanLatencyHistogram() {
  static obs::Histogram* const histogram = obs::Registry::Global().GetHistogram(
      "lightor_core_scan_latency_seconds", obs::Histogram::LatencyBounds());
  return *histogram;
}

obs::Counter& RedDotsCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("lightor_core_red_dots_total");
  return *counter;
}

obs::Histogram& AdjustmentShiftHistogram() {
  static obs::Histogram* const histogram = obs::Registry::Global().GetHistogram(
      "lightor_core_adjustment_shift_seconds",
      {0.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0});
  return *histogram;
}

}  // namespace

bool IsGoodRedDot(common::Seconds dot, const common::Interval& highlight,
                  double slack) {
  return dot >= highlight.start - slack && dot <= highlight.end;
}

bool IsGoodRedDotForAny(common::Seconds dot,
                        const std::vector<common::Interval>& highlights,
                        double slack) {
  return std::any_of(highlights.begin(), highlights.end(),
                     [&](const common::Interval& h) {
                       return IsGoodRedDot(dot, h, slack);
                     });
}

HighlightInitializer::HighlightInitializer(InitializerOptions options)
    : options_(options),
      featurizer_(text::TokenizerOptions{}, options.similarity_backend),
      model_(options.lr) {}

std::vector<int> HighlightInitializer::LabelWindows(
    const std::vector<SlidingWindow>& windows,
    const std::vector<common::Interval>& highlights) const {
  std::vector<int> labels;
  labels.reserve(windows.size());
  for (const auto& w : windows) {
    int label = 0;
    // "Talking about a highlight" needs messages: a near-empty window is
    // never a positive, even if it overlaps the discussion period.
    if (w.message_count() >= 3) {
      for (const auto& h : highlights) {
        // Viewers react within a bounded window after the highlight
        // starts (they comment on the event, not for the whole duration
        // of a long teamfight).
        const common::Interval discussion(
            h.start + 5.0, h.start + 15.0 + options_.discussion_lag);
        if (w.span.OverlapLength(discussion) > 0.0) {
          label = 1;
          break;
        }
      }
    }
    labels.push_back(label);
  }
  return labels;
}

common::Status HighlightInitializer::Train(
    const std::vector<TrainingVideo>& videos) {
  if (videos.empty()) {
    return common::Status::InvalidArgument(
        "HighlightInitializer::Train: no training videos");
  }
  ml::Dataset data;
  for (const auto& video : videos) {
    if (!MessagesSorted(video.messages)) {
      return common::Status::InvalidArgument(
          "HighlightInitializer::Train: messages not sorted by timestamp");
    }
    const auto windows =
        GenerateWindows(video.messages, video.video_length, options_.window);
    const auto raw = featurizer_.ComputeAll(video.messages, windows);
    const auto rows = NormalizeFeatures(raw, options_.feature_set);
    const auto labels = LabelWindows(windows, video.highlights);
    for (size_t i = 0; i < rows.size(); ++i) data.Add(rows[i], labels[i]);
  }
  if (data.NumPositive() == 0) {
    return common::Status::InvalidArgument(
        "HighlightInitializer::Train: no positive window in training data");
  }
  if (data.NumPositive() == data.size()) {
    return common::Status::InvalidArgument(
        "HighlightInitializer::Train: no negative window in training data");
  }
  LIGHTOR_RETURN_IF_ERROR(model_.Fit(data));
  LIGHTOR_RETURN_IF_ERROR(LearnAdjustment(videos));
  return common::Status::OK();
}

BurstFeatures HighlightInitializer::FeaturesAroundPeak(
    const std::vector<common::Seconds>& timestamps,
    common::Seconds peak) const {
  const double half = options_.window.size;
  return ComputeBurstFeatures(
      timestamps, common::Interval(std::max(0.0, peak - half), peak + half));
}

common::Status HighlightInitializer::LearnAdjustment(
    const std::vector<TrainingVideo>& videos) {
  // Observations: for each labelled highlight, the message peak within
  // its discussion period plus the burst-shape features around it.
  std::vector<AdjustmentObservation> observations;
  for (const auto& video : videos) {
    const auto timestamps = Timestamps(video.messages);
    for (const auto& h : video.highlights) {
      const common::Interval discussion(
          h.start, h.start + 15.0 + options_.discussion_lag);
      AdjustmentObservation obs;
      obs.peak = FindMessagePeak(timestamps, discussion);
      obs.features = FeaturesAroundPeak(timestamps, obs.peak);
      obs.highlight = h;
      observations.push_back(obs);
    }
  }
  if (observations.empty()) return common::Status::OK();

  AdjustmentOptions adj;
  adj.kind = options_.adjustment_kind;
  adj.search_min = options_.adjustment_min;
  adj.search_max = options_.adjustment_max;
  adj.search_step = options_.adjustment_step;
  adj.good_dot_slack = options_.good_dot_slack;
  adjustment_model_ = AdjustmentModel(adj);
  LIGHTOR_RETURN_IF_ERROR(adjustment_model_.Train(observations));
  if (options_.adjustment_kind == AdjustmentKind::kConstant) {
    adjustment_c_ = adjustment_model_.constant();
  }
  return common::Status::OK();
}

void HighlightInitializer::Predict(
    std::vector<SlidingWindow>& windows,
    const std::vector<WindowFeatures>& raw) const {
  assert(raw.size() == windows.size());
  WindowsScoredCounter().Increment(windows.size());
  const auto rows = NormalizeFeatures(raw, options_.feature_set);
  for (size_t i = 0; i < windows.size(); ++i) {
    windows[i].probability = model_.PredictProbability(rows[i]);
  }
}

std::vector<SlidingWindow> HighlightInitializer::ScoreWindows(
    const std::vector<Message>& messages,
    common::Seconds video_length) const {
  assert(trained());
  obs::ScopedSpan span("initializer.ScoreWindows");
  obs::ScopedTimer timer(&ScanLatencyHistogram());
  auto windows = GenerateWindows(messages, video_length, options_.window);
  Predict(windows, featurizer_.ComputeAll(messages, windows));
  return windows;
}

std::vector<SlidingWindow> HighlightInitializer::TopKWindows(
    std::vector<SlidingWindow> scored, size_t k) const {
  const auto cmp = [](const SlidingWindow& a, const SlidingWindow& b) {
    if (a.probability != b.probability) {
      return a.probability > b.probability;
    }
    return a.span.start < b.span.start;
  };
  const size_t n = scored.size();
  if (k == 0 || n == 0) return {};
  // Partial selection: we pick k ≈ 5 dots out of thousands of windows and
  // the δ-separation scan rarely looks past the first few dozen
  // candidates, so a full sort is wasted work. Sort a prefix, scan it
  // greedily, and grow the prefix only when separation rejected too many.
  // The comparator is a strict total order (de-overlapped windows have
  // unique starts), so each extension continues the one globally-sorted
  // order and the picks match a full sort exactly.
  size_t sorted = std::min(n, std::max(k * 8, size_t{32}));
  std::partial_sort(scored.begin(), scored.begin() + sorted, scored.end(),
                    cmp);
  std::vector<SlidingWindow> picked;
  size_t i = 0;
  while (picked.size() < k) {
    if (i == sorted) {
      if (sorted == n) break;
      sorted = std::min(n, sorted * 2);
      std::partial_sort(scored.begin() + i, scored.begin() + sorted,
                        scored.end(), cmp);
      continue;
    }
    const SlidingWindow& w = scored[i];
    const bool too_close = std::any_of(
        picked.begin(), picked.end(), [&](const SlidingWindow& p) {
          return std::abs(p.span.start - w.span.start) <=
                 options_.min_separation;
        });
    if (!too_close) picked.push_back(w);
    ++i;
  }
  return picked;
}

std::vector<RedDot> HighlightInitializer::SelectDots(
    std::vector<SlidingWindow> windows, const std::vector<WindowFeatures>& raw,
    const std::vector<common::Seconds>& timestamps, size_t k) const {
  assert(trained());
  obs::ScopedTimer timer(&ScanLatencyHistogram());
  Predict(windows, raw);
  const auto top = TopKWindows(std::move(windows), k);
  std::vector<RedDot> dots;
  dots.reserve(top.size());
  for (const auto& w : top) {
    RedDot dot;
    dot.window = w.span;
    dot.score = w.probability;
    dot.peak = FindMessagePeak(timestamps, w.span);
    if (options_.adjustment_kind == AdjustmentKind::kRegression &&
        adjustment_model_.trained()) {
      dot.position = adjustment_model_.PredictStart(
          dot.peak, FeaturesAroundPeak(timestamps, dot.peak));
    } else {
      dot.position = std::max(0.0, dot.peak - adjustment_c_);
    }
    AdjustmentShiftHistogram().Observe(dot.peak - dot.position);
    dots.push_back(dot);
  }
  RedDotsCounter().Increment(dots.size());
  return dots;
}

std::vector<RedDot> HighlightInitializer::Detect(
    const std::vector<Message>& messages, common::Seconds video_length,
    size_t k) const {
  obs::ScopedSpan span("initializer.Detect");
  assert(MessagesSorted(messages));
  auto windows = GenerateWindows(messages, video_length, options_.window);
  const auto raw = featurizer_.ComputeAll(messages, windows);
  // Messages at/after the video end fit in no window, but their
  // timestamps still feed the adjustment stage's burst features.
  auto dots = SelectDots(std::move(windows), raw, Timestamps(messages), k);
  LIGHTOR_LOG(Debug) << "initializer: " << dots.size() << " red dots from "
                     << messages.size() << " messages over " << video_length
                     << "s";
  return dots;
}

std::vector<RedDot> HighlightInitializer::DetectBatch(
    const std::vector<Message>& messages, common::Seconds video_length,
    size_t k) const {
  return Detect(messages, video_length, k);
}

}  // namespace lightor::core
