#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adjustment.h"
#include "core/evaluation.h"
#include "sim/bridge.h"
#include "sim/corpus.h"

namespace lightor::core {
namespace {

std::vector<Message> MessagesAt(const std::vector<double>& times) {
  std::vector<Message> out;
  for (double t : times) {
    Message m;
    m.timestamp = t;
    m.text = "x";
    out.push_back(m);
  }
  return out;
}

TEST(BurstFeaturesTest, CountSpreadAndPeak) {
  const auto messages = MessagesAt({10, 11, 12, 13, 14});
  const auto f =
      ComputeBurstFeatures(Timestamps(messages), common::Interval(0, 25));
  EXPECT_DOUBLE_EQ(f.message_count, 5.0);
  EXPECT_GT(f.burst_spread, 0.5);
  EXPECT_LT(f.burst_spread, 5.0);
  EXPECT_GT(f.peak_offset, 5.0);
  EXPECT_LT(f.peak_offset, 20.0);
}

TEST(BurstFeaturesTest, EmptyIntervalIsZeros) {
  const auto messages = MessagesAt({10.0});
  const auto f =
      ComputeBurstFeatures(Timestamps(messages), common::Interval(50, 60));
  EXPECT_DOUBLE_EQ(f.message_count, 0.0);
  EXPECT_DOUBLE_EQ(f.burst_spread, 0.0);
}

std::vector<AdjustmentObservation> SyntheticObservations(
    common::Rng& rng, int n, double delay_mean, double delay_slope = 0.0) {
  // Delay depends (optionally) linearly on the burst spread.
  std::vector<AdjustmentObservation> obs;
  for (int i = 0; i < n; ++i) {
    AdjustmentObservation o;
    const double start = rng.Uniform(100.0, 3000.0);
    o.highlight = common::Interval(start, start + rng.Uniform(10.0, 40.0));
    o.features.message_count = rng.Uniform(20.0, 60.0);
    o.features.burst_spread = rng.Uniform(4.0, 12.0);
    o.features.peak_offset = rng.Uniform(15.0, 35.0);
    const double delay = delay_mean +
                         delay_slope * (o.features.burst_spread - 8.0) +
                         rng.Normal(0.0, 1.0);
    o.peak = start + delay;
    obs.push_back(o);
  }
  return obs;
}

TEST(AdjustmentModelTest, ConstantRecoversDelay) {
  common::Rng rng(1);
  const auto obs = SyntheticObservations(rng, 60, 22.0);
  AdjustmentModel model;
  ASSERT_TRUE(model.Train(obs).ok());
  EXPECT_TRUE(model.trained());
  EXPECT_NEAR(model.constant(), 22.0, 8.0);
  // Predicted starts are good dots for most observations.
  int good = 0;
  for (const auto& o : obs) {
    if (IsGoodRedDot(model.PredictStart(o.peak, o.features), o.highlight)) {
      ++good;
    }
  }
  EXPECT_GT(good, 50);
}

TEST(AdjustmentModelTest, RegressionBeatsConstantOnFeatureDependentDelay) {
  common::Rng rng(2);
  // Strong dependence of the delay on burst spread.
  const auto train = SyntheticObservations(rng, 120, 25.0, 3.0);
  const auto test = SyntheticObservations(rng, 120, 25.0, 3.0);

  AdjustmentOptions const_opts;
  const_opts.kind = AdjustmentKind::kConstant;
  AdjustmentModel constant(const_opts);
  ASSERT_TRUE(constant.Train(train).ok());

  AdjustmentOptions reg_opts;
  reg_opts.kind = AdjustmentKind::kRegression;
  AdjustmentModel regression(reg_opts);
  ASSERT_TRUE(regression.Train(train).ok());

  auto mean_abs_error = [&](const AdjustmentModel& model) {
    double acc = 0.0;
    for (const auto& o : test) {
      acc += std::abs(model.PredictStart(o.peak, o.features) -
                      o.highlight.start);
    }
    return acc / static_cast<double>(test.size());
  };
  EXPECT_LT(mean_abs_error(regression), mean_abs_error(constant));
}

TEST(AdjustmentModelTest, RegressionDelayClampedToSearchBand) {
  common::Rng rng(3);
  const auto train = SyntheticObservations(rng, 60, 25.0, 3.0);
  AdjustmentOptions opts;
  opts.kind = AdjustmentKind::kRegression;
  AdjustmentModel model(opts);
  ASSERT_TRUE(model.Train(train).ok());
  // Wildly out-of-range features must not produce absurd delays.
  BurstFeatures crazy;
  crazy.message_count = 1e6;
  crazy.burst_spread = 1e4;
  crazy.peak_offset = -1e4;
  const double delay = model.PredictedDelay(crazy);
  EXPECT_GE(delay, opts.search_min);
  EXPECT_LE(delay, opts.search_max);
}

TEST(AdjustmentModelTest, EmptyTrainingFails) {
  AdjustmentModel model;
  EXPECT_TRUE(model.Train({}).IsInvalidArgument());
}

TEST(InitializerRegressionAdjustmentTest, WorksEndToEnd) {
  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 4, 91);
  InitializerOptions opts;
  opts.adjustment_kind = AdjustmentKind::kRegression;
  HighlightInitializer init(opts);

  TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  ASSERT_TRUE(init.Train({tv}).ok());
  EXPECT_EQ(init.adjustment_model().kind(), AdjustmentKind::kRegression);

  double precision = 0.0;
  for (size_t i = 1; i < corpus.size(); ++i) {
    std::vector<common::Interval> truth;
    for (const auto& h : corpus[i].truth.highlights) truth.push_back(h.span);
    const auto dots = init.Detect(sim::ToCoreMessages(corpus[i].chat),
                                  corpus[i].truth.meta.length, 5);
    precision += VideoPrecisionStart(DotPositions(dots), truth);
  }
  EXPECT_GT(precision / 3.0, 0.5);
}

}  // namespace
}  // namespace lightor::core
