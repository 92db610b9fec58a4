#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/model_io.h"
#include "sim/bridge.h"
#include "sim/corpus.h"

namespace lightor::core {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("lightor_modelio_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  HighlightInitializer TrainInitializer(InitializerOptions opts = {}) {
    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 95);
    TrainingVideo tv;
    tv.messages = sim::ToCoreMessages(corpus[0].chat);
    tv.video_length = corpus[0].truth.meta.length;
    for (const auto& h : corpus[0].truth.highlights) {
      tv.highlights.push_back(h.span);
    }
    HighlightInitializer init(opts);
    EXPECT_TRUE(init.Train({tv}).ok());
    return init;
  }

  std::string dir_;
};

TEST_F(ModelIoTest, InitializerRoundTrip) {
  const auto original = TrainInitializer();
  const std::string path = dir_ + "/model.txt";
  ASSERT_TRUE(SaveInitializer(original, path).ok());

  auto loaded = LoadInitializer(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().trained());
  EXPECT_DOUBLE_EQ(loaded.value().adjustment_c(), original.adjustment_c());
  ASSERT_EQ(loaded.value().model().weights().size(),
            original.model().weights().size());
  for (size_t i = 0; i < original.model().weights().size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.value().model().weights()[i],
                     original.model().weights()[i]);
  }
  EXPECT_DOUBLE_EQ(loaded.value().model().bias(), original.model().bias());

  // The loaded model must make identical predictions.
  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 96);
  const auto messages = sim::ToCoreMessages(corpus[0].chat);
  const auto a = original.Detect(messages, corpus[0].truth.meta.length, 5);
  const auto b =
      loaded.value().Detect(messages, corpus[0].truth.meta.length, 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].position, b[i].position);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST_F(ModelIoTest, OptionsSurviveRoundTrip) {
  InitializerOptions opts;
  opts.feature_set = FeatureSet::kNumLen;
  opts.window.size = 30.0;
  opts.min_separation = 90.0;
  const auto original = TrainInitializer(opts);
  const std::string path = dir_ + "/model.txt";
  ASSERT_TRUE(SaveInitializer(original, path).ok());
  auto loaded = LoadInitializer(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().options().feature_set, FeatureSet::kNumLen);
  EXPECT_DOUBLE_EQ(loaded.value().options().window.size, 30.0);
  EXPECT_DOUBLE_EQ(loaded.value().options().min_separation, 90.0);
}

TEST_F(ModelIoTest, SaveUntrainedFails) {
  HighlightInitializer untrained;
  EXPECT_TRUE(SaveInitializer(untrained, dir_ + "/x.txt")
                  .IsFailedPrecondition());
}

TEST_F(ModelIoTest, SaveRegressionVariantUnsupported) {
  InitializerOptions opts;
  opts.adjustment_kind = AdjustmentKind::kRegression;
  const auto init = TrainInitializer(opts);
  EXPECT_TRUE(SaveInitializer(init, dir_ + "/x.txt").IsNotSupported());
}

// The file records no similarity backend, so a model fitted on another
// feature would reload as bag-of-words with weights that do not fit it.
TEST_F(ModelIoTest, SaveNonBagOfWordsBackendUnsupported) {
  for (SimilarityBackend backend :
       {SimilarityBackend::kTfIdf, SimilarityBackend::kEmbedding,
        SimilarityBackend::kJaccard}) {
    InitializerOptions opts;
    opts.similarity_backend = backend;
    const auto init = TrainInitializer(opts);
    const std::string path = dir_ + "/x.txt";
    EXPECT_TRUE(SaveInitializer(init, path).IsNotSupported());
    EXPECT_FALSE(std::filesystem::exists(path));
  }
}

TEST_F(ModelIoTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadInitializer(dir_ + "/nope.txt").status().IsIoError());
}

TEST_F(ModelIoTest, LoadRejectsBadHeader) {
  const std::string path = dir_ + "/bad.txt";
  std::ofstream(path) << "not-a-model\n";
  EXPECT_TRUE(LoadInitializer(path).status().IsCorruption());
}

TEST_F(ModelIoTest, LoadRejectsTruncatedFile) {
  const auto original = TrainInitializer();
  const std::string path = dir_ + "/model.txt";
  ASSERT_TRUE(SaveInitializer(original, path).ok());
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_FALSE(LoadInitializer(path).ok());
}

TEST_F(ModelIoTest, ClassifierRoundTrip) {
  TypeClassifier classifier;
  ml::Dataset data;
  for (int i = 0; i < 30; ++i) {
    data.Add({1.0, 0.0, 0.0}, 0);
    data.Add({0.0, 1.0, 0.0}, 1);
  }
  ASSERT_TRUE(classifier.Train(data).ok());
  const std::string path = dir_ + "/classifier.txt";
  ASSERT_TRUE(SaveTypeClassifier(classifier, path).ok());
  auto loaded = LoadTypeClassifier(path);
  ASSERT_TRUE(loaded.ok());
  PlayFeatures f;
  f.plays_before = 8.0;
  f.plays_after = 2.0;
  EXPECT_EQ(loaded.value().Classify(f), classifier.Classify(f));
  EXPECT_NEAR(loaded.value().TypeIProbability(f),
              classifier.TypeIProbability(f), 1e-12);
}

TEST_F(ModelIoTest, ClassifierSaveUntrainedFails) {
  TypeClassifier untrained;
  EXPECT_TRUE(SaveTypeClassifier(untrained, dir_ + "/c.txt")
                  .IsFailedPrecondition());
}

TEST_F(ModelIoTest, ClassifierWrongHeaderRejected) {
  // An initializer file must not load as a classifier.
  const auto init = TrainInitializer();
  const std::string path = dir_ + "/model.txt";
  ASSERT_TRUE(SaveInitializer(init, path).ok());
  EXPECT_TRUE(LoadTypeClassifier(path).status().IsCorruption());
}

}  // namespace
}  // namespace lightor::core
