#include "core/model_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace lightor::core {

namespace {

constexpr const char* kModelHeader = "lightor-model v1";
constexpr const char* kClassifierHeader = "lightor-classifier v1";

std::string FeatureSetName(FeatureSet set) {
  switch (set) {
    case FeatureSet::kNum:
      return "num";
    case FeatureSet::kNumLen:
      return "numlen";
    case FeatureSet::kAll:
      return "all";
  }
  return "all";
}

common::Result<FeatureSet> FeatureSetFromName(const std::string& name) {
  if (name == "num") return FeatureSet::kNum;
  if (name == "numlen") return FeatureSet::kNumLen;
  if (name == "all") return FeatureSet::kAll;
  return common::Status::Corruption("unknown feature set: " + name);
}

void WriteWeights(std::ostream& out, const ml::LogisticRegression& model) {
  out << "weights " << model.weights().size();
  char buf[64];
  for (double w : model.weights()) {
    std::snprintf(buf, sizeof(buf), " %.17g", w);
    out << buf;
  }
  out << "\n";
  std::snprintf(buf, sizeof(buf), "%.17g", model.bias());
  out << "bias " << buf << "\n";
}

/// Reads "weights <n> ..." and "bias <b>" lines into `model`.
common::Status ReadWeights(std::istream& in, ml::LogisticRegression& model) {
  std::string keyword;
  size_t count = 0;
  if (!(in >> keyword >> count) || keyword != "weights") {
    return common::Status::Corruption("expected weights line");
  }
  if (count > 1000000) {
    return common::Status::Corruption("implausible weight count");
  }
  std::vector<double> weights(count);
  for (double& w : weights) {
    if (!(in >> w)) return common::Status::Corruption("truncated weights");
  }
  double bias = 0.0;
  if (!(in >> keyword >> bias) || keyword != "bias") {
    return common::Status::Corruption("expected bias line");
  }
  model.SetParameters(std::move(weights), bias);
  return common::Status::OK();
}

common::Result<std::ifstream> OpenForRead(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return common::Status::IoError("cannot open for reading: " + path);
  }
  return in;
}

common::Status CheckHeader(std::istream& in, const std::string& expected) {
  std::string line;
  if (!std::getline(in, line) || common::Trim(line) != expected) {
    return common::Status::Corruption("bad model header (want '" + expected +
                                      "')");
  }
  return common::Status::OK();
}

}  // namespace

common::Status SaveInitializer(const HighlightInitializer& initializer,
                               const std::string& path) {
  if (!initializer.trained()) {
    return common::Status::FailedPrecondition(
        "SaveInitializer: initializer is not trained");
  }
  if (initializer.options().adjustment_kind != AdjustmentKind::kConstant) {
    return common::Status::NotSupported(
        "SaveInitializer: only the constant adjustment variant serializes");
  }
  if (initializer.options().similarity_backend !=
      SimilarityBackend::kBagOfWords) {
    return common::Status::NotSupported(
        "SaveInitializer: only the bag-of-words similarity backend "
        "serializes");
  }
  std::ofstream out(path);
  if (!out.is_open()) {
    return common::Status::IoError("cannot open for writing: " + path);
  }
  const InitializerOptions& opts = initializer.options();
  out << kModelHeader << "\n";
  out << "feature_set " << FeatureSetName(opts.feature_set) << "\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "window_size %.17g window_stride %.17g\n", opts.window.size,
                opts.window.stride);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "min_separation %.17g good_dot_slack %.17g "
                "discussion_lag %.17g\n",
                opts.min_separation, opts.good_dot_slack,
                opts.discussion_lag);
  out << buf;
  std::snprintf(buf, sizeof(buf), "adjustment_c %.17g\n",
                initializer.adjustment_c());
  out << buf;
  WriteWeights(out, initializer.model());
  if (!out.good()) {
    return common::Status::IoError("write failed: " + path);
  }
  return common::Status::OK();
}

common::Result<HighlightInitializer> LoadInitializer(const std::string& path) {
  auto file = OpenForRead(path);
  if (!file.ok()) return file.status();
  std::ifstream& in = file.value();
  LIGHTOR_RETURN_IF_ERROR(CheckHeader(in, kModelHeader));

  InitializerOptions opts;
  std::string keyword, feature_name;
  if (!(in >> keyword >> feature_name) || keyword != "feature_set") {
    return common::Status::Corruption("expected feature_set line");
  }
  LIGHTOR_ASSIGN_OR_RETURN(opts.feature_set,
                           FeatureSetFromName(feature_name));

  auto read_kv = [&](const char* name, double* value) -> common::Status {
    std::string key;
    if (!(in >> key >> *value) || key != name) {
      return common::Status::Corruption(std::string("expected ") + name);
    }
    return common::Status::OK();
  };
  LIGHTOR_RETURN_IF_ERROR(read_kv("window_size", &opts.window.size));
  LIGHTOR_RETURN_IF_ERROR(read_kv("window_stride", &opts.window.stride));
  LIGHTOR_RETURN_IF_ERROR(read_kv("min_separation", &opts.min_separation));
  LIGHTOR_RETURN_IF_ERROR(read_kv("good_dot_slack", &opts.good_dot_slack));
  LIGHTOR_RETURN_IF_ERROR(read_kv("discussion_lag", &opts.discussion_lag));
  double adjustment = 0.0;
  LIGHTOR_RETURN_IF_ERROR(read_kv("adjustment_c", &adjustment));

  HighlightInitializer initializer(opts);
  LIGHTOR_RETURN_IF_ERROR(ReadWeights(in, initializer.mutable_model()));
  if (initializer.model().weights().size() !=
      FeatureSetWidth(opts.feature_set)) {
    return common::Status::Corruption(
        "weight count does not match the feature set");
  }
  initializer.SetAdjustment(adjustment);
  return initializer;
}

common::Status SaveTypeClassifier(const TypeClassifier& classifier,
                                  const std::string& path) {
  if (!classifier.trained()) {
    return common::Status::FailedPrecondition(
        "SaveTypeClassifier: classifier is not trained");
  }
  std::ofstream out(path);
  if (!out.is_open()) {
    return common::Status::IoError("cannot open for writing: " + path);
  }
  out << kClassifierHeader << "\n";
  WriteWeights(out, classifier.model());
  if (!out.good()) {
    return common::Status::IoError("write failed: " + path);
  }
  return common::Status::OK();
}

common::Result<TypeClassifier> LoadTypeClassifier(const std::string& path) {
  auto file = OpenForRead(path);
  if (!file.ok()) return file.status();
  std::ifstream& in = file.value();
  LIGHTOR_RETURN_IF_ERROR(CheckHeader(in, kClassifierHeader));
  TypeClassifier classifier;
  LIGHTOR_RETURN_IF_ERROR(ReadWeights(in, classifier.mutable_model()));
  if (classifier.model().weights().size() != 3) {
    return common::Status::Corruption(
        "type classifier must have exactly 3 weights");
  }
  return classifier;
}

}  // namespace lightor::core
