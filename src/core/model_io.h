#ifndef LIGHTOR_CORE_MODEL_IO_H_
#define LIGHTOR_CORE_MODEL_IO_H_

#include <string>

#include "common/result.h"
#include "core/extractor.h"
#include "core/initializer.h"

namespace lightor::core {

/// Model persistence in a small line-oriented text format ("lightor-model
/// v1"). Deploying LIGHTOR (Section VI) means training once and serving
/// many videos, so both trained stages round-trip through files:
///
///   lightor-model v1
///   feature_set all
///   window_size 25 window_stride 12.5
///   min_separation 120 good_dot_slack 10 discussion_lag 40
///   adjustment_c 24
///   weights 3 w0 w1 w2
///   bias b
///
/// The type-classifier file is analogous ("lightor-classifier v1").

/// Writes a trained initializer (options + LR parameters + adjustment
/// constant). Fails when untrained or on I/O errors, and returns
/// NotSupported for what the format cannot record: the regression
/// adjustment and any similarity backend but bag-of-words.
common::Status SaveInitializer(const HighlightInitializer& initializer,
                               const std::string& path);

/// Reads an initializer back; the returned object is ready to Detect.
common::Result<HighlightInitializer> LoadInitializer(const std::string& path);

/// Writes a trained Type I/II classifier.
common::Status SaveTypeClassifier(const TypeClassifier& classifier,
                                  const std::string& path);

/// Reads a Type I/II classifier back.
common::Result<TypeClassifier> LoadTypeClassifier(const std::string& path);

}  // namespace lightor::core

#endif  // LIGHTOR_CORE_MODEL_IO_H_
