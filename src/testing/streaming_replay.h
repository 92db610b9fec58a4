#ifndef LIGHTOR_TESTING_STREAMING_REPLAY_H_
#define LIGHTOR_TESTING_STREAMING_REPLAY_H_

#include <vector>

#include "common/interval.h"
#include "core/initializer.h"
#include "core/message.h"

namespace lightor::testing {

/// `HighlightInitializer::Detect` computed the incremental way: replays
/// `messages` (sorted by timestamp) one at a time through a fresh
/// `core::StreamingInitializer` and finalizes at `video_length`. Messages
/// at/after the video end fit in no window and are recorded as tail
/// timestamps, which still feed the adjustment stage. The other side of
/// the batch-vs-streaming differential; `initializer` must be trained
/// with the bag-of-words backend.
std::vector<core::RedDot> StreamingReplay(
    const core::HighlightInitializer& initializer,
    const std::vector<core::Message>& messages, common::Seconds video_length,
    size_t k);

}  // namespace lightor::testing

#endif  // LIGHTOR_TESTING_STREAMING_REPLAY_H_
