#ifndef LIGHTOR_CORE_WINDOW_H_
#define LIGHTOR_CORE_WINDOW_H_

#include <cstddef>
#include <vector>

#include "common/interval.h"
#include "core/message.h"

namespace lightor::core {

/// A chat sliding window (Algorithm 1): a span of the video timeline plus
/// the contiguous range of messages whose timestamps fall inside it.
struct SlidingWindow {
  common::Interval span;
  /// Message index range [first_message, last_message) into the video's
  /// timestamp-sorted message vector.
  size_t first_message = 0;
  size_t last_message = 0;
  /// P(window discusses a highlight), filled by the prediction stage.
  double probability = 0.0;

  size_t message_count() const { return last_message - first_message; }
};

/// Window generation parameters. The paper uses 25 s windows; candidate
/// windows are generated at `stride` (overlapping) and then de-overlapped,
/// keeping the denser window of each overlapping pair (Algorithm 1,
/// line 1: "When two sliding windows have an overlap, we keep the one
/// with more messages").
struct WindowOptions {
  double size = 25.0;
  double stride = 12.5;
};

/// Generates candidate windows over `[0, video_length]`. `messages` must
/// be sorted by timestamp. Windows with zero messages are dropped.
std::vector<SlidingWindow> GenerateCandidateWindows(
    const std::vector<Message>& messages, common::Seconds video_length,
    const WindowOptions& options);

/// Resolves overlaps: processes windows by descending message count and
/// keeps a window only if it does not overlap an already-kept one.
/// Returns the kept windows sorted by start time.
std::vector<SlidingWindow> DeduplicateOverlapping(
    std::vector<SlidingWindow> windows);

/// GenerateCandidateWindows + DeduplicateOverlapping.
std::vector<SlidingWindow> GenerateWindows(const std::vector<Message>& messages,
                                           common::Seconds video_length,
                                           const WindowOptions& options);

/// Finds the message-count peak inside `span`: the messages' timestamps
/// are binned at 1 s, Gaussian-smoothed (sigma 2 s), and the highest bin's
/// center is returned. Falls back to the span center when the range holds
/// no messages. `timestamps` must be sorted (see `Timestamps`).
common::Seconds FindMessagePeak(const std::vector<common::Seconds>& timestamps,
                                const common::Interval& span);

/// Returns true if the messages are sorted by timestamp (a precondition of
/// every function in this header).
bool MessagesSorted(const std::vector<Message>& messages);

}  // namespace lightor::core

#endif  // LIGHTOR_CORE_WINDOW_H_
