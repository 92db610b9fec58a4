#include "core/window.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/stats.h"

namespace lightor::core {

bool MessagesSorted(const std::vector<Message>& messages) {
  return std::is_sorted(messages.begin(), messages.end(),
                        [](const Message& a, const Message& b) {
                          return a.timestamp < b.timestamp;
                        });
}

namespace {

/// Index of the first message with timestamp >= t.
size_t LowerBound(const std::vector<Message>& messages, common::Seconds t) {
  const auto it = std::lower_bound(
      messages.begin(), messages.end(), t,
      [](const Message& m, common::Seconds v) { return m.timestamp < v; });
  return static_cast<size_t>(it - messages.begin());
}

}  // namespace

std::vector<SlidingWindow> GenerateCandidateWindows(
    const std::vector<Message>& messages, common::Seconds video_length,
    const WindowOptions& options) {
  assert(MessagesSorted(messages));
  assert(options.size > 0.0 && options.stride > 0.0);
  std::vector<SlidingWindow> windows;
  for (double start = 0.0; start < video_length; start += options.stride) {
    SlidingWindow w;
    w.span = common::Interval(start, std::min(start + options.size,
                                              video_length));
    w.first_message = LowerBound(messages, w.span.start);
    w.last_message = LowerBound(messages, w.span.end);
    if (w.message_count() > 0) windows.push_back(w);
  }
  return windows;
}

std::vector<SlidingWindow> DeduplicateOverlapping(
    std::vector<SlidingWindow> windows) {
  std::sort(windows.begin(), windows.end(),
            [](const SlidingWindow& a, const SlidingWindow& b) {
              if (a.message_count() != b.message_count()) {
                return a.message_count() > b.message_count();
              }
              return a.span.start < b.span.start;
            });
  std::vector<SlidingWindow> kept;
  for (const auto& w : windows) {
    // Positive-length overlap only: windows that merely touch at a
    // boundary point (adjacent tiles) are not overlapping.
    const bool overlaps_kept =
        std::any_of(kept.begin(), kept.end(), [&](const SlidingWindow& k) {
          return k.span.OverlapLength(w.span) > 0.0;
        });
    if (!overlaps_kept) kept.push_back(w);
  }
  std::sort(kept.begin(), kept.end(),
            [](const SlidingWindow& a, const SlidingWindow& b) {
              return a.span.start < b.span.start;
            });
  return kept;
}

std::vector<SlidingWindow> GenerateWindows(const std::vector<Message>& messages,
                                           common::Seconds video_length,
                                           const WindowOptions& options) {
  return DeduplicateOverlapping(
      GenerateCandidateWindows(messages, video_length, options));
}

common::Seconds FindMessagePeak(const std::vector<common::Seconds>& timestamps,
                                const common::Interval& span) {
  assert(std::is_sorted(timestamps.begin(), timestamps.end()));
  const double length = span.Length();
  if (length <= 0.0) return span.start;
  const size_t n_bins = static_cast<size_t>(std::ceil(length)) + 1;
  std::vector<double> bins(n_bins, 0.0);
  const auto first =
      std::lower_bound(timestamps.begin(), timestamps.end(), span.start);
  const auto last = std::lower_bound(first, timestamps.end(), span.end);
  if (first == last) return span.Center();
  for (auto it = first; it != last; ++it) {
    const size_t bin =
        std::min(n_bins - 1, static_cast<size_t>(*it - span.start));
    bins[bin] += 1.0;
  }
  const std::vector<double> smooth = common::GaussianSmooth(bins, 2.0);
  const size_t peak_bin = static_cast<size_t>(
      std::max_element(smooth.begin(), smooth.end()) - smooth.begin());
  return span.start + static_cast<double>(peak_bin) + 0.5;
}

}  // namespace lightor::core
