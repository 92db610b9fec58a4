#include <gtest/gtest.h>

#include "core/window.h"

namespace lightor::core {
namespace {

std::vector<Message> MessagesAt(const std::vector<double>& times) {
  std::vector<Message> out;
  for (double t : times) {
    Message m;
    m.timestamp = t;
    m.user = "u";
    m.text = "hi";
    out.push_back(m);
  }
  return out;
}

TEST(WindowTest, MessagesSortedCheck) {
  EXPECT_TRUE(MessagesSorted(MessagesAt({1, 2, 3})));
  EXPECT_FALSE(MessagesSorted(MessagesAt({3, 2})));
  EXPECT_TRUE(MessagesSorted({}));
}

TEST(WindowTest, CandidateWindowsCoverMessages) {
  const auto messages = MessagesAt({5, 6, 30, 31, 32, 90});
  WindowOptions opts;
  opts.size = 25.0;
  opts.stride = 25.0;
  const auto windows = GenerateCandidateWindows(messages, 100.0, opts);
  // Non-overlapping stride: [0,25) holds 2, [25,50) holds 3, [75,100) 1.
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].message_count(), 2u);
  EXPECT_EQ(windows[1].message_count(), 3u);
  EXPECT_EQ(windows[2].message_count(), 1u);
}

TEST(WindowTest, EmptyWindowsDropped) {
  const auto messages = MessagesAt({5.0});
  WindowOptions opts;
  opts.size = 10.0;
  opts.stride = 10.0;
  const auto windows = GenerateCandidateWindows(messages, 100.0, opts);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].span.start, 0.0);
}

TEST(WindowTest, LastWindowClampedToVideoLength) {
  const auto messages = MessagesAt({98.0});
  WindowOptions opts;
  opts.size = 25.0;
  opts.stride = 25.0;
  const auto windows = GenerateCandidateWindows(messages, 100.0, opts);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_LE(windows[0].span.end, 100.0);
}

TEST(WindowTest, DeduplicateKeepsDenserWindow) {
  // Overlapping candidates at stride < size: the densest must win.
  const auto messages = MessagesAt({10, 11, 12, 13, 20, 21});
  WindowOptions opts;
  opts.size = 20.0;
  opts.stride = 10.0;
  auto candidates = GenerateCandidateWindows(messages, 60.0, opts);
  const auto kept = DeduplicateOverlapping(candidates);
  // Kept windows must be mutually non-overlapping (touching at a
  // boundary point is allowed).
  for (size_t i = 1; i < kept.size(); ++i) {
    EXPECT_DOUBLE_EQ(kept[i].span.OverlapLength(kept[i - 1].span), 0.0);
  }
  // The window containing 4 messages ([0,20) or [10,30)) must survive.
  size_t max_count = 0;
  for (const auto& w : kept) max_count = std::max(max_count, w.message_count());
  EXPECT_GE(max_count, 4u);
}

TEST(WindowTest, DeduplicateReturnsSortedByStart) {
  const auto messages = MessagesAt({10, 50, 90, 91, 92});
  WindowOptions opts;
  opts.size = 20.0;
  opts.stride = 10.0;
  const auto kept =
      DeduplicateOverlapping(GenerateCandidateWindows(messages, 120.0, opts));
  for (size_t i = 1; i < kept.size(); ++i) {
    EXPECT_LT(kept[i - 1].span.start, kept[i].span.start);
  }
}

TEST(WindowTest, GenerateWindowsComposes) {
  const auto messages = MessagesAt({10, 11, 40, 41, 42});
  WindowOptions opts;
  const auto windows = GenerateWindows(messages, 100.0, opts);
  EXPECT_FALSE(windows.empty());
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(windows[i].span.OverlapLength(windows[i - 1].span), 0.0);
  }
}

TEST(FindMessagePeakTest, FindsDensestSecond) {
  // Cluster at ~42 s, sparse elsewhere.
  const auto messages =
      MessagesAt({10, 20, 41.2, 41.5, 41.9, 42.1, 42.4, 42.8, 60});
  const double peak =
      FindMessagePeak(Timestamps(messages), common::Interval(0, 80));
  EXPECT_NEAR(peak, 42.0, 3.0);
}

TEST(FindMessagePeakTest, EmptyRangeFallsBackToCenter) {
  const auto messages = MessagesAt({10.0});
  const double peak =
      FindMessagePeak(Timestamps(messages), common::Interval(50, 70));
  EXPECT_DOUBLE_EQ(peak, 60.0);
}

TEST(FindMessagePeakTest, DegenerateSpan) {
  const auto messages = MessagesAt({10.0});
  EXPECT_DOUBLE_EQ(
      FindMessagePeak(Timestamps(messages), common::Interval(5, 5)), 5.0);
}

TEST(FindMessagePeakTest, PeakInsideSpanBounds) {
  const auto messages = MessagesAt({10, 10.1, 10.2, 30, 30.1, 30.2, 30.3});
  const common::Interval span(25.0, 35.0);
  const double peak = FindMessagePeak(Timestamps(messages), span);
  EXPECT_GE(peak, span.start);
  EXPECT_LE(peak, span.end);
  EXPECT_NEAR(peak, 30.3, 2.5);
}

}  // namespace
}  // namespace lightor::core
