#include <gtest/gtest.h>

#include <sstream>

#include <atomic>
#include <numeric>

#include "common/csv.h"
#include "common/interval.h"
#include "common/parallel.h"
#include "common/strings.h"

namespace lightor::common {
namespace {

TEST(IntervalTest, LengthAndValidity) {
  EXPECT_DOUBLE_EQ(Interval(1.0, 4.0).Length(), 3.0);
  EXPECT_DOUBLE_EQ(Interval(4.0, 1.0).Length(), 0.0);
  EXPECT_TRUE(Interval(1.0, 1.0).Valid());
  EXPECT_FALSE(Interval(2.0, 1.0).Valid());
}

TEST(IntervalTest, ContainsPointAndInterval) {
  const Interval iv(10.0, 20.0);
  EXPECT_TRUE(iv.Contains(10.0));
  EXPECT_TRUE(iv.Contains(20.0));
  EXPECT_FALSE(iv.Contains(9.999));
  EXPECT_TRUE(iv.Contains(Interval(12.0, 18.0)));
  EXPECT_FALSE(iv.Contains(Interval(12.0, 21.0)));
}

TEST(IntervalTest, OverlapSemantics) {
  const Interval a(0.0, 10.0);
  EXPECT_TRUE(a.Overlaps(Interval(10.0, 20.0)));  // closed intervals touch
  EXPECT_FALSE(a.Overlaps(Interval(10.1, 20.0)));
  EXPECT_DOUBLE_EQ(a.OverlapLength(Interval(5.0, 20.0)), 5.0);
  EXPECT_DOUBLE_EQ(a.OverlapLength(Interval(20.0, 30.0)), 0.0);
}

TEST(IntervalTest, Iou) {
  EXPECT_DOUBLE_EQ(Interval(0, 10).Iou(Interval(0, 10)), 1.0);
  EXPECT_DOUBLE_EQ(Interval(0, 10).Iou(Interval(5, 15)), 5.0 / 15.0);
  EXPECT_DOUBLE_EQ(Interval(0, 10).Iou(Interval(20, 30)), 0.0);
}

TEST(IntervalTest, ShiftAndClamp) {
  EXPECT_EQ(Interval(1, 2).Shifted(10.0), Interval(11, 12));
  EXPECT_EQ(Interval(-5, 50).Clamped(0.0, 10.0), Interval(0, 10));
  EXPECT_DOUBLE_EQ(Interval(3, 7).Center(), 5.0);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpties) {
  const auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringsTest, ToLowerAndAffixes) {
  EXPECT_EQ(ToLower("PogChamp"), "pogchamp");
  EXPECT_TRUE(StartsWith("dota2_channel3_v1", "dota2"));
  EXPECT_FALSE(StartsWith("x", "xyz"));
  EXPECT_TRUE(EndsWith("chat.log", ".log"));
  EXPECT_FALSE(EndsWith(".log", "chat.log"));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringsTest, FormatTimestamp) {
  EXPECT_EQ(FormatTimestamp(0.0), "0:00:00");
  EXPECT_EQ(FormatTimestamp(3661.0), "1:01:01");
  EXPECT_EQ(FormatTimestamp(-5.0), "0:00:00");
  EXPECT_EQ(FormatTimestamp(7325.4), "2:02:05");
}

TEST(CsvWriterTest, EscapesSpecialCells) {
  std::ostringstream out;
  CsvWriter writer(&out);
  writer.WriteHeader({"a", "b"});
  writer.WriteRow({"plain", "with,comma"});
  writer.WriteRow({"with\"quote", "with\nnewline"});
  EXPECT_EQ(out.str(),
            "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",\"with\nnewline\"\n");
  EXPECT_EQ(writer.rows_written(), 3u);
}

TEST(JsonAppendTest, StringEscapes) {
  std::string out;
  AppendJsonString("a\"b\\c\n\t\r\b\f\x01\x1f" "z", out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\r\\b\\f\\u0001\\u001fz\"");
  out.clear();
  AppendJsonString("\xC3\xA9\x7f", out);  // UTF-8 and DEL pass through
  EXPECT_EQ(out, "\"\xC3\xA9\x7f\"");
}

TEST(JsonAppendTest, Numbers) {
  const std::pair<double, const char*> cases[] = {
      {0.0, "0"},
      {-0.0, "0"},
      {5.0, "5"},
      {-42.0, "-42"},
      {0.5, "0.5"},
      {0.1, "0.10000000000000001"},
      {1e-7, "9.9999999999999995e-08"},
      {9007199254740993.0, "9007199254740992"},  // 2^53 + 1 rounds
      {9.1e18, "9100000000000000000"},
      {1e19, "1e+19"},
      {-1e19, "-1e+19"},
  };
  for (const auto& [value, want] : cases) {
    std::string out;
    AppendJsonNumber(value, out);
    EXPECT_EQ(out, want) << value;
  }
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "2.5"});
  std::ostringstream out;
  table.Print(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("| name"), std::string::npos);
  EXPECT_NE(rendered.find("| longer-name"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(500);
  ParallelFor(500, [&](size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, DeterministicPerIndexResults) {
  std::vector<double> out(1000, 0.0);
  ParallelFor(1000, [&](size_t i) { out[i] = static_cast<double>(i) * 2.0; });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 2.0);
  }
}

TEST(ParallelForTest, EdgeCases) {
  int calls = 0;
  ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
  // Explicit single thread degrades to a plain loop.
  std::vector<int> order;
  ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> visits(3);
  ParallelFor(3, [&](size_t i) { visits[i].fetch_add(1); }, 64);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

}  // namespace
}  // namespace lightor::common
