#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/request_log.h"
#include "obs/trace.h"

namespace lightor::obs {
namespace {

// Tests use a private recorder instance so they don't race the global one.

TEST(ObsTraceTest, SpansRecordWithNesting) {
  TraceRecorder recorder(16);
  {
    ScopedSpan outer("outer", "test", &recorder);
    {
      ScopedSpan inner("inner", "test", &recorder);
    }
  }
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  // Children complete (and therefore record) before their parent.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[0].thread_id, events[1].thread_id);
  // The child's interval nests inside the parent's.
  EXPECT_GE(events[0].start_us, events[1].start_us);
  EXPECT_LE(events[0].start_us + events[0].duration_us,
            events[1].start_us + events[1].duration_us);
}

TEST(ObsTraceTest, SequenceIsCompletionOrder) {
  TraceRecorder recorder(8);
  { ScopedSpan a("a", "test", &recorder); }
  { ScopedSpan b("b", "test", &recorder); }
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[0].sequence, events[1].sequence);
  EXPECT_EQ(events[0].name, "a");
}

TEST(ObsTraceTest, RingWrapsOldestFirstAndCountsDropped) {
  TraceRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("span" + std::to_string(i), "test", &recorder);
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // The four youngest, oldest-first.
  EXPECT_EQ(events[0].name, "span6");
  EXPECT_EQ(events[3].name, "span9");
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].sequence, events[i].sequence);
  }
}

// The invariant the ring must preserve across wrap: for any two retained
// same-thread events that overlap in time, the deeper one lies inside the
// shallower one. Because children always record before parents, the
// oldest-first overwrite drops ancestors before descendants and can never
// leave a dangling child-outside-parent pair.
TEST(ObsTraceTest, WrapPreservesNestingInvariant) {
  TraceRecorder recorder(6);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan a("a" + std::to_string(i), "test", &recorder);
    {
      ScopedSpan b("b" + std::to_string(i), "test", &recorder);
      { ScopedSpan c("c" + std::to_string(i), "test", &recorder); }
    }
  }
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 6u);
  for (const auto& x : events) {
    for (const auto& y : events) {
      if (&x == &y || x.thread_id != y.thread_id) continue;
      if (x.depth <= y.depth) continue;
      const uint64_t x_end = x.start_us + x.duration_us;
      const uint64_t y_end = y.start_us + y.duration_us;
      const bool overlap = x.start_us < y_end && y.start_us < x_end;
      if (!overlap) continue;
      // x is deeper and overlaps y: x must be fully inside y.
      EXPECT_GE(x.start_us, y.start_us);
      EXPECT_LE(x_end, y_end);
    }
  }
}

TEST(ObsTraceTest, SetCapacityClears) {
  TraceRecorder recorder(4);
  { ScopedSpan a("a", "test", &recorder); }
  recorder.SetCapacity(2);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.capacity(), 2u);
  { ScopedSpan b("b", "test", &recorder); }
  { ScopedSpan c("c", "test", &recorder); }
  { ScopedSpan d("d", "test", &recorder); }
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.Events()[1].name, "d");
}

TEST(ObsTraceTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder(4);
  recorder.set_enabled(false);
  { ScopedSpan a("a", "test", &recorder); }
  EXPECT_EQ(recorder.size(), 0u);
  recorder.set_enabled(true);
  { ScopedSpan b("b", "test", &recorder); }
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(ObsTraceTest, ChromeDumpIsWellFormed) {
  TraceRecorder recorder(8);
  {
    ScopedSpan outer("outer \"quoted\"", "test", &recorder);
    { ScopedSpan inner("inner", "test", &recorder); }
  }
  const std::string json = recorder.DumpChromeTrace();
  // The JSON-array form: complete events with the required keys.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"outer \\\"quoted\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  // Balanced structure.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(ObsTraceTest, ExportersEscapeControlBytesAsUnicode) {
  // Every obs JSON writer shares the one escaper: a control byte comes
  // out as \u00XX (not flattened to a space), quotes and backslashes
  // escaped.
  TraceEvent span;
  span.name = std::string("span\x01\"") + "\\";
  span.category = "cat\x1f";
  const std::string trace = ChromeTraceJson({span});
  EXPECT_NE(trace.find("\"name\":\"span\\u0001\\\"\\\\\""), std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"cat\":\"cat\\u001f\""), std::string::npos) << trace;

  WideEvent event;
  event.route = "/visit\x02";
  event.method = "POST";
  event.keep_reason = "slow\n";
  const std::string wide = EncodeWideEventJson(event);
  EXPECT_NE(wide.find("\"route\":\"/visit\\u0002\""), std::string::npos)
      << wide;
  EXPECT_NE(wide.find("\"keep_reason\":\"slow\\n\""), std::string::npos)
      << wide;

  RegistrySnapshot snapshot;
  snapshot.counters.push_back(
      {"lightor_test_total", {{"label", "a\x03" "b"}}, 1});
  const std::string exported = ExportJson(snapshot);
  EXPECT_NE(exported.find("{\"label\":\"a\\u0003b\"}"), std::string::npos)
      << exported;
}

TEST(ObsTraceTest, TimerObservesIntoHistogram) {
  Histogram h({0.5, 1.0});
  { ScopedTimer timer(&h); }
  EXPECT_EQ(h.count(), 1u);
  { ScopedTimer timer(nullptr); }  // must be a safe no-op
}

TEST(ObsTraceTest, ThreadIdsAreDense) {
  const uint32_t here = TraceThreadId();
  EXPECT_EQ(TraceThreadId(), here);  // stable per thread
}

}  // namespace
}  // namespace lightor::obs
