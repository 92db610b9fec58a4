#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/http.h"
#include "net/json_arena.h"
#include "net/loadgen.h"
#include "net/service.h"
#include "sim/viewer.h"
#include "test_stack.h"
#include "testing/json_tree.h"

namespace lightor::net {
namespace {

// ---------------------------------------------------------------------------
// Parser strictness: the arena JsonDoc, which decodes every wire body,
// against the independent heap-tree oracle (testing::JsonTree). Both
// must accept and reject the same inputs with byte-equal error strings.

struct ParseCase {
  std::string input;
  bool ok;
};

std::string Nested(int depth) {
  return std::string(depth, '[') + "1" + std::string(depth, ']');
}

std::vector<ParseCase> StrictnessCases() {
  return {
      // Scalars and whole-input rules.
      {"null", true},
      {"true", true},
      {"false", true},
      {"\"hi\"", true},
      {"  [1]  ", true},
      {"", false},
      {"   ", false},
      {"1 2", false},
      {"{} extra", false},
      {"[1,2]]", false},
      {"tru", false},
      {"nul", false},
      {"False", false},
      {"\xEF\xBB\xBF{}", false},  // byte-order mark
      // Numbers.
      {"0", true},
      {"-0", true},
      {"123", true},
      {"0.125", true},
      {"2.5E-1", true},
      {"1e-999", true},  // underflows to 0, still finite
      {"012", false},
      {"-012", false},
      {"+1", false},
      {"1.", false},
      {".5", false},
      {"-", false},
      {"-a", false},
      {"1e", false},
      {"1e+", false},
      {"NaN", false},
      {"Infinity", false},
      {"1e999", false},
      {"-1e999", false},
      // Containers, trailing commas, duplicate keys.
      {"{\"a\":1,\"b\":[true,null]}", true},
      {"[1,]", false},
      {"{\"a\":1,}", false},
      {"[,1]", false},
      {"{\"a\" 1}", false},
      {"{1:2}", false},
      {"[1 2]", false},
      {"{\"a\":1,\"a\":2}", false},
      {"{\"a\":1,\"\\u0061\":2}", false},  // duplicate after unescaping
      // Strings, escapes and surrogates.
      {"\"a\\nb\\\"\\\\\\/\\b\\f\\r\\t\"", true},
      {"\"\\u0041\\u00e9\"", true},
      {"\"\\uD83D\\uDE00\"", true},
      {"\"\\uD83D\"", false},          // lone high surrogate
      {"\"\\uD83Dx\"", false},         // high surrogate, no escape after
      {"\"\\uDE00\"", false},          // lone low surrogate
      {"\"\\uDE00\\uD83D\"", false},   // reversed pair
      {"\"\\uD83D\\u0041\"", false},   // high + non-low
      {"\"\\u12\"", false},
      {"\"\\u12G4\"", false},
      {"\"\\x41\"", false},
      {"\"unterminated", false},
      {"\"\\", false},
      {"\"raw\x01" "control\"", false},
      {"\"raw\ttab\"", false},
      // Depth cap: 64 nested containers parse, 65 do not.
      {Nested(64), true},
      {Nested(65), false},
      {"{\"a\":" + Nested(63) + "}", true},
      {"{\"a\":" + Nested(64) + "}", false},
  };
}

/// Same type, scalar, keys and order at every node.
void ExpectSameValue(JsonDoc::Ref arena, const testing::JsonTree& tree) {
  using Type = testing::JsonTree::Type;
  ASSERT_EQ(static_cast<int>(arena.type()), static_cast<int>(tree.type()));
  switch (tree.type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      EXPECT_EQ(arena.AsBool(), tree.AsBool());
      break;
    case Type::kNumber:
      EXPECT_EQ(arena.AsNumber(), tree.AsNumber());
      break;
    case Type::kString:
      EXPECT_EQ(arena.AsString(), tree.AsString());
      break;
    case Type::kArray: {
      ASSERT_EQ(arena.size(), tree.AsArray().size());
      JsonDoc::Ref item = arena.first_child();
      for (const testing::JsonTree& want : tree.AsArray()) {
        ExpectSameValue(item, want);
        item = item.next_sibling();
      }
      break;
    }
    case Type::kObject: {
      ASSERT_EQ(arena.size(), tree.AsObject().size());
      JsonDoc::Ref member = arena.first_child();
      for (const auto& [key, want] : tree.AsObject()) {
        EXPECT_EQ(member.key(), key);
        ExpectSameValue(member, want);
        member = member.next_sibling();
      }
      break;
    }
  }
}

TEST(JsonParseTest, ArenaAndOracleAgree) {
  for (const ParseCase& c : StrictnessCases()) {
    SCOPED_TRACE(c.input);
    auto arena = JsonDoc::Parse(c.input);
    auto oracle = testing::JsonTree::Parse(c.input);
    EXPECT_EQ(arena.ok(), c.ok);
    EXPECT_EQ(oracle.ok(), c.ok);
    if (arena.ok() && oracle.ok()) {
      ExpectSameValue(arena.value().root(), oracle.value());
    } else if (!arena.ok() && !oracle.ok()) {
      EXPECT_EQ(arena.status().ToString(), oracle.status().ToString());
    }
  }
}

TEST(JsonParseTest, ValuesDecode) {
  const std::string text =
      "{\"n\":-0.5,\"e\":2.5E-1,\"b\":true,\"z\":null,"
      "\"s\":\"a\\nb\\\"\\\\\\/\\u0041\\uD83D\\uDE00\",\"raw\":\"gg wp\","
      "\"list\":[1,\"two\",false]}";
  auto arena = JsonDoc::Parse(text);
  auto oracle = testing::JsonTree::Parse(text);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ExpectSameValue(arena.value().root(), oracle.value());
  const testing::JsonTree& tree = oracle.value();
  EXPECT_EQ(tree.AsObject().front().first, "n");  // input order kept
  EXPECT_EQ(tree.Find("n")->AsNumber(), -0.5);
  EXPECT_EQ(tree.Find("e")->AsNumber(), 0.25);
  EXPECT_TRUE(tree.Find("b")->AsBool());
  EXPECT_TRUE(tree.Find("z")->is_null());
  EXPECT_EQ(tree.Find("s")->AsString(), "a\nb\"\\/A\xF0\x9F\x98\x80");
  EXPECT_EQ(tree.Find("raw")->AsString(), "gg wp");
  EXPECT_EQ(tree.Find("list")->AsArray()[1].AsString(), "two");
  EXPECT_EQ(tree.Find("missing"), nullptr);
  EXPECT_EQ(tree.Find("n")->Find("a"), nullptr);  // non-object
  EXPECT_FALSE(arena.value().root().Find("missing"));
  EXPECT_FALSE(arena.value().root().Find("n").Find("a"));
}

// ---------------------------------------------------------------------------
// Wire codec round trips

storage::HighlightRecord MakeRecord(int index) {
  storage::HighlightRecord rec;
  rec.video_id = "vid-1";
  rec.dot_index = index;
  rec.dot_position = 10.5 * (index + 1);
  rec.start = rec.dot_position - 5.0;
  rec.end = rec.dot_position + 5.0;
  rec.score = 0.25 * (index + 1);
  rec.iteration = index;
  rec.converged = index % 2 == 0;
  return rec;
}

TEST(CodecTest, PageVisitRoundTrip) {
  serving::PageVisitRequest req;
  req.video_id = "vid-1";
  req.user = "alice";
  auto req_back = DecodePageVisitRequest(EncodeJson(req));
  ASSERT_TRUE(req_back.ok());
  EXPECT_EQ(req_back.value().video_id, "vid-1");
  EXPECT_EQ(req_back.value().user, "alice");

  serving::PageVisitResponse resp;
  resp.highlights = {MakeRecord(0), MakeRecord(1)};
  resp.first_visit = true;
  resp.snapshot_version = 7;
  resp.provisional = false;
  auto resp_back = DecodePageVisitResponse(EncodeJson(resp));
  ASSERT_TRUE(resp_back.ok());
  EXPECT_EQ(resp_back.value().highlights, resp.highlights);
  EXPECT_TRUE(resp_back.value().first_visit);
  EXPECT_EQ(resp_back.value().snapshot_version, 7u);
}

TEST(CodecTest, LogSessionRoundTripAllEventTypes) {
  serving::LogSessionRequest req;
  req.video_id = "vid-2";
  req.user = "bob";
  req.session_id = (uint64_t{3} << 32) | 9;
  const sim::InteractionType types[] = {
      sim::InteractionType::kPlay, sim::InteractionType::kPause,
      sim::InteractionType::kSeekForward, sim::InteractionType::kSeekBackward};
  double t = 0.0;
  for (const auto type : types) {
    sim::InteractionEvent event;
    event.wall_time = (t += 1.5);
    event.type = type;
    event.position = t * 10;
    event.target = t * 20;
    req.events.push_back(event);
  }
  auto back = DecodeLogSessionRequest(EncodeJson(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().video_id, "vid-2");
  EXPECT_EQ(back.value().session_id, req.session_id);
  ASSERT_EQ(back.value().events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.value().events[i].type, req.events[i].type) << i;
    EXPECT_DOUBLE_EQ(back.value().events[i].wall_time,
                     req.events[i].wall_time);
    EXPECT_DOUBLE_EQ(back.value().events[i].position, req.events[i].position);
    EXPECT_DOUBLE_EQ(back.value().events[i].target, req.events[i].target);
  }
}

TEST(CodecTest, IngestAndFinalizeRoundTrip) {
  serving::IngestChatRequest req;
  req.video_id = "live-1";
  core::Message m;
  m.timestamp = 12.25;
  m.user = "chatter";
  m.text = "gg \"wp\"";
  req.messages.push_back(m);
  auto req_back = DecodeIngestChatRequest(EncodeJson(req));
  ASSERT_TRUE(req_back.ok());
  ASSERT_EQ(req_back.value().messages.size(), 1u);
  EXPECT_EQ(req_back.value().messages[0].text, "gg \"wp\"");
  EXPECT_DOUBLE_EQ(req_back.value().messages[0].timestamp, 12.25);

  serving::IngestChatResponse resp;
  resp.accepted = 31;
  resp.rejected = 1;
  resp.provisional_published = true;
  resp.snapshot_version = 2;
  auto resp_back = DecodeIngestChatResponse(EncodeJson(resp));
  ASSERT_TRUE(resp_back.ok());
  EXPECT_EQ(resp_back.value().accepted, 31u);
  EXPECT_EQ(resp_back.value().rejected, 1u);
  EXPECT_TRUE(resp_back.value().provisional_published);

  serving::FinalizeStreamRequest freq;
  freq.video_id = "live-1";
  freq.video_length = 600.0;
  auto freq_back = DecodeFinalizeStreamRequest(EncodeJson(freq));
  ASSERT_TRUE(freq_back.ok());
  EXPECT_DOUBLE_EQ(freq_back.value().video_length, 600.0);

  serving::FinalizeStreamResponse fresp;
  fresp.highlights = {MakeRecord(2)};
  fresp.snapshot_version = 4;
  fresp.video_length = 601.5;
  auto fresp_back = DecodeFinalizeStreamResponse(EncodeJson(fresp));
  ASSERT_TRUE(fresp_back.ok());
  EXPECT_EQ(fresp_back.value().highlights, fresp.highlights);
  EXPECT_DOUBLE_EQ(fresp_back.value().video_length, 601.5);
}

TEST(CodecTest, GetHighlightsRoundTrip) {
  serving::GetHighlightsResponse resp;
  resp.highlights = {MakeRecord(0)};
  resp.snapshot_version = 9;
  resp.provisional = true;
  auto back = DecodeGetHighlightsResponse(EncodeJson(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().highlights, resp.highlights);
  EXPECT_TRUE(back.value().provisional);
}

TEST(CodecTest, StrictDecodeErrors) {
  // Malformed JSON, missing required field, wrong type: all errors.
  EXPECT_FALSE(DecodePageVisitRequest("not json").ok());
  EXPECT_FALSE(DecodePageVisitRequest("{}").ok());
  EXPECT_FALSE(DecodePageVisitRequest("{\"video_id\":7}").ok());
  EXPECT_FALSE(DecodeLogSessionRequest(
                   "{\"video_id\":\"v\",\"user\":\"u\",\"session_id\":1,"
                   "\"events\":[{\"wall_time\":0,\"type\":\"warp\","
                   "\"position\":0,\"target\":0}]}")
                   .ok());  // unknown event type
  // Unknown top-level fields are tolerated.
  EXPECT_TRUE(DecodePageVisitRequest(
                  "{\"video_id\":\"v\",\"future_field\":true}")
                  .ok());
}

TEST(CodecTest, ThrottleFieldsRoundTripAndTolerateOldServers) {
  serving::IngestChatResponse resp;
  resp.throttled = true;
  resp.retry_after_seconds = 2.5;
  auto back = DecodeIngestChatResponse(EncodeJson(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().throttled);
  EXPECT_DOUBLE_EQ(back.value().retry_after_seconds, 2.5);

  // A pre-admission server's body has no throttle fields; the decoder
  // must default them, not reject the frame.
  auto old = DecodeIngestChatResponse(
      "{\"accepted\":3,\"rejected\":0,\"provisional_published\":false,"
      "\"snapshot_version\":0}");
  ASSERT_TRUE(old.ok());
  EXPECT_FALSE(old.value().throttled);
  EXPECT_DOUBLE_EQ(old.value().retry_after_seconds, 0.0);
}

std::vector<serving::IngestChatRequest> MakeBatchFrame() {
  std::vector<serving::IngestChatRequest> batches;
  for (int c = 0; c < 3; ++c) {
    serving::IngestChatRequest req;
    req.video_id = "chan-" + std::to_string(c);
    for (int m = 0; m < 2 + c; ++m) {
      core::Message msg;
      msg.timestamp = c * 100.0 + m * 0.5;
      msg.user = "u" + std::to_string(m);
      msg.text = "line \"" + std::to_string(m) + "\" é";
      req.messages.push_back(std::move(msg));
    }
    batches.push_back(std::move(req));
  }
  return batches;
}

TEST(CodecTest, BatchIngestFrameRoundTrip) {
  const auto batches = MakeBatchFrame();
  auto back = DecodeIngestBatchRequest(EncodeIngestBatchRequest(batches));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), batches.size());
  for (size_t c = 0; c < batches.size(); ++c) {
    EXPECT_EQ(back.value()[c].video_id, batches[c].video_id);
    ASSERT_EQ(back.value()[c].messages.size(), batches[c].messages.size());
    for (size_t m = 0; m < batches[c].messages.size(); ++m) {
      EXPECT_DOUBLE_EQ(back.value()[c].messages[m].timestamp,
                       batches[c].messages[m].timestamp);
      EXPECT_EQ(back.value()[c].messages[m].user, batches[c].messages[m].user);
      EXPECT_EQ(back.value()[c].messages[m].text, batches[c].messages[m].text);
    }
  }

  std::vector<IngestBatchEntry> entries;
  IngestBatchEntry ok_entry;
  ok_entry.video_id = "chan-0";
  ok_entry.status = 200;
  ok_entry.response.accepted = 2;
  ok_entry.response.snapshot_version = 5;
  entries.push_back(ok_entry);
  IngestBatchEntry throttled;
  throttled.video_id = "chan-1";
  throttled.status = 429;
  throttled.response.throttled = true;
  throttled.response.retry_after_seconds = 1.25;
  entries.push_back(throttled);
  IngestBatchEntry conflict;
  conflict.video_id = "chan-2";
  conflict.status = 409;
  conflict.error = "recorded video";
  entries.push_back(conflict);

  auto entries_back = DecodeIngestBatchResponse(
      EncodeIngestBatchResponse(entries));
  ASSERT_TRUE(entries_back.ok()) << entries_back.status().ToString();
  ASSERT_EQ(entries_back.value().size(), 3u);
  EXPECT_EQ(entries_back.value()[0].status, 200);
  EXPECT_EQ(entries_back.value()[0].response.accepted, 2u);
  EXPECT_EQ(entries_back.value()[0].response.snapshot_version, 5u);
  EXPECT_EQ(entries_back.value()[1].status, 429);
  EXPECT_TRUE(entries_back.value()[1].response.throttled);
  EXPECT_DOUBLE_EQ(entries_back.value()[1].response.retry_after_seconds,
                   1.25);
  EXPECT_EQ(entries_back.value()[2].status, 409);
  EXPECT_EQ(entries_back.value()[2].error, "recorded video");
}

TEST(CodecTest, BatchDecodeMatchesJsonParseReference) {
  // The batch decoder runs over the arena JsonDoc parser; walk the same
  // wire bytes with the independent heap-tree oracle and require field-
  // for-field agreement.
  const std::string wire = EncodeIngestBatchRequest(MakeBatchFrame());
  auto arena = DecodeIngestBatchRequest(wire);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  auto tree = testing::JsonTree::Parse(wire);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_TRUE(tree.value().is_array());
  const auto& ref_batches = tree.value().AsArray();
  ASSERT_EQ(arena.value().size(), ref_batches.size());
  for (size_t c = 0; c < ref_batches.size(); ++c) {
    const testing::JsonTree* video_id = ref_batches[c].Find("video_id");
    ASSERT_NE(video_id, nullptr);
    EXPECT_EQ(arena.value()[c].video_id, video_id->AsString());
    const testing::JsonTree* messages = ref_batches[c].Find("messages");
    ASSERT_NE(messages, nullptr);
    ASSERT_TRUE(messages->is_array());
    ASSERT_EQ(arena.value()[c].messages.size(), messages->AsArray().size());
    for (size_t m = 0; m < messages->AsArray().size(); ++m) {
      const testing::JsonTree& ref = messages->AsArray()[m];
      EXPECT_DOUBLE_EQ(arena.value()[c].messages[m].timestamp,
                       ref.Find("timestamp")->AsNumber());
      EXPECT_EQ(arena.value()[c].messages[m].user,
                ref.Find("user")->AsString());
      EXPECT_EQ(arena.value()[c].messages[m].text,
                ref.Find("text")->AsString());
    }
  }
}

TEST(CodecTest, BatchStrictDecodeErrors) {
  // A batch frame must be a top-level array of single-frame objects.
  EXPECT_FALSE(DecodeIngestBatchRequest("{}").ok());
  EXPECT_FALSE(DecodeIngestBatchRequest("{\"video_id\":\"v\"}").ok());
  EXPECT_FALSE(DecodeIngestBatchRequest("[1]").ok());
  EXPECT_FALSE(DecodeIngestBatchRequest("[{\"messages\":[]}]").ok());
  EXPECT_FALSE(
      DecodeIngestBatchRequest("[{\"video_id\":\"v\",\"messages\":3}]").ok());
  EXPECT_FALSE(DecodeIngestBatchRequest("[").ok());
  // The empty frame is well-formed (zero channels).
  auto empty = DecodeIngestBatchRequest("[]");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

// ---------------------------------------------------------------------------
// Golden bytes: every wire body pinned byte for byte. The differential
// checks (loadgen, cluster passthrough, recovery) compare bodies across
// processes, so any encoder change must leave these strings untouched.

// Edge bytes every encoder must escape alike: quote, backslash, the named
// control escapes, a raw control byte, 2- and 4-byte UTF-8.
const std::string kEdgeText =
    "q\"b\\s\nn\bb\ff\x01" "z \xC3\xA9 \xF0\x9F\x98\x80";
// 2^53 + 1 is not a double: integer fields pass through double on the
// wire, so it prints as 2^53.
constexpr uint64_t kTwo53Plus1 = (uint64_t{1} << 53) + 1;
constexpr uint64_t kTenPow19 = 10000000000000000000ull;

storage::HighlightRecord EdgeRecord() {
  storage::HighlightRecord rec;
  rec.video_id = kEdgeText;
  rec.dot_index = 3;
  rec.dot_position = -0.0;
  rec.start = 0.1;
  rec.end = 1e19;
  rec.score = 1e-7;
  rec.iteration = 2;
  rec.converged = false;
  return rec;
}

core::Message MakeMessage(double timestamp, std::string user,
                          std::string text) {
  core::Message m;
  m.timestamp = timestamp;
  m.user = std::move(user);
  m.text = std::move(text);
  return m;
}

TEST(CodecTest, EncodingIsCanonical) {
  // The differential check depends on stable byte-for-byte encodings.
  serving::GetHighlightsResponse resp;
  resp.highlights = {MakeRecord(0)};
  resp.snapshot_version = 1;
  EXPECT_EQ(EncodeJson(resp), EncodeJson(resp));
  EXPECT_EQ(
      EncodeJson(resp),
      "{\"highlights\":[{\"video_id\":\"vid-1\",\"dot_index\":0,"
      "\"dot_position\":10.5,\"start\":5.5,\"end\":15.5,\"score\":0.25,"
      "\"iteration\":0,\"converged\":true}],\"snapshot_version\":1,"
      "\"provisional\":false}");
  resp.highlights = {EdgeRecord()};
  resp.snapshot_version = kTwo53Plus1;
  resp.provisional = true;
  EXPECT_EQ(EncodeJson(resp),
            "{\"highlights\":[{\"video_id\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z"
            " \303\251 \360\237\230\200\",\"dot_index\":3,\"dot_position\":0,"
            "\"start\":0.10000000000000001,\"end\":1e+19,"
            "\"score\":9.9999999999999995e-08,\"iteration\":2,"
            "\"converged\":false}],\"snapshot_version\":9007199254740992,"
            "\"provisional\":true}");

  serving::PageVisitRequest visit;
  visit.video_id = kEdgeText;
  visit.user = "viewer\x01";
  EXPECT_EQ(EncodeJson(visit),
            "{\"video_id\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360"
            "\237\230\200\",\"user\":\"viewer\\u0001\"}");
  visit.video_id = "v";
  visit.user.clear();  // optional "user" omitted
  EXPECT_EQ(EncodeJson(visit), "{\"video_id\":\"v\"}");

  serving::PageVisitResponse visited;
  visited.highlights = {MakeRecord(1), EdgeRecord()};
  visited.first_visit = true;
  visited.snapshot_version = kTenPow19;
  visited.provisional = true;
  EXPECT_EQ(EncodeJson(visited),
            "{\"highlights\":[{\"video_id\":\"vid-1\",\"dot_index\":1,"
            "\"dot_position\":21,\"start\":16,\"end\":26,\"score\":0.5,"
            "\"iteration\":1,\"converged\":false},"
            "{\"video_id\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360"
            "\237\230\200\",\"dot_index\":3,\"dot_position\":0,"
            "\"start\":0.10000000000000001,\"end\":1e+19,"
            "\"score\":9.9999999999999995e-08,\"iteration\":2,"
            "\"converged\":false}],\"first_visit\":true,"
            "\"snapshot_version\":-8446744073709551616,\"provisional\":true}");

  serving::LogSessionRequest log;
  log.video_id = "vid-2";
  log.user = kEdgeText;
  log.session_id = kTwo53Plus1;
  const double times[] = {-0.0, 0.1, 1e-7, 1e19};
  const sim::InteractionType types[] = {
      sim::InteractionType::kPlay, sim::InteractionType::kPause,
      sim::InteractionType::kSeekForward, sim::InteractionType::kSeekBackward};
  for (int i = 0; i < 4; ++i) {
    sim::InteractionEvent event;
    event.wall_time = times[i];
    event.type = types[i];
    event.position = times[(i + 1) % 4];
    event.target = static_cast<double>(kTwo53Plus1);
    log.events.push_back(event);
  }
  EXPECT_EQ(EncodeJson(log),
            "{\"video_id\":\"vid-2\","
            "\"user\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360\237\230"
            "\200\",\"session_id\":9007199254740992,"
            "\"events\":[{\"wall_time\":0,\"type\":\"play\","
            "\"position\":0.10000000000000001,\"target\":9007199254740992},"
            "{\"wall_time\":0.10000000000000001,\"type\":\"pause\","
            "\"position\":9.9999999999999995e-08,"
            "\"target\":9007199254740992},"
            "{\"wall_time\":9.9999999999999995e-08,\"type\":\"seek_forward\","
            "\"position\":1e+19,\"target\":9007199254740992},"
            "{\"wall_time\":1e+19,\"type\":\"seek_backward\",\"position\":0,"
            "\"target\":9007199254740992}]}");

  serving::IngestChatRequest ingest;
  ingest.video_id = "live-1";
  ingest.messages = {MakeMessage(0.1, kEdgeText, kEdgeText),
                     MakeMessage(1e19, "u", "")};
  EXPECT_EQ(EncodeJson(ingest),
            "{\"video_id\":\"live-1\","
            "\"messages\":[{\"timestamp\":0.10000000000000001,"
            "\"user\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360\237\230"
            "\200\",\"text\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360"
            "\237\230\200\"},{\"timestamp\":1e+19,\"user\":\"u\","
            "\"text\":\"\"}]}");

  serving::IngestChatResponse ingested;
  ingested.accepted = kTwo53Plus1;
  ingested.rejected = 1;
  ingested.provisional_published = true;
  ingested.snapshot_version = kTenPow19;
  ingested.throttled = true;
  ingested.retry_after_seconds = 0.1;
  EXPECT_EQ(EncodeJson(ingested),
            "{\"accepted\":9007199254740992,\"rejected\":1,"
            "\"provisional_published\":true,"
            "\"snapshot_version\":-8446744073709551616,\"throttled\":true,"
            "\"retry_after_seconds\":0.10000000000000001}");

  serving::FinalizeStreamRequest finalize;
  finalize.video_id = kEdgeText;
  finalize.video_length = 1e-7;
  EXPECT_EQ(EncodeJson(finalize),
            "{\"video_id\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360"
            "\237\230\200\",\"video_length\":9.9999999999999995e-08}");
  finalize.video_id = "v";
  finalize.video_length = -0.0;  // optional "video_length" omitted
  EXPECT_EQ(EncodeJson(finalize), "{\"video_id\":\"v\"}");

  serving::FinalizeStreamResponse finalized;
  finalized.highlights = {EdgeRecord()};
  finalized.snapshot_version = 0;
  finalized.video_length = 1e19;
  EXPECT_EQ(EncodeJson(finalized),
            "{\"highlights\":[{\"video_id\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z"
            " \303\251 \360\237\230\200\",\"dot_index\":3,\"dot_position\":0,"
            "\"start\":0.10000000000000001,\"end\":1e+19,"
            "\"score\":9.9999999999999995e-08,\"iteration\":2,"
            "\"converged\":false}],\"snapshot_version\":0,"
            "\"video_length\":1e+19}");

  serving::RefineReport report;
  report.video_id = kEdgeText;
  report.dots_updated = 2;
  report.sessions_consumed = kTwo53Plus1;
  serving::DotRefineOutcome moved;
  moved.dot_index = 0;
  moved.updated = true;
  moved.type = core::DotType::kTypeI;
  moved.enough_plays = true;
  moved.plays_used = 12;
  moved.old_position = 0.1;
  moved.new_position = -0.0;
  moved.converged = true;
  serving::DotRefineOutcome failed;
  failed.dot_index = 1;
  failed.status = common::Status::IoError(kEdgeText);
  failed.old_position = 1e19;
  failed.new_position = 1e-7;
  report.dots = {moved, failed};
  EXPECT_EQ(EncodeJson(report),
            "{\"video_id\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360"
            "\237\230\200\",\"dots_updated\":2,"
            "\"sessions_consumed\":9007199254740992,"
            "\"dots\":[{\"dot_index\":0,\"status\":\"OK\",\"updated\":true,"
            "\"type\":\"I\",\"enough_plays\":true,\"plays_used\":12,"
            "\"old_position\":0.10000000000000001,\"new_position\":0,"
            "\"converged\":true},{\"dot_index\":1,"
            "\"status\":\"IoError: q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 "
            "\360\237\230\200\",\"updated\":false,\"type\":\"II\","
            "\"enough_plays\":false,\"plays_used\":0,\"old_position\":1e+19,"
            "\"new_position\":9.9999999999999995e-08,\"converged\":false}]}");
  EXPECT_EQ(EncodeJson(serving::RefineReport{}),
            "{\"video_id\":\"\",\"dots_updated\":0,\"sessions_consumed\":0,"
            "\"dots\":[]}");

  EXPECT_EQ(EncodeIngestBatchRequest({}), "[]");
  serving::IngestChatRequest empty_channel;
  empty_channel.video_id = "chan-\x01";
  EXPECT_EQ(EncodeIngestBatchRequest({ingest, empty_channel}),
            "[{\"video_id\":\"live-1\","
            "\"messages\":[{\"timestamp\":0.10000000000000001,"
            "\"user\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360\237\230"
            "\200\",\"text\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360"
            "\237\230\200\"},{\"timestamp\":1e+19,\"user\":\"u\","
            "\"text\":\"\"}]},{\"video_id\":\"chan-\\u0001\","
            "\"messages\":[]}]");

  std::vector<IngestBatchEntry> entries(4);
  entries[0].video_id = "chan-0";  // 200: response fields, no "error"
  entries[0].response = ingested;
  entries[1].video_id = "chan-1";  // 429: response fields and "error"
  entries[1].status = 429;
  entries[1].error = kEdgeText;
  entries[1].response.throttled = true;
  entries[1].response.retry_after_seconds = 1e-7;
  entries[2].video_id = kEdgeText;  // 409: no response fields
  entries[2].status = 409;
  entries[2].error = "recorded video";
  entries[3].video_id = "chan-3";  // 404 without a message
  entries[3].status = 404;
  EXPECT_EQ(EncodeIngestBatchResponse(entries),
            "{\"entries\":[{\"accepted\":9007199254740992,\"rejected\":1,"
            "\"provisional_published\":true,"
            "\"snapshot_version\":-8446744073709551616,\"throttled\":true,"
            "\"retry_after_seconds\":0.10000000000000001,"
            "\"video_id\":\"chan-0\",\"status\":200},{\"accepted\":0,"
            "\"rejected\":0,\"provisional_published\":false,"
            "\"snapshot_version\":0,\"throttled\":true,"
            "\"retry_after_seconds\":9.9999999999999995e-08,"
            "\"video_id\":\"chan-1\",\"status\":429,"
            "\"error\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360\237"
            "\230\200\"},{\"video_id\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303"
            "\251 \360\237\230\200\",\"status\":409,"
            "\"error\":\"recorded video\"},{\"video_id\":\"chan-3\","
            "\"status\":404}]}");
  EXPECT_EQ(EncodeIngestBatchResponse({}), "{\"entries\":[]}");

  LoadGenReport load;
  load.requests = kTwo53Plus1;
  load.wire_errors = 1;
  load.status_2xx = 2;
  load.status_4xx = 3;
  load.status_5xx = 4;
  load.rejected_503 = 5;
  load.throttled_429 = 6;
  load.flash_cold_failures = 7;
  load.retries = 8;
  load.visits = 9;
  load.sessions = 10;
  load.refines = 11;
  load.ingests = 12;
  load.finalizes = 13;
  load.seconds = 0.1;
  load.throughput_rps = 1e19;
  load.p50_ms = 1e-7;
  load.p95_ms = -0.0;
  load.p99_ms = 2.5;
  load.max_ms = 7.0;
  load.provisional_p99_ms = 0.1;
  load.slowest = {{12.5, "visit", "0af7651916cd43dd8448eb211c80319c", 200},
                  {0.1, kEdgeText, "", 503}};
  load.op_latency = {{"visit", 9, 0.1, 1e-7}, {kEdgeText, 1, 2.0, 3.0}};
  load.slo = {{"ingest", 250.0, 0.1, true}, {kEdgeText, 1e-7, 1e19, false}};
  load.slo_ok = false;
  EXPECT_EQ(EncodeJson(load),
            "{\"requests\":9007199254740992,\"wire_errors\":1,"
            "\"status_2xx\":2,\"status_4xx\":3,\"status_5xx\":4,"
            "\"rejected_503\":5,\"throttled_429\":6,"
            "\"flash_cold_failures\":7,\"retries\":8,\"ops\":{\"visit\":9,"
            "\"session\":10,\"refine\":11,\"ingest\":12,\"finalize\":13},"
            "\"seconds\":0.10000000000000001,\"throughput_rps\":1e+19,"
            "\"latency\":{\"p50_ms\":9.9999999999999995e-08,\"p95_ms\":0,"
            "\"p99_ms\":2.5,\"max_ms\":7},"
            "\"provisional_p99_ms\":0.10000000000000001,"
            "\"slowest\":[{\"ms\":12.5,\"op\":\"visit\","
            "\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\","
            "\"status\":200},{\"ms\":0.10000000000000001,"
            "\"op\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360\237\230"
            "\200\",\"trace_id\":\"\",\"status\":503}],"
            "\"op_latency\":{\"visit\":{\"count\":9,"
            "\"p50_ms\":0.10000000000000001,"
            "\"p99_ms\":9.9999999999999995e-08},"
            "\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360\237\230\200\":{"
            "\"count\":1,\"p50_ms\":2,\"p99_ms\":3}},\"slo\":{\"ok\":false,"
            "\"targets\":[{\"op\":\"ingest\",\"target_p99_ms\":250,"
            "\"actual_p99_ms\":0.10000000000000001,\"ok\":true},"
            "{\"op\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360\237\230"
            "\200\",\"target_p99_ms\":9.9999999999999995e-08,"
            "\"actual_p99_ms\":1e+19,\"ok\":false}]}}");
  EXPECT_EQ(EncodeJson(LoadGenReport{}),
            "{\"requests\":0,\"wire_errors\":0,\"status_2xx\":0,"
            "\"status_4xx\":0,\"status_5xx\":0,\"rejected_503\":0,"
            "\"throttled_429\":0,\"flash_cold_failures\":0,\"retries\":0,"
            "\"ops\":{\"visit\":0,\"session\":0,\"refine\":0,\"ingest\":0,"
            "\"finalize\":0},\"seconds\":0,\"throughput_rps\":0,"
            "\"latency\":{\"p50_ms\":0,\"p95_ms\":0,\"p99_ms\":0,"
            "\"max_ms\":0},\"provisional_p99_ms\":0,\"slowest\":[],"
            "\"op_latency\":{},\"slo\":{\"ok\":true,\"targets\":[]}}");

  EXPECT_EQ(ErrorResponse(400, kEdgeText).body,
            "{\"error\":\"q\\\"b\\\\s\\nn\\bb\\ff\\u0001z \303\251 \360\237"
            "\230\200\"}");
  EXPECT_EQ(ErrorResponse(404, "unknown video").body,
            "{\"error\":\"unknown video\"}");
}

std::string FreshDir(const std::string& name) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           (name + "_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(WireGoldenTest, DebugChannelsBody) {
  // A stepping clock makes the staleness columns exact.
  auto now = std::make_shared<double>(0.0);
  const std::string dir = FreshDir("lightor_golden_channels");
  auto stack = testutil::MakeServingStack(
      dir + "/db", [now](serving::ServerOptions& options) {
        options.ingest_clock = [now] { return *now += 0.125; };
        options.stream_refresh_messages = 2;
      });
  serving::IngestChatRequest ingest;
  ingest.video_id = "chan-a";
  for (int i = 0; i < 3; ++i) {
    ingest.messages.push_back(
        MakeMessage(i + 0.5, "u" + std::to_string(i), "gg wp"));
  }
  ASSERT_TRUE(stack.server->IngestChat(ingest).ok());
  ingest.video_id = "chan-\"q\"\\\x01";
  ASSERT_TRUE(stack.server->IngestChat(ingest).ok());
  serving::FinalizeStreamRequest finalize;
  finalize.video_id = ingest.video_id;
  ASSERT_TRUE(stack.server->FinalizeStream(finalize).ok());

  const Router routes = BuildRoutes(stack.server.get());
  int error_status = 0;
  const HttpHandler* handler =
      routes.Find("GET", "/debug/channels", &error_status);
  ASSERT_NE(handler, nullptr);
  HttpRequest request;
  request.method = "GET";
  request.target = "/debug/channels";
  request.path = "/debug/channels";
  EXPECT_EQ((*handler)(request).body,
            "{\"channels\":[{\"video_id\":\"chan-\\\"q\\\"\\\\\\u0001\","
            "\"queued_messages\":0,\"admitted_messages\":3,"
            "\"throttled_batches\":0,\"rejected_messages\":0,\"publishes\":1,"
            "\"last_staleness_seconds\":0.125,"
            "\"max_staleness_seconds\":0.125,\"closed\":true},"
            "{\"video_id\":\"chan-a\",\"queued_messages\":0,"
            "\"admitted_messages\":3,\"throttled_batches\":0,"
            "\"rejected_messages\":0,\"publishes\":1,"
            "\"last_staleness_seconds\":0.125,"
            "\"max_staleness_seconds\":0.125,\"closed\":false}]}");
  std::filesystem::remove_all(dir);
}

TEST(WireGoldenTest, RouterHealthzAndMembershipBodies) {
  cluster::RouterOptions options;
  options.backends = {"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"};
  options.health_check_interval_seconds = 0;  // health driven by hand
  auto router = cluster::HighlightRouter::Create(std::move(options));
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  router.value()->fleet().SetHealth("127.0.0.1:1",
                                    cluster::BackendHealth::kHealthy);
  router.value()->fleet().SetHealth("127.0.0.1:3",
                                    cluster::BackendHealth::kDown);
  HttpClient client("127.0.0.1", router.value()->port());
  auto healthz = client.Get("/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz.value().body,
            "{\"status\":\"ok\",\"role\":\"router\",\"ring_size\":3,"
            "\"backends\":[{\"address\":\"127.0.0.1:1\","
            "\"health\":\"healthy\"},{\"address\":\"127.0.0.1:2\","
            "\"health\":\"unknown\"},{\"address\":\"127.0.0.1:3\","
            "\"health\":\"down\"}]}");
  auto membership = client.Get("/admin/membership");
  ASSERT_TRUE(membership.ok()) << membership.status().ToString();
  EXPECT_EQ(membership.value().body,
            "{\"version\":1,\"backends\":[{\"address\":\"127.0.0.1:1\","
            "\"health\":\"healthy\"},{\"address\":\"127.0.0.1:2\","
            "\"health\":\"unknown\"},{\"address\":\"127.0.0.1:3\","
            "\"health\":\"down\"}]}");
  router.value()->Shutdown();
}

}  // namespace
}  // namespace lightor::net
