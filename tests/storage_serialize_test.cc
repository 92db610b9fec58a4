#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "storage/record.h"
#include "storage/serialize.h"

namespace lightor::storage {
namespace {

TEST(EncoderDecoderTest, RoundTripScalars) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFULL);
  enc.PutDouble(3.14159);
  enc.PutString("hello");
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.GetU8().value(), 0xAB);
  EXPECT_EQ(dec.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(dec.GetDouble().value(), 3.14159);
  EXPECT_EQ(dec.GetString().value(), "hello");
  EXPECT_TRUE(dec.exhausted());
}

TEST(EncoderDecoderTest, EmptyStringAndSpecialDoubles) {
  Encoder enc;
  enc.PutString("");
  enc.PutDouble(-0.0);
  enc.PutDouble(1e308);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.GetString().value(), "");
  EXPECT_DOUBLE_EQ(dec.GetDouble().value(), -0.0);
  EXPECT_DOUBLE_EQ(dec.GetDouble().value(), 1e308);
}

TEST(DecoderTest, UnderrunReportsCorruption) {
  Encoder enc;
  enc.PutU8(1);
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.GetU32().status().IsCorruption());
  Decoder dec2(enc.bytes());
  ASSERT_TRUE(dec2.GetU8().ok());
  EXPECT_TRUE(dec2.GetU8().status().IsCorruption());
}

TEST(DecoderTest, StringLengthOverrun) {
  Encoder enc;
  enc.PutU32(100);  // claims 100 bytes, provides none
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.GetString().status().IsCorruption());
}

TEST(Crc32Test, KnownValueAndSensitivity) {
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
  uint8_t tweaked[sizeof(data)];
  memcpy(tweaked, data, sizeof(data));
  tweaked[0] = '0';
  EXPECT_NE(Crc32(tweaked, sizeof(data)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

/// The byte-at-a-time CRC-32 the sliced table-driven `Crc32` must match
/// bit for bit.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// Every length 0..1024 at every start offset 0..7: covers each split of a
// buffer into an unaligned head, whole 8-byte steps and a tail.
TEST(Crc32Test, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  std::mt19937 gen(20200420);
  std::vector<uint8_t> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(gen());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesByteWiseReferenceOnRandom64KiBBuffers) {
  std::mt19937 gen(7);
  std::vector<uint8_t> buf(64 * 1024);
  for (int round = 0; round < 16; ++round) {
    for (auto& b : buf) b = static_cast<uint8_t>(gen());
    ASSERT_EQ(Crc32(buf.data(), buf.size()),
              ReferenceCrc32(buf.data(), buf.size()))
        << "round " << round;
  }
  std::vector<uint8_t> ones(buf.size(), 0xFF), zeros(buf.size(), 0x00);
  EXPECT_EQ(Crc32(ones.data(), ones.size()),
            ReferenceCrc32(ones.data(), ones.size()));
  EXPECT_EQ(Crc32(zeros.data(), zeros.size()),
            ReferenceCrc32(zeros.data(), zeros.size()));
}

TEST(EncoderTest, SetU32AtPatchesInPlace) {
  Encoder enc(16);
  enc.PutU32(0);
  enc.PutString("x");
  enc.SetU32At(0, 0xA1B2C3D4u);
  EXPECT_EQ(enc.size(), 4u + 4u + 1u);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.GetU32().value(), 0xA1B2C3D4u);
  EXPECT_EQ(dec.GetString().value(), "x");
}

std::vector<ChatRecord> SomeChat(const std::string& video_id, int n) {
  std::vector<ChatRecord> records;
  for (int i = 0; i < n; ++i) {
    records.push_back({video_id, 0.5 * i, "user" + std::to_string(i % 7),
                       i % 3 == 0 ? "" : "msg " + std::to_string(i)});
  }
  return records;
}

TEST(ChatBatchCodecTest, RoundTripWithExactSize) {
  const std::string video_id = "dota2_channel3_v14";
  for (int n : {0, 1, 5, 300}) {
    const auto records = SomeChat(video_id, n);
    Encoder enc(ChatBatchPayloadSize(video_id, records));
    EncodeChatBatch(video_id, records, enc);
    EXPECT_EQ(enc.size(), ChatBatchPayloadSize(video_id, records));
    const auto decoded = DecodeChatPayload(enc.bytes());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), records) << n << " messages";
  }
}

TEST(ChatBatchCodecTest, SingleMessagePayloadStillDecodes) {
  const ChatRecord rec{"v", 12.5, "viewer", "Pog"};
  const auto decoded = DecodeChatPayload(rec.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0], rec);
}

TEST(ChatBatchCodecTest, DamagedBatchIsCorruption) {
  const auto records = SomeChat("v", 20);
  Encoder enc;
  EncodeChatBatch("v", records, enc);
  // Truncated anywhere past the tag, a batch is corrupt, never a prefix.
  for (size_t cut = 4; cut < enc.size(); cut += 7) {
    std::vector<uint8_t> bytes(enc.bytes().begin(),
                               enc.bytes().begin() + static_cast<long>(cut));
    EXPECT_TRUE(DecodeChatPayload(bytes).status().IsCorruption())
        << "cut at " << cut;
  }
  // Trailing garbage and a count the payload cannot hold are rejected.
  std::vector<uint8_t> trailing = enc.bytes();
  trailing.push_back(0);
  EXPECT_TRUE(DecodeChatPayload(trailing).status().IsCorruption());
  std::vector<uint8_t> huge = enc.bytes();
  const size_t count_at = 4 + 4 + 1;  // tag, then the string "v"
  huge[count_at + 3] = 0x7F;
  EXPECT_TRUE(DecodeChatPayload(huge).status().IsCorruption());
}

TEST(ChatRecordTest, RoundTrip) {
  ChatRecord rec;
  rec.video_id = "dota2_channel0_v1";
  rec.timestamp = 1234.5;
  rec.user = "viewer42";
  rec.text = "PogChamp what a play!!";
  const auto decoded = ChatRecord::Decode(rec.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), rec);
}

TEST(InteractionRecordTest, RoundTripAllEventTypes) {
  for (const auto event :
       {StoredInteraction::kPlay, StoredInteraction::kPause,
        StoredInteraction::kSeekForward, StoredInteraction::kSeekBackward}) {
    InteractionRecord rec;
    rec.video_id = "v";
    rec.user = "u";
    rec.session_id = 77;
    rec.event = event;
    rec.wall_time = 5.5;
    rec.position = 100.0;
    rec.target = 80.0;
    const auto decoded = InteractionRecord::Decode(rec.Encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), rec);
  }
}

TEST(InteractionRecordTest, RejectsBadEventType) {
  InteractionRecord rec;
  rec.video_id = "v";
  auto bytes = rec.Encode();
  // The event byte follows video_id (4+1), user (4), session (8).
  bytes[4 + 1 + 4 + 8] = 99;
  EXPECT_TRUE(InteractionRecord::Decode(bytes).status().IsCorruption());
}

TEST(HighlightRecordTest, RoundTrip) {
  HighlightRecord rec;
  rec.video_id = "v";
  rec.dot_index = 3;
  rec.dot_position = 1000.0;
  rec.start = 995.0;
  rec.end = 1020.0;
  rec.score = 0.93;
  rec.iteration = 4;
  rec.converged = true;
  const auto decoded = HighlightRecord::Decode(rec.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), rec);
}

TEST(RecordTest, TruncatedPayloadIsCorruption) {
  ChatRecord rec;
  rec.video_id = "video";
  rec.text = "message text";
  auto bytes = rec.Encode();
  bytes.resize(bytes.size() / 2);
  EXPECT_TRUE(ChatRecord::Decode(bytes).status().IsCorruption());
}

}  // namespace
}  // namespace lightor::storage
