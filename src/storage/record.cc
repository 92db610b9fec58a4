#include "storage/record.h"

#include "storage/serialize.h"

namespace lightor::storage {

std::vector<uint8_t> ChatRecord::Encode() const {
  Encoder enc;
  enc.PutString(video_id);
  enc.PutDouble(timestamp);
  enc.PutString(user);
  enc.PutString(text);
  return enc.Release();
}

common::Result<ChatRecord> ChatRecord::Decode(
    const std::vector<uint8_t>& bytes) {
  Decoder dec(bytes);
  ChatRecord rec;
  LIGHTOR_ASSIGN_OR_RETURN(rec.video_id, dec.GetString());
  LIGHTOR_ASSIGN_OR_RETURN(rec.timestamp, dec.GetDouble());
  LIGHTOR_ASSIGN_OR_RETURN(rec.user, dec.GetString());
  LIGHTOR_ASSIGN_OR_RETURN(rec.text, dec.GetString());
  return rec;
}

size_t ChatBatchPayloadSize(const std::string& video_id,
                            const std::vector<ChatRecord>& records) {
  size_t size = 4 + (4 + video_id.size()) + 4;
  for (const ChatRecord& rec : records) {
    size += 8 + (4 + rec.user.size()) + (4 + rec.text.size());
  }
  return size;
}

void EncodeChatBatch(const std::string& video_id,
                     const std::vector<ChatRecord>& records, Encoder& enc) {
  enc.PutU32(kChatBatchTag);
  enc.PutString(video_id);
  enc.PutU32(static_cast<uint32_t>(records.size()));
  for (const ChatRecord& rec : records) {
    enc.PutDouble(rec.timestamp);
    enc.PutString(rec.user);
    enc.PutString(rec.text);
  }
}

common::Result<std::vector<ChatRecord>> DecodeChatPayload(
    const std::vector<uint8_t>& bytes) {
  Decoder dec(bytes);
  std::vector<ChatRecord> records;
  if (dec.GetU32().value_or(0) != kChatBatchTag) {
    LIGHTOR_ASSIGN_OR_RETURN(ChatRecord rec, ChatRecord::Decode(bytes));
    records.push_back(std::move(rec));
    return records;
  }
  std::string video_id;
  LIGHTOR_ASSIGN_OR_RETURN(video_id, dec.GetString());
  uint32_t count = 0;
  LIGHTOR_ASSIGN_OR_RETURN(count, dec.GetU32());
  // Each message takes at least 16 bytes (timestamp + two lengths), so a
  // count the payload cannot hold is corruption, not a huge reserve.
  if (count > dec.remaining() / 16) {
    return common::Status::Corruption("chat batch: count overruns payload");
  }
  records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ChatRecord rec;
    rec.video_id = video_id;
    LIGHTOR_ASSIGN_OR_RETURN(rec.timestamp, dec.GetDouble());
    LIGHTOR_ASSIGN_OR_RETURN(rec.user, dec.GetString());
    LIGHTOR_ASSIGN_OR_RETURN(rec.text, dec.GetString());
    records.push_back(std::move(rec));
  }
  if (!dec.exhausted()) {
    return common::Status::Corruption("chat batch: trailing bytes");
  }
  return records;
}

std::vector<uint8_t> InteractionRecord::Encode() const {
  Encoder enc;
  enc.PutString(video_id);
  enc.PutString(user);
  enc.PutU64(session_id);
  enc.PutU8(static_cast<uint8_t>(event));
  enc.PutDouble(wall_time);
  enc.PutDouble(position);
  enc.PutDouble(target);
  return enc.Release();
}

common::Result<InteractionRecord> InteractionRecord::Decode(
    const std::vector<uint8_t>& bytes) {
  Decoder dec(bytes);
  InteractionRecord rec;
  LIGHTOR_ASSIGN_OR_RETURN(rec.video_id, dec.GetString());
  LIGHTOR_ASSIGN_OR_RETURN(rec.user, dec.GetString());
  LIGHTOR_ASSIGN_OR_RETURN(rec.session_id, dec.GetU64());
  uint8_t event_raw = 0;
  LIGHTOR_ASSIGN_OR_RETURN(event_raw, dec.GetU8());
  if (event_raw > static_cast<uint8_t>(StoredInteraction::kSeekBackward)) {
    return common::Status::Corruption("InteractionRecord: bad event type");
  }
  rec.event = static_cast<StoredInteraction>(event_raw);
  LIGHTOR_ASSIGN_OR_RETURN(rec.wall_time, dec.GetDouble());
  LIGHTOR_ASSIGN_OR_RETURN(rec.position, dec.GetDouble());
  LIGHTOR_ASSIGN_OR_RETURN(rec.target, dec.GetDouble());
  return rec;
}

std::vector<uint8_t> HighlightRecord::Encode() const {
  Encoder enc;
  enc.PutString(video_id);
  enc.PutU32(static_cast<uint32_t>(dot_index));
  enc.PutDouble(dot_position);
  enc.PutDouble(start);
  enc.PutDouble(end);
  enc.PutDouble(score);
  enc.PutU32(static_cast<uint32_t>(iteration));
  enc.PutU8(converged ? 1 : 0);
  return enc.Release();
}

common::Result<HighlightRecord> HighlightRecord::Decode(
    const std::vector<uint8_t>& bytes) {
  Decoder dec(bytes);
  HighlightRecord rec;
  LIGHTOR_ASSIGN_OR_RETURN(rec.video_id, dec.GetString());
  uint32_t dot_index = 0;
  LIGHTOR_ASSIGN_OR_RETURN(dot_index, dec.GetU32());
  rec.dot_index = static_cast<int32_t>(dot_index);
  LIGHTOR_ASSIGN_OR_RETURN(rec.dot_position, dec.GetDouble());
  LIGHTOR_ASSIGN_OR_RETURN(rec.start, dec.GetDouble());
  LIGHTOR_ASSIGN_OR_RETURN(rec.end, dec.GetDouble());
  LIGHTOR_ASSIGN_OR_RETURN(rec.score, dec.GetDouble());
  uint32_t iteration = 0;
  LIGHTOR_ASSIGN_OR_RETURN(iteration, dec.GetU32());
  rec.iteration = static_cast<int32_t>(iteration);
  uint8_t converged = 0;
  LIGHTOR_ASSIGN_OR_RETURN(converged, dec.GetU8());
  rec.converged = converged != 0;
  return rec;
}

std::vector<uint8_t> EncodeHighlightVersion(const std::string& video_id,
                                            uint64_t version) {
  Encoder enc;
  enc.PutU32(kHighlightVersionTag);
  enc.PutString(video_id);
  enc.PutU64(version);
  return enc.Release();
}

}  // namespace lightor::storage
