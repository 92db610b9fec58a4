#ifndef LIGHTOR_STORAGE_RECORD_H_
#define LIGHTOR_STORAGE_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace lightor::storage {

/// One crawled chat message, keyed by video.
struct ChatRecord {
  std::string video_id;
  double timestamp = 0.0;
  std::string user;
  std::string text;

  std::vector<uint8_t> Encode() const;
  static common::Result<ChatRecord> Decode(const std::vector<uint8_t>& bytes);
  friend bool operator==(const ChatRecord&, const ChatRecord&) = default;
};

class Encoder;

/// A whole video's chat as one chat-log payload, the crawler's unit of
/// write: a crawl is one append, so after a crash recovery finds either
/// all of the video's chat or none of it.
///
///   [u32 kChatBatchTag][string video_id][u32 count]
///   count x [f64 timestamp][string user][string text]
///
/// A single-message payload (`ChatRecord::Encode`) starts with the u32
/// length of its video id, which is never the tag: such a string would
/// need a payload past the 4 GiB a frame's u32 length can describe.
inline constexpr uint32_t kChatBatchTag = 0xFFFFFFFFu;

/// Encoded size of the batch payload of `records`, every one of which
/// belongs to `video_id`.
size_t ChatBatchPayloadSize(const std::string& video_id,
                            const std::vector<ChatRecord>& records);

/// Appends that payload (exactly `ChatBatchPayloadSize` bytes) to `enc`.
void EncodeChatBatch(const std::string& video_id,
                     const std::vector<ChatRecord>& records, Encoder& enc);

/// Decodes one chat-log payload of either kind into its records: one for
/// a single-message payload, the whole video's chat for a batch.
common::Result<std::vector<ChatRecord>> DecodeChatPayload(
    const std::vector<uint8_t>& bytes);

/// Frontend interaction kinds (mirrors sim::InteractionType; stored as a
/// stable wire value).
enum class StoredInteraction : uint8_t {
  kPlay = 0,
  kPause = 1,
  kSeekForward = 2,
  kSeekBackward = 3,
};

/// One logged frontend interaction around a red dot.
struct InteractionRecord {
  std::string video_id;
  std::string user;
  uint64_t session_id = 0;
  StoredInteraction event = StoredInteraction::kPlay;
  double wall_time = 0.0;
  double position = 0.0;
  double target = 0.0;

  std::vector<uint8_t> Encode() const;
  static common::Result<InteractionRecord> Decode(
      const std::vector<uint8_t>& bytes);
  friend bool operator==(const InteractionRecord&,
                         const InteractionRecord&) = default;
};

/// The current state of one red dot / highlight of a video. Re-written on
/// every refinement iteration; the store keeps the latest per
/// (video, dot_index).
struct HighlightRecord {
  std::string video_id;
  int32_t dot_index = 0;
  double dot_position = 0.0;
  double start = 0.0;
  double end = 0.0;
  double score = 0.0;
  int32_t iteration = 0;
  bool converged = false;

  std::vector<uint8_t> Encode() const;
  static common::Result<HighlightRecord> Decode(
      const std::vector<uint8_t>& bytes);
  friend bool operator==(const HighlightRecord&,
                         const HighlightRecord&) = default;
};

}  // namespace lightor::storage

#endif  // LIGHTOR_STORAGE_RECORD_H_
