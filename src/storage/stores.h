#ifndef LIGHTOR_STORAGE_STORES_H_
#define LIGHTOR_STORAGE_STORES_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/record.h"

namespace lightor::storage {

/// In-memory chat index: per-video message lists kept sorted by timestamp
/// (lazily — appends mark the video dirty, reads sort on demand).
class ChatStore {
 public:
  void Put(ChatRecord record);

  /// Appends `records`, all of one video, in one step: the video's list
  /// takes the vector itself when empty, so its capacity is the caller's
  /// exact size.
  void PutVideoChat(std::vector<ChatRecord> records);

  bool HasVideo(const std::string& video_id) const;

  /// All messages of a video, sorted by timestamp.
  const std::vector<ChatRecord>& GetByVideo(const std::string& video_id);

  /// Messages with timestamp in [t0, t1).
  std::vector<ChatRecord> GetRange(const std::string& video_id, double t0,
                                   double t1);

  size_t TotalRecords() const { return total_; }
  std::vector<std::string> VideoIds() const;

  /// Visits every record grouped by video id (ids sorted, records in
  /// stored order) — the deterministic iteration checkpoint encoding
  /// needs. Stored order is arrival order until a read sorts the video;
  /// either way `GetByVideo` yields the same stable-sorted result after a
  /// round trip.
  void ForEach(const std::function<void(const ChatRecord&)>& fn) const;

 private:
  void EnsureSorted(const std::string& video_id);

  std::unordered_map<std::string, std::vector<ChatRecord>> by_video_;
  std::unordered_map<std::string, bool> dirty_;
  size_t total_ = 0;
  static const std::vector<ChatRecord> kEmpty;
};

/// In-memory interaction index: per-video, per-session event streams.
class InteractionStore {
 public:
  void Put(InteractionRecord record);

  /// All interactions of a video grouped by session id, each stream
  /// sorted by wall time.
  std::map<uint64_t, std::vector<InteractionRecord>> SessionsForVideo(
      const std::string& video_id) const;

  /// All interactions of a video logged at or after `min_generation`
  /// marker (generations let the web service consume only fresh data on
  /// each refinement pass). Generations are assigned on Put in arrival
  /// order.
  std::map<uint64_t, std::vector<InteractionRecord>> SessionsSince(
      const std::string& video_id, uint64_t min_generation) const;

  /// Whether any event of `session_id` has been logged for `video_id`.
  /// O(1): backed by a per-video session-id event-count index maintained
  /// by `Put` and `RestoreEntry` (so it survives checkpoint recovery).
  /// The cluster router retries `/session` after an ack-lost crash; this
  /// is the dedup that makes that retry exactly-once.
  bool HasSession(const std::string& video_id, uint64_t session_id) const;

  /// Events logged so far for (`video_id`, `session_id`); 0 when unseen.
  /// A crash can persist a strict prefix of a session's events (they are
  /// separate log records), so dedup must be per *event*, not per
  /// session: the serving layer compares this count against the retried
  /// request and appends only the missing suffix.
  size_t SessionEventCount(const std::string& video_id,
                           uint64_t session_id) const;

  uint64_t current_generation() const { return generation_; }
  size_t TotalRecords() const { return total_; }

  /// Visits every entry with its generation, grouped by video id (ids
  /// sorted, entries in arrival order) — deterministic iteration for
  /// checkpoint encoding.
  void ForEach(const std::function<void(const InteractionRecord&,
                                        uint64_t generation)>& fn) const;

  /// Checkpoint load: inserts an entry keeping its original generation
  /// (so `SessionsSince` watermarks survive a restart) and advances the
  /// generation counter to at least `generation`. New `Put`s then
  /// continue numbering after the restored high-water mark.
  void RestoreEntry(InteractionRecord record, uint64_t generation);

  /// Raises the generation counter to at least `generation` — restores
  /// the counter across a checkpoint even when every entry it numbered
  /// was dropped as consumed.
  void AdvanceGeneration(uint64_t generation);

 private:
  struct Entry {
    InteractionRecord record;
    uint64_t generation;
  };
  std::unordered_map<std::string, std::vector<Entry>> by_video_;
  /// Events logged per (video, session id) — the `HasSession` /
  /// `SessionEventCount` index.
  std::unordered_map<std::string, std::unordered_map<uint64_t, size_t>>
      session_ids_;
  uint64_t generation_ = 0;
  size_t total_ = 0;
};

/// In-memory highlight state: latest record per (video, dot index), plus
/// full history for inspection.
class HighlightStore {
 public:
  void Put(HighlightRecord record);

  /// Latest state of every dot of a video, ordered by dot index.
  std::vector<HighlightRecord> GetLatest(const std::string& video_id) const;

  /// Latest state of one dot.
  common::Result<HighlightRecord> GetDot(const std::string& video_id,
                                         int32_t dot_index) const;

  /// Every stored version of a dot (oldest first).
  std::vector<HighlightRecord> GetHistory(const std::string& video_id,
                                          int32_t dot_index) const;

  bool HasVideo(const std::string& video_id) const;
  size_t TotalRecords() const { return total_; }

  /// Number of distinct (video, dot) keys.
  size_t NumDots() const { return dots_.size(); }

  /// Latest record of every dot across all videos (compaction input).
  std::vector<HighlightRecord> AllLatest() const;

  /// Replaces the whole store content with `records` (one per dot) —
  /// used after log compaction.
  void ResetFrom(std::vector<HighlightRecord> records);

 private:
  // (video_id, dot_index) -> history, newest last.
  std::map<std::pair<std::string, int32_t>, std::vector<HighlightRecord>>
      dots_;
  size_t total_ = 0;
};

}  // namespace lightor::storage

#endif  // LIGHTOR_STORAGE_STORES_H_
