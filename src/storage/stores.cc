#include "storage/stores.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"

namespace lightor::storage {

namespace {

obs::Counter& DbReadsCounter(const char* store) {
  static obs::Counter* const chat = obs::Registry::Global().GetCounter(
      "lightor_storage_db_reads_total", {{"store", "chat"}});
  static obs::Counter* const interactions = obs::Registry::Global().GetCounter(
      "lightor_storage_db_reads_total", {{"store", "interactions"}});
  static obs::Counter* const highlights = obs::Registry::Global().GetCounter(
      "lightor_storage_db_reads_total", {{"store", "highlights"}});
  switch (store[0]) {
    case 'c':
      return *chat;
    case 'i':
      return *interactions;
    default:
      return *highlights;
  }
}

}  // namespace

const std::vector<ChatRecord> ChatStore::kEmpty;

void ChatStore::Put(ChatRecord record) {
  auto& list = by_video_[record.video_id];
  if (!list.empty() && list.back().timestamp > record.timestamp) {
    dirty_[record.video_id] = true;  // sticky until the next sort
  }
  list.push_back(std::move(record));
  ++total_;
}

void ChatStore::PutVideoChat(std::vector<ChatRecord> records) {
  if (records.empty()) return;
  const std::string video_id = records.front().video_id;
  auto& list = by_video_[video_id];
  const auto by_time = [](const ChatRecord& a, const ChatRecord& b) {
    return a.timestamp < b.timestamp;
  };
  if ((!list.empty() && list.back().timestamp > records.front().timestamp) ||
      !std::is_sorted(records.begin(), records.end(), by_time)) {
    dirty_[video_id] = true;  // sticky until the next sort
  }
  total_ += records.size();
  if (list.empty()) {
    list = std::move(records);
    return;
  }
  // Geometric growth: replaying a log written one message per record
  // lands here once per message.
  list.insert(list.end(), std::make_move_iterator(records.begin()),
              std::make_move_iterator(records.end()));
}

bool ChatStore::HasVideo(const std::string& video_id) const {
  auto it = by_video_.find(video_id);
  return it != by_video_.end() && !it->second.empty();
}

void ChatStore::EnsureSorted(const std::string& video_id) {
  auto dirty_it = dirty_.find(video_id);
  if (dirty_it != dirty_.end() && dirty_it->second) {
    auto& list = by_video_[video_id];
    std::stable_sort(list.begin(), list.end(),
                     [](const ChatRecord& a, const ChatRecord& b) {
                       return a.timestamp < b.timestamp;
                     });
    dirty_it->second = false;
  }
}

const std::vector<ChatRecord>& ChatStore::GetByVideo(
    const std::string& video_id) {
  DbReadsCounter("chat").Increment();
  auto it = by_video_.find(video_id);
  if (it == by_video_.end()) return kEmpty;
  EnsureSorted(video_id);
  return it->second;
}

std::vector<ChatRecord> ChatStore::GetRange(const std::string& video_id,
                                            double t0, double t1) {
  const auto& all = GetByVideo(video_id);
  auto lo = std::lower_bound(all.begin(), all.end(), t0,
                             [](const ChatRecord& r, double t) {
                               return r.timestamp < t;
                             });
  auto hi = std::lower_bound(lo, all.end(), t1,
                             [](const ChatRecord& r, double t) {
                               return r.timestamp < t;
                             });
  return {lo, hi};
}

std::vector<std::string> ChatStore::VideoIds() const {
  std::vector<std::string> ids;
  ids.reserve(by_video_.size());
  for (const auto& [id, _] : by_video_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ChatStore::ForEach(
    const std::function<void(const ChatRecord&)>& fn) const {
  std::vector<std::string> ids = VideoIds();
  for (const auto& id : ids) {
    auto it = by_video_.find(id);
    for (const auto& rec : it->second) fn(rec);
  }
}

void InteractionStore::Put(InteractionRecord record) {
  Entry entry{std::move(record), ++generation_};
  ++session_ids_[entry.record.video_id][entry.record.session_id];
  by_video_[entry.record.video_id].push_back(std::move(entry));
  ++total_;
}

bool InteractionStore::HasSession(const std::string& video_id,
                                  uint64_t session_id) const {
  return SessionEventCount(video_id, session_id) > 0;
}

size_t InteractionStore::SessionEventCount(const std::string& video_id,
                                           uint64_t session_id) const {
  auto it = session_ids_.find(video_id);
  if (it == session_ids_.end()) return 0;
  auto sit = it->second.find(session_id);
  return sit == it->second.end() ? 0 : sit->second;
}

void InteractionStore::ForEach(
    const std::function<void(const InteractionRecord&, uint64_t)>& fn) const {
  std::vector<std::string> ids;
  ids.reserve(by_video_.size());
  for (const auto& [id, _] : by_video_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const auto& id : ids) {
    for (const auto& entry : by_video_.at(id)) {
      fn(entry.record, entry.generation);
    }
  }
}

void InteractionStore::RestoreEntry(InteractionRecord record,
                                    uint64_t generation) {
  if (generation > generation_) generation_ = generation;
  Entry entry{std::move(record), generation};
  ++session_ids_[entry.record.video_id][entry.record.session_id];
  by_video_[entry.record.video_id].push_back(std::move(entry));
  ++total_;
}

void InteractionStore::AdvanceGeneration(uint64_t generation) {
  if (generation > generation_) generation_ = generation;
}

std::map<uint64_t, std::vector<InteractionRecord>>
InteractionStore::SessionsForVideo(const std::string& video_id) const {
  return SessionsSince(video_id, 0);
}

std::map<uint64_t, std::vector<InteractionRecord>>
InteractionStore::SessionsSince(const std::string& video_id,
                                uint64_t min_generation) const {
  DbReadsCounter("interactions").Increment();
  std::map<uint64_t, std::vector<InteractionRecord>> sessions;
  auto it = by_video_.find(video_id);
  if (it == by_video_.end()) return sessions;
  for (const auto& entry : it->second) {
    if (entry.generation < min_generation) continue;
    sessions[entry.record.session_id].push_back(entry.record);
  }
  for (auto& [_, events] : sessions) {
    std::stable_sort(events.begin(), events.end(),
                     [](const InteractionRecord& a,
                        const InteractionRecord& b) {
                       return a.wall_time < b.wall_time;
                     });
  }
  return sessions;
}

void HighlightStore::Put(HighlightRecord record) {
  dots_[{record.video_id, record.dot_index}].push_back(std::move(record));
  ++total_;
}

std::vector<HighlightRecord> HighlightStore::GetLatest(
    const std::string& video_id) const {
  DbReadsCounter("highlights").Increment();
  std::vector<HighlightRecord> out;
  for (auto it = dots_.lower_bound({video_id, 0});
       it != dots_.end() && it->first.first == video_id; ++it) {
    if (!it->second.empty()) out.push_back(it->second.back());
  }
  return out;
}

common::Result<HighlightRecord> HighlightStore::GetDot(
    const std::string& video_id, int32_t dot_index) const {
  auto it = dots_.find({video_id, dot_index});
  if (it == dots_.end() || it->second.empty()) {
    return common::Status::NotFound("no such dot: " + video_id + "#" +
                                    std::to_string(dot_index));
  }
  return it->second.back();
}

std::vector<HighlightRecord> HighlightStore::GetHistory(
    const std::string& video_id, int32_t dot_index) const {
  auto it = dots_.find({video_id, dot_index});
  if (it == dots_.end()) return {};
  return it->second;
}

std::vector<HighlightRecord> HighlightStore::AllLatest() const {
  std::vector<HighlightRecord> out;
  out.reserve(dots_.size());
  for (const auto& [key, history] : dots_) {
    if (!history.empty()) out.push_back(history.back());
  }
  return out;
}

void HighlightStore::ResetFrom(std::vector<HighlightRecord> records) {
  dots_.clear();
  total_ = 0;
  for (auto& rec : records) Put(std::move(rec));
}

bool HighlightStore::HasVideo(const std::string& video_id) const {
  auto it = dots_.lower_bound({video_id, 0});
  return it != dots_.end() && it->first.first == video_id;
}

}  // namespace lightor::storage
