#include "storage/crawler.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace lightor::storage {

namespace {

obs::Counter& ChatCacheCounter(bool hit) {
  static obs::Counter* const hits = obs::Registry::Global().GetCounter(
      "lightor_storage_chat_cache_total", {{"outcome", "hit"}});
  static obs::Counter* const misses = obs::Registry::Global().GetCounter(
      "lightor_storage_chat_cache_total", {{"outcome", "miss"}});
  return hit ? *hits : *misses;
}

obs::Counter& VideosCrawledCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_storage_videos_crawled_total");
  return *counter;
}

}  // namespace

Crawler::Crawler(const sim::Platform* platform, Database* db)
    : platform_(platform), db_(db) {}

common::Result<bool> Crawler::EnsureChat(const std::string& video_id) {
  if (HasChat(video_id)) return false;
  LIGHTOR_ASSIGN_OR_RETURN(ChatBatch batch, FetchChat(video_id));
  return StoreChat(std::move(batch));
}

bool Crawler::HasChat(const std::string& video_id) {
  const bool stored = db_->chat().HasVideo(video_id);
  ChatCacheCounter(/*hit=*/stored).Increment();
  return stored;
}

common::Result<ChatBatch> Crawler::FetchChat(
    const std::string& video_id) const {
  const sim::RecordedVideo* video = platform_->FindVideo(video_id);
  if (video == nullptr) {
    return common::Status::NotFound("unknown video: " + video_id);
  }
  std::vector<ChatRecord> records;
  records.reserve(video->chat.size());
  for (const sim::ChatMessage& msg : video->chat) {
    records.push_back({video_id, msg.timestamp, msg.user, msg.text});
  }
  LIGHTOR_LOG(Debug) << "crawler: fetched " << records.size()
                     << " chat messages for " << video_id;
  return ChatBatch(video_id, std::move(records));
}

common::Result<bool> Crawler::StoreChat(ChatBatch batch) {
  if (db_->chat().HasVideo(batch.video_id())) return false;
  LIGHTOR_RETURN_IF_ERROR(db_->PutChatBatch(std::move(batch)));
  VideosCrawledCounter().Increment();
  return true;
}

common::Result<int> Crawler::CrawlChannel(const std::string& channel_name,
                                          int recent) {
  auto ids = platform_->ListRecentVideoIds(channel_name, recent);
  if (!ids.ok()) return ids.status();
  int crawled = 0;
  for (const auto& id : ids.value()) {
    auto did = EnsureChat(id);
    if (!did.ok()) return did.status();
    if (did.value()) ++crawled;
  }
  return crawled;
}

common::Result<int> Crawler::CrawlAllChannels(int recent_per_channel) {
  int crawled = 0;
  for (const auto& channel : platform_->channels()) {
    auto n = CrawlChannel(channel.name, recent_per_channel);
    if (!n.ok()) return n.status();
    crawled += n.value();
  }
  return crawled;
}

}  // namespace lightor::storage
