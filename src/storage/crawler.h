#ifndef LIGHTOR_STORAGE_CRAWLER_H_
#define LIGHTOR_STORAGE_CRAWLER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sim/platform.h"
#include "storage/database.h"

namespace lightor::storage {

/// The chat crawler of Section VI: offline crawling periodically sweeps a
/// list of popular channels for new videos; online crawling fetches one
/// video's chat on demand (triggered when a page visit finds no chat in
/// the database). The "platform API" is the simulated platform.
class Crawler {
 public:
  /// Neither pointer is owned; both must outlive the crawler.
  Crawler(const sim::Platform* platform, Database* db);

  /// Offline pass over one channel's `recent` most recent videos. Returns
  /// the number of videos whose chat was newly crawled.
  common::Result<int> CrawlChannel(const std::string& channel_name,
                                   int recent);

  /// Offline pass over every channel.
  common::Result<int> CrawlAllChannels(int recent_per_channel);

  /// Online crawl: ensures `video_id`'s chat is in the database. Returns
  /// true if a crawl happened, false if the chat was already stored.
  /// `HasChat`, then `FetchChat` and `StoreChat` back to back.
  common::Result<bool> EnsureChat(const std::string& video_id);

  /// The online crawl in its three steps, for a caller that serializes
  /// database access with its own lock (`HighlightServer`'s db mutex) and
  /// keeps the costly middle step outside it.
  ///
  /// `HasChat` (database read, under the caller's lock): whether the
  /// video's chat is stored; counts a chat-cache hit or miss.
  bool HasChat(const std::string& video_id);

  /// `FetchChat` (no database access): calls the platform and encodes the
  /// whole chat as one framed log record.
  common::Result<ChatBatch> FetchChat(const std::string& video_id) const;

  /// `StoreChat` (database write, under the caller's lock): re-checks
  /// `HasVideo`, then appends and flushes the batch and moves its records
  /// into the chat index. Returns false, storing nothing, when the chat
  /// was stored since `HasChat`.
  common::Result<bool> StoreChat(ChatBatch batch);

 private:
  const sim::Platform* platform_;
  Database* db_;
};

}  // namespace lightor::storage

#endif  // LIGHTOR_STORAGE_CRAWLER_H_
