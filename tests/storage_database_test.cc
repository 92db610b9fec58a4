#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "storage/database.h"

namespace lightor::storage {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("lightor_db_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Opens via the redesigned entry point and unwraps the database,
  /// asserting success (most tests here don't care about the stats).
  std::unique_ptr<Database> MustOpen() {
    auto opened = DB::Open(OpenOptions(dir_));
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened.value().db);
  }

  std::string dir_;
};

ChatRecord Chat(double t) {
  ChatRecord rec;
  rec.video_id = "v";
  rec.timestamp = t;
  rec.user = "u";
  rec.text = "msg";
  return rec;
}

TEST_F(DatabaseTest, OpenCreatesDirectory) {
  auto opened = DB::Open(OpenOptions(dir_));
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(std::filesystem::exists(dir_));
  EXPECT_EQ(opened.value().db->directory(), dir_);
  // A fresh directory recovers nothing.
  EXPECT_EQ(opened.value().stats.checkpoint_gen, 0u);
  EXPECT_EQ(opened.value().stats.records_replayed, 0u);
  EXPECT_EQ(opened.value().stats.torn_bytes_truncated, 0u);
}

TEST_F(DatabaseTest, PutsVisibleInMemory) {
  auto db = MustOpen();
  ASSERT_TRUE(db->PutChat(Chat(1.0)).ok());
  ASSERT_TRUE(db->PutChat(Chat(2.0)).ok());
  EXPECT_EQ(db->chat().GetByVideo("v").size(), 2u);
  EXPECT_EQ(db->lsn(), 2u);
}

TEST_F(DatabaseTest, StateSurvivesReopen) {
  {
    auto db = MustOpen();
    ASSERT_TRUE(db->PutChat(Chat(1.0)).ok());

    InteractionRecord ir;
    ir.video_id = "v";
    ir.user = "u";
    ir.session_id = 1;
    ir.event = StoredInteraction::kPlay;
    ir.position = 100.0;
    ASSERT_TRUE(db->PutInteraction(ir).ok());

    HighlightRecord hr;
    hr.video_id = "v";
    hr.dot_index = 0;
    hr.start = 100.0;
    hr.end = 120.0;
    ASSERT_TRUE(db->PutHighlight(hr).ok());
  }
  auto opened = DB::Open(OpenOptions(dir_));
  ASSERT_TRUE(opened.ok());
  auto& db = opened.value().db;
  EXPECT_EQ(opened.value().stats.records_replayed, 3u);
  EXPECT_EQ(db->lsn(), 3u);
  EXPECT_EQ(db->chat().GetByVideo("v").size(), 1u);
  EXPECT_EQ(db->interactions().SessionsForVideo("v").size(), 1u);
  const auto dots = db->highlights().GetLatest("v");
  ASSERT_EQ(dots.size(), 1u);
  EXPECT_DOUBLE_EQ(dots[0].end, 120.0);
}

TEST_F(DatabaseTest, RecoversFromTornChatLog) {
  {
    auto db = MustOpen();
    ASSERT_TRUE(db->PutChat(Chat(1.0)).ok());
  }
  {
    std::ofstream out(dir_ + "/chat.log", std::ios::binary | std::ios::app);
    out.write("\x99\x00\x00\x00torn", 8);  // bogus frame
  }
  auto opened = DB::Open(OpenOptions(dir_));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().stats.torn_bytes_truncated, 8u);
  auto db = std::move(opened.value().db);
  EXPECT_EQ(db->chat().GetByVideo("v").size(), 1u);
  // The database is writable again after recovery.
  ASSERT_TRUE(db->PutChat(Chat(2.0)).ok());
  auto reopened = MustOpen();
  EXPECT_EQ(reopened->chat().GetByVideo("v").size(), 2u);
}

TEST_F(DatabaseTest, HighlightHistoryAccumulatesAcrossReopens) {
  HighlightRecord hr;
  hr.video_id = "v";
  hr.dot_index = 0;
  {
    auto db = MustOpen();
    hr.iteration = 0;
    ASSERT_TRUE(db->PutHighlight(hr).ok());
    hr.iteration = 1;
    ASSERT_TRUE(db->PutHighlight(hr).ok());
  }
  auto db = MustOpen();
  EXPECT_EQ(db->highlights().GetHistory("v", 0).size(), 2u);
  EXPECT_EQ(db->highlights().GetLatest("v")[0].iteration, 1);
}

/// `n` messages of `video_id`, timestamps deliberately out of order so the
/// store's lazy sort is part of what must match.
std::vector<ChatRecord> VideoChat(const std::string& video_id, int n) {
  std::vector<ChatRecord> records;
  for (int i = 0; i < n; ++i) {
    records.push_back({video_id, static_cast<double>((i * 37) % n),
                       "u" + std::to_string(i % 5),
                       "message number " + std::to_string(i)});
  }
  return records;
}

/// Everything the chat index holds, video by video in sorted-id order,
/// each video's records as `GetByVideo` returns them.
std::vector<ChatRecord> StoreContents(Database& db) {
  std::vector<ChatRecord> out;
  for (const std::string& id : db.chat().VideoIds()) {
    const auto& recs = db.chat().GetByVideo(id);
    out.insert(out.end(), recs.begin(), recs.end());
  }
  return out;
}

TEST_F(DatabaseTest, ChatBatchIsOneRecordCountedPerMessage) {
  auto* writes = obs::Registry::Global().GetCounter(
      "lightor_storage_db_writes_total", {{"log", "chat"}});
  const uint64_t before = writes->value();
  auto db = MustOpen();
  ASSERT_TRUE(db->PutChatBatch(ChatBatch("v", VideoChat("v", 40))).ok());
  EXPECT_EQ(db->lsn(), 1u);
  EXPECT_EQ(writes->value(), before + 40);
  EXPECT_EQ(db->chat().GetByVideo("v").size(), 40u);
  EXPECT_EQ(db->chat().TotalRecords(), 40u);
  // An empty batch writes nothing at all.
  ASSERT_TRUE(db->PutChatBatch(ChatBatch("w", {})).ok());
  EXPECT_EQ(db->lsn(), 1u);
  EXPECT_FALSE(db->chat().HasVideo("w"));
}

// A log written one message per record (every log before the batch
// record existed) reopens to exactly the store a batched log does.
TEST_F(DatabaseTest, PerMessageChatLogReplaysLikeBatches) {
  const std::string batched_dir = dir_ + "_batched";
  std::filesystem::remove_all(batched_dir);
  std::vector<ChatRecord> live;
  {
    auto per_message = MustOpen();
    auto batched = DB::Open(OpenOptions(batched_dir));
    ASSERT_TRUE(batched.ok());
    for (const char* id : {"b", "a"}) {
      const auto chat = VideoChat(id, 25);
      for (const auto& rec : chat) ASSERT_TRUE(per_message->PutChat(rec).ok());
      ASSERT_TRUE(batched.value().db->PutChatBatch(ChatBatch(id, chat)).ok());
    }
    live = StoreContents(*per_message);
    EXPECT_EQ(StoreContents(*batched.value().db), live);
  }
  auto per_message = MustOpen();
  auto batched = DB::Open(OpenOptions(batched_dir));
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(batched.value().stats.records_replayed, 2u);
  EXPECT_EQ(StoreContents(*per_message), live);
  EXPECT_EQ(StoreContents(*batched.value().db), live);
  EXPECT_EQ(batched.value().db->chat().TotalRecords(), 50u);
  std::filesystem::remove_all(batched_dir);
}

// Old one-message records followed by batch records in the same log —
// including a batch for a video that already has old records — replay to
// the store the live database held.
TEST_F(DatabaseTest, MixedChatLogReplaysOldRecordsAndBatches) {
  std::vector<ChatRecord> live;
  {
    auto db = MustOpen();
    for (const auto& rec : VideoChat("old", 10)) {
      ASSERT_TRUE(db->PutChat(rec).ok());
    }
    ASSERT_TRUE(db->PutChat(Chat(9.0)).ok());
    ASSERT_TRUE(db->PutChatBatch(ChatBatch("new", VideoChat("new", 30))).ok());
    ASSERT_TRUE(db->PutChatBatch(ChatBatch("v", {Chat(3.0), Chat(1.0)})).ok());
    ASSERT_TRUE(db->PutChat(Chat(2.0)).ok());
    live = StoreContents(*db);
    ASSERT_EQ(live.size(), 10u + 1u + 30u + 2u + 1u);
  }
  auto opened = DB::Open(OpenOptions(dir_));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().stats.records_replayed, 10u + 1u + 2u + 1u);
  EXPECT_EQ(opened.value().db->lsn(), 14u);
  EXPECT_EQ(StoreContents(*opened.value().db), live);
  const auto& v = opened.value().db->chat().GetByVideo("v");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v.front().timestamp, 1.0);
  EXPECT_DOUBLE_EQ(v.back().timestamp, 9.0);
}

}  // namespace
}  // namespace lightor::storage
