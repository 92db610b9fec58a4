#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "storage/checkpoint.h"
#include "storage/database.h"
#include "testing/fault_env.h"

namespace lightor::storage {
namespace {

namespace ft = lightor::testing;

ChatRecord MakeChat(int i) {
  ChatRecord rec;
  rec.video_id = "v" + std::to_string(i % 2);
  rec.timestamp = static_cast<double>(i);
  rec.user = "chatter";
  rec.text = "msg " + std::to_string(i);
  return rec;
}

InteractionRecord MakeInteraction(const std::string& video, uint64_t id) {
  InteractionRecord rec;
  rec.video_id = video;
  rec.user = "u" + std::to_string(id);
  rec.session_id = id;
  rec.event = StoredInteraction::kPlay;
  rec.wall_time = static_cast<double>(id);
  rec.position = 10.0 * static_cast<double>(id);
  rec.target = 5.0;
  return rec;
}

HighlightRecord MakeHighlight(const std::string& video, int dot,
                              int32_t iteration) {
  HighlightRecord rec;
  rec.video_id = video;
  rec.dot_index = dot;
  rec.iteration = iteration;
  rec.dot_position = 7.0 * dot + iteration;
  rec.start = rec.dot_position - 1.0;
  rec.end = rec.dot_position + 1.0;
  rec.score = 0.5;
  return rec;
}

/// Normalized full-state dump: every chat record, every interaction with
/// its generation, every latest highlight, plus the LSN and generation
/// counter. Byte-equal dumps mean byte-equal served state.
std::string Dump(Database& db) {
  std::string out;
  db.chat().ForEach([&](const ChatRecord& rec) {
    const auto bytes = rec.Encode();
    out += "C:" + std::string(bytes.begin(), bytes.end()) + "\n";
  });
  db.interactions().ForEach(
      [&](const InteractionRecord& rec, uint64_t generation) {
        const auto bytes = rec.Encode();
        out += "I:" + std::to_string(generation) + ":" +
               std::string(bytes.begin(), bytes.end()) + "\n";
      });
  for (const auto& rec : db.highlights().AllLatest()) {
    const auto bytes = rec.Encode();
    out += "H:" + std::string(bytes.begin(), bytes.end()) + "\n";
  }
  out += "lsn:" + std::to_string(db.lsn()) + "\n";
  out += "igen:" + std::to_string(db.interactions().current_generation()) +
         "\n";
  return out;
}

TEST(Manifest, RoundTripsThroughEnv) {
  ft::FaultEnv env;
  ASSERT_TRUE(env.CreateDirs("db").ok());
  Manifest manifest;
  manifest.log_gen = 3;
  manifest.checkpoint_gen = 3;
  manifest.checkpoint_lsn = 12345;
  ASSERT_TRUE(WriteManifest(&env, "db", manifest).ok());

  auto read = ReadManifest(&env, "db");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(read.value().has_value());
  EXPECT_EQ(read.value()->log_gen, 3u);
  EXPECT_EQ(read.value()->checkpoint_gen, 3u);
  EXPECT_EQ(read.value()->checkpoint_lsn, 12345u);

  // Re-install over the old one: last write wins.
  manifest.log_gen = 4;
  manifest.checkpoint_gen = 4;
  ASSERT_TRUE(WriteManifest(&env, "db", manifest).ok());
  EXPECT_EQ(ReadManifest(&env, "db").value()->log_gen, 4u);
}

TEST(Manifest, AbsentMeansLegacyLayout) {
  ft::FaultEnv env;
  auto read = ReadManifest(&env, "db");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().has_value());
}

TEST(Manifest, GarbageTailIsCorruption) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lightor_manifest_torn")
          .string();
  std::filesystem::remove_all(dir);
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  ASSERT_TRUE(WriteManifest(env, dir, Manifest{1, 1, 10}).ok());
  {
    std::ofstream out(ManifestPath(dir), std::ios::binary | std::ios::app);
    out.write("junk", 4);
  }
  auto read = ReadManifest(env, dir);
  EXPECT_TRUE(read.status().IsCorruption()) << read.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(Manifest, PathHelpersNameGenerations) {
  EXPECT_EQ(ManifestPath("d"), "d/MANIFEST");
  EXPECT_EQ(CheckpointFilePath("d", 2), "d/ckpt.2");
  EXPECT_EQ(LogFilePath("d", "chat", 0), "d/chat.log");
  EXPECT_EQ(LogFilePath("d", "chat", 3), "d/chat.3.log");
}

class CheckpointTest : public ::testing::Test {
 protected:
  /// Opens "db" over the fault env; `drop_consumed` sets the policy.
  Database::OpenResult MustOpen(bool drop_consumed = false) {
    OpenOptions options;
    options.directory = "db";
    options.env = &env_;
    options.checkpoint.drop_consumed_interactions = drop_consumed;
    auto opened = DB::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).value();
  }

  /// Interleaved writes across all three logs; returns records written.
  size_t Populate(Database* db, int n_interactions) {
    size_t written = 0;
    for (int i = 1; i <= n_interactions; ++i) {
      EXPECT_TRUE(db->PutInteraction(MakeInteraction("v0", i)).ok());
      ++written;
      if (i % 2 == 0) {
        EXPECT_TRUE(db->PutChat(MakeChat(i)).ok());
        EXPECT_TRUE(db->PutHighlight(MakeHighlight("v0", i / 2, 0)).ok());
        written += 2;
      }
    }
    return written;
  }

  ft::FaultEnv env_;
};

TEST_F(CheckpointTest, RoundTripRestoresStateAndTruncatesLogs) {
  std::string pre_dump;
  uint64_t pre_lsn = 0;
  {
    auto opened = MustOpen();
    auto& db = opened.db;
    const size_t written = Populate(db.get(), 6);
    pre_dump = Dump(*db);
    pre_lsn = db->lsn();
    EXPECT_EQ(pre_lsn, written);

    auto stats = db->Checkpoint();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().gen, 1u);
    EXPECT_EQ(stats.value().lsn, pre_lsn);
    EXPECT_EQ(stats.value().records_written, written);
    EXPECT_GT(stats.value().checkpoint_bytes, 0u);
    EXPECT_GT(stats.value().log_bytes_truncated, 0u);

    // The rotation installed generation-1 files and dropped generation 0.
    EXPECT_TRUE(env_.FileExists("db/MANIFEST"));
    EXPECT_TRUE(env_.FileExists("db/ckpt.1"));
    EXPECT_FALSE(env_.FileExists("db/chat.log"));
    EXPECT_TRUE(env_.FileExists("db/chat.1.log"));

    // Checkpointing is invisible to the live state.
    EXPECT_EQ(Dump(*db), pre_dump);
    // The rotated database keeps accepting writes.
    ASSERT_TRUE(db->PutChat(MakeChat(100)).ok());
  }

  auto opened = MustOpen();
  EXPECT_EQ(opened.stats.checkpoint_gen, 1u);
  EXPECT_EQ(opened.stats.checkpoint_lsn, pre_lsn);
  EXPECT_EQ(opened.stats.log_gen, 1u);
  EXPECT_EQ(opened.stats.records_replayed, 1u);  // the post-checkpoint chat
  EXPECT_EQ(opened.db->lsn(), pre_lsn + 1);
}

TEST_F(CheckpointTest, SuffixReplayEqualsFullReplay) {
  std::string full_dump;
  {
    auto opened = MustOpen();
    Populate(opened.db.get(), 4);
    ASSERT_TRUE(opened.db->Checkpoint().ok());
    // Post-checkpoint suffix, including a refinement of dot 1.
    ASSERT_TRUE(opened.db->PutInteraction(MakeInteraction("v0", 50)).ok());
    ASSERT_TRUE(opened.db->PutHighlight(MakeHighlight("v0", 1, 1)).ok());
    full_dump = Dump(*opened.db);
  }
  auto opened = MustOpen();
  EXPECT_EQ(opened.stats.records_replayed, 2u);
  EXPECT_EQ(Dump(*opened.db), full_dump);
}

TEST_F(CheckpointTest, SecondCheckpointSupersedesFirst) {
  auto opened = MustOpen();
  auto& db = opened.db;
  Populate(db.get(), 4);
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->PutChat(MakeChat(7)).ok());
  auto stats = db->Checkpoint();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().gen, 2u);
  EXPECT_TRUE(env_.FileExists("db/ckpt.2"));
  EXPECT_FALSE(env_.FileExists("db/ckpt.1"));
  EXPECT_FALSE(env_.FileExists("db/chat.1.log"));
  const std::string dump = Dump(*db);

  db.reset();
  auto reopened = MustOpen();
  EXPECT_EQ(reopened.stats.checkpoint_gen, 2u);
  EXPECT_EQ(reopened.stats.records_replayed, 0u);
  EXPECT_EQ(Dump(*reopened.db), dump);
}

TEST_F(CheckpointTest, CheckpointCollapsesHighlightHistory) {
  auto opened = MustOpen();
  auto& db = opened.db;
  for (int32_t iter = 0; iter < 5; ++iter) {
    ASSERT_TRUE(db->PutHighlight(MakeHighlight("v0", 0, iter)).ok());
  }
  EXPECT_EQ(db->highlights().TotalRecords(), 5u);
  auto stats = db->Checkpoint();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_written, 1u);  // latest only
  EXPECT_EQ(db->highlights().TotalRecords(), 1u);
  EXPECT_EQ(db->highlights().GetLatest("v0")[0].iteration, 4);
  // LSN is an ordering token, not a record count: compaction leaves it.
  EXPECT_EQ(db->lsn(), 5u);
}

// A video's publish version survives log replay, highlight compaction and
// a checkpoint, keeping the last one published per video; a video that
// never published one reads 0.
TEST_F(CheckpointTest, PublishVersionSurvivesReplayCompactionAndCheckpoint) {
  {
    auto opened = MustOpen();
    auto& db = opened.db;
    ASSERT_TRUE(db->PublishHighlights("v0", {MakeHighlight("v0", 0, 0)}, 1)
                    .ok());
    ASSERT_TRUE(db->PutHighlight(MakeHighlight("v1", 0, 0)).ok());
    ASSERT_TRUE(db->PublishHighlights("v0", {MakeHighlight("v0", 0, 1)}, 2)
                    .ok());
    ASSERT_TRUE(db->PublishHighlights("v0", {}, 3).ok());  // no dot moved
    EXPECT_EQ(db->lsn(), 6u);  // one per record, one per version
    EXPECT_EQ(db->highlights().Version("v0"), 3u);
    EXPECT_EQ(db->highlights().Version("v1"), 0u);
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);
  }
  {
    auto opened = MustOpen();  // log replay
    auto& db = opened.db;
    EXPECT_EQ(opened.stats.records_replayed, 6u);
    EXPECT_EQ(db->highlights().Version("v0"), 3u);
    EXPECT_EQ(db->highlights().Version("v1"), 0u);
    EXPECT_EQ(db->highlights().GetHistory("v0", 0).size(), 2u);
    ASSERT_TRUE(db->CompactHighlights().ok());
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);
  }
  {
    auto opened = MustOpen();  // the compacted log
    auto& db = opened.db;
    EXPECT_EQ(db->highlights().Version("v0"), 3u);
    EXPECT_EQ(db->highlights().GetHistory("v0", 0).size(), 1u);
    auto stats = db->Checkpoint();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().records_written, 3u);  // two dots, one version
    env_.RecoverAfterCrash(ft::CrashModel::kProcess);
  }
  auto opened = MustOpen();  // the checkpoint image
  EXPECT_EQ(opened.stats.records_replayed, 0u);
  EXPECT_EQ(opened.db->highlights().Version("v0"), 3u);
  EXPECT_EQ(opened.db->highlights().Version("v1"), 0u);
  EXPECT_EQ(opened.db->highlights().GetLatest("v0")[0].iteration, 1);
}

TEST_F(CheckpointTest, DropConsumedPolicyDropsOnlyRefinedVideos) {
  {
    auto opened = MustOpen(/*drop_consumed=*/true);
    auto& db = opened.db;
    // v0 has a refined dot (iteration 1): its interactions are consumed.
    ASSERT_TRUE(db->PutHighlight(MakeHighlight("v0", 0, 1)).ok());
    ASSERT_TRUE(db->PutInteraction(MakeInteraction("v0", 1)).ok());
    ASSERT_TRUE(db->PutInteraction(MakeInteraction("v0", 2)).ok());
    // v1 is still on its initial dots (iteration 0): sessions must stay.
    ASSERT_TRUE(db->PutHighlight(MakeHighlight("v1", 0, 0)).ok());
    ASSERT_TRUE(db->PutInteraction(MakeInteraction("v1", 3)).ok());
    const uint64_t generation_before =
        db->interactions().current_generation();
    ASSERT_TRUE(db->Checkpoint().ok());
    // Dropping consumed records must not disturb the generation counter
    // (serving watermarks are generations; a reset would double-consume).
    EXPECT_EQ(db->interactions().current_generation(), generation_before);
  }
  auto opened = MustOpen(/*drop_consumed=*/true);
  EXPECT_TRUE(opened.db->interactions().SessionsForVideo("v0").empty());
  EXPECT_EQ(opened.db->interactions().SessionsForVideo("v1").size(), 1u);
  // The kept record's generation survived verbatim.
  opened.db->interactions().ForEach(
      [&](const InteractionRecord& rec, uint64_t generation) {
        EXPECT_EQ(rec.video_id, "v1");
        EXPECT_EQ(generation, 3u);
      });
}

TEST_F(CheckpointTest, KeepConsumedPolicyKeepsEverything) {
  {
    auto opened = MustOpen(/*drop_consumed=*/false);
    ASSERT_TRUE(opened.db->PutHighlight(MakeHighlight("v0", 0, 1)).ok());
    ASSERT_TRUE(opened.db->PutInteraction(MakeInteraction("v0", 1)).ok());
    ASSERT_TRUE(opened.db->Checkpoint().ok());
  }
  auto opened = MustOpen(/*drop_consumed=*/false);
  EXPECT_EQ(opened.db->interactions().TotalRecords(), 1u);
}

TEST_F(CheckpointTest, CheckpointRescuesWedgedLog) {
  auto opened = MustOpen();
  auto& db = opened.db;
  Populate(db.get(), 2);
  // Wedge the chat log with an ENOSPC mid-frame.
  env_.InjectAt(env_.io_points() + 1, ft::FaultKind::kEnospc);
  EXPECT_FALSE(db->PutChat(MakeChat(9)).ok());
  EXPECT_FALSE(db->PutChat(MakeChat(10)).ok());  // wedged: fails fast

  // The checkpoint rotates to fresh files: service resumes.
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(db->PutChat(MakeChat(11)).ok());

  const std::string dump = Dump(*db);
  db.reset();
  EXPECT_EQ(Dump(*MustOpen().db), dump);
}

// ---------------------------------------------------------------------------
// Crash-point enumeration: the ISSUE's core safety claim. Crashing at
// EVERY mutating I/O point of populate + checkpoint + post-writes must
// recover to a database whose full-state dump equals what a crash-free
// run had acked at that point — pre- or post-checkpoint state, never a
// torn hybrid. Keep-consumed policy, single highlight iteration per dot:
// the dump is insensitive to whether the checkpoint committed.
// ---------------------------------------------------------------------------

/// Runs the workload; appends after every *acked* write (and after the
/// checkpoint call) the current dump, so `dumps` holds every state a
/// crash may legally recover to.
void RunCheckpointWorkload(Database* db, std::vector<std::string>* dumps) {
  auto note = [&] { dumps->push_back(Dump(*db)); };
  note();
  for (int i = 1; i <= 4; ++i) {
    if (db->PutInteraction(MakeInteraction("v0", i)).ok()) note();
    if (i % 2 == 0) {
      if (db->PutChat(MakeChat(i)).ok()) note();
      if (db->PutHighlight(MakeHighlight("v0", i / 2, 0)).ok()) note();
    }
  }
  (void)db->Checkpoint();
  note();
  for (int i = 5; i <= 6; ++i) {
    if (db->PutInteraction(MakeInteraction("v0", i)).ok()) note();
  }
}

void EnumerateCheckpointCrashPoints(ft::CrashModel model) {
  const bool power_loss = model == ft::CrashModel::kPowerLoss;
  uint64_t total_points = 0;
  {
    ft::FaultEnv env;
    OpenOptions options;
    options.directory = "db";
    options.env = &env;
    options.sync_on_flush = power_loss;
    auto opened = DB::Open(options);
    ASSERT_TRUE(opened.ok());
    std::vector<std::string> dumps;
    RunCheckpointWorkload(opened.value().db.get(), &dumps);
    opened.value().db.reset();
    total_points = env.io_points();
  }
  ASSERT_GT(total_points, 30u);  // the checkpoint protocol is in range

  for (uint64_t k = 0; k < total_points; ++k) {
    ft::FaultEnv env;
    env.CrashAt(k);
    OpenOptions options;
    options.directory = "db";
    options.env = &env;
    options.sync_on_flush = power_loss;
    std::vector<std::string> dumps;
    // A crash during Open itself legally recovers to the fresh empty state.
    dumps.push_back("lsn:0\nigen:0\n");
    {
      auto db = DB::Open(options);
      if (db.ok()) RunCheckpointWorkload(db.value().db.get(), &dumps);
    }
    ASSERT_TRUE(env.crashed()) << "point " << k << " was never reached";

    env.RecoverAfterCrash(model);
    auto reopened = DB::Open(options);
    ASSERT_TRUE(reopened.ok())
        << "crash@" << k << ": " << reopened.status().ToString();
    const std::string recovered = Dump(*reopened.value().db);
    // Under kProcess with per-record flush every acked state is durable,
    // so the recovered dump must BE the last acked one; under power loss
    // any acked state (a prefix) is legal. Either way it must be one of
    // the acked dumps — never a state the workload did not pass through.
    bool matched = false;
    for (auto it = dumps.rbegin(); it != dumps.rend(); ++it) {
      if (*it == recovered) {
        matched = true;
        break;
      }
      if (!power_loss) break;  // kProcess: only the newest dump is legal
    }
    EXPECT_TRUE(matched) << "crash@" << k
                         << " recovered to a state the workload never acked:\n"
                         << recovered;

    // And the recovered database still takes writes + checkpoints.
    ASSERT_TRUE(reopened.value().db->PutChat(MakeChat(99)).ok())
        << "crash@" << k;
    ASSERT_TRUE(reopened.value().db->Checkpoint().ok()) << "crash@" << k;
  }
}

TEST(CheckpointCrashEnumeration, ProcessCrashAtEveryPointRecoversAckedState) {
  EnumerateCheckpointCrashPoints(ft::CrashModel::kProcess);
}

TEST(CheckpointCrashEnumeration, PowerLossAtEveryPointRecoversAckedState) {
  EnumerateCheckpointCrashPoints(ft::CrashModel::kPowerLoss);
}

}  // namespace
}  // namespace lightor::storage
