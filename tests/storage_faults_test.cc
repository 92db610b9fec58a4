#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <map>
#include <string>
#include <vector>

#include "core/lightor.h"
#include "obs/metrics.h"
#include "serving/highlight_server.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/platform.h"
#include "storage/crawler.h"
#include "storage/database.h"
#include "storage/log.h"
#include "storage/record.h"
#include "testing/fault_env.h"

namespace lightor::storage {
namespace {

namespace ft = lightor::testing;

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// AppendLog over FaultEnv: the crash model in isolation.
// ---------------------------------------------------------------------------

/// Replays `path` and returns the record payloads.
std::vector<std::vector<uint8_t>> Replay(const std::string& path,
                                         ft::FaultEnv* env) {
  std::vector<std::vector<uint8_t>> records;
  auto st = AppendLog::ReplayFile(
      path, [&](const std::vector<uint8_t>& p) { records.push_back(p); },
      nullptr, env);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return records;
}

// Flush() pushes a record to the kernel, not the platter: it survives a
// process crash (SIGKILL) but not a power failure. This is the documented
// crash model of the default per-record-flush mode.
TEST(LogCrashModel, FlushReachesKernelButNotPlatter) {
  ft::FaultEnv env;
  AppendLog log;
  ASSERT_TRUE(log.Open("wal", &env).ok());
  ASSERT_TRUE(log.Append(Bytes("rec")).ok());  // per-record flush

  // SIGKILL right now: the kernel view survives.
  env.RecoverAfterCrash(ft::CrashModel::kProcess);
  EXPECT_EQ(Replay("wal", &env).size(), 1u);

  // Power failure: nothing was ever fsynced, so the record is gone.
  env.RecoverAfterCrash(ft::CrashModel::kPowerLoss);
  EXPECT_EQ(Replay("wal", &env).size(), 0u);
}

// The opt-in fsync mode upgrades the same workload to power-loss-safe.
TEST(LogCrashModel, SyncOnFlushSurvivesPowerLoss) {
  ft::FaultEnv env;
  AppendLog log;
  log.set_sync_on_flush(true);
  ASSERT_TRUE(log.Open("wal", &env).ok());
  ASSERT_TRUE(log.Append(Bytes("rec")).ok());

  env.RecoverAfterCrash(ft::CrashModel::kPowerLoss);
  EXPECT_EQ(Replay("wal", &env).size(), 1u);
}

// An fsync failure is the interesting in-between: the flush half succeeded
// (bytes reached the kernel) but the platter was never guaranteed. The
// caller sees an error; the record survives a process crash and is lost to
// power failure — FaultEnv must keep the two tiers distinguishable.
TEST(LogCrashModel, SyncFailureLeavesKernelTierOnly) {
  ft::FaultEnv env;
  AppendLog log;
  log.set_sync_on_flush(true);
  ASSERT_TRUE(log.Open("wal", &env).ok());
  // Points: 0 = open, 1 = header append, 2 = payload append, 3 = sync.
  env.InjectAt(3, ft::FaultKind::kSyncFail);

  auto st = log.Append(Bytes("rec"));
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_TRUE(log.wedged());
  EXPECT_EQ(env.stats().sync_fails, 1u);

  env.RecoverAfterCrash(ft::CrashModel::kProcess);
  EXPECT_EQ(Replay("wal", &env).size(), 1u);  // kernel tier survived
  env.RecoverAfterCrash(ft::CrashModel::kPowerLoss);
  EXPECT_EQ(Replay("wal", &env).size(), 0u);  // platter tier never had it
}

// ENOSPC partway through a flush wedges the log: the file ends in a torn
// frame, so appending more records would bury them behind garbage. Only
// Recover + reopen resumes service, with the torn tail truncated.
TEST(LogFaults, EnospcWedgesUntilRecoverAndReopen) {
  ft::FaultEnv env;
  AppendLog log;
  ASSERT_TRUE(log.Open("wal", &env).ok());
  ASSERT_TRUE(log.Append(Bytes("one")).ok());  // points 1..3
  env.InjectAt(6, ft::FaultKind::kEnospc);     // rec two's flush point

  EXPECT_TRUE(log.Append(Bytes("two")).IsIoError());
  EXPECT_TRUE(log.wedged());

  // Wedged: every operation fails fast, without touching the file.
  const uint64_t points_when_wedged = env.io_points();
  EXPECT_TRUE(log.Append(Bytes("three")).IsIoError());
  EXPECT_TRUE(log.Flush().IsIoError());
  EXPECT_EQ(env.io_points(), points_when_wedged);

  // The kernel has record one plus half of record two's frame.
  auto recovered = AppendLog::Recover("wal", &env);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), 1u);

  ASSERT_TRUE(log.Open("wal", &env).ok());
  EXPECT_FALSE(log.wedged());
  ASSERT_TRUE(log.Append(Bytes("three")).ok());
  const auto records = Replay("wal", &env);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], Bytes("one"));
  EXPECT_EQ(records[1], Bytes("three"));
}

// Short writes and EINTR are absorbed by the Env write loops: with a heavy
// transient-fault schedule, every append still succeeds and every record
// replays intact.
TEST(LogFaults, TransientFaultsAreInvisibleToCallers) {
  ft::FaultEnv env;
  env.SeedRandomFaults(/*seed=*/9, /*p_transient=*/0.35, /*p_error=*/0.0);
  AppendLog log;
  ASSERT_TRUE(log.Open("wal", &env).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(log.Append(Bytes("record-" + std::to_string(i))).ok()) << i;
  }
  const auto stats = env.stats();
  EXPECT_GT(stats.short_writes + stats.eintrs, 0u);
  EXPECT_EQ(stats.enospcs + stats.flush_fails + stats.crashes, 0u);

  const auto records = Replay("wal", &env);
  ASSERT_EQ(records.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(records[i], Bytes("record-" + std::to_string(i)));
  }
}

// The whole point of the seeded schedule: one integer reproduces the exact
// same faults, ack pattern, and final bytes.
TEST(LogFaults, SeededScheduleIsReproducible) {
  auto run = [](ft::FaultEnv* env, std::vector<bool>* acks) {
    AppendLog log;
    log.set_flush_each_append(false);
    acks->push_back(log.Open("wal", env).ok());
    for (int i = 0; i < 30; ++i) {
      if (!log.is_open() || log.wedged()) {
        // Recovery itself can draw injected faults too; record, don't
        // assert — the point is that both runs fail the same way.
        acks->push_back(AppendLog::Recover("wal", env).ok());
        acks->push_back(log.Open("wal", env).ok());
      }
      acks->push_back(log.Append(Bytes("r" + std::to_string(i))).ok());
      if (i % 5 == 4) acks->push_back(log.Flush().ok());
    }
    log.Close();
  };

  ft::FaultEnv env_a;
  ft::FaultEnv env_b;
  env_a.SeedRandomFaults(42, 0.15, 0.2);
  env_b.SeedRandomFaults(42, 0.15, 0.2);
  std::vector<bool> acks_a;
  std::vector<bool> acks_b;
  run(&env_a, &acks_a);
  run(&env_b, &acks_b);

  EXPECT_EQ(acks_a, acks_b);
  EXPECT_EQ(env_a.io_points(), env_b.io_points());
  EXPECT_EQ(env_a.ReadFileBytes("wal"), env_b.ReadFileBytes("wal"));
  EXPECT_FALSE(acks_a.empty());
  // The schedule actually injected something (else the test is vacuous).
  const auto stats = env_a.stats();
  EXPECT_GT(stats.enospcs + stats.flush_fails, 0u);
}

// ---------------------------------------------------------------------------
// Crash-point enumeration over the full Database.
// ---------------------------------------------------------------------------

/// What the workload believes it accomplished: the records each Put acked,
/// and how many of them were covered by the last successful flush (the
/// durable lower bound under a process crash).
struct Tracker {
  std::vector<InteractionRecord> interactions;
  size_t interactions_flushed = 0;
  std::vector<ChatRecord> chats;
  std::vector<HighlightRecord> highlights;
};

InteractionRecord MakeInteraction(uint64_t id) {
  InteractionRecord rec;
  rec.video_id = "v";
  rec.user = "u" + std::to_string(id);
  rec.session_id = id;
  rec.event = StoredInteraction::kPlay;
  rec.wall_time = static_cast<double>(id);
  rec.position = 10.0 * static_cast<double>(id);
  rec.target = 5.0;
  return rec;
}

ChatRecord MakeChat(int i) {
  ChatRecord rec;
  rec.video_id = "v";
  rec.timestamp = static_cast<double>(i);
  rec.user = "chatter";
  rec.text = "msg " + std::to_string(i);
  return rec;
}

HighlightRecord MakeHighlight(int dot) {
  HighlightRecord rec;
  rec.video_id = "v";
  rec.dot_index = dot;
  rec.dot_position = 7.0 * dot;
  rec.start = rec.dot_position - 1.0;
  rec.end = rec.dot_position + 1.0;
  rec.score = 0.5;
  return rec;
}

/// The deterministic workload under test: interleaved puts on all three
/// logs; keeps going after errors the way a real server would. Each acked
/// record is recorded; in batched mode the flushed watermark advances only
/// on a successful FlushInteractions().
void RunWorkload(Database* db, bool batched, Tracker* t) {
  db->SetInteractionFlushEachAppend(!batched);
  for (int i = 1; i <= 6; ++i) {
    const auto rec = MakeInteraction(static_cast<uint64_t>(i));
    if (db->PutInteraction(rec).ok()) {
      t->interactions.push_back(rec);
      if (!batched) t->interactions_flushed = t->interactions.size();
    }
    if (i % 2 == 0) {
      const auto chat = MakeChat(i);
      if (db->PutChat(chat).ok()) t->chats.push_back(chat);
      const auto dot = MakeHighlight(i / 2);
      if (db->PutHighlight(dot).ok()) t->highlights.push_back(dot);
    }
    if (batched && i % 3 == 0 && db->FlushInteractions().ok()) {
      t->interactions_flushed = t->interactions.size();
    }
  }
}

/// The durability contract after crash + recovery: for every log, the
/// surviving records are an exact prefix of the acked sequence, at least
/// as long as the flushed watermark (per-record logs flush every append,
/// so chat and highlights must survive completely).
void CheckContract(Database* db, const Tracker& t, uint64_t crash_point) {
  // Interactions: prefix of acked, bounded below by the last flush.
  std::vector<InteractionRecord> present;
  for (const auto& [sid, recs] : db->interactions().SessionsForVideo("v")) {
    ASSERT_EQ(recs.size(), 1u) << "crash@" << crash_point;
    present.push_back(recs.front());
  }
  ASSERT_LE(present.size(), t.interactions.size()) << "crash@" << crash_point;
  EXPECT_GE(present.size(), t.interactions_flushed) << "crash@" << crash_point;
  for (size_t i = 0; i < present.size(); ++i) {
    EXPECT_EQ(present[i], t.interactions[i]) << "crash@" << crash_point;
  }

  // Chat (always per-record flush): every acked message survives.
  if (!t.chats.empty() || db->chat().HasVideo("v")) {
    const auto& chats = db->chat().GetByVideo("v");
    ASSERT_EQ(chats.size(), t.chats.size()) << "crash@" << crash_point;
    for (size_t i = 0; i < chats.size(); ++i) {
      EXPECT_EQ(chats[i], t.chats[i]) << "crash@" << crash_point;
    }
  }

  // Highlights (always per-record flush, unique dot indices).
  const auto dots = db->highlights().GetLatest("v");
  ASSERT_EQ(dots.size(), t.highlights.size()) << "crash@" << crash_point;
  for (size_t i = 0; i < dots.size(); ++i) {
    EXPECT_EQ(dots[i], t.highlights[i]) << "crash@" << crash_point;
  }
}

/// Pass 1: run the workload fault-free to learn the I/O point count N.
/// Pass 2: for every k in [0, N), crash at point k, simulate the restart,
/// and assert the reopened database honors the durability contract. Every
/// injected point must actually fire (100% coverage), and each failure is
/// reproducible from the single integer k.
void EnumerateCrashPoints(bool batched) {
  uint64_t total_points = 0;
  {
    ft::FaultEnv env;
    OpenOptions options;
    options.directory = "db";
    options.env = &env;
    auto db = DB::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Tracker t;
    RunWorkload(db.value().db.get(), batched, &t);
    db.value().db.reset();  // clean shutdown consumes the close points too
    total_points = env.io_points();
    ASSERT_EQ(t.interactions.size(), 6u);  // fault-free run acks everything
  }
  ASSERT_GT(total_points, 20u);

  for (uint64_t k = 0; k < total_points; ++k) {
    ft::FaultEnv env;
    env.CrashAt(k);
    OpenOptions options;
    options.directory = "db";
    options.env = &env;
    Tracker t;
    {
      auto db = DB::Open(options);
      if (db.ok()) RunWorkload(db.value().db.get(), batched, &t);
      // A crash mid-open leaves nothing acked; the contract still holds.
    }
    ASSERT_TRUE(env.crashed()) << "point " << k << " was never reached";

    env.RecoverAfterCrash(ft::CrashModel::kProcess);
    auto reopened = DB::Open(options);
    ASSERT_TRUE(reopened.ok())
        << "crash@" << k << ": " << reopened.status().ToString();
    CheckContract(reopened.value().db.get(), t, k);
  }
}

TEST(CrashPointEnumeration, PerRecordFlushLosesNothingAcked) {
  EnumerateCrashPoints(/*batched=*/false);
}

TEST(CrashPointEnumeration, BatchedFlushBoundsLossToLastFlush) {
  EnumerateCrashPoints(/*batched=*/true);
}

// Power-loss enumeration for the sync_on_flush database: with fsync at
// every flush point, even pulling the plug loses nothing acked on the
// per-record logs.
TEST(CrashPointEnumeration, SyncOnFlushSurvivesPowerLossAtEveryPoint) {
  OpenOptions options;
  options.directory = "db";
  options.sync_on_flush = true;

  uint64_t total_points = 0;
  {
    ft::FaultEnv env;
    options.env = &env;
    auto db = DB::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Tracker t;
    RunWorkload(db.value().db.get(), /*batched=*/false, &t);
    db.value().db.reset();
    total_points = env.io_points();
  }

  for (uint64_t k = 0; k < total_points; ++k) {
    ft::FaultEnv env;
    env.CrashAt(k);
    options.env = &env;
    Tracker t;
    {
      auto db = DB::Open(options);
      if (db.ok()) RunWorkload(db.value().db.get(), /*batched=*/false, &t);
    }
    ASSERT_TRUE(env.crashed()) << "point " << k << " was never reached";

    env.RecoverAfterCrash(ft::CrashModel::kPowerLoss);
    auto reopened = DB::Open(options);
    ASSERT_TRUE(reopened.ok())
        << "crash@" << k << ": " << reopened.status().ToString();
    CheckContract(reopened.value().db.get(), t, k);
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation: a failed Put surfaces the error and counts it.
// ---------------------------------------------------------------------------

TEST(DatabaseFaults, FailedPutSurfacesErrorAndCountsMetric) {
  auto* counter = obs::Registry::Global().GetCounter(
      "lightor_storage_write_errors_total", {{"log", "interactions"}});
  const uint64_t before = counter->value();

  ft::FaultEnv env;
  OpenOptions options;
  options.directory = "db";
  options.env = &env;
  auto opened = DB::Open(options);
  ASSERT_TRUE(opened.ok());
  auto db = std::move(opened.value().db);

  ASSERT_TRUE(db->PutInteraction(MakeInteraction(1)).ok());
  // Next interaction append fails at its header-append point.
  env.InjectAt(env.io_points(), ft::FaultKind::kEnospc);
  auto st = db->PutInteraction(MakeInteraction(2));
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_EQ(counter->value(), before + 1);

  // The store was not polluted with the rejected record.
  EXPECT_EQ(db->interactions().SessionsForVideo("v").size(), 1u);
}

// ---------------------------------------------------------------------------
// One crawl is all or nothing: a first visit's chat is a single log record.
// ---------------------------------------------------------------------------

/// One recorded video of several thousand messages and a trained pipeline,
/// shared by every test of the suite (training is the slow part).
class CrawlAtomicityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::Platform::Options popts;
    popts.num_channels = 1;
    popts.videos_per_channel = 1;
    popts.seed = 15;
    popts.min_rate_scale = popts.max_rate_scale = 2.0;
    platform_ = new sim::Platform(popts);
    video_id_ = new std::string(platform_->AllVideoIds()[0]);

    const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 16);
    core::TrainingVideo tv;
    tv.messages = sim::ToCoreMessages(corpus[0].chat);
    tv.video_length = corpus[0].truth.meta.length;
    for (const auto& h : corpus[0].truth.highlights) {
      tv.highlights.push_back(h.span);
    }
    lightor_ = new core::Lightor();
    ASSERT_TRUE(lightor_->TrainInitializer({tv}).ok());
  }

  static void TearDownTestSuite() {
    delete lightor_;
    delete video_id_;
    delete platform_;
  }

  static const sim::RecordedVideo& Video() {
    return *platform_->FindVideo(*video_id_);
  }

  /// The chat a complete crawl stores, as `GetByVideo` returns it.
  static std::vector<ChatRecord> FullChat() {
    std::vector<ChatRecord> chat;
    for (const auto& msg : Video().chat) {
      chat.push_back({*video_id_, msg.timestamp, msg.user, msg.text});
    }
    std::stable_sort(chat.begin(), chat.end(),
                     [](const ChatRecord& a, const ChatRecord& b) {
                       return a.timestamp < b.timestamp;
                     });
    return chat;
  }

  /// The red dots `DetectBatch` places on the video, as records.
  static std::vector<HighlightRecord> OracleDots(size_t top_k) {
    const double length = Video().truth.meta.length;
    const auto dots = lightor_->initializer().DetectBatch(
        sim::ToCoreMessages(Video().chat), length, top_k);
    const double fallback = lightor_->options().extractor.fallback_length;
    std::vector<HighlightRecord> records;
    for (size_t i = 0; i < dots.size(); ++i) {
      HighlightRecord rec;
      rec.video_id = *video_id_;
      rec.dot_index = static_cast<int32_t>(i);
      rec.dot_position = dots[i].position;
      rec.start = dots[i].position;
      rec.end = dots[i].position + fallback;
      rec.score = dots[i].score;
      records.push_back(std::move(rec));
    }
    return records;
  }

  static std::unique_ptr<serving::HighlightServer> MakeServer(Database* db) {
    serving::ServerOptions opts;
    opts.platform = serving::Borrow<const sim::Platform>(platform_);
    opts.db = serving::Borrow(db);
    opts.lightor = serving::Borrow<const core::Lightor>(lightor_);
    opts.refine_batch_sessions = 0;
    auto server = serving::HighlightServer::Create(opts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  /// A first visit after recovery serves exactly the DetectBatch dots,
  /// crawling again if the crash took the chat.
  static void ExpectFirstVisitServesOracle(Database* db, uint64_t k) {
    auto server = MakeServer(db);
    auto visit = server->OnPageVisit({*video_id_, "viewer"});
    ASSERT_TRUE(visit.ok()) << "crash@" << k << ": "
                            << visit.status().ToString();
    EXPECT_TRUE(visit.value().first_visit) << "crash@" << k;
    EXPECT_EQ(visit.value().highlights, OracleDots(serving::ServerOptions{}.top_k))
        << "crash@" << k;
    EXPECT_EQ(db->chat().GetByVideo(*video_id_), FullChat()) << "crash@" << k;
  }

  /// Crashes at every I/O point inside one `EnsureChat`, restarts under
  /// `model`, and checks the video holds none or all of its chat.
  static void EnumerateCrawlCrashes(bool sync_on_flush, ft::CrashModel model) {
    OpenOptions options;
    options.directory = "db";
    options.sync_on_flush = sync_on_flush;
    uint64_t first = 0, last = 0;
    {
      ft::FaultEnv env;
      options.env = &env;
      auto opened = DB::Open(options);
      ASSERT_TRUE(opened.ok());
      Crawler crawler(platform_, opened.value().db.get());
      first = env.io_points();
      auto crawled = crawler.EnsureChat(*video_id_);
      ASSERT_TRUE(crawled.ok() && crawled.value());
      last = env.io_points();
    }
    // One append and one flush (or sync), not one per message.
    ASSERT_GE(last - first, 1u);
    EXPECT_LE(last - first, 2u);
    const auto full = FullChat();
    ASSERT_GT(full.size(), 2000u);

    // k == last crashes right after the crawl returned: all of it stays.
    for (uint64_t k = first; k <= last; ++k) {
      ft::FaultEnv env;
      options.env = &env;
      env.CrashAt(k);
      bool acked = false;
      {
        auto opened = DB::Open(options);
        ASSERT_TRUE(opened.ok()) << "crash@" << k;
        Crawler crawler(platform_, opened.value().db.get());
        auto crawled = crawler.EnsureChat(*video_id_);
        acked = crawled.ok();
        EXPECT_EQ(acked, k == last) << "crash@" << k;
        if (!acked) {
          EXPECT_FALSE(opened.value().db->chat().HasVideo(*video_id_))
              << "crash@" << k << ": a failed crawl indexed chat";
        }
        // Point `last` is the next write: the crash lands before close.
        (void)opened.value().db->PutHighlight(MakeHighlight(0));
      }
      ASSERT_TRUE(env.crashed()) << "point " << k << " was never reached";
      env.RecoverAfterCrash(model);
      auto reopened = DB::Open(options);
      ASSERT_TRUE(reopened.ok()) << "crash@" << k << ": "
                                 << reopened.status().ToString();
      Database* db = reopened.value().db.get();
      if (db->chat().HasVideo(*video_id_)) {
        EXPECT_EQ(db->chat().GetByVideo(*video_id_), full)
            << "crash@" << k << ": recovery kept a prefix of the crawl";
      }
      if (acked) {
        EXPECT_TRUE(db->chat().HasVideo(*video_id_))
            << "crash@" << k << ": an acked crawl was lost";
      }
      ExpectFirstVisitServesOracle(db, k);
    }
  }

  static sim::Platform* platform_;
  static std::string* video_id_;
  static core::Lightor* lightor_;
};

sim::Platform* CrawlAtomicityTest::platform_ = nullptr;
std::string* CrawlAtomicityTest::video_id_ = nullptr;
core::Lightor* CrawlAtomicityTest::lightor_ = nullptr;

TEST_F(CrawlAtomicityTest, ProcessCrashKeepsNoneOrAllOfTheChat) {
  EnumerateCrawlCrashes(/*sync_on_flush=*/false, ft::CrashModel::kProcess);
}

TEST_F(CrawlAtomicityTest, PowerLossKeepsNoneOrAllOfTheChat) {
  EnumerateCrawlCrashes(/*sync_on_flush=*/true, ft::CrashModel::kPowerLoss);
}

// A write error partway through the batch leaves a torn frame in the
// kernel: the log wedges, nothing is indexed, and the visit fails with the
// error instead of publishing dots. Recovery truncates the torn bytes and
// the next first visit serves the DetectBatch dots.
TEST_F(CrawlAtomicityTest, WriteErrorMidBatchWedgesAndPublishesNothing) {
  auto* errors = obs::Registry::Global().GetCounter(
      "lightor_storage_write_errors_total", {{"log", "chat"}});
  for (uint64_t offset : {0u, 1u}) {  // the append, then the flush
    ft::FaultEnv env;
    OpenOptions options;
    options.directory = "db";
    options.env = &env;
    const uint64_t errors_before = errors->value();
    {
      auto opened = DB::Open(options);
      ASSERT_TRUE(opened.ok());
      Database* db = opened.value().db.get();
      auto server = MakeServer(db);
      env.InjectAt(env.io_points() + offset, ft::FaultKind::kEnospc);
      auto visit = server->OnPageVisit({*video_id_, "viewer"});
      ASSERT_FALSE(visit.ok()) << "offset " << offset;
      EXPECT_TRUE(visit.status().IsIoError()) << visit.status().ToString();
      EXPECT_EQ(errors->value(), errors_before + 1);
      EXPECT_FALSE(db->chat().HasVideo(*video_id_));
      EXPECT_FALSE(db->highlights().HasVideo(*video_id_));
      EXPECT_FALSE(server->GetHighlights(*video_id_).ok());
      // Wedged: a retry fails too rather than appending behind the tear.
      EXPECT_FALSE(server->OnPageVisit({*video_id_, "viewer"}).ok());
      EXPECT_FALSE(db->chat().HasVideo(*video_id_));
    }
    if (offset == 1) {
      // The failed flush moved part of the frame to the kernel.
      EXPECT_GT(env.ReadFileBytes("db/chat.log").size(), 0u);
    }
    env.RecoverAfterCrash(ft::CrashModel::kProcess);
    auto reopened = DB::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value().stats.torn_bytes_truncated > 0, offset == 1);
    EXPECT_FALSE(reopened.value().db->chat().HasVideo(*video_id_));
    ExpectFirstVisitServesOracle(reopened.value().db.get(), offset);
  }
}

}  // namespace
}  // namespace lightor::storage
