/// Multi-threaded stress test of the concurrent HighlightServer: 8 client
/// threads drive mixed traffic (page visits, session uploads, snapshot
/// reads, explicit refines) over 16 videos. Checks afterwards:
///
///   * no lost sessions — every interaction event accepted by LogSession
///     is in the database;
///   * snapshot-consistent reads — every response is a coherent
///     highlight set (one video, unique dot indices) with per-video
///     monotonically non-decreasing versions per client;
///   * the drain consumes every pending batch before shutdown.
///
/// ci.sh also runs this binary under ThreadSanitizer
/// (-DLIGHTOR_SANITIZE=thread); keep the workload modest so that build
/// stays fast on small machines.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serving/highlight_server.h"
#include "sim/bridge.h"
#include "sim/corpus.h"
#include "sim/viewer_simulator.h"
#include "storage/database.h"

namespace lightor::serving {
namespace {

constexpr int kThreads = 8;
constexpr int kRoundsPerThread = 6;

TEST(ServingStressTest, ConcurrentMixedTrafficIsLossless) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lightor_serving_stress")
          .string();
  std::filesystem::remove_all(dir);

  // 4 channels x 4 videos = 16 videos spread over the shards.
  sim::Platform::Options popts;
  popts.num_channels = 4;
  popts.videos_per_channel = 4;
  popts.seed = 81;
  const sim::Platform platform(popts);

  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 82);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  core::Lightor lightor;
  ASSERT_TRUE(lightor.TrainInitializer({tv}).ok());

  auto opened = storage::DB::Open(storage::OpenOptions(dir));
  ASSERT_TRUE(opened.ok());
  auto db = std::move(opened.value().db);

  ServerOptions opts;
  opts.platform = Borrow(&platform);
  opts.db = Borrow(db.get());
  opts.lightor = Borrow<const core::Lightor>(&lightor);
  opts.num_shards = 8;
  opts.num_workers = 2;
  opts.refine_batch_sessions = 4;
  opts.max_queue_depth = 32;
  auto created = HighlightServer::Create(opts);
  ASSERT_TRUE(created.ok());
  HighlightServer& server = *created.value();

  const auto ids = platform.AllVideoIds();
  ASSERT_GE(ids.size(), 16u);

  std::atomic<uint64_t> next_session_id{0};
  std::atomic<uint64_t> events_logged{0};
  std::atomic<int> failures{0};

  auto client = [&](int thread_index) {
    sim::ViewerSimulator viewers;
    common::Rng rng(1000 + static_cast<uint64_t>(thread_index));
    // Per-video last-seen snapshot version; reads must never go back.
    std::unordered_map<std::string, uint64_t> last_version;
    for (int round = 0; round < kRoundsPerThread; ++round) {
      const auto& video_id =
          ids[static_cast<size_t>((thread_index + round * 3)) % ids.size()];
      const auto visit = server.OnPageVisit({video_id, "stress"});
      if (!visit.ok()) {
        ++failures;
        continue;
      }
      const auto video = platform.GetVideo(video_id);
      if (!video.ok()) {
        ++failures;
        continue;
      }

      // Snapshot consistency of the visit response.
      std::unordered_set<int32_t> indices;
      for (const auto& rec : visit.value().highlights) {
        if (rec.video_id != video_id) ++failures;
        if (!indices.insert(rec.dot_index).second) ++failures;
      }

      // Upload a few sessions around the published dots.
      for (const auto& rec : visit.value().highlights) {
        const auto session = viewers.SimulateSession(
            video.value().truth, rec.dot_position, rng,
            "t" + std::to_string(thread_index));
        LogSessionRequest log;
        log.video_id = video_id;
        log.user = session.user;
        log.session_id = 1 + next_session_id.fetch_add(1);
        log.events = session.events;
        if (server.LogSession(log).ok()) {
          events_logged.fetch_add(log.events.size());
        } else {
          ++failures;
        }
      }

      // Mixed read/refine traffic on top of the background workers.
      if (round % 3 == 2) {
        if (!server.Refine(video_id).ok()) ++failures;
      }
      const auto read = server.GetHighlights(video_id);
      if (!read.ok()) {
        ++failures;
        continue;
      }
      indices.clear();
      for (const auto& rec : read.value().highlights) {
        if (rec.video_id != video_id) ++failures;
        if (!indices.insert(rec.dot_index).second) ++failures;
      }
      uint64_t& seen = last_version[video_id];
      if (read.value().snapshot_version < seen) ++failures;
      seen = read.value().snapshot_version;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(client, t);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);

  // Drain everything that is still pending, then stop the workers.
  server.Shutdown();

  // No lost sessions: every accepted interaction event is in the store.
  EXPECT_EQ(db->interactions().TotalRecords(), events_logged.load());

  // Every visited video ends with a coherent persisted highlight set.
  for (const auto& video_id : ids) {
    const auto read = server.GetHighlights(video_id);
    if (!read.ok()) continue;  // never visited by any thread
    std::unordered_set<int32_t> indices;
    for (const auto& rec : read.value().highlights) {
      EXPECT_EQ(rec.video_id, video_id);
      EXPECT_TRUE(indices.insert(rec.dot_index).second);
    }
    EXPECT_EQ(db->highlights().GetLatest(video_id).size(),
              read.value().highlights.size());
  }

  std::filesystem::remove_all(dir);
}

/// First visits crawl outside the db mutex: cold visits of distinct videos
/// on different shards run at once, beside LogSession traffic on a warm
/// video. Every cold visit must serve the DetectBatch dots and store the
/// whole chat, and no session may be lost. ci.sh runs this under TSan,
/// which checks the narrower lock scope for races.
TEST(ServingStressTest, ColdVisitsOnDistinctShardsRaceSessions) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "lightor_serving_cold_visits")
          .string();
  std::filesystem::remove_all(dir);

  sim::Platform::Options popts;
  popts.num_channels = 3;
  popts.videos_per_channel = 3;
  popts.seed = 83;
  const sim::Platform platform(popts);

  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 84);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  core::Lightor lightor;
  ASSERT_TRUE(lightor.TrainInitializer({tv}).ok());

  auto opened = storage::DB::Open(storage::OpenOptions(dir));
  ASSERT_TRUE(opened.ok());
  auto db = std::move(opened.value().db);

  ServerOptions opts;
  opts.platform = Borrow(&platform);
  opts.db = Borrow(db.get());
  opts.lightor = Borrow<const core::Lightor>(&lightor);
  opts.num_shards = 16;
  opts.refine_batch_sessions = 0;  // sessions only; no background refine
  auto created = HighlightServer::Create(opts);
  ASSERT_TRUE(created.ok());
  HighlightServer& server = *created.value();

  // One warm video takes the sessions; the cold ones sit on distinct
  // shards (the server shards by std::hash of the id), so their first
  // visits share no shard lock and meet only on the db mutex.
  const auto ids = platform.AllVideoIds();
  const std::string warm_id = ids[0];
  ASSERT_TRUE(server.OnPageVisit({warm_id, "warm"}).ok());
  const size_t warm_shard = std::hash<std::string>{}(warm_id) % opts.num_shards;
  std::vector<std::string> cold;
  std::unordered_set<size_t> shards_taken{warm_shard};
  for (const auto& id : ids) {
    if (shards_taken.insert(std::hash<std::string>{}(id) % opts.num_shards)
            .second) {
      cold.push_back(id);
    }
  }
  ASSERT_GE(cold.size(), 4u);
  cold.resize(4);

  std::vector<std::vector<storage::HighlightRecord>> oracle;
  const double fallback = lightor.options().extractor.fallback_length;
  for (const auto& id : cold) {
    const sim::RecordedVideo* video = platform.FindVideo(id);
    const auto dots = lightor.initializer().DetectBatch(
        sim::ToCoreMessages(video->chat), video->truth.meta.length,
        opts.top_k);
    std::vector<storage::HighlightRecord> records;
    for (size_t i = 0; i < dots.size(); ++i) {
      storage::HighlightRecord rec;
      rec.video_id = id;
      rec.dot_index = static_cast<int32_t>(i);
      rec.dot_position = dots[i].position;
      rec.start = dots[i].position;
      rec.end = dots[i].position + fallback;
      rec.score = dots[i].score;
      records.push_back(std::move(rec));
    }
    oracle.push_back(std::move(records));
  }

  const auto warm_dots = server.GetHighlights(warm_id).value().highlights;
  ASSERT_FALSE(warm_dots.empty());
  const sim::RecordedVideo* warm_video = platform.FindVideo(warm_id);
  std::atomic<bool> go{false};
  std::atomic<int> visits_left{static_cast<int>(cold.size())};
  std::atomic<uint64_t> events_logged{0};
  std::atomic<uint64_t> next_session_id{0};
  std::atomic<int> failures{0};
  std::vector<PageVisitResponse> visits(cold.size());

  std::vector<std::thread> threads;
  for (size_t i = 0; i < cold.size(); ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      auto visit = server.OnPageVisit({cold[i], "cold"});
      if (visit.ok()) {
        visits[i] = std::move(visit).value();
      } else {
        ++failures;
      }
      --visits_left;
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      sim::ViewerSimulator viewers;
      common::Rng rng(3000 + static_cast<uint64_t>(t));
      while (!go.load()) std::this_thread::yield();
      // At least a few sessions each, then as many as the visits allow.
      for (int n = 0; n < 8 || visits_left.load() > 0; ++n) {
        const auto session = viewers.SimulateSession(
            warm_video->truth,
            warm_dots[static_cast<size_t>(n) % warm_dots.size()].dot_position,
            rng, "s" + std::to_string(t));
        LogSessionRequest log;
        log.video_id = warm_id;
        log.user = session.user;
        log.session_id = 1 + next_session_id.fetch_add(1);
        log.events = session.events;
        if (server.LogSession(log).ok()) {
          events_logged.fetch_add(log.events.size());
        } else {
          ++failures;
        }
      }
    });
  }
  go.store(true);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(visits[i].first_visit) << cold[i];
    EXPECT_EQ(visits[i].highlights, oracle[i]) << cold[i];
    EXPECT_EQ(db->chat().GetByVideo(cold[i]).size(),
              platform.FindVideo(cold[i])->chat.size())
        << cold[i];
  }
  server.Shutdown();
  EXPECT_EQ(db->interactions().TotalRecords(), events_logged.load());
  std::filesystem::remove_all(dir);
}

/// Shutdown while clients are still sending: late requests are rejected
/// with FailedPrecondition, nothing crashes, and accepted sessions are
/// still never lost.
TEST(ServingStressTest, ShutdownRacesWithClients) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       "lightor_serving_stress_shutdown")
          .string();
  std::filesystem::remove_all(dir);

  sim::Platform::Options popts;
  popts.num_channels = 2;
  popts.videos_per_channel = 2;
  popts.seed = 91;
  const sim::Platform platform(popts);

  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 92);
  core::TrainingVideo tv;
  tv.messages = sim::ToCoreMessages(corpus[0].chat);
  tv.video_length = corpus[0].truth.meta.length;
  for (const auto& h : corpus[0].truth.highlights) {
    tv.highlights.push_back(h.span);
  }
  core::Lightor lightor;
  ASSERT_TRUE(lightor.TrainInitializer({tv}).ok());

  auto opened = storage::DB::Open(storage::OpenOptions(dir));
  ASSERT_TRUE(opened.ok());
  auto db = std::move(opened.value().db);

  ServerOptions opts;
  opts.platform = Borrow(&platform);
  opts.db = Borrow(db.get());
  opts.lightor = Borrow<const core::Lightor>(&lightor);
  opts.refine_batch_sessions = 2;
  auto created = HighlightServer::Create(opts);
  ASSERT_TRUE(created.ok());
  HighlightServer& server = *created.value();

  const auto ids = platform.AllVideoIds();
  for (const auto& video_id : ids) {
    ASSERT_TRUE(server.OnPageVisit({video_id, "warm"}).ok());
  }

  std::atomic<uint64_t> events_accepted{0};
  std::atomic<bool> saw_rejection{false};
  auto client = [&](int thread_index) {
    sim::ViewerSimulator viewers;
    common::Rng rng(2000 + static_cast<uint64_t>(thread_index));
    for (int i = 0; i < 40; ++i) {
      const auto& video_id =
          ids[static_cast<size_t>(thread_index + i) % ids.size()];
      const auto video = platform.GetVideo(video_id).value();
      const auto dots = server.GetHighlights(video_id);
      if (!dots.ok() || dots.value().highlights.empty()) continue;
      const auto session = viewers.SimulateSession(
          video.truth, dots.value().highlights[0].dot_position, rng, "x");
      LogSessionRequest log;
      log.video_id = video_id;
      log.user = session.user;
      log.session_id = static_cast<uint64_t>(thread_index) * 1000 +
                       static_cast<uint64_t>(i) + 1;
      log.events = session.events;
      const auto status = server.LogSession(log);
      if (status.ok()) {
        events_accepted.fetch_add(log.events.size());
      } else if (status.IsFailedPrecondition()) {
        saw_rejection.store(true);
        break;  // server is shutting down; a real client would too
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(client, t);
  server.Shutdown();  // races with the clients above
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(db->interactions().TotalRecords(),
            events_accepted.load());
  (void)saw_rejection;  // timing-dependent; either outcome is valid

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lightor::serving
