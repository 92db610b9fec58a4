#ifndef LIGHTOR_SERVING_REFINE_H_
#define LIGHTOR_SERVING_REFINE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/lightor.h"
#include "serving/api.h"
#include "storage/record.h"

namespace lightor::serving {

/// The refinement-pass core shared by the single-threaded reference
/// `WebService` and the concurrent `HighlightServer`. Both call the same
/// pure functions, so the two implementations are refinement-identical by
/// construction (the differential test in tests/serving_server_test.cc
/// asserts it end to end).

/// The Initializer's input for a video's stored chat: the messages in the
/// order `ChatStore::GetByVideo` returns them (stable-sorted by
/// timestamp), so a first visit can build it from a crawl it has not
/// stored yet and get exactly what a read back from the store would.
std::vector<core::Message> MessagesFromChat(
    const std::vector<storage::ChatRecord>& chat);

/// Converts a stored interaction back to the sim event type.
sim::InteractionType ToSimType(storage::StoredInteraction event);
/// Converts a sim event type to its stable wire value.
storage::StoredInteraction FromSimType(sim::InteractionType type);

/// Rebuilds each session's play records from its raw event stream and
/// groups the plays by the nearest red dot within Δ (plays farther than Δ
/// from every dot belong to no highlight and are dropped).
std::unordered_map<int32_t, std::vector<core::Play>> GroupPlaysByDot(
    const std::map<uint64_t, std::vector<storage::InteractionRecord>>&
        sessions,
    const std::vector<storage::HighlightRecord>& dots, double delta);

/// One pass of the Highlight Extractor over a video, computed purely from
/// already-read state (no database access — the caller reads `dots` and
/// `sessions` and persists `updated` afterwards).
struct RefinePassResult {
  RefineReport report;
  /// Records to persist: the dots that had plays, with stepped state.
  std::vector<storage::HighlightRecord> updated;
  /// The full latest dot set after the pass (updated dots replaced,
  /// untouched dots carried over), ordered by dot index — the next
  /// highlight snapshot.
  std::vector<storage::HighlightRecord> all;
};

RefinePassResult RunRefinePass(
    const core::Lightor& lightor, const std::string& video_id,
    const std::vector<storage::HighlightRecord>& dots,
    const std::map<uint64_t, std::vector<storage::InteractionRecord>>&
        sessions);

/// Restart dedupe: videos whose stored dots were already refined
/// (iteration > 0) have consumed interactions that are still in the log;
/// returns a per-video watermark marking everything currently stored as
/// consumed for those videos, so a restarted service does not re-feed old
/// sessions into `Refine`. See ServerOptions::seed_watermarks_from_db.
std::unordered_map<std::string, uint64_t> SeedWatermarksFromDb(
    storage::Database& db);

}  // namespace lightor::serving

#endif  // LIGHTOR_SERVING_REFINE_H_
