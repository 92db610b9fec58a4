#ifndef LIGHTOR_STORAGE_CHECKPOINT_H_
#define LIGHTOR_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/stores.h"

namespace lightor::storage {

class Database;

/// On-disk layout of a checkpointed database directory:
///
///   MANIFEST             which log generation is live and which
///                        checkpoint (if any) Open must load
///   ckpt.<g>             checkpoint image for generation g
///   chat.log             generation-0 logs (the pre-checkpoint legacy
///   interactions.log     names; a directory with no MANIFEST is read
///   highlights.log       exactly as before this subsystem existed)
///   chat.<g>.log         generation-g (g >= 1) logs, created by the
///   ...                  g-th checkpoint; old generations are deleted
///
/// A checkpoint bumps the generation: it writes the full live state to
/// `ckpt.<g+1>` (write-temp -> fsync -> rename), then atomically swaps
/// the MANIFEST to `{log_gen: g+1, checkpoint_gen: g+1}` — the commit
/// point — and finally starts fresh generation-g+1 logs and deletes the
/// old ones. Open loads the checkpoint the MANIFEST names and replays
/// only the current generation's logs, so a cold restart is
/// O(live state + post-checkpoint suffix), not O(history).
///
/// Crash-safety argument (enumerable under testing::FaultEnv): every
/// step before the MANIFEST rename leaves the old manifest in place, so
/// recovery sees the pre-checkpoint state; every step after it finds the
/// new checkpoint durable (it was fsynced before the swap) and the new
/// logs either short or absent (absent = empty log), so recovery sees
/// the post-checkpoint state. There is no I/O point whose crash yields a
/// hybrid. Stale files from a torn run (`*.tmp`, unreferenced `ckpt.*`
/// or off-generation logs) are swept by the next Open.
struct Manifest {
  /// Bumped when the format changes incompatibly.
  static constexpr uint32_t kFormatVersion = 1;

  uint64_t log_gen = 0;         ///< live log generation (0 = legacy names)
  uint64_t checkpoint_gen = 0;  ///< checkpoint to load on Open; 0 = none
  uint64_t checkpoint_lsn = 0;  ///< LSN the checkpoint covers
};

std::string ManifestPath(const std::string& directory);
std::string CheckpointFilePath(const std::string& directory, uint64_t gen);
/// `base` is "chat", "interactions" or "highlights"; gen 0 maps to the
/// legacy `<base>.log` name.
std::string LogFilePath(const std::string& directory, const std::string& base,
                        uint64_t gen);

/// Atomically installs `manifest` (write temp, fsync, rename — the
/// rename is the commit point).
common::Status WriteManifest(Env* env, const std::string& directory,
                             const Manifest& manifest);

/// Reads the MANIFEST; nullopt when none exists (legacy layout). A
/// present-but-unreadable manifest is Corruption: it is only ever
/// installed by an atomic rename of a synced temp file, so a torn one
/// means real damage, and guessing would serve a wrong hybrid.
common::Result<std::optional<Manifest>> ReadManifest(
    Env* env, const std::string& directory);

/// Checkpoint policy knobs, carried by `storage::OpenOptions`.
struct CheckpointPolicy {
  /// Omit interaction records of videos whose dots have completed at
  /// least one refinement pass. The serving layer consumes interactions
  /// at most once across restarts (see serving::SeedWatermarksFromDb:
  /// refined dots put the restart watermark past everything on disk), so
  /// these records can never feed another refinement — dropping them is
  /// what makes the checkpoint O(live state) rather than O(sessions).
  /// Turn off to keep every interaction byte-for-byte (e.g. for offline
  /// analysis of the raw session streams).
  bool drop_consumed_interactions = true;
};

/// What one checkpoint run did.
struct CheckpointStats {
  uint64_t gen = 0;               ///< generation this checkpoint created
  uint64_t lsn = 0;               ///< LSN the image covers
  size_t records_written = 0;     ///< records in the image
  uint64_t checkpoint_bytes = 0;  ///< image size on disk
  uint64_t log_bytes_truncated = 0;  ///< old-generation log bytes freed
  double wall_seconds = 0.0;
};

/// What loading a checkpoint image recovered (consumed by
/// `Database::Open`).
struct CheckpointImageStats {
  uint64_t lsn = 0;
  size_t records = 0;
};

/// Writes the full live state of the three stores as a checkpoint image
/// at `path` (CRC-framed records: one header, then chat / interaction /
/// highlight sections with counts in the header so a torn image is
/// detected on load). The image is fsynced before this returns OK.
/// Highlight dots collapse to their latest record — the checkpoint
/// doubles as highlight-history compaction — followed by each video's
/// last publish version.
common::Result<CheckpointStats> WriteCheckpointImage(
    Env* env, const std::string& path, const ChatStore& chat,
    const InteractionStore& interactions, const HighlightStore& highlights,
    uint64_t lsn, const CheckpointPolicy& policy);

/// Loads the image at `path` into the three (empty) stores, restoring
/// interaction generations and the generation counter exactly.
common::Result<CheckpointImageStats> LoadCheckpointImage(
    Env* env, const std::string& path, ChatStore& chat,
    InteractionStore& interactions, HighlightStore& highlights);

/// Runs the checkpoint protocol against an open database. The caller
/// must hold whatever lock serializes writers (the serving layer runs
/// this under its db mutex); the database itself is single-threaded.
///
/// A successful run leaves the database appending to fresh
/// generation-g+1 logs. A failed run before the manifest swap leaves it
/// untouched (stale temp files are swept by the next Open); a wedged log
/// is actually *rescued* by a successful run, since the new generation
/// starts with fresh files.
class Checkpointer {
 public:
  explicit Checkpointer(Database* db) : db_(db) {}

  common::Result<CheckpointStats> Run(const CheckpointPolicy& policy);

 private:
  Database* const db_;
};

}  // namespace lightor::storage

#endif  // LIGHTOR_STORAGE_CHECKPOINT_H_
