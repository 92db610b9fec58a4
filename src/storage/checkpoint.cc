#include "storage/checkpoint.h"

#include <chrono>
#include <optional>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "storage/database.h"
#include "storage/log.h"
#include "storage/serialize.h"

namespace lightor::storage {

namespace {

constexpr uint32_t kManifestMagic = 0x4C544D46;    // "LTMF"
constexpr uint32_t kCheckpointMagic = 0x4C54434B;  // "LTCK"

obs::Counter& CheckpointRunsCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_storage_checkpoint_runs_total");
  return *counter;
}

obs::Counter& CheckpointErrorsCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_storage_checkpoint_errors_total");
  return *counter;
}

obs::Counter& CheckpointTruncatedBytesCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_storage_checkpoint_truncated_bytes_total");
  return *counter;
}

obs::Histogram& CheckpointSecondsHistogram() {
  static obs::Histogram* const histogram =
      obs::Registry::Global().GetHistogram(
          "lightor_storage_checkpoint_seconds",
          obs::Histogram::LatencyBounds());
  return *histogram;
}

obs::Gauge& CheckpointLsnGauge() {
  static obs::Gauge* const gauge =
      obs::Registry::Global().GetGauge("lightor_storage_checkpoint_lsn");
  return *gauge;
}

common::Status RemoveIfExists(Env* env, const std::string& path) {
  if (!env->FileExists(path)) return common::Status::OK();
  return env->RemoveFile(path);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::string ManifestPath(const std::string& directory) {
  return directory + "/MANIFEST";
}

std::string CheckpointFilePath(const std::string& directory, uint64_t gen) {
  return directory + "/ckpt." + std::to_string(gen);
}

std::string LogFilePath(const std::string& directory, const std::string& base,
                        uint64_t gen) {
  if (gen == 0) return directory + "/" + base + ".log";
  return directory + "/" + base + "." + std::to_string(gen) + ".log";
}

common::Status WriteManifest(Env* env, const std::string& directory,
                             const Manifest& manifest) {
  const std::string path = ManifestPath(directory);
  const std::string tmp = path + ".tmp";
  // A leftover temp from a torn earlier attempt would be appended to
  // (logs open O_APPEND), so clear it first.
  LIGHTOR_RETURN_IF_ERROR(RemoveIfExists(env, tmp));
  {
    AppendLog log;
    LIGHTOR_RETURN_IF_ERROR(log.Open(tmp, env));
    Encoder enc;
    enc.PutU32(kManifestMagic);
    enc.PutU32(Manifest::kFormatVersion);
    enc.PutU64(manifest.log_gen);
    enc.PutU64(manifest.checkpoint_gen);
    enc.PutU64(manifest.checkpoint_lsn);
    LIGHTOR_RETURN_IF_ERROR(log.Append(enc.Release()));
    // The temp must be on the platter before the rename publishes it:
    // otherwise power loss could leave the manifest name pointing at
    // unsynced bytes.
    LIGHTOR_RETURN_IF_ERROR(log.Sync());
  }
  return env->RenameFile(tmp, path);
}

common::Result<std::optional<Manifest>> ReadManifest(
    Env* env, const std::string& directory) {
  const std::string path = ManifestPath(directory);
  if (!env->FileExists(path)) return std::optional<Manifest>();
  std::vector<std::vector<uint8_t>> payloads;
  size_t valid_bytes = 0;
  LIGHTOR_RETURN_IF_ERROR(AppendLog::ReplayFile(
      path,
      [&](const std::vector<uint8_t>& payload) { payloads.push_back(payload); },
      &valid_bytes, env));
  LIGHTOR_ASSIGN_OR_RETURN(const uint64_t size, env->GetFileSize(path));
  if (payloads.size() != 1 || size != valid_bytes) {
    return common::Status::Corruption("torn MANIFEST: " + path);
  }
  Decoder dec(payloads[0]);
  LIGHTOR_ASSIGN_OR_RETURN(const uint32_t magic, dec.GetU32());
  if (magic != kManifestMagic) {
    return common::Status::Corruption("bad MANIFEST magic: " + path);
  }
  LIGHTOR_ASSIGN_OR_RETURN(const uint32_t version, dec.GetU32());
  if (version != Manifest::kFormatVersion) {
    return common::Status::NotSupported(
        "MANIFEST format version " + std::to_string(version) +
        " (this build reads " + std::to_string(Manifest::kFormatVersion) +
        "): " + path);
  }
  Manifest manifest;
  LIGHTOR_ASSIGN_OR_RETURN(manifest.log_gen, dec.GetU64());
  LIGHTOR_ASSIGN_OR_RETURN(manifest.checkpoint_gen, dec.GetU64());
  LIGHTOR_ASSIGN_OR_RETURN(manifest.checkpoint_lsn, dec.GetU64());
  return std::optional<Manifest>(manifest);
}

common::Result<CheckpointStats> WriteCheckpointImage(
    Env* env, const std::string& path, const ChatStore& chat,
    const InteractionStore& interactions, const HighlightStore& highlights,
    uint64_t lsn, const CheckpointPolicy& policy) {
  // Videos with at least one refined dot: their interactions have
  // already fed refinement and (per the serving watermark contract) can
  // never be consumed again, so the policy may drop them.
  std::set<std::string> consumed;
  const std::vector<HighlightRecord> latest = highlights.AllLatest();
  if (policy.drop_consumed_interactions) {
    for (const auto& rec : latest) {
      if (rec.iteration > 0) consumed.insert(rec.video_id);
    }
  }
  size_t kept_interactions = 0;
  interactions.ForEach([&](const InteractionRecord& rec, uint64_t) {
    if (consumed.count(rec.video_id) == 0) ++kept_interactions;
  });

  LIGHTOR_RETURN_IF_ERROR(RemoveIfExists(env, path));
  AppendLog image;
  LIGHTOR_RETURN_IF_ERROR(image.Open(path, env));
  // One buffered stream with a single fsync at the end, not a flush per
  // record: the image is only published (renamed + manifest swap) after
  // the Sync below succeeds, so partial progress needs no durability.
  image.set_flush_each_append(false);

  Encoder header;
  header.PutU32(kCheckpointMagic);
  header.PutU32(Manifest::kFormatVersion);
  header.PutU64(lsn);
  header.PutU64(interactions.current_generation());
  header.PutU64(chat.TotalRecords());
  header.PutU64(kept_interactions);
  const size_t n_highlights = latest.size() + highlights.versions().size();
  header.PutU64(n_highlights);
  LIGHTOR_RETURN_IF_ERROR(image.Append(header.Release()));

  common::Status append_status = common::Status::OK();
  chat.ForEach([&](const ChatRecord& rec) {
    if (!append_status.ok()) return;
    append_status = image.Append(rec.Encode());
  });
  LIGHTOR_RETURN_IF_ERROR(append_status);
  interactions.ForEach([&](const InteractionRecord& rec, uint64_t generation) {
    if (!append_status.ok() || consumed.count(rec.video_id) != 0) return;
    Encoder enc;
    enc.PutU64(generation);
    const std::vector<uint8_t> bytes = rec.Encode();
    enc.PutString(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                   bytes.size()));
    append_status = image.Append(enc.Release());
  });
  LIGHTOR_RETURN_IF_ERROR(append_status);
  for (const auto& rec : latest) {
    LIGHTOR_RETURN_IF_ERROR(image.Append(rec.Encode()));
  }
  for (const auto& [video_id, version] : highlights.versions()) {
    LIGHTOR_RETURN_IF_ERROR(
        image.Append(EncodeHighlightVersion(video_id, version)));
  }
  LIGHTOR_RETURN_IF_ERROR(image.Sync());
  image.Close();

  CheckpointStats stats;
  stats.lsn = lsn;
  stats.records_written = chat.TotalRecords() + kept_interactions +
                          n_highlights;
  stats.checkpoint_bytes = env->GetFileSize(path).value_or(0);
  return stats;
}

common::Result<CheckpointImageStats> LoadCheckpointImage(
    Env* env, const std::string& path, ChatStore& chat,
    InteractionStore& interactions, HighlightStore& highlights) {
  if (!env->FileExists(path)) {
    return common::Status::Corruption(
        "MANIFEST names a checkpoint that does not exist: " + path);
  }
  struct Header {
    bool seen = false;
    uint64_t lsn = 0;
    uint64_t generation = 0;
    uint64_t n_chat = 0;
    uint64_t n_interactions = 0;
    uint64_t n_highlights = 0;
  } header;
  common::Status decode_status = common::Status::OK();
  size_t data_records = 0;
  size_t valid_bytes = 0;
  LIGHTOR_RETURN_IF_ERROR(AppendLog::ReplayFile(
      path,
      [&](const std::vector<uint8_t>& payload) {
        if (!decode_status.ok()) return;
        Decoder dec(payload);
        if (!header.seen) {
          auto magic = dec.GetU32();
          if (!magic.ok() || magic.value() != kCheckpointMagic) {
            decode_status =
                common::Status::Corruption("bad checkpoint magic: " + path);
            return;
          }
          auto version = dec.GetU32();
          if (!version.ok() || version.value() != Manifest::kFormatVersion) {
            decode_status = common::Status::NotSupported(
                "unreadable checkpoint format version: " + path);
            return;
          }
          auto read = [&](uint64_t& out) {
            auto v = dec.GetU64();
            if (v.ok()) out = v.value();
            else if (decode_status.ok()) decode_status = v.status();
          };
          read(header.lsn);
          read(header.generation);
          read(header.n_chat);
          read(header.n_interactions);
          read(header.n_highlights);
          header.seen = true;
          return;
        }
        const size_t index = data_records++;
        if (index < header.n_chat) {
          auto rec = ChatRecord::Decode(payload);
          if (rec.ok()) chat.Put(std::move(rec).value());
          else decode_status = rec.status();
        } else if (index < header.n_chat + header.n_interactions) {
          uint64_t generation = 0;
          auto gen = dec.GetU64();
          if (gen.ok()) generation = gen.value();
          auto bytes = dec.GetString();
          if (!gen.ok() || !bytes.ok()) {
            decode_status = gen.ok() ? bytes.status() : gen.status();
            return;
          }
          const std::string& s = bytes.value();
          auto rec = InteractionRecord::Decode(
              std::vector<uint8_t>(s.begin(), s.end()));
          if (rec.ok()) {
            interactions.RestoreEntry(std::move(rec).value(), generation);
          } else {
            decode_status = rec.status();
          }
        } else if (index <
                   header.n_chat + header.n_interactions + header.n_highlights) {
          decode_status = highlights.Apply(payload);
        } else {
          decode_status = common::Status::Corruption(
              "checkpoint has more records than its header counts: " + path);
        }
      },
      &valid_bytes, env));
  LIGHTOR_RETURN_IF_ERROR(decode_status);
  LIGHTOR_ASSIGN_OR_RETURN(const uint64_t size, env->GetFileSize(path));
  const uint64_t expected =
      header.n_chat + header.n_interactions + header.n_highlights;
  if (!header.seen || data_records != expected || size != valid_bytes) {
    // The image was fsynced before the manifest swap published it, so a
    // short or trailing-garbage image is damage, not a normal torn tail.
    return common::Status::Corruption("torn checkpoint image: " + path);
  }
  interactions.AdvanceGeneration(header.generation);
  CheckpointImageStats stats;
  stats.lsn = header.lsn;
  stats.records = data_records;
  return stats;
}

common::Result<CheckpointStats> Checkpointer::Run(
    const CheckpointPolicy& policy) {
  const auto t0 = std::chrono::steady_clock::now();
  Database& db = *db_;
  Env* env = db.env_;
  const std::string& dir = db.directory_;

  // Stage + span only when a request trace is active (the background
  // trigger would otherwise churn the global span ring).
  std::optional<obs::ScopedStage> stage;
  std::optional<obs::ScopedSpan> span;
  if (obs::CurrentTraceContext().valid()) {
    stage.emplace(obs::Stage::kCheckpoint);
    span.emplace("storage.Checkpointer.Run");
  }

  const uint64_t old_gen = db.log_gen_;
  const uint64_t new_gen = old_gen + 1;
  const std::string ckpt_path = CheckpointFilePath(dir, new_gen);
  const std::string tmp_path = ckpt_path + ".tmp";
  auto fail = [](common::Status status) {
    CheckpointErrorsCounter().Increment();
    return status;
  };

  // 1. Write the image to a temp file and fsync it. Failure here leaves
  //    the database fully untouched.
  auto written = WriteCheckpointImage(env, tmp_path, db.chat_,
                                      db.interactions_, db.highlights_,
                                      db.lsn_, policy);
  if (!written.ok()) {
    (void)RemoveIfExists(env, tmp_path);
    return fail(written.status());
  }
  // 2. Give the image its durable name. Still uncommitted: nothing
  //    references ckpt.<g+1> until the manifest swap.
  if (auto st = env->RenameFile(tmp_path, ckpt_path); !st.ok()) {
    return fail(std::move(st));
  }

  // Old-generation log sizes, for the bytes-reclaimed accounting.
  uint64_t old_log_bytes = 0;
  for (const std::string* path :
       {&db.chat_path_, &db.interaction_path_, &db.highlight_path_}) {
    old_log_bytes += env->GetFileSize(*path).value_or(0);
  }

  // 3. THE commit point: atomically swap the manifest. Before this,
  //    recovery loads the old state; after it, the new checkpoint plus
  //    (still absent = empty) generation-g+1 logs.
  Manifest manifest;
  manifest.log_gen = new_gen;
  manifest.checkpoint_gen = new_gen;
  manifest.checkpoint_lsn = db.lsn_;
  if (auto st = WriteManifest(env, dir, manifest); !st.ok()) {
    return fail(std::move(st));
  }

  // 4. Start fresh logs for the new generation. Flush/sync modes live on
  //    the AppendLog and survive the reopen. An open failure here leaves
  //    the logs closed (writes fail loudly) but the directory committed
  //    and consistent: the next Open recovers cleanly.
  const std::string old_chat = db.chat_path_;
  const std::string old_interaction = db.interaction_path_;
  const std::string old_highlight = db.highlight_path_;
  db.chat_path_ = LogFilePath(dir, "chat", new_gen);
  db.interaction_path_ = LogFilePath(dir, "interactions", new_gen);
  db.highlight_path_ = LogFilePath(dir, "highlights", new_gen);
  db.log_gen_ = new_gen;
  db.chat_log_.Close();
  db.interaction_log_.Close();
  db.highlight_log_.Close();
  if (auto st = db.chat_log_.Open(db.chat_path_, env); !st.ok()) {
    return fail(std::move(st));
  }
  if (auto st = db.interaction_log_.Open(db.interaction_path_, env);
      !st.ok()) {
    return fail(std::move(st));
  }
  if (auto st = db.highlight_log_.Open(db.highlight_path_, env); !st.ok()) {
    return fail(std::move(st));
  }
  // The checkpoint collapsed highlight history to latest-per-dot; mirror
  // that in memory so stats and history reads agree with a restart.
  db.highlights_.ResetFrom(db.highlights_.AllLatest());

  // 5. Best-effort cleanup of the superseded generation; anything left
  //    behind (e.g. a crash between these removes) is swept by the next
  //    Open.
  (void)RemoveIfExists(env, old_chat);
  (void)RemoveIfExists(env, old_interaction);
  (void)RemoveIfExists(env, old_highlight);
  if (old_gen > 0) {
    (void)RemoveIfExists(env, CheckpointFilePath(dir, old_gen));
  }

  CheckpointStats stats = std::move(written).value();
  stats.gen = new_gen;
  stats.log_bytes_truncated = old_log_bytes;
  stats.wall_seconds = SecondsSince(t0);
  CheckpointRunsCounter().Increment();
  CheckpointTruncatedBytesCounter().Increment(old_log_bytes);
  CheckpointSecondsHistogram().Observe(stats.wall_seconds);
  CheckpointLsnGauge().Set(static_cast<double>(stats.lsn));
  return stats;
}

}  // namespace lightor::storage
