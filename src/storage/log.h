#ifndef LIGHTOR_STORAGE_LOG_H_
#define LIGHTOR_STORAGE_LOG_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/serialize.h"

namespace lightor::storage {

/// An append-only record log with per-record CRC framing:
///
///   [u32 payload length][u32 crc32(payload)][payload bytes]
///
/// Recovery tolerates a torn tail: replay stops at the first frame whose
/// length overruns the file or whose CRC mismatches, and `Recover`
/// truncates the file there (the RocksDB WAL recovery idiom).
///
/// ### Crash model
///
/// All I/O goes through a `storage::Env` (tests substitute a
/// fault-injecting one; see src/testing/fault_env.h), which defines three
/// durability tiers per byte: application buffer (lost on any crash),
/// kernel (survives a process crash), platter (survives power loss).
///
///   * Per-record flush mode (the default): every `Append` that returns
///     OK has reached the **kernel** — it survives a process crash but
///     NOT a power failure. `Flush()` here reaches the kernel, not the
///     platter.
///   * Batched mode (`set_flush_each_append(false)`): appended records sit
///     in the application buffer until `Flush()` / `Close()`; a crash
///     loses at most the records since the last `Flush()`.
///   * `set_sync_on_flush(true)` upgrades every flush point (including
///     per-record flushes) to `Sync()` — records then survive power loss
///     at the cost of an fsync per flush.
///
/// After any write, flush, or sync error the log is **wedged**: the file
/// may end in a torn frame, so appending more records would bury them
/// behind garbage that replay can never reach. Every subsequent operation
/// fails with IoError until the log is recovered and reopened — one
/// `OpenAndReplay()` call, as `Database::Open` does — which truncates the
/// torn tail.
class AppendLog {
 public:
  AppendLog() = default;
  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Opens (creating if needed) the log at `path` for appending through
  /// `env` (null = `Env::Default()`). Clears a wedged state. Does NOT
  /// recover a torn tail — use `OpenAndReplay` on any log that may have
  /// seen a crash.
  common::Status Open(const std::string& path, Env* env = nullptr);

  /// What `OpenAndReplay` found on disk.
  struct ReplayStats {
    size_t records = 0;        ///< valid records replayed
    uint64_t torn_bytes = 0;   ///< torn/corrupt tail bytes truncated away
  };

  /// Recover + replay + open in one call: truncates the log at `path` to
  /// its longest valid prefix, replays every surviving record through
  /// `visitor` (null skips replay), then opens the log for appending.
  /// This replaces the historical `Recover()`-then-`Open()` dance, where
  /// every caller had to remember the truncation step or risk appending
  /// behind a torn frame that replay can never pass.
  common::Result<ReplayStats> OpenAndReplay(
      const std::string& path,
      const std::function<void(const std::vector<uint8_t>&)>& visitor,
      Env* env = nullptr);

  /// Appends one framed record. Flushes immediately in the default
  /// per-record mode; in batched mode (`set_flush_each_append(false)`)
  /// the record sits in the application buffer until `Flush()` or
  /// `Close()`.
  common::Status Append(const std::vector<uint8_t>& payload);

  /// Size of the `[u32 length][u32 crc]` header in front of each payload.
  static constexpr size_t kFrameHeaderSize = 8;

  /// Frames a record outside the log: `frame` holds `kFrameHeaderSize`
  /// placeholder bytes followed by the payload, and this fills in the
  /// header (one CRC pass over the payload). The result is exactly the
  /// bytes `Append(payload)` writes, so a caller can do the encoding and
  /// checksum work before taking whatever lock serializes its appends.
  static std::vector<uint8_t> SealFrame(Encoder frame);

  /// Appends a record framed by `SealFrame` as one write, flushed like
  /// `Append`. Replay cannot tell the two apart.
  common::Status AppendFrame(const std::vector<uint8_t>& frame);

  /// Pushes buffered appends to the kernel — or to the platter when
  /// `sync_on_flush` is set. No-op when nothing is pending.
  common::Status Flush();

  /// Forces buffered appends all the way to the platter (fsync),
  /// regardless of `sync_on_flush`.
  common::Status Sync();

  /// Batched-flush toggle. Per-record flush (the default) bounds loss to
  /// zero records on process crash; batched mode trades that for one
  /// syscall per batch on write-heavy paths (the HTTP server's session
  /// logging) and bounds loss to the records since the last `Flush()` —
  /// recovery itself is unchanged, the torn tail just starts earlier.
  void set_flush_each_append(bool flush_each) { flush_each_ = flush_each; }
  bool flush_each_append() const { return flush_each_; }

  /// Opt-in fsync mode: every flush point also syncs, upgrading the
  /// durability guarantee from process-crash-safe to power-loss-safe.
  void set_sync_on_flush(bool sync) { sync_on_flush_ = sync; }
  bool sync_on_flush() const { return sync_on_flush_; }

  /// Closes the file (idempotent); flushes buffered appends first.
  void Close();

  bool is_open() const { return file_ != nullptr; }
  /// True after a write/flush/sync error: the log refuses further
  /// operations until reopened (see the crash-model note above).
  bool wedged() const { return wedged_; }
  const std::string& path() const { return path_; }

  /// Replays every valid record of the log at `path` (which may not
  /// exist — that is an empty log, OK). Stops silently at a corrupted or
  /// torn tail; `valid_bytes`, when non-null, receives the clean prefix
  /// length.
  static common::Status ReplayFile(
      const std::string& path,
      const std::function<void(const std::vector<uint8_t>&)>& visitor,
      size_t* valid_bytes = nullptr, Env* env = nullptr);

  /// Truncates the log at `path` to its longest valid prefix. Returns the
  /// number of records that survived. Prefer `OpenAndReplay`, which folds
  /// this into the open; `Recover` stays for tests that inspect recovery
  /// without opening.
  static common::Result<size_t> Recover(const std::string& path,
                                        Env* env = nullptr);

 private:
  common::Status Wedge(common::Status status);
  /// OK when the log is open and not wedged.
  common::Status CheckWritable() const;
  /// Buffers `data` (one or more whole frames) and flushes per the mode.
  common::Status AppendBytes(const uint8_t* data, size_t size);

  Env* env_ = nullptr;
  std::unique_ptr<WritableFile> file_;
  std::string path_;
  bool flush_each_ = true;
  bool sync_on_flush_ = false;
  bool wedged_ = false;
};

}  // namespace lightor::storage

#endif  // LIGHTOR_STORAGE_LOG_H_
