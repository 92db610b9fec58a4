#ifndef LIGHTOR_CORE_STREAMING_H_
#define LIGHTOR_CORE_STREAMING_H_

#include <deque>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "core/initializer.h"
#include "core/message.h"
#include "text/streaming_similarity.h"
#include "text/token_ids.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace lightor::core {

/// Per-batch accept/reject tally returned by `IngestBatch`.
struct IngestCounts {
  size_t accepted = 0;
  size_t rejected = 0;  ///< out-of-order timestamps, engine untouched
};

/// Lifetime counters of one streaming engine.
struct StreamingStats {
  size_t messages_ingested = 0;   ///< accepted (windowed) messages
  size_t messages_rejected = 0;   ///< dropped for decreasing timestamps
  size_t windows_closed = 0;      ///< candidate windows closed so far
  common::Seconds watermark = 0.0;  ///< highest accepted timestamp
};

/// The live-ingest engine: accepts a broadcast's chat messages one at a
/// time, maintains rolling per-window state, and scores windows as they
/// close — so provisional red dots are available mid-stream and the final
/// dots exactly match what `HighlightInitializer::Detect` computes over
/// the finished log. Recorded videos never come through here; only live
/// ingest is incremental. Bag-of-words similarity only (the paper's
/// feature, and the only backend a model file records); the constructor
/// asserts it.
///
/// How the batch semantics are preserved:
///
///   * Candidate window starts are produced by the same repeated
///     `start += stride` accumulation the batch generator uses, and a
///     window is only materialized once a message lands inside it (the
///     batch path drops empty candidates).
///   * A window closes when a message at/after its end arrives. Count and
///     word-length aggregates accumulate message by message in arrival
///     order — the order the batch featurizer iterates — and the
///     bag-of-words similarity updates incrementally via
///     `text::StreamingSetSimilarity` instead of re-tokenizing the window.
///   * Closed windows keep only their span, message range, and raw
///     features; every message's timestamp is retained (8 bytes each) so
///     peak finding and the adjustment stage see the batch inputs, and a
///     word count is retained only for messages of still-open windows.
///   * `Finalize` clips still-open windows at the declared video length,
///     de-overlaps, and hands the survivors to
///     `HighlightInitializer::SelectDots`, the one scoring tail `Detect`
///     also runs. Per-video feature normalization is global, which is why
///     provisional scores are provisional: they normalize over the windows
///     seen so far.
///
/// Not thread-safe; callers (e.g. serving) provide their own striping.
class StreamingInitializer {
 public:
  /// `initializer` supplies the trained window model, options, and
  /// adjustment; it must stay alive for the engine's lifetime.
  explicit StreamingInitializer(const HighlightInitializer* initializer);

  /// Feeds one chat message. Timestamps must be non-decreasing: a message
  /// older than the watermark is rejected with InvalidArgument and leaves
  /// the engine state untouched. FailedPrecondition once finalized.
  common::Status Ingest(const Message& message);

  /// Ingests a batch, counting instead of stopping: an out-of-order
  /// message is tallied as rejected (the per-message `Ingest` contract)
  /// and the rest proceed, so the tally equals what per-message calls
  /// would report. Only a terminal engine state (finalized / tail
  /// recorded) aborts the batch, surfacing that FailedPrecondition.
  common::Result<IngestCounts> IngestBatch(
      const std::vector<Message>& messages);

  /// Records the timestamp of a message that lies at/after the video end:
  /// such a message can fall inside no window,
  /// but its timestamp still feeds the adjustment stage's burst features,
  /// matching the batch pipeline. No further `Ingest` is accepted after
  /// the first tail timestamp.
  common::Status RecordTailTimestamp(common::Seconds timestamp);

  /// Red dots over the windows closed so far, with the learned adjustment
  /// applied — the mid-broadcast provisional answer. Scores use the
  /// running per-video normalization, so dots may shift until `Finalize`.
  std::vector<RedDot> Provisional(size_t k) const;

  /// Closes the remaining windows at `video_length` and returns the final
  /// red dots; one-shot (FailedPrecondition on reuse). InvalidArgument if
  /// `video_length` would cut into an already-closed window (it must be at
  /// least the watermark in live use). Equals `Detect` run over the same
  /// accepted messages.
  common::Result<std::vector<RedDot>> Finalize(common::Seconds video_length,
                                               size_t k);

  const StreamingStats& stats() const { return stats_; }
  bool finalized() const { return finalized_; }
  /// Number of candidate windows currently open (rolling state).
  size_t open_windows() const { return open_.size(); }

 private:
  /// Rolling state of one open candidate window.
  struct OpenWindow {
    common::Interval span;       ///< [start, start + size)
    size_t first_message = 0;    ///< global index of its first message
    size_t message_count = 0;
    double total_words = 0.0;
    text::StreamingSetSimilarity similarity;  ///< bag-of-words state
  };

  /// A closed candidate: span, message range, raw features.
  struct ClosedWindow {
    SlidingWindow window;
    WindowFeatures features;
  };

  /// Closes every open window whose end is at/before `timestamp`, then
  /// materializes new windows whose span contains it.
  void AdvanceWindows(common::Seconds timestamp);

  /// Features of `open` over its first `count` messages; `count` equal to
  /// the window's full message count uses the rolling aggregates, a
  /// smaller count (finalize clip) recomputes over the retained prefix.
  WindowFeatures FeaturesFor(const OpenWindow& open, size_t count) const;

  /// De-overlaps the closed candidates and runs the shared scoring tail
  /// (`HighlightInitializer::SelectDots`) over the survivors.
  std::vector<RedDot> ScoreAndSelect(const std::vector<ClosedWindow>& closed,
                                     size_t k) const;

  void DropConsumedPending();

  const HighlightInitializer* initializer_;
  text::Tokenizer tokenizer_;

  /// Per-video vocabulary: each message is tokenized and interned exactly
  /// once; open windows consume TokenSpan views of the shared id scratch,
  /// so the per-message cost is one tokenizer pass regardless of how many
  /// windows overlap the message.
  text::Vocabulary vocabulary_;
  std::vector<uint32_t> token_scratch_;

  double next_start_ = 0.0;  ///< next candidate start (+= stride, as batch)
  std::deque<OpenWindow> open_;
  std::vector<ClosedWindow> closed_;

  /// All accepted timestamps (windowed, then tail), for peaks and bursts.
  std::vector<common::Seconds> timestamps_;
  /// Word counts of still-open windows' messages; global index =
  /// pending_base_ + i.
  std::deque<double> pending_words_;
  size_t pending_base_ = 0;

  StreamingStats stats_;
  bool tail_recorded_ = false;
  bool finalized_ = false;
};

}  // namespace lightor::core

#endif  // LIGHTOR_CORE_STREAMING_H_
