#include "core/streaming.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lightor::core {

namespace {

obs::Counter& StreamMessagesCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("lightor_stream_messages_total");
  return *counter;
}

obs::Counter& StreamOutOfOrderCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("lightor_stream_out_of_order_total");
  return *counter;
}

obs::Counter& StreamWindowsClosedCounter() {
  static obs::Counter* const counter = obs::Registry::Global().GetCounter(
      "lightor_stream_windows_closed_total");
  return *counter;
}

obs::Counter& StreamFinalizeCounter() {
  static obs::Counter* const counter =
      obs::Registry::Global().GetCounter("lightor_stream_finalize_total");
  return *counter;
}

obs::Histogram& StreamIngestLatency() {
  static obs::Histogram* const histogram = obs::Registry::Global().GetHistogram(
      "lightor_stream_ingest_seconds", obs::Histogram::LatencyBounds());
  return *histogram;
}

obs::Histogram& StreamFinalizeLatency() {
  static obs::Histogram* const histogram = obs::Registry::Global().GetHistogram(
      "lightor_stream_finalize_seconds", obs::Histogram::LatencyBounds());
  return *histogram;
}

}  // namespace

StreamingInitializer::StreamingInitializer(
    const HighlightInitializer* initializer)
    : initializer_(initializer),
      tokenizer_(initializer->featurizer().tokenizer_options()) {
  assert(initializer_ != nullptr && initializer_->trained());
  assert(initializer_->options().similarity_backend ==
         SimilarityBackend::kBagOfWords);
}

common::Status StreamingInitializer::Ingest(const Message& message) {
  if (finalized_) {
    return common::Status::FailedPrecondition(
        "StreamingInitializer::Ingest: stream already finalized");
  }
  if (tail_recorded_) {
    return common::Status::FailedPrecondition(
        "StreamingInitializer::Ingest: tail timestamps recorded, the stream "
        "is past the video end");
  }
  obs::ScopedTimer timer(&StreamIngestLatency());
  if (!timestamps_.empty() && message.timestamp < timestamps_.back()) {
    ++stats_.messages_rejected;
    StreamOutOfOrderCounter().Increment();
    return common::Status::InvalidArgument(
        "StreamingInitializer::Ingest: out-of-order timestamp");
  }
  AdvanceWindows(message.timestamp);
  double word_count = 0.0;
  if (open_.empty()) {
    word_count = static_cast<double>(tokenizer_.CountWords(message.text));
  } else {
    // One pass: whitespace word count and interned ids together. The ids
    // land in a reused scratch buffer and every open window consumes the
    // same span — no per-window tokenization, hashing, or string copies.
    token_scratch_.clear();
    word_count = static_cast<double>(
        tokenizer_.TokenizeToIds(message.text, vocabulary_, token_scratch_));
    const text::TokenSpan tokens(token_scratch_);
    for (auto& open : open_) {
      ++open.message_count;
      open.total_words += word_count;
      open.similarity.AddMessage(tokens);
    }
  }
  pending_words_.push_back(word_count);
  timestamps_.push_back(message.timestamp);
  ++stats_.messages_ingested;
  stats_.watermark = message.timestamp;
  StreamMessagesCounter().Increment();
  DropConsumedPending();
  return common::Status::OK();
}

common::Result<IngestCounts> StreamingInitializer::IngestBatch(
    const std::vector<Message>& messages) {
  IngestCounts counts;
  for (const auto& m : messages) {
    const common::Status status = Ingest(m);
    if (status.ok()) {
      ++counts.accepted;
    } else if (status.code() == common::StatusCode::kInvalidArgument) {
      ++counts.rejected;
    } else {
      return status;
    }
  }
  return counts;
}

common::Status StreamingInitializer::RecordTailTimestamp(
    common::Seconds timestamp) {
  if (finalized_) {
    return common::Status::FailedPrecondition(
        "StreamingInitializer::RecordTailTimestamp: stream already finalized");
  }
  if (!timestamps_.empty() && timestamp < timestamps_.back()) {
    return common::Status::InvalidArgument(
        "StreamingInitializer::RecordTailTimestamp: out-of-order timestamp");
  }
  timestamps_.push_back(timestamp);
  tail_recorded_ = true;
  return common::Status::OK();
}

void StreamingInitializer::AdvanceWindows(common::Seconds timestamp) {
  const WindowOptions& wopts = initializer_->options().window;
  while (!open_.empty() && timestamp >= open_.front().span.end) {
    OpenWindow open = std::move(open_.front());
    open_.pop_front();
    // Every ingested message from first_message on lies inside this window
    // (an earlier message past the end would have closed it), so the
    // message range is the contiguous tail and the rolling aggregates
    // cover exactly the batch featurizer's message set.
    ClosedWindow closed;
    closed.window.span = open.span;
    closed.window.first_message = open.first_message;
    closed.window.last_message = open.first_message + open.message_count;
    closed.features = FeaturesFor(open, open.message_count);
    closed_.push_back(std::move(closed));
    ++stats_.windows_closed;
    StreamWindowsClosedCounter().Increment();
  }
  DropConsumedPending();
  // Same `start += stride` accumulation as GenerateCandidateWindows, so
  // window starts are the batch doubles; a candidate is only materialized
  // when a message lands inside it (the batch path drops empty windows).
  while (next_start_ <= timestamp) {
    if (timestamp < next_start_ + wopts.size) {
      OpenWindow w;
      w.span = common::Interval(next_start_, next_start_ + wopts.size);
      w.first_message = stats_.messages_ingested;  // the triggering message
      open_.push_back(std::move(w));
    }
    next_start_ += wopts.stride;
  }
}

WindowFeatures StreamingInitializer::FeaturesFor(const OpenWindow& open,
                                                 size_t count) const {
  WindowFeatures f;
  f.message_number = static_cast<double>(count);
  if (count == 0) return f;
  const size_t base = open.first_message - pending_base_;
  if (count == open.message_count) {
    f.message_length = open.total_words / static_cast<double>(count);
  } else {
    // Finalize clipped the window: re-accumulate over the retained prefix
    // in arrival order, the order the batch featurizer sums in.
    double total_words = 0.0;
    for (size_t i = 0; i < count; ++i) {
      total_words += pending_words_[base + i];
    }
    f.message_length = total_words / static_cast<double>(count);
  }
  // A single message is trivially "similar to itself"; 0, as in batch.
  if (count >= 2) f.message_similarity = open.similarity.PrefixValue(count);
  return f;
}

void StreamingInitializer::DropConsumedPending() {
  const size_t keep_from =
      open_.empty() ? stats_.messages_ingested : open_.front().first_message;
  while (pending_base_ < keep_from && !pending_words_.empty()) {
    pending_words_.pop_front();
    ++pending_base_;
  }
}

std::vector<RedDot> StreamingInitializer::Provisional(size_t k) const {
  return ScoreAndSelect(closed_, k);
}

common::Result<std::vector<RedDot>> StreamingInitializer::Finalize(
    common::Seconds video_length, size_t k) {
  if (finalized_) {
    return common::Status::FailedPrecondition(
        "StreamingInitializer::Finalize: already finalized");
  }
  if (!closed_.empty() && closed_.back().window.span.end > video_length) {
    return common::Status::InvalidArgument(
        "StreamingInitializer::Finalize: video_length cuts into "
        "already-closed windows (it must be at least the watermark)");
  }
  obs::ScopedTimer timer(&StreamFinalizeLatency());
  finalized_ = true;
  std::vector<ClosedWindow> all = std::move(closed_);
  closed_.clear();
  for (const auto& open : open_) {
    // The batch generator never emits a start at/after the video end, and
    // it clips the last spans to the video length.
    if (open.span.start >= video_length) continue;
    const common::Interval span(open.span.start,
                                std::min(open.span.end, video_length));
    const auto it = std::lower_bound(timestamps_.begin(), timestamps_.end(),
                                     span.end);
    const size_t last = static_cast<size_t>(it - timestamps_.begin());
    const size_t count = last - open.first_message;
    if (count == 0) continue;  // batch drops empty windows
    ClosedWindow closed;
    closed.window.span = span;
    closed.window.first_message = open.first_message;
    closed.window.last_message = last;
    closed.features = FeaturesFor(open, count);
    all.push_back(std::move(closed));
    ++stats_.windows_closed;
    StreamWindowsClosedCounter().Increment();
  }
  open_.clear();
  auto dots = ScoreAndSelect(all, k);
  pending_words_.clear();
  StreamFinalizeCounter().Increment();
  return dots;
}

std::vector<RedDot> StreamingInitializer::ScoreAndSelect(
    const std::vector<ClosedWindow>& closed, size_t k) const {
  obs::ScopedSpan span("streaming.ScoreAndSelect");
  std::vector<SlidingWindow> candidates;
  candidates.reserve(closed.size());
  for (const auto& c : closed) candidates.push_back(c.window);
  auto windows = DeduplicateOverlapping(std::move(candidates));
  // Match each surviving window's raw features back by start: both lists
  // are sorted by start and the deduped set is a subset of `closed`.
  std::vector<WindowFeatures> raw;
  raw.reserve(windows.size());
  size_t j = 0;
  for (const auto& w : windows) {
    while (j < closed.size() && closed[j].window.span.start < w.span.start) {
      ++j;
    }
    assert(j < closed.size() &&
           closed[j].window.span.start == w.span.start);
    raw.push_back(closed[j].features);
  }
  return initializer_->SelectDots(std::move(windows), raw, timestamps_, k);
}

}  // namespace lightor::core
