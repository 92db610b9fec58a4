#include "testing/streaming_replay.h"

#include <cstdlib>
#include <cstdio>

#include "core/streaming.h"

namespace lightor::testing {

namespace {

void CheckOk(const common::Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "StreamingReplay: %s\n", status.ToString().c_str());
  std::abort();
}

}  // namespace

std::vector<core::RedDot> StreamingReplay(
    const core::HighlightInitializer& initializer,
    const std::vector<core::Message>& messages, common::Seconds video_length,
    size_t k) {
  core::StreamingInitializer engine(&initializer);
  for (const auto& m : messages) {
    CheckOk(m.timestamp < video_length
                ? engine.Ingest(m)
                : engine.RecordTailTimestamp(m.timestamp));
  }
  auto dots = engine.Finalize(video_length, k);
  CheckOk(dots.status());
  return std::move(dots).value();
}

}  // namespace lightor::testing
