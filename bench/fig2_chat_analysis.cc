/// Figure 2 — Analysis of the chat data in a (simulated) Twitch video.
///
/// (a) Message-count histogram + smoothed curve: the largest peak and its
///     delay behind the nearest highlight start (the comment delay the
///     naive top-count method misses).
/// (b) Feature-value distributions of highlight vs. non-highlight sliding
///     windows for the three Initializer features.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/csv.h"
#include "common/stats.h"
#include "common/strings.h"
#include "core/features.h"

using namespace lightor;  // NOLINT

namespace {

void PartA(const sim::LabeledVideo& video) {
  std::printf("--- Fig 2(a): message-count curve and comment delay ---\n");
  const double length = video.truth.meta.length;
  std::vector<double> bins(static_cast<size_t>(length) + 1, 0.0);
  for (const auto& msg : video.chat) {
    bins[static_cast<size_t>(msg.timestamp)] += 1.0;
  }
  const auto smooth = common::GaussianSmooth(bins, 5.0);
  const size_t peak = static_cast<size_t>(
      std::max_element(smooth.begin(), smooth.end()) - smooth.begin());

  // Nearest highlight start before the global peak.
  double nearest_start = -1.0;
  for (const auto& h : video.truth.highlights) {
    if (h.span.start <= static_cast<double>(peak)) {
      nearest_start = h.span.start;
    }
  }
  std::printf("global message-count peak at %s (%.1f msgs/s smoothed)\n",
              common::FormatTimestamp(static_cast<double>(peak)).c_str(),
              smooth[peak]);
  if (nearest_start >= 0.0) {
    std::printf(
        "nearest preceding highlight starts at %s -> comment delay ~%.0f s\n",
        common::FormatTimestamp(nearest_start).c_str(),
        static_cast<double>(peak) - nearest_start);
  }

  // Per-highlight delays: burst peak lag behind the highlight start.
  std::vector<double> delays;
  const auto timestamps = core::Timestamps(sim::ToCoreMessages(video.chat));
  for (const auto& h : video.truth.highlights) {
    const common::Interval search(h.span.start, h.span.end + 60.0);
    delays.push_back(core::FindMessagePeak(timestamps, search) - h.span.start);
  }
  std::printf(
      "per-highlight burst-peak delay: median %.1f s (q25 %.1f, q75 %.1f)\n\n",
      common::Median(delays), common::Quantile(delays, 0.25),
      common::Quantile(delays, 0.75));
}

void PartB(const sim::LabeledVideo& video) {
  std::printf("--- Fig 2(b): feature distributions, highlight vs non ---\n");
  const auto messages = sim::ToCoreMessages(video.chat);
  core::WindowOptions wopts;
  wopts.size = 25.0;
  wopts.stride = 25.0;  // the paper's analysis uses non-overlapping windows
  const auto windows =
      core::GenerateWindows(messages, video.truth.meta.length, wopts);
  core::WindowFeaturizer featurizer;
  const auto raw = featurizer.ComputeAll(messages, windows);
  const auto rows = core::NormalizeFeatures(raw, core::FeatureSet::kAll);

  int positives = 0;
  std::vector<std::vector<double>> by_class[2];  // [label][feature] values
  by_class[0].resize(3);
  by_class[1].resize(3);
  for (size_t i = 0; i < windows.size(); ++i) {
    const int label = bench::WindowBurstLabel(video.chat, windows[i]);
    positives += label;
    for (size_t f = 0; f < 3; ++f) {
      by_class[label][f].push_back(rows[i][f]);
    }
  }
  std::printf("%zu windows: %d labelled highlight, %zu non-highlight\n",
              windows.size(), positives, windows.size() - positives);

  const char* names[3] = {"msg num", "msg len", "msg sim"};
  common::TextTable table({"feature", "class", "min", "q25", "median",
                           "q75", "max"});
  for (size_t f = 0; f < 3; ++f) {
    for (int label = 1; label >= 0; --label) {
      const auto& vals = by_class[label][f];
      table.AddRow({names[f], label ? "highlight" : "non-highlight",
                    common::FormatDouble(common::Min(vals), 2),
                    common::FormatDouble(common::Quantile(vals, 0.25), 2),
                    common::FormatDouble(common::Median(vals), 2),
                    common::FormatDouble(common::Quantile(vals, 0.75), 2),
                    common::FormatDouble(common::Max(vals), 2)});
    }
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBenchEnv(argc, argv);
  std::printf("=== Fig. 2: chat-data analysis of one Dota2 video ===\n\n");
  const auto corpus = sim::MakeCorpus(sim::GameType::kDota2, 1, 2020);
  std::printf("video %s: %s long, %zu highlights, %zu chat messages\n\n",
              corpus[0].truth.meta.id.c_str(),
              common::FormatTimestamp(corpus[0].truth.meta.length).c_str(),
              corpus[0].truth.highlights.size(), corpus[0].chat.size());
  PartA(corpus[0]);
  PartB(corpus[0]);
  return 0;
}
