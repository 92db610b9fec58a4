#include "serving/refine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/viewer.h"

namespace lightor::serving {

std::vector<core::Message> MessagesFromChat(
    const std::vector<storage::ChatRecord>& chat) {
  std::vector<core::Message> messages;
  messages.reserve(chat.size());
  for (const auto& rec : chat) {
    messages.push_back({rec.timestamp, rec.user, rec.text});
  }
  const auto by_time = [](const core::Message& a, const core::Message& b) {
    return a.timestamp < b.timestamp;
  };
  if (!std::is_sorted(messages.begin(), messages.end(), by_time)) {
    std::stable_sort(messages.begin(), messages.end(), by_time);
  }
  return messages;
}

sim::InteractionType ToSimType(storage::StoredInteraction event) {
  switch (event) {
    case storage::StoredInteraction::kPlay:
      return sim::InteractionType::kPlay;
    case storage::StoredInteraction::kPause:
      return sim::InteractionType::kPause;
    case storage::StoredInteraction::kSeekForward:
      return sim::InteractionType::kSeekForward;
    case storage::StoredInteraction::kSeekBackward:
      return sim::InteractionType::kSeekBackward;
  }
  return sim::InteractionType::kPlay;
}

storage::StoredInteraction FromSimType(sim::InteractionType type) {
  switch (type) {
    case sim::InteractionType::kPlay:
      return storage::StoredInteraction::kPlay;
    case sim::InteractionType::kPause:
      return storage::StoredInteraction::kPause;
    case sim::InteractionType::kSeekForward:
      return storage::StoredInteraction::kSeekForward;
    case sim::InteractionType::kSeekBackward:
      return storage::StoredInteraction::kSeekBackward;
  }
  return storage::StoredInteraction::kPlay;
}

std::unordered_map<int32_t, std::vector<core::Play>> GroupPlaysByDot(
    const std::map<uint64_t, std::vector<storage::InteractionRecord>>&
        sessions,
    const std::vector<storage::HighlightRecord>& dots, double delta) {
  std::unordered_map<int32_t, std::vector<core::Play>> by_dot;
  for (const auto& [session_id, records] : sessions) {
    // Rebuild the session's event stream, then distill plays.
    std::vector<sim::InteractionEvent> events;
    events.reserve(records.size());
    std::string user;
    for (const auto& rec : records) {
      user = rec.user;
      sim::InteractionEvent ev;
      ev.wall_time = rec.wall_time;
      ev.type = ToSimType(rec.event);
      ev.position = rec.position;
      ev.target = rec.target;
      events.push_back(ev);
    }
    for (const auto& play : sim::PlaysFromEvents(user, events)) {
      // Assign the play to the nearest dot within Δ.
      int32_t best_dot = -1;
      double best_dist = delta + 1.0;
      for (const auto& dot : dots) {
        const double d = std::abs(play.span.start - dot.dot_position);
        if (d < best_dist) {
          best_dist = d;
          best_dot = dot.dot_index;
        }
      }
      if (best_dot >= 0) {
        by_dot[best_dot].emplace_back(play.user, play.span.start,
                                      play.span.end);
      }
    }
  }
  return by_dot;
}

RefinePassResult RunRefinePass(
    const core::Lightor& lightor, const std::string& video_id,
    const std::vector<storage::HighlightRecord>& dots,
    const std::map<uint64_t, std::vector<storage::InteractionRecord>>&
        sessions) {
  RefinePassResult result;
  result.report.video_id = video_id;
  result.report.sessions_consumed = sessions.size();

  const double delta = lightor.options().extractor.delta;
  const auto plays_by_dot = GroupPlaysByDot(sessions, dots, delta);
  const core::HighlightExtractor& extractor = lightor.extractor();
  const double epsilon = lightor.options().extractor.convergence_epsilon;

  for (const auto& dot : dots) {
    auto it = plays_by_dot.find(dot.dot_index);
    if (it == plays_by_dot.end()) {
      result.all.push_back(dot);  // untouched: carried into the snapshot
      continue;
    }
    const core::RefineResult step =
        extractor.RefineOnce(it->second, dot.dot_position);
    storage::HighlightRecord next = dot;
    next.iteration = dot.iteration + 1;
    if (step.type == core::DotType::kTypeII && step.enough_plays) {
      next.start = step.boundary.start;
      next.end = step.boundary.end;
      next.converged = std::abs(step.new_dot - dot.dot_position) < epsilon;
      next.dot_position = step.new_dot;
    } else {
      next.dot_position = step.new_dot;
      next.start = step.new_dot;
      next.converged = false;
    }

    DotRefineOutcome outcome;
    outcome.dot_index = dot.dot_index;
    outcome.updated = true;
    outcome.type = step.type;
    outcome.enough_plays = step.enough_plays;
    outcome.plays_used = step.plays_used;
    outcome.old_position = dot.dot_position;
    outcome.new_position = next.dot_position;
    outcome.converged = next.converged;
    result.report.dots.push_back(std::move(outcome));
    ++result.report.dots_updated;

    result.updated.push_back(next);
    result.all.push_back(std::move(next));
  }
  return result;
}

std::unordered_map<std::string, uint64_t> SeedWatermarksFromDb(
    storage::Database& db) {
  std::unordered_map<std::string, uint64_t> watermarks;
  const uint64_t consumed_all = db.interactions().current_generation() + 1;
  for (const auto& rec : db.highlights().AllLatest()) {
    if (rec.iteration > 0) watermarks[rec.video_id] = consumed_all;
  }
  return watermarks;
}

}  // namespace lightor::serving
