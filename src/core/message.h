#ifndef LIGHTOR_CORE_MESSAGE_H_
#define LIGHTOR_CORE_MESSAGE_H_

#include <string>
#include <vector>

#include "common/interval.h"

namespace lightor::core {

/// A time-stamped chat message as the LIGHTOR pipeline sees it. This is
/// deliberately minimal — timestamp, author, text — because the whole
/// point of the system is that nothing else is needed.
struct Message {
  common::Seconds timestamp = 0.0;
  std::string user;
  std::string text;
};

/// Every message's timestamp, in order: the input of peak finding and the
/// burst features.
inline std::vector<common::Seconds> Timestamps(
    const std::vector<Message>& messages) {
  std::vector<common::Seconds> out;
  out.reserve(messages.size());
  for (const Message& m : messages) out.push_back(m.timestamp);
  return out;
}

/// A play record: a user played the video continuously over `span` — the
/// `play(s, e)` unit of the Highlight Extractor.
struct Play {
  std::string user;
  common::Interval span;

  Play() = default;
  Play(std::string u, common::Seconds s, common::Seconds e)
      : user(std::move(u)), span(s, e) {}
};

}  // namespace lightor::core

#endif  // LIGHTOR_CORE_MESSAGE_H_
