#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/log.h"

namespace lightor::storage {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lightor_log_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "test.log").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::vector<uint8_t> Bytes(const std::string& s) {
    return {s.begin(), s.end()};
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(LogTest, AppendAndReplay) {
  AppendLog log;
  ASSERT_TRUE(log.Open(path_).ok());
  ASSERT_TRUE(log.Append(Bytes("alpha")).ok());
  ASSERT_TRUE(log.Append(Bytes("beta")).ok());
  ASSERT_TRUE(log.Append(Bytes("")).ok());  // empty payload is legal
  log.Close();

  std::vector<std::string> seen;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>& p) {
                seen.emplace_back(p.begin(), p.end());
              }).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "alpha");
  EXPECT_EQ(seen[1], "beta");
  EXPECT_EQ(seen[2], "");
}

TEST_F(LogTest, ReplayMissingFileIsEmpty) {
  int count = 0;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>&) {
                ++count;
              }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(LogTest, AppendWithoutOpenFails) {
  AppendLog log;
  EXPECT_TRUE(log.Append(Bytes("x")).IsFailedPrecondition());
}

TEST_F(LogTest, ReopenAppendsAfterExistingRecords) {
  {
    AppendLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(Bytes("one")).ok());
  }
  {
    AppendLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(Bytes("two")).ok());
  }
  int count = 0;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>&) {
                ++count;
              }).ok());
  EXPECT_EQ(count, 2);
}

TEST_F(LogTest, TornTailStopsReplayCleanly) {
  {
    AppendLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(Bytes("good")).ok());
  }
  // Simulate a torn write: append half a frame.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00", 3);
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>& p) {
                seen.emplace_back(p.begin(), p.end());
              }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "good");
}

TEST_F(LogTest, CorruptedPayloadStopsReplay) {
  {
    AppendLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(Bytes("first")).ok());
    ASSERT_TRUE(log.Append(Bytes("second")).ok());
  }
  // Flip a byte inside the second record's payload.
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-2, std::ios::end);
    f.put('X');
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>& p) {
                seen.emplace_back(p.begin(), p.end());
              }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "first");
}

TEST_F(LogTest, RecoverTruncatesCorruptTail) {
  {
    AppendLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(Bytes("keep-me")).ok());
  }
  const auto clean_size = std::filesystem::file_size(path_);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write("garbage-not-a-frame-header-at-all", 33);
  }
  auto recovered = AppendLog::Recover(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), 1u);
  EXPECT_EQ(std::filesystem::file_size(path_), clean_size);

  // After recovery the log accepts new appends and replays fully.
  AppendLog log;
  ASSERT_TRUE(log.Open(path_).ok());
  ASSERT_TRUE(log.Append(Bytes("fresh")).ok());
  log.Close();
  int count = 0;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>&) {
                ++count;
              }).ok());
  EXPECT_EQ(count, 2);
}

TEST_F(LogTest, RecoverMissingFileIsZero) {
  auto recovered = AppendLog::Recover(path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), 0u);
}

TEST_F(LogTest, BatchedFlushModeReplaysEverythingAfterFlush) {
  AppendLog log;
  ASSERT_TRUE(log.Open(path_).ok());
  EXPECT_TRUE(log.flush_each_append());
  log.set_flush_each_append(false);
  EXPECT_FALSE(log.flush_each_append());
  ASSERT_TRUE(log.Append(Bytes("one")).ok());
  ASSERT_TRUE(log.Append(Bytes("two")).ok());
  ASSERT_TRUE(log.Flush().ok());

  // The log is still open (no Close), yet a concurrent reader of the
  // file must see both records — Flush is the durability point.
  std::vector<std::string> seen;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>& p) {
                seen.emplace_back(p.begin(), p.end());
              }).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "one");
  EXPECT_EQ(seen[1], "two");
  log.Close();
}

TEST_F(LogTest, FlushWithoutOpenFails) {
  AppendLog log;
  EXPECT_TRUE(log.Flush().IsFailedPrecondition());
}

TEST_F(LogTest, CloseFlushesBatchedAppends) {
  {
    AppendLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    log.set_flush_each_append(false);
    ASSERT_TRUE(log.Append(Bytes("buffered")).ok());
    log.Close();  // close must not lose the unflushed tail
  }
  int count = 0;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>&) {
                ++count;
              }).ok());
  EXPECT_EQ(count, 1);
}

// A frame sealed outside the log is byte-identical to what Append writes,
// and replays the same, whether it goes through the write buffer or (past
// the buffer's size) straight to the file.
TEST_F(LogTest, SealedFrameMatchesAppend) {
  for (size_t size : {size_t{0}, size_t{13}, size_t{300000}}) {
    std::vector<uint8_t> payload(size);
    for (size_t i = 0; i < size; ++i) payload[i] = static_cast<uint8_t>(i * 7);
    Encoder frame(AppendLog::kFrameHeaderSize + size);
    frame.PutU32(0);
    frame.PutU32(0);
    for (uint8_t b : payload) frame.PutU8(b);
    const std::vector<uint8_t> sealed = AppendLog::SealFrame(std::move(frame));

    const std::string appended_path = path_ + ".appended";
    {
      AppendLog a, b;
      ASSERT_TRUE(a.Open(appended_path).ok());
      ASSERT_TRUE(b.Open(path_).ok());
      ASSERT_TRUE(a.Append(Bytes("before")).ok());
      ASSERT_TRUE(b.Append(Bytes("before")).ok());
      ASSERT_TRUE(a.Append(payload).ok());
      ASSERT_TRUE(b.AppendFrame(sealed).ok());
      ASSERT_TRUE(a.Append(Bytes("after")).ok());
      ASSERT_TRUE(b.Append(Bytes("after")).ok());
    }
    const auto read_all = [](const std::string& p) {
      std::ifstream in(p, std::ios::binary);
      return std::vector<char>(std::istreambuf_iterator<char>(in), {});
    };
    EXPECT_EQ(read_all(path_), read_all(appended_path)) << size;
    std::vector<std::vector<uint8_t>> seen;
    ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>& p) {
                  seen.push_back(p);
                }).ok());
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[1], payload);
    EXPECT_EQ(seen[2], Bytes("after"));
    std::filesystem::remove(path_);
    std::filesystem::remove(appended_path);
  }
}

TEST_F(LogTest, AppendAllWritesWhatAppendsWould) {
  const std::vector<std::vector<uint8_t>> payloads = {
      Bytes("first"), {}, Bytes("third record")};
  const std::string appended_path = path_ + ".appended";
  {
    AppendLog a, b;
    ASSERT_TRUE(a.Open(appended_path).ok());
    ASSERT_TRUE(b.Open(path_).ok());
    for (const auto& payload : payloads) ASSERT_TRUE(a.Append(payload).ok());
    ASSERT_TRUE(b.AppendAll(payloads).ok());
  }
  const auto read_all = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(read_all(path_), read_all(appended_path));
  std::vector<std::vector<uint8_t>> seen;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>& p) {
                seen.push_back(p);
              }).ok());
  EXPECT_EQ(seen, payloads);
  std::filesystem::remove(appended_path);
}

TEST_F(LogTest, LargePayloadRoundTrip) {
  std::vector<uint8_t> big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  {
    AppendLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(big).ok());
  }
  std::vector<uint8_t> read;
  ASSERT_TRUE(AppendLog::ReplayFile(path_, [&](const std::vector<uint8_t>& p) {
                read = p;
              }).ok());
  EXPECT_EQ(read, big);
}

}  // namespace
}  // namespace lightor::storage

namespace lightor::storage {
namespace {

// Failure injection: truncating the log at EVERY byte offset must never
// break recovery — replay yields a prefix of the original records and the
// recovered file accepts new appends.
TEST(LogFuzzTest, TruncationAtEveryOffsetRecovers) {
  const auto dir = std::filesystem::temp_directory_path() / "lightor_fuzz";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "fuzz.log").string();

  std::vector<std::vector<uint8_t>> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back(std::vector<uint8_t>(
        static_cast<size_t>(5 + 11 * i), static_cast<uint8_t>('a' + i)));
  }
  // Reference file.
  const std::string ref_path = (dir / "ref.log").string();
  std::filesystem::remove(ref_path);
  {
    AppendLog log;
    ASSERT_TRUE(log.Open(ref_path).ok());
    for (const auto& rec : records) ASSERT_TRUE(log.Append(rec).ok());
  }
  const auto full = std::filesystem::file_size(ref_path);

  for (uintmax_t cut = 0; cut <= full; cut += 7) {
    std::filesystem::remove(path);
    std::filesystem::copy_file(ref_path, path);
    std::filesystem::resize_file(path, cut);

    auto recovered = AppendLog::Recover(path);
    ASSERT_TRUE(recovered.ok()) << "cut at " << cut;

    std::vector<std::vector<uint8_t>> read;
    ASSERT_TRUE(AppendLog::ReplayFile(path,
                                      [&](const std::vector<uint8_t>& p) {
                                        read.push_back(p);
                                      })
                    .ok());
    // Replay yields a strict prefix of the original records.
    ASSERT_LE(read.size(), records.size());
    for (size_t i = 0; i < read.size(); ++i) {
      EXPECT_EQ(read[i], records[i]) << "cut at " << cut;
    }
    // And the file accepts new appends afterwards.
    AppendLog log;
    ASSERT_TRUE(log.Open(path).ok());
    ASSERT_TRUE(log.Append({0xFF, 0x00}).ok());
    log.Close();
    size_t count = 0;
    ASSERT_TRUE(AppendLog::ReplayFile(path,
                                      [&](const std::vector<uint8_t>&) {
                                        ++count;
                                      })
                    .ok());
    EXPECT_EQ(count, read.size() + 1) << "cut at " << cut;
  }
  std::filesystem::remove_all(dir);
}

// Bit-flip injection: corrupting any single byte of the payload region
// must drop that record (and its suffix) without crashing or producing a
// phantom record.
TEST(LogFuzzTest, BitFlipsNeverCrashRecovery) {
  const auto dir = std::filesystem::temp_directory_path() / "lightor_fuzz2";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "flip.log").string();
  std::filesystem::remove(path);
  {
    AppendLog log;
    ASSERT_TRUE(log.Open(path).ok());
    ASSERT_TRUE(log.Append({1, 2, 3, 4, 5, 6, 7, 8}).ok());
    ASSERT_TRUE(log.Append({9, 10, 11, 12}).ok());
  }
  const auto size = std::filesystem::file_size(path);
  for (uintmax_t offset = 0; offset < size; offset += 3) {
    // Restore, then flip one byte.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    const int original = f.get();
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(original ^ 0x5A));
    f.close();

    size_t count = 0;
    ASSERT_TRUE(AppendLog::ReplayFile(path,
                                      [&](const std::vector<uint8_t>&) {
                                        ++count;
                                      })
                    .ok());
    EXPECT_LE(count, 2u);

    // Undo the flip.
    std::fstream g(path, std::ios::binary | std::ios::in | std::ios::out);
    g.seekp(static_cast<std::streamoff>(offset));
    g.put(static_cast<char>(original));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lightor::storage
