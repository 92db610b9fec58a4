#include "storage/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>

namespace lightor::storage {

namespace {

/// Buffered POSIX writable file. The application buffer makes the
/// Append/Flush distinction real (matching the crash model documented in
/// env.h): bytes sit here until `Flush`, exactly like the stdio buffer the
/// log historically used, so batched-flush mode keeps its one-syscall-per-
/// batch behaviour.
class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {
    buffer_.reserve(kBufferSize);
  }

  ~PosixWritableFile() override { (void)Close(); }

  common::Status Append(const uint8_t* data, size_t size) override {
    // An append as large as the buffer (a whole video's chat batch) skips
    // the copy: drain what is buffered, then write the bytes straight
    // through — one syscall for the record instead of one per buffer fill.
    if (size >= kBufferSize) {
      LIGHTOR_RETURN_IF_ERROR(Flush());
      size_t done = 0;
      return WriteAll(data, size, &done);
    }
    while (size > 0) {
      const size_t room = kBufferSize - buffer_.size();
      const size_t take = size < room ? size : room;
      buffer_.insert(buffer_.end(), data, data + take);
      data += take;
      size -= take;
      if (buffer_.size() == kBufferSize) {
        LIGHTOR_RETURN_IF_ERROR(Flush());
      }
    }
    return common::Status::OK();
  }

  common::Status Flush() override {
    size_t done = 0;
    if (auto st = WriteAll(buffer_.data(), buffer_.size(), &done); !st.ok()) {
      // Drop the prefix that did land, so a retry cannot write it twice.
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<ptrdiff_t>(done));
      return st;
    }
    buffer_.clear();
    return common::Status::OK();
  }

  common::Status Sync() override {
    LIGHTOR_RETURN_IF_ERROR(Flush());
    if (::fsync(fd_) != 0) {
      return common::ErrnoToStatus(errno, "fsync " + path_);
    }
    return common::Status::OK();
  }

  common::Status Close() override {
    if (fd_ < 0) return common::Status::OK();
    common::Status status = Flush();
    if (::close(fd_) != 0 && status.ok()) {
      status = common::ErrnoToStatus(errno, "close " + path_);
    }
    fd_ = -1;
    return status;
  }

  void DiscardBuffered() override { buffer_.clear(); }

 private:
  /// Writes `size` bytes to the kernel, retrying interrupted and short
  /// writes; `done` receives how many landed, also on error.
  common::Status WriteAll(const uint8_t* data, size_t size, size_t* done) {
    if (fd_ < 0) {
      return common::Status::FailedPrecondition("write to closed file: " +
                                                path_);
    }
    while (*done < size) {
      const ssize_t written = ::write(fd_, data + *done, size - *done);
      if (written < 0) {
        if (errno == EINTR) continue;  // interrupted: retry
        return common::ErrnoToStatus(errno, "write " + path_);
      }
      // Short writes just advance and loop.
      *done += static_cast<size_t>(written);
    }
    return common::Status::OK();
  }

  static constexpr size_t kBufferSize = 64 * 1024;

  int fd_;
  std::string path_;
  std::vector<uint8_t> buffer_;
};

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixSequentialFile() override { ::close(fd_); }

  common::Result<size_t> Read(uint8_t* buf, size_t size) override {
    while (true) {
      const ssize_t got = ::read(fd_, buf, size);
      if (got < 0) {
        if (errno == EINTR) continue;
        return common::ErrnoToStatus(errno, "read " + path_);
      }
      return static_cast<size_t>(got);
    }
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv final : public Env {
 public:
  common::Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd < 0) return common::ErrnoToStatus(errno, "open " + path);
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }

  common::Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return common::ErrnoToStatus(errno, "open " + path);
    return std::unique_ptr<SequentialFile>(new PosixSequentialFile(fd, path));
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  common::Result<uint64_t> GetFileSize(const std::string& path) override {
    struct ::stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return common::ErrnoToStatus(errno, "stat " + path);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  common::Status TruncateFile(const std::string& path,
                              uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return common::ErrnoToStatus(errno, "truncate " + path);
    }
    return common::Status::OK();
  }

  common::Status RenameFile(const std::string& from,
                            const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return common::ErrnoToStatus(errno, "rename " + from + " -> " + to);
    }
    return common::Status::OK();
  }

  common::Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return common::ErrnoToStatus(errno, "unlink " + path);
    }
    return common::Status::OK();
  }

  common::Status CreateDirs(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) {
      return common::Status::IoError("create_directories failed: " + path +
                                     ": " + ec.message());
    }
    return common::Status::OK();
  }

  common::Result<std::vector<std::string>> ListDir(
      const std::string& path) override {
    std::vector<std::string> names;
    std::error_code ec;
    std::filesystem::directory_iterator it(path, ec);
    if (ec) {
      if (ec == std::errc::no_such_file_or_directory) return names;
      return common::Status::IoError("list " + path + ": " + ec.message());
    }
    for (const auto& entry : it) {
      if (entry.is_regular_file(ec)) {
        names.push_back(entry.path().filename().string());
      }
    }
    return names;
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* const env = new PosixEnv();
  return env;
}

}  // namespace lightor::storage
