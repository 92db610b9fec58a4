#include "storage/log.h"

#include <optional>
#include <utility>

#include "obs/trace.h"
#include "obs/trace_context.h"
#include "storage/serialize.h"

namespace lightor::storage {

namespace {

Env* OrDefault(Env* env) { return env != nullptr ? env : Env::Default(); }

/// Reads exactly `size` bytes unless EOF lands first; returns the number
/// of bytes actually read (the Env retries EINTR and short reads below
/// this level, so a shortfall here is a genuine torn tail).
common::Result<size_t> ReadFully(SequentialFile& file, uint8_t* buf,
                                 size_t size) {
  size_t total = 0;
  while (total < size) {
    auto got = file.Read(buf + total, size - total);
    if (!got.ok()) return got.status();
    if (got.value() == 0) break;  // EOF
    total += got.value();
  }
  return total;
}

}  // namespace

AppendLog::~AppendLog() { Close(); }

common::Status AppendLog::Wedge(common::Status status) {
  wedged_ = true;
  if (file_ != nullptr) {
    // The buffered tail belongs to the record that just failed. Flushing
    // it later (Close on reopen, or the destructor) would land it after
    // the point recovery truncates to, burying every subsequent record
    // behind a torn frame replay can never pass. Drop it instead.
    file_->DiscardBuffered();
  }
  return status;
}

common::Status AppendLog::Open(const std::string& path, Env* env) {
  Close();
  env_ = OrDefault(env);
  auto file = env_->NewAppendableFile(path);
  if (!file.ok()) return file.status();
  file_ = std::move(file).value();
  path_ = path;
  wedged_ = false;
  return common::Status::OK();
}

common::Result<AppendLog::ReplayStats> AppendLog::OpenAndReplay(
    const std::string& path,
    const std::function<void(const std::vector<uint8_t>&)>& visitor,
    Env* env) {
  Env* e = OrDefault(env);
  ReplayStats stats;
  size_t valid_bytes = 0;
  LIGHTOR_RETURN_IF_ERROR(ReplayFile(
      path,
      [&](const std::vector<uint8_t>& payload) {
        ++stats.records;
        if (visitor) visitor(payload);
      },
      &valid_bytes, e));
  if (e->FileExists(path)) {
    auto size = e->GetFileSize(path);
    if (!size.ok()) return size.status();
    if (size.value() > valid_bytes) {
      stats.torn_bytes = size.value() - valid_bytes;
      LIGHTOR_RETURN_IF_ERROR(e->TruncateFile(path, valid_bytes));
    }
  }
  LIGHTOR_RETURN_IF_ERROR(Open(path, e));
  return stats;
}

common::Status AppendLog::CheckWritable() const {
  if (file_ == nullptr) {
    return common::Status::FailedPrecondition("AppendLog: not open");
  }
  if (wedged_) {
    return common::Status::IoError(
        "AppendLog: wedged by an earlier I/O error, reopen to recover: " +
        path_);
  }
  return common::Status::OK();
}

common::Status AppendLog::Append(const std::vector<uint8_t>& payload) {
  LIGHTOR_RETURN_IF_ERROR(CheckWritable());
  Encoder header(kFrameHeaderSize);
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(Crc32(payload.data(), payload.size()));
  if (auto st = file_->Append(header.bytes()); !st.ok()) {
    return Wedge(std::move(st));
  }
  return AppendBytes(payload.data(), payload.size());
}

std::vector<uint8_t> AppendLog::SealFrame(Encoder frame) {
  const size_t payload_size = frame.size() - kFrameHeaderSize;
  frame.SetU32At(0, static_cast<uint32_t>(payload_size));
  frame.SetU32At(4, Crc32(frame.bytes().data() + kFrameHeaderSize,
                          payload_size));
  return frame.Release();
}

common::Status AppendLog::AppendFrame(const std::vector<uint8_t>& frame) {
  LIGHTOR_RETURN_IF_ERROR(CheckWritable());
  return AppendBytes(frame.data(), frame.size());
}

common::Status AppendLog::AppendBytes(const uint8_t* data, size_t size) {
  if (size > 0) {
    if (auto st = file_->Append(data, size); !st.ok()) {
      return Wedge(std::move(st));
    }
  }
  if (flush_each_) return Flush();
  return common::Status::OK();
}

common::Status AppendLog::Flush() {
  LIGHTOR_RETURN_IF_ERROR(CheckWritable());
  // Span only when a request trace is active: every append can flush
  // (flush_each_), and untraced flushes would churn the global ring.
  std::optional<obs::ScopedSpan> span;
  if (obs::CurrentTraceContext().valid()) {
    span.emplace("storage.AppendLog.Flush");
  }
  if (auto st = sync_on_flush_ ? file_->Sync() : file_->Flush(); !st.ok()) {
    return Wedge(std::move(st));
  }
  return common::Status::OK();
}

common::Status AppendLog::Sync() {
  LIGHTOR_RETURN_IF_ERROR(CheckWritable());
  std::optional<obs::ScopedSpan> span;
  if (obs::CurrentTraceContext().valid()) {
    span.emplace("storage.AppendLog.Sync");
  }
  if (auto st = file_->Sync(); !st.ok()) return Wedge(std::move(st));
  return common::Status::OK();
}

void AppendLog::Close() {
  if (file_ != nullptr) {
    (void)file_->Close();  // a close error leaves a torn tail; recovery
                           // on the next open truncates it
    file_.reset();
  }
}

common::Status AppendLog::ReplayFile(
    const std::string& path,
    const std::function<void(const std::vector<uint8_t>&)>& visitor,
    size_t* valid_bytes, Env* env) {
  if (valid_bytes != nullptr) *valid_bytes = 0;
  Env* e = OrDefault(env);
  if (!e->FileExists(path)) return common::Status::OK();
  auto opened = e->NewSequentialFile(path);
  if (!opened.ok()) return opened.status();
  SequentialFile& file = *opened.value();
  size_t offset = 0;
  while (true) {
    uint8_t header[8];
    auto got = ReadFully(file, header, sizeof(header));
    if (!got.ok()) return got.status();
    if (got.value() < sizeof(header)) break;  // clean EOF or torn header
    Decoder dec(header, sizeof(header));
    const uint32_t length = dec.GetU32().value();
    const uint32_t crc = dec.GetU32().value();
    std::vector<uint8_t> payload(length);
    if (length > 0) {
      auto body = ReadFully(file, payload.data(), length);
      if (!body.ok()) return body.status();
      if (body.value() != length) break;  // torn payload
    }
    if (Crc32(payload.data(), payload.size()) != crc) break;  // corrupted
    visitor(payload);
    offset += sizeof(header) + length;
    if (valid_bytes != nullptr) *valid_bytes = offset;
  }
  return common::Status::OK();
}

common::Result<size_t> AppendLog::Recover(const std::string& path, Env* env) {
  Env* e = OrDefault(env);
  size_t records = 0;
  size_t valid_bytes = 0;
  const common::Status st = ReplayFile(
      path, [&](const std::vector<uint8_t>&) { ++records; }, &valid_bytes, e);
  if (!st.ok()) return st;
  if (e->FileExists(path)) {
    auto size = e->GetFileSize(path);
    if (!size.ok()) return size.status();
    if (size.value() > valid_bytes) {
      LIGHTOR_RETURN_IF_ERROR(e->TruncateFile(path, valid_bytes));
    }
  }
  return records;
}

}  // namespace lightor::storage
