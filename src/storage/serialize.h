#ifndef LIGHTOR_STORAGE_SERIALIZE_H_
#define LIGHTOR_STORAGE_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace lightor::storage {

/// Little-endian binary encoder for record payloads.
class Encoder {
 public:
  Encoder() = default;
  /// Reserves `capacity` bytes up front: a caller that knows the encoded
  /// size gets one exactly sized buffer and no regrowth.
  explicit Encoder(size_t capacity) { bytes_.reserve(capacity); }

  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutDouble(double v);
  void PutString(std::string_view s);  ///< u32 length prefix + bytes
  /// Overwrites the four bytes at `offset` (already written) with `v` —
  /// for headers whose value is known only after the body is encoded.
  void SetU32At(size_t offset, uint32_t v);

  size_t size() const { return bytes_.size(); }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Release() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Matching decoder; every getter returns Corruption when the buffer is
/// exhausted.
class Decoder {
 public:
  explicit Decoder(const std::vector<uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  common::Result<uint8_t> GetU8();
  common::Result<uint32_t> GetU32();
  common::Result<uint64_t> GetU64();
  common::Result<double> GetDouble();
  common::Result<std::string> GetString();

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ >= size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// CRC32 (IEEE 802.3 polynomial, table-driven, eight bytes per step).
uint32_t Crc32(const uint8_t* data, size_t size);

}  // namespace lightor::storage

#endif  // LIGHTOR_STORAGE_SERIALIZE_H_
