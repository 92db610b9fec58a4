#include "storage/serialize.h"

#include <cstring>

namespace lightor::storage {

void Encoder::PutU8(uint8_t v) { bytes_.push_back(v); }

void Encoder::PutU32(uint32_t v) {
  uint8_t le[4];
  for (int i = 0; i < 4; ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
  bytes_.insert(bytes_.end(), le, le + 4);
}

void Encoder::PutU64(uint64_t v) {
  uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
  bytes_.insert(bytes_.end(), le, le + 8);
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void Encoder::SetU32At(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

common::Result<uint8_t> Decoder::GetU8() {
  if (remaining() < 1) {
    return common::Status::Corruption("decoder: out of bytes (u8)");
  }
  return data_[pos_++];
}

common::Result<uint32_t> Decoder::GetU32() {
  if (remaining() < 4) {
    return common::Status::Corruption("decoder: out of bytes (u32)");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

common::Result<uint64_t> Decoder::GetU64() {
  if (remaining() < 8) {
    return common::Status::Corruption("decoder: out of bytes (u64)");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

common::Result<double> Decoder::GetDouble() {
  auto bits = GetU64();
  if (!bits.ok()) return bits.status();
  double v;
  const uint64_t b = bits.value();
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

common::Result<std::string> Decoder::GetString() {
  auto len = GetU32();
  if (!len.ok()) return len.status();
  if (remaining() < len.value()) {
    return common::Status::Corruption("decoder: string length overruns");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len.value());
  pos_ += len.value();
  return s;
}

namespace {

/// Slicing-by-8 tables: `t[0]` is the classic byte-at-a-time table and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// lookups advance the CRC over eight input bytes at once.
struct CrcTables {
  uint32_t t[8][256];
};

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

/// Little-endian load, independent of the host byte order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  const auto& t = kCrcTables.t;
  uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = c ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace lightor::storage
