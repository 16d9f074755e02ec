// CRC32C (Castagnoli) and the 16-byte checksum trailer the durability layer
// appends to every file it wants self-validating: sealed shard blobs, the
// store manifest (format v3), and every write-ahead-log record (the WAL
// embeds the CRC per record instead of per file; see src/store/wal.hpp).
//
// Trailer layout, appended after the payload bytes:
//
//   word 0   payload byte count (the file size minus 16)
//   word 1   high 32 bits: trailer magic "NCK1"; low 32 bits: CRC32C(payload)
//
// CheckChecksumTrailer distinguishes three states on read: kValid (trailer
// present, CRC matches), kAbsent (no trailer shape at the tail — a
// truncated or foreign file), and kCorrupt (the tail claims to be a trailer
// but the CRC disagrees — bit rot or a torn write). Every caller requires a
// valid trailer, so kAbsent and kCorrupt are both rejected.
//
// Crc32c picks its kernel once per process: the SSE4.2 crc32 instruction
// (8 bytes per step) on x86-64 CPUs that have it, otherwise the portable
// bytewise table loop. Both compute the same function, so the choice never
// changes a checksum on disk or on the wire (tests/checksum_test.cpp).

#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace neats {

namespace internal {

inline const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// The portable kernel: one table lookup per byte. Serves non-x86 builds
/// and CPUs without SSE4.2.
inline uint32_t Crc32cPortable(std::span<const uint8_t> bytes,
                               uint32_t crc = 0) {
  const auto& table = Crc32cTable();
  crc = ~crc;
  for (uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
/// The SSE4.2 kernel: the crc32 instruction over 8-byte little-endian
/// words, then byte steps for the tail. Call only where the CPU supports
/// SSE4.2 (Crc32cKernel checks).
__attribute__((target("sse4.2"))) inline uint32_t Crc32cSse42(
    std::span<const uint8_t> bytes, uint32_t crc) {
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

using Crc32cFn = uint32_t (*)(std::span<const uint8_t>, uint32_t);

/// The kernel Crc32c dispatches to, chosen on first use.
inline Crc32cFn Crc32cKernel() {
  static const Crc32cFn kernel = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
    return &Crc32cPortable;
  }();
  return kernel;
}

}  // namespace internal

/// CRC32C over `bytes`, continuing from `crc` (pass the previous return
/// value to checksum a file in pieces; 0 starts a fresh checksum).
inline uint32_t Crc32c(std::span<const uint8_t> bytes, uint32_t crc = 0) {
  return internal::Crc32cKernel()(bytes, crc);
}

/// ASCII "NCK1" — the high half of the trailer's second word.
inline constexpr uint32_t kChecksumTrailerMagic = 0x314B434Eu;

/// Byte size of the checksum trailer.
inline constexpr size_t kChecksumTrailerBytes = 16;

/// Appends the 16-byte checksum trailer over the current contents of
/// `bytes` (which become the payload).
inline void AppendChecksumTrailer(std::vector<uint8_t>* bytes) {
  const uint64_t payload = bytes->size();
  const uint64_t tag = (uint64_t{kChecksumTrailerMagic} << 32) |
                       Crc32c({bytes->data(), bytes->size()});
  const size_t at = bytes->size();
  bytes->resize(at + kChecksumTrailerBytes);
  std::memcpy(bytes->data() + at, &payload, 8);
  std::memcpy(bytes->data() + at + 8, &tag, 8);
}

/// Outcome of probing a file's tail for a checksum trailer.
enum class TrailerState {
  kValid,    // trailer present, CRC matches the payload
  kAbsent,   // no trailer shape at the tail (truncated or foreign file)
  kCorrupt,  // trailer shape present but the CRC disagrees
};

/// CheckChecksumTrailer result: the state, the payload bytes (everything
/// before the trailer for kValid/kCorrupt, the whole input for kAbsent) and
/// the payload CRC actually computed.
struct TrailerInfo {
  TrailerState state = TrailerState::kAbsent;
  std::span<const uint8_t> payload;
  uint32_t crc = 0;
};

/// Probes `bytes` for a trailing checksum trailer and verifies it.
inline TrailerInfo CheckChecksumTrailer(std::span<const uint8_t> bytes) {
  TrailerInfo info;
  info.payload = bytes;
  if (bytes.size() < kChecksumTrailerBytes) return info;
  uint64_t payload_bytes, tag;
  std::memcpy(&payload_bytes, bytes.data() + bytes.size() - 16, 8);
  std::memcpy(&tag, bytes.data() + bytes.size() - 8, 8);
  if ((tag >> 32) != kChecksumTrailerMagic ||
      payload_bytes != bytes.size() - kChecksumTrailerBytes) {
    return info;  // kAbsent: not a trailer
  }
  info.payload = bytes.subspan(0, bytes.size() - kChecksumTrailerBytes);
  info.crc = Crc32c(info.payload);
  info.state = info.crc == static_cast<uint32_t>(tag) ? TrailerState::kValid
                                                      : TrailerState::kCorrupt;
  return info;
}

}  // namespace neats
