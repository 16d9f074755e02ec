// Tests for io/checksum.hpp: CRC32C known answers (RFC 3720 §B.4 plus the
// "123456789" check value) through both the dispatched Crc32c and the
// portable kernel, a hardware-vs-portable differential over every length
// and start alignment, continuation at every split point, and the golden
// bytes of the checksum trailer — so neither the function nor the trailer
// layout can drift when the kernel changes.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "io/checksum.hpp"

namespace neats {
namespace {

struct KnownAnswer {
  const char* name;
  std::vector<uint8_t> bytes;
  uint32_t crc;
};

std::vector<KnownAnswer> KnownAnswers() {
  std::vector<uint8_t> ascending(32), descending(32);
  for (uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  const std::string_view check = "123456789";
  return {
      {"32 x 0x00", std::vector<uint8_t>(32, 0x00), 0x8A9136AAu},
      {"32 x 0xFF", std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u},
      {"bytes 0..31", ascending, 0x46DD794Eu},
      {"bytes 31..0", descending, 0x113FDB5Cu},
      {"\"123456789\"", std::vector<uint8_t>(check.begin(), check.end()),
       0xE3069283u},
  };
}

TEST(Crc32c, KnownAnswersThroughEveryKernel) {
  for (const KnownAnswer& ka : KnownAnswers()) {
    EXPECT_EQ(Crc32c(ka.bytes), ka.crc) << ka.name;
    EXPECT_EQ(internal::Crc32cPortable(ka.bytes), ka.crc) << ka.name;
  }
  EXPECT_EQ(Crc32c({}), 0u);
  EXPECT_EQ(internal::Crc32cPortable({}), 0u);
}

TEST(Crc32c, DispatchedKernelMatchesPortableAtEveryLengthAndOffset) {
  std::vector<uint8_t> buf(1100 + 8);
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  for (uint8_t& b : buf) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    b = static_cast<uint8_t>(rng);
  }
  const bool hardware = internal::Crc32cKernel() != &internal::Crc32cPortable;
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const std::span<const uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(Crc32c(s), internal::Crc32cPortable(s))
          << "offset " << offset << " len " << len
          << (hardware ? " (hardware kernel)" : " (portable kernel)");
      // A non-zero seed exercises the continuation path of both kernels.
      ASSERT_EQ(Crc32c(s, 0xDEADBEEFu),
                internal::Crc32cPortable(s, 0xDEADBEEFu))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32c, ContinuationMatchesOneShotAtEverySplit) {
  std::vector<uint8_t> buf(200);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const uint32_t whole = Crc32c(buf);
  EXPECT_EQ(whole, internal::Crc32cPortable(buf));
  const std::span<const uint8_t> all(buf);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32c(all.subspan(0, split));
    EXPECT_EQ(Crc32c(all.subspan(split), head), whole) << "split " << split;
    const uint32_t portable_head =
        internal::Crc32cPortable(all.subspan(0, split));
    EXPECT_EQ(internal::Crc32cPortable(all.subspan(split), portable_head),
              whole)
        << "split " << split;
  }
}

TEST(ChecksumTrailer, GoldenBytes) {
  const std::string_view check = "123456789";
  std::vector<uint8_t> bytes(check.begin(), check.end());
  AppendChecksumTrailer(&bytes);
  const std::vector<uint8_t> want = {
      '1',  '2',  '3',  '4',  '5',  '6',  '7',  '8',  '9',
      // word 0: payload byte count, little-endian
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // word 1: CRC32C 0xE3069283 in the low half, then "NCK1"
      0x83, 0x92, 0x06, 0xE3, 'N',  'C',  'K',  '1',
  };
  EXPECT_EQ(bytes, want);

  const TrailerInfo info = CheckChecksumTrailer(bytes);
  EXPECT_EQ(info.state, TrailerState::kValid);
  EXPECT_EQ(info.crc, 0xE3069283u);
  EXPECT_EQ(info.payload.size(), 9u);

  bytes[4] ^= 0x01;
  EXPECT_EQ(CheckChecksumTrailer(bytes).state, TrailerState::kCorrupt);
}

}  // namespace
}  // namespace neats
