// The store manifest: the small routing file at the root of a NeatsStore
// directory (docs/FORMAT.md, "Store directory layout").
//
// A store directory holds one compressed blob per sealed shard plus
// MANIFEST.neats, which records the target shard size and, per shard, the
// global index range it covers, the byte size of its blob, the CodecId that
// compressed it (the codec registry routes open/query per shard by this
// word, which is what makes mixed-codec stores possible) and the CRC32C of
// its blob payload. The manifest is what OpenDir routes by: shard k serves
// global indices [shards[k].first, shards[k].first + shards[k].count), the
// blob lives in ShardFileName(k), and the recorded blob_bytes is
// cross-checked against the actual file before the blob is opened — a
// manifest/blob mismatch aborts instead of serving a half-written store.
//
// The wire format reuses the flat word grammar of the blobs (WordWriter/
// WordReader): magic "NEATSMF\0", a version word, the target shard size,
// the shard count, then one five-word row per shard (first, count,
// blob_bytes, codec id, and a blob-CRC word: high 32 bits 1, the CRC32C of
// the blob payload in the low 32 bits). The 16-byte CRC32C checksum trailer
// (io/checksum.hpp) follows the payload, so bit rot in the routing file
// itself is detected before any row is trusted. Only version 3 is read or
// written; any other version word is rejected. Loads are hardened the same
// way as blob loads — counts are bounded by the backing bytes, coverage
// must be contiguous from index 0, codec ids must be assigned, and every
// violation throws neats::Error, matching the clobber-sweep contract of the
// other loaders.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/codec_id.hpp"
#include "io/checksum.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// Parsed (or to-be-written) contents of a store directory's manifest file.
struct StoreManifest {
  /// One sealed shard: global index range, blob size, and its codec.
  struct Shard {
    uint64_t first = 0;       // global index of the shard's first value
    uint64_t count = 0;       // number of values in the shard (> 0)
    uint64_t blob_bytes = 0;  // byte size of the blob's codec payload
    CodecId codec = CodecId::kNeats;  // codec that compressed the blob
    uint32_t crc = 0;                 // CRC32C of the blob payload
  };

  uint64_t shard_size = 0;  // target values per sealed shard (> 0)
  std::vector<Shard> shards;

  /// Total sealed values (the index one past the last shard).
  uint64_t total() const {
    return shards.empty() ? 0 : shards.back().first + shards.back().count;
  }

  /// Name of the manifest file inside a store directory.
  static const char* FileName() { return "MANIFEST.neats"; }

  /// Blob file name of shard `index` inside a store directory, zero-padded
  /// so directory listings sort in shard order.
  static std::string ShardFileName(size_t index) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "shard-%06zu.neats", index);
    return buf;
  }

  void Serialize(std::vector<uint8_t>* out) const {
    out->clear();
    WordWriter w(out);
    w.Put(kMagic);
    w.Put(kVersion);
    w.Put(shard_size);
    w.Put(shards.size());
    for (const Shard& s : shards) {
      w.Put(s.first);
      w.Put(s.count);
      w.Put(s.blob_bytes);
      w.Put(static_cast<uint64_t>(s.codec));
      w.Put(kCrcFlag | s.crc);
    }
    AppendChecksumTrailer(out);
  }

  /// Parses Serialize output. Throws neats::Error on anything that is not
  /// a well-formed version-3 manifest: wrong magic, any other version (the
  /// message names it), a failed checksum, a shard count the bytes cannot
  /// back, zero-sized shards, an unassigned codec id, a crc flag other than
  /// 1, or coverage that is not contiguous from global index 0.
  static StoreManifest Deserialize(std::span<const uint8_t> bytes) {
    NEATS_REQUIRE(bytes.size() >= 16, "not a NeaTS store manifest");
    uint64_t magic, version;
    std::memcpy(&magic, bytes.data(), 8);
    std::memcpy(&version, bytes.data() + 8, 8);
    NEATS_REQUIRE(magic == kMagic, "not a NeaTS store manifest");
    if (version != kVersion) {
      throw Error("unsupported NeaTS store manifest version " +
                  std::to_string(version) + " (only version " +
                  std::to_string(kVersion) + " is read)");
    }
    const TrailerInfo trailer = CheckChecksumTrailer(bytes);
    NEATS_REQUIRE(trailer.state == TrailerState::kValid,
                  "NeaTS store manifest fails its checksum");
    const std::span<const uint8_t> payload = trailer.payload;
    constexpr size_t kRowWords = 5;
    WordReader r(payload, /*borrow=*/false);
    r.Get();  // magic, checked above
    r.Get();  // version, checked above
    StoreManifest m;
    m.shard_size = r.Get();
    NEATS_REQUIRE(m.shard_size > 0 && m.shard_size <= (uint64_t{1} << 56),
                  "corrupt NeaTS store manifest");
    uint64_t count = r.Get();
    NEATS_REQUIRE(count <= (payload.size() - r.position()) / (8 * kRowWords),
                  "corrupt NeaTS store manifest");
    m.shards.reserve(count);
    uint64_t next_first = 0;
    for (uint64_t i = 0; i < count; ++i) {
      Shard s;
      s.first = r.Get();
      s.count = r.Get();
      s.blob_bytes = r.Get();
      const uint64_t codec = r.Get();
      NEATS_REQUIRE(IsValidCodecId(codec), "corrupt NeaTS store manifest");
      s.codec = static_cast<CodecId>(codec);
      const uint64_t crc_word = r.Get();
      NEATS_REQUIRE((crc_word & ~uint64_t{0xFFFFFFFF}) == kCrcFlag,
                    "corrupt NeaTS store manifest");
      s.crc = static_cast<uint32_t>(crc_word);
      // Contiguous coverage from 0 and the same wrap guard as the blob
      // loaders: a forged count cannot push `first + count` past 2^56.
      NEATS_REQUIRE(s.first == next_first && s.count > 0 &&
                        s.count <= (uint64_t{1} << 56) - s.first &&
                        s.blob_bytes > 0,
                    "corrupt NeaTS store manifest");
      next_first = s.first + s.count;
      m.shards.push_back(s);
    }
    NEATS_REQUIRE(r.position() == payload.size(),
                  "corrupt NeaTS store manifest");
    return m;
  }

 private:
  // Little-endian "NEATSMF\0" — same ASCII-sniffable convention as the blob
  // magics ("NEATSv2", "NEATSL2").
  static constexpr uint64_t kMagic = 0x00464D535441454EULL;
  static constexpr uint64_t kVersion = 3;
  // High half of every row's CRC word. It is always 1; the bytes keep the
  // flag so the row layout stays that of every manifest written so far.
  static constexpr uint64_t kCrcFlag = uint64_t{1} << 32;
};

}  // namespace neats
