// The SeriesCodec concept: the compile-time contract every compressed
// representation must meet to serve a NeatsStore shard (or a bench column)
// through one uniform API.
//
// A SeriesCodec compresses a span of int64 values and then answers the five
// query shapes of the serving layer — scalar Access, sorted AccessBatch,
// range and multi-range decompression, and exact range sums — plus the
// serialization trio (Serialize / Deserialize / View) and SizeInBits. Neats
// itself is the flagship model; NeatsLossyExact, LecoCodec, AlpCodec,
// GorillaCodec and ChimpCodec (src/codecs/) adapt the paper's competitors to
// the same surface so the comparison table becomes a per-shard engineering
// choice (ISSUE 5; docs/ARCHITECTURE.md, "Codec layer").
//
// Thin codecs do not have to implement the whole surface by hand:
// ScalarCodecBase is a CRTP adapter that derives AccessBatch,
// DecompressRange(s) and RangeSum from scalar Access. A derived codec that
// *can* do better simply declares its own method — the base's defaults
// always dispatch through the derived type, so a native DecompressRange is
// picked up by the derived RangeSum/DecompressRanges automatically.

#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "core/codec_id.hpp"
#include "core/neats.hpp"

namespace neats {

/// The compile-time contract of a servable compressed series representation.
///
/// Semantics the signatures cannot express:
///  - Compress/Deserialize/View produce an object answering queries over the
///    original values exactly (codecs built on a lossy core must carry
///    corrections that restore exactness — see NeatsLossyExact).
///  - RangeSum returns the exact sum modulo 2^64 (two's complement): a sum
///    past the int64 range wraps instead of overflowing.
///  - AccessBatch requires non-decreasing probe indices (callers with
///    unsorted probes sort first, as NeatsStore::AccessBatch does).
///  - Serialize output fed back through Deserialize and re-serialized must
///    reproduce the bytes (canonical encoding; the conformance suite checks).
///  - View opens a blob borrowing the caller's (8-byte-aligned, outliving)
///    buffer when kZeroCopyView is true, and may fall back to an owning load
///    when it is false.
///  - Loaders reject corrupt blobs by throwing (NEATS_REQUIRE) instead of
///    serving out-of-bounds reads.
template <typename C>
concept SeriesCodec =
    std::default_initializable<C> && std::movable<C> &&
    requires(const C c, std::span<const int64_t> values,
             const NeatsOptions& options, std::span<const uint64_t> idx,
             std::span<const IndexRange> ranges, int64_t* out,
             std::vector<uint8_t>* blob, std::span<const uint8_t> bytes) {
      { C::Compress(values, options) } -> std::same_as<C>;
      { c.size() } -> std::convertible_to<uint64_t>;
      { c.Access(uint64_t{}) } -> std::same_as<int64_t>;
      { c.AccessBatch(idx, out) };
      { c.DecompressRange(uint64_t{}, uint64_t{}, out) };
      { c.DecompressRanges(ranges, out) };
      { c.RangeSum(uint64_t{}, uint64_t{}) } -> std::same_as<int64_t>;
      { c.SizeInBits() } -> std::convertible_to<size_t>;
      { c.Serialize(blob) };
      { C::Deserialize(bytes) } -> std::same_as<C>;
      { C::View(bytes) } -> std::same_as<C>;
      { C::kZeroCopyView } -> std::convertible_to<bool>;
    };

/// Optional extension of SeriesCodec for block-structured representations
/// (ALP's 1024-value vectors, the XOR streams' 1000-value blocks): the codec
/// exposes its block geometry and a whole-block decode, so callers that
/// amortize decodes across queries — the store's decoded-block cache — can
/// key on (block index) and reuse one decode for every probe that lands in
/// it. BlockValues() is the fixed values-per-block; DecodeBlock(b, out)
/// fills out (sized BlockValues()) and returns the actual count (the last
/// block may be partial). Detected structurally: SealedCodec forwards the
/// surface when the codec provides it and reports BlockValues() == 0
/// otherwise, so non-block codecs (Neats, LeCo) need no stubs.
template <typename C>
concept BlockStructuredCodec =
    SeriesCodec<C> && requires(const C c, int64_t* out) {
      { c.BlockValues() } -> std::convertible_to<uint64_t>;
      { c.DecodeBlock(uint64_t{}, out) } -> std::convertible_to<uint64_t>;
    };

/// CRTP adapter supplying the batch/range surface from scalar Access, so a
/// codec only has to implement Compress, size, Access, SizeInBits and the
/// serialization trio to conform. Every default dispatches through the
/// derived type: a codec that declares its own DecompressRange (say, a
/// block codec decoding a block at a time) automatically accelerates the
/// inherited DecompressRanges and RangeSum too.
template <typename Derived>
class ScalarCodecBase {
 public:
  /// Batched point queries over non-decreasing probe indices.
  void AccessBatch(std::span<const uint64_t> idx, int64_t* out) const {
    for (size_t j = 0; j < idx.size(); ++j) out[j] = self().Access(idx[j]);
  }

  /// Decompresses values[from, from + len) into out.
  void DecompressRange(uint64_t from, uint64_t len, int64_t* out) const {
    for (uint64_t k = 0; k < len; ++k) out[k] = self().Access(from + k);
  }

  /// Every range's values, concatenated into out.
  void DecompressRanges(std::span<const IndexRange> ranges,
                        int64_t* out) const {
    for (const IndexRange& r : ranges) {
      self().DecompressRange(r.from, r.len, out);
      out += r.len;
    }
  }

  /// Exact sum over values[from, from + len), wrapping modulo 2^64 (two's
  /// complement), streamed in fixed chunks.
  int64_t RangeSum(uint64_t from, uint64_t len) const {
    constexpr uint64_t kChunk = 1024;
    int64_t buffer[kChunk];
    uint64_t sum = 0;
    while (len > 0) {
      const uint64_t take = std::min(len, kChunk);
      self().DecompressRange(from, take, buffer);
      for (uint64_t j = 0; j < take; ++j) {
        sum += static_cast<uint64_t>(buffer[j]);
      }
      from += take;
      len -= take;
    }
    return static_cast<int64_t>(sum);
  }

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

}  // namespace neats
