// GorillaCodec / ChimpCodec — the XOR-stream compressors adapted to the
// int64 SeriesCodec surface (codec ids 4 and 5).
//
// Gorilla and Chimp operate on raw 64-bit patterns (each value XOR-ed with a
// reference), so the adaptation is exact by construction: every int64 is
// bit_cast to a double on the way in and back on the way out — no numeric
// conversion, no exceptions list. The streams have no native random access,
// so they run block-wise (Blockwise, 1000 values per block, the paper's
// Sec. IV-A2 harness), with an intra-block skip index on top: every block
// carries the resumable decoder state (bit position, previous value, XOR
// window) at every kSkipInterval-th value, so
//
//   Access(k)        seeks to the nearest checkpoint at or before k and
//                    decodes at most kSkipInterval tokens — never a block;
//   AccessBatch      groups the (sorted) probes per block and walks one
//                    resumable cursor through each group, hopping over
//                    inter-probe gaps via the checkpoints — at most
//                    min(span, probes * kSkipInterval) tokens per block,
//                    mirroring the fragment-grouped Neats kernel;
//   DecompressRange  decodes each covered block once, from the checkpoint
//                    nearest its first needed value, straight into out.
//
// The skip index serializes as format v2's trailing section (FORMAT.md) and
// is validated against the blocks on load. Not zero-copy: blocks
// deserialize into owned vectors.
//
// These codecs earn their registry slot on step-and-repeat data: a repeated
// value costs Gorilla a single bit, which beats NeaTS's per-fragment
// function parameters when runs are short (see the mixed-codec store test).

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "baselines/blockwise.hpp"
#include "baselines/chimp.hpp"
#include "baselines/gorilla.hpp"
#include "common/assert.hpp"
#include "core/codec_id.hpp"
#include "core/series_codec.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// Exact int64 SeriesCodec over a block-wise XOR stream codec (Gorilla,
/// Chimp — anything with Compress(span<double>)/DecompressSlice/
/// BuildSkipIndex/SerializeInto).
template <typename Xor, uint64_t kMagic>
class XorSeriesCodec : public ScalarCodecBase<XorSeriesCodec<Xor, kMagic>> {
 public:
  XorSeriesCodec() = default;

  static constexpr bool kZeroCopyView = false;

  /// Checkpoint spacing of the skip index: the worst-case tokens decoded
  /// per scalar Access. 128 costs 3 words per checkpoint ≈ 1.5 bits/value
  /// at the default 1000-value blocks. Readers of format v2 require exactly
  /// this value — changing it is a format-version bump.
  static constexpr uint64_t kSkipInterval = 128;

  static XorSeriesCodec Compress(std::span<const int64_t> values,
                                 const NeatsOptions& options = {}) {
    (void)options;  // the XOR streams have no NeaTS-shaped knobs
    XorSeriesCodec out;
    out.n_ = values.size();
    std::vector<double> doubles(values.size());
    for (size_t k = 0; k < values.size(); ++k) {
      doubles[k] = std::bit_cast<double>(values[k]);
    }
    out.blocks_ = Blockwise<Xor>::Compress(doubles);
    out.BuildSkip();
    return out;
  }

  uint64_t size() const { return n_; }

  /// Values per independently-decodable block (the store's decoded-block
  /// cache keys on this geometry).
  uint64_t BlockValues() const { return blocks_.block_values(); }

  /// Fully decodes block b into out (sized BlockValues()); returns how many
  /// values it held (the last block may be partial).
  uint64_t DecodeBlock(uint64_t b, int64_t* out) const {
    const size_t count = blocks_.block_count(b);
    double buffer[kDefaultBlockValues];
    double* dst = buffer;
    std::vector<double> heap;
    if (count > kDefaultBlockValues) {  // non-default geometry from a blob
      heap.resize(count);
      dst = heap.data();
    }
    blocks_.block(b).DecompressSlice(0, count, nullptr, 0, dst);
    for (size_t j = 0; j < count; ++j) {
      out[j] = std::bit_cast<int64_t>(dst[j]);
    }
    return count;
  }

  /// One checkpoint seek + at most kSkipInterval decoded tokens.
  int64_t Access(uint64_t k) const {
    NEATS_DCHECK(k < n_);
    double v;
    DecodeInBlock(k / blocks_.block_values(), k % blocks_.block_values(), 1,
                  &v);
    return std::bit_cast<int64_t>(v);
  }

  /// Block-grouped batch kernel over non-decreasing probes: one resumable
  /// cursor per touched block walks the probes in order, hopping forward via
  /// the checkpoint index whenever a gap spans one and decoding straight
  /// through otherwise. A group therefore costs at most
  /// min(probe span, probes * kSkipInterval) decoded tokens — never more
  /// than serving the same probes scalar, minus the per-probe reader setup.
  void AccessBatch(std::span<const uint64_t> idx, int64_t* out) const {
    const uint64_t bv = blocks_.block_values();
    size_t p = 0;
    while (p < idx.size()) {
      const uint64_t b = idx[p] / bv;
      const uint64_t block_end = (b + 1) * bv;
      const auto& blk = blocks_.block(b);
      const auto& cps = skip_[b];
      auto cur = blk.Head();
      double v = 0;  // the value at cur.i - 1, once one has been decoded
      for (; p < idx.size() && idx[p] < block_end; ++p) {
        const size_t k = static_cast<size_t>(idx[p] - b * bv);
        if (k + 1 != cur.i) {  // else: duplicate of the previous probe
          const size_t ci = std::min(k / kSkipInterval, cps.size());
          if (ci > 0 && ci * kSkipInterval > cur.i) {
            blk.Seek(cur, cps[ci - 1], ci * kSkipInterval);
          }
          while (cur.i <= k) v = blk.Next(cur);
        }
        out[p] = std::bit_cast<int64_t>(v);
      }
    }
  }

  /// Decodes each covered block once — from the checkpoint nearest the
  /// slice's first value, not from the block head — and emits the slice.
  void DecompressRange(uint64_t from, uint64_t len, int64_t* out) const {
    if (len == 0) return;
    NEATS_DCHECK(from + len <= n_);
    const uint64_t bv = blocks_.block_values();
    std::vector<double> buf;
    uint64_t produced = 0;
    while (produced < len) {
      const uint64_t b = (from + produced) / bv;
      const size_t offset = static_cast<size_t>((from + produced) - b * bv);
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(len - produced, blocks_.block_count(b) - offset));
      buf.resize(take);
      DecodeInBlock(b, offset, take, buf.data());
      for (size_t j = 0; j < take; ++j) {
        out[produced + j] = std::bit_cast<int64_t>(buf[j]);
      }
      produced += take;
    }
  }

  size_t SizeInBits() const {
    size_t skip_words = 0;
    for (const auto& cps : skip_) skip_words += 3 * cps.size();
    return blocks_.SizeInBits() + (skip_words + 2) * 64 + 2 * 64;
  }

  void Serialize(std::vector<uint8_t>* out) const {
    out->clear();
    WordWriter w(out);
    w.Put(kMagic);
    w.Put(kFormatVersion);
    blocks_.SerializeInto(w);
    // v2 skip-index section (additive; FORMAT.md "XOR-stream blob"): the
    // checkpoint geometry is derivable from the block geometry, so only
    // the interval, a total count (a cheap load-time tripwire) and the
    // flat per-block checkpoint triples go on the wire.
    w.Put(kSkipInterval);
    uint64_t total = 0;
    for (const auto& cps : skip_) total += cps.size();
    w.Put(total);
    for (const auto& cps : skip_) {
      for (const auto& s : cps) {
        w.Put(s.bit_pos);
        w.Put(s.prev);
        w.Put((static_cast<uint64_t>(static_cast<uint32_t>(s.lz)) << 32) |
              static_cast<uint32_t>(s.tz));
      }
    }
  }

  static XorSeriesCodec Deserialize(std::span<const uint8_t> bytes) {
    WordReader r(bytes, /*borrow=*/false);
    NEATS_REQUIRE(r.Get() == kMagic, "not a XOR-stream blob");
    NEATS_REQUIRE(r.Get() == kFormatVersion,
                  "unsupported XOR-stream format version");
    XorSeriesCodec out;
    out.blocks_ = Blockwise<Xor>::LoadFrom(r);
    out.n_ = out.blocks_.size();
    NEATS_REQUIRE(r.Get() == kSkipInterval,
                  "unsupported XOR-stream skip interval");
    const uint64_t total = r.Get();
    uint64_t expect = 0;
    for (size_t b = 0; b < out.blocks_.num_blocks(); ++b) {
      expect += (out.blocks_.block_count(b) - 1) / kSkipInterval;
    }
    NEATS_REQUIRE(total == expect, "corrupt XOR-stream skip index");
    out.skip_.resize(out.blocks_.num_blocks());
    for (size_t b = 0; b < out.blocks_.num_blocks(); ++b) {
      const size_t count = (out.blocks_.block_count(b) - 1) / kSkipInterval;
      out.skip_[b].reserve(count);
      for (size_t j = 0; j < count; ++j) {
        typename Xor::SkipState s;
        s.bit_pos = r.Get();
        s.prev = r.Get();
        const uint64_t packed = r.Get();
        s.lz = static_cast<int32_t>(static_cast<uint32_t>(packed >> 32));
        s.tz = static_cast<int32_t>(static_cast<uint32_t>(packed));
        // A forged checkpoint may decode garbage values, but it must
        // never be able to drive the decoder out of bounds.
        NEATS_REQUIRE(out.blocks_.block(b).CheckSkipState(s),
                      "corrupt XOR-stream skip index");
        out.skip_[b].push_back(s);
      }
    }
    NEATS_REQUIRE(r.position() == bytes.size(), "corrupt XOR-stream blob");
    return out;
  }

  /// The blocks deserialize into owned vectors, so View is an owning load.
  static XorSeriesCodec View(std::span<const uint8_t> bytes) {
    return Deserialize(bytes);
  }

 private:
  static constexpr uint64_t kFormatVersion = 2;

  /// Decodes `count` values starting at block-local index `from_local` of
  /// block b, resuming from the nearest checkpoint at or before it.
  void DecodeInBlock(size_t b, size_t from_local, size_t count,
                     double* out) const {
    const auto& cps = skip_[b];
    size_t ci = from_local / kSkipInterval;  // 0 = start from the head
    if (ci > cps.size()) ci = cps.size();
    if (ci == 0) {
      blocks_.block(b).DecompressSlice(from_local, count, nullptr, 0, out);
    } else {
      blocks_.block(b).DecompressSlice(from_local, count, &cps[ci - 1],
                                       ci * kSkipInterval, out);
    }
  }

  void BuildSkip() {
    skip_.assign(blocks_.num_blocks(), {});
    for (size_t b = 0; b < blocks_.num_blocks(); ++b) {
      blocks_.block(b).BuildSkipIndex(kSkipInterval, &skip_[b]);
    }
  }

  uint64_t n_ = 0;
  Blockwise<Xor> blocks_;
  std::vector<std::vector<typename Xor::SkipState>> skip_;  // per block
};

using GorillaCodec = XorSeriesCodec<Gorilla, MagicWord("NEATSGO\0")>;
using ChimpCodec = XorSeriesCodec<Chimp, MagicWord("NEATSCH\0")>;

static_assert(SeriesCodec<GorillaCodec>);
static_assert(SeriesCodec<ChimpCodec>);

}  // namespace neats
