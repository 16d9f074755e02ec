// AlpCodec — ALP adapted to the int64 SeriesCodec surface (codec id 3).
//
// The store's values are decimal-scaled integers, which is exactly the data
// shape ALP was built for once they are viewed as doubles: d = (double)v
// encodes with exponent 0 as a frame-of-reference pseudo-decimal, so ALP
// behaves like a per-1024-vector FOR/bit-packing codec here. Values whose
// int64 -> double conversion is not exact (|v| > 2^53 territory) are carried
// in a sorted exception list next to the ALP payload and patched on every
// query, keeping the codec exact over the full ±2^61 range.
//
// Random access reads one packed bit field (Alp::AccessPoint) — no vector
// decode. AccessBatch is a hybrid block-grouped kernel over the (sorted)
// probes: a vector with few probes answers each by point read, a densely
// probed vector is decoded once and all its probes answered from the
// buffer. DecompressRange decodes each covered vector once.
//
// Format v2 ends in a per-vector word-offset index after the ALP payload
// (FORMAT.md "ALP blob"): offsets are re-derived while parsing and the
// stored section is validated against them, giving the load a structural
// tripwire and readers a way to locate vector headers without a parse.
// Zero-copy: the packed bit arrays of every vector borrow the blob in a
// View open.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "baselines/alp.hpp"
#include "common/assert.hpp"
#include "core/codec_id.hpp"
#include "core/series_codec.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// Exact int64 SeriesCodec over ALP pseudo-decimal vectors.
class AlpCodec : public ScalarCodecBase<AlpCodec> {
 public:
  AlpCodec() = default;

  static constexpr bool kZeroCopyView = true;

  static AlpCodec Compress(std::span<const int64_t> values,
                           const NeatsOptions& options = {}) {
    (void)options;  // ALP has no NeaTS-shaped knobs
    AlpCodec out;
    out.n_ = values.size();
    std::vector<double> doubles(values.size());
    for (size_t k = 0; k < values.size(); ++k) {
      doubles[k] = static_cast<double>(values[k]);
      if (!RoundTrips(values[k], doubles[k])) {
        out.exc_pos_.push_back(k);
        out.exc_val_.push_back(values[k]);
        doubles[k] = 0.0;  // encode a cheap placeholder instead
      }
    }
    out.alp_ = Alp::Compress(doubles);
    return out;
  }

  uint64_t size() const { return n_; }
  size_t num_exceptions() const { return exc_pos_.size(); }

  /// Values per independently-decodable block (the store's decoded-block
  /// cache keys on this geometry).
  uint64_t BlockValues() const { return Alp::kVector; }

  /// Fully decodes vector b into out (sized BlockValues()), patching the
  /// codec-level int64 exceptions; returns how many values it held.
  uint64_t DecodeBlock(uint64_t b, int64_t* out) const {
    const uint64_t first = b * Alp::kVector;
    const size_t count = alp_.block_count(b);
    double buf[Alp::kVector];
    alp_.DecodeBlockInto(b, buf);
    auto it = std::lower_bound(exc_pos_.begin(), exc_pos_.end(), first);
    for (size_t j = 0; j < count; ++j) {
      if (it != exc_pos_.end() && *it == first + j) {
        out[j] = exc_val_[static_cast<size_t>(it - exc_pos_.begin())];
        ++it;
      } else {
        out[j] = CastBack(buf[j]);
      }
    }
    return count;
  }

  int64_t Access(uint64_t k) const {
    NEATS_DCHECK(k < n_);
    auto it = std::lower_bound(exc_pos_.begin(), exc_pos_.end(), k);
    if (it != exc_pos_.end() && *it == k) {
      return exc_val_[static_cast<size_t>(it - exc_pos_.begin())];
    }
    return CastBack(alp_.AccessPoint(k));
  }

  /// Hybrid block-grouped batch kernel over non-decreasing probes: a
  /// sparsely probed vector answers each probe with a point read, a vector
  /// holding at least kVector/4 probes is decoded once and all its probes
  /// (duplicates included) answered from the buffer. The threshold is the
  /// measured breakeven: a point read costs a handful of ns (exception
  /// binary search + one ReadBits), the bulk unpack ~2 ns per vector slot.
  void AccessBatch(std::span<const uint64_t> idx, int64_t* out) const {
    constexpr size_t kDenseThreshold = Alp::kVector / 4;
    double buf[Alp::kVector];
    size_t p = 0;
    while (p < idx.size()) {
      const uint64_t b = idx[p] / Alp::kVector;
      const uint64_t block_end = (b + 1) * Alp::kVector;
      size_t q = p;
      while (q < idx.size() && idx[q] < block_end) ++q;
      if (q - p >= kDenseThreshold) {
        alp_.DecodeBlockInto(b, buf);
        for (size_t j = p; j < q; ++j) {
          out[j] = Patched(idx[j], buf[idx[j] - b * Alp::kVector]);
        }
      } else {
        for (size_t j = p; j < q; ++j) out[j] = Access(idx[j]);
      }
      p = q;
    }
  }

  /// Decodes each covered ALP vector once, then patches the exceptions.
  void DecompressRange(uint64_t from, uint64_t len, int64_t* out) const {
    if (len == 0) return;
    NEATS_DCHECK(from + len <= n_);
    std::vector<double> buffer(len);
    alp_.DecompressRange(from, len, buffer.data());
    auto it = std::lower_bound(exc_pos_.begin(), exc_pos_.end(), from);
    for (uint64_t j = 0; j < len; ++j) {
      if (it != exc_pos_.end() && *it == from + j) {
        out[j] = exc_val_[static_cast<size_t>(it - exc_pos_.begin())];
        ++it;
        continue;
      }
      out[j] = CastBack(buffer[j]);
    }
  }

  /// ALP's bit estimate plus the exception list, offset index and framing.
  size_t SizeInBits() const {
    return alp_.SizeInBits() + exc_pos_.size() * 2 * 64 +
           (alp_.num_blocks() + 1) * 64 + 5 * 64;
  }

  void Serialize(std::vector<uint8_t>* out) const {
    out->clear();
    WordWriter w(out);
    w.Put(kMagic);
    w.Put(kFormatVersion);
    w.Put(exc_pos_.size());
    for (size_t e = 0; e < exc_pos_.size(); ++e) {
      w.Put(exc_pos_[e]);
      w.Put(static_cast<uint64_t>(exc_val_[e]));
    }
    std::vector<uint64_t> offsets;
    alp_.SerializeInto(w, &offsets);
    // v2 vector-offset index (additive; FORMAT.md "ALP blob").
    w.Put(offsets.size());
    for (uint64_t o : offsets) w.Put(o);
  }

  static AlpCodec Deserialize(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/false);
  }

  /// Opens the blob borrowing the caller's buffer: every vector's packed
  /// bit array stays a view into `bytes`, which must be 8-byte-aligned and
  /// outlive the result (an mmap'd shard keeps its mapping).
  static AlpCodec View(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/true);
  }

 private:
  static AlpCodec Load(std::span<const uint8_t> bytes, bool borrow) {
    WordReader r(bytes, borrow);
    NEATS_REQUIRE(r.Get() == kMagic, "not an ALP blob");
    NEATS_REQUIRE(r.Get() == kFormatVersion, "unsupported ALP format version");
    AlpCodec out;
    size_t num_exc = r.Get();
    NEATS_REQUIRE(num_exc <= (bytes.size() - r.position()) / 16,
                  "corrupt ALP blob");
    out.exc_pos_.reserve(num_exc);
    out.exc_val_.reserve(num_exc);
    for (size_t e = 0; e < num_exc; ++e) {
      out.exc_pos_.push_back(r.Get());
      out.exc_val_.push_back(static_cast<int64_t>(r.Get()));
    }
    std::vector<uint64_t> offsets;
    out.alp_ = Alp::LoadFrom(r, &offsets);
    // The stored offset index must agree with where the parse actually
    // found every vector header — a cheap structural tripwire, and what
    // keeps re-serialization canonical.
    NEATS_REQUIRE(r.Get() == offsets.size(), "corrupt ALP blob");
    for (uint64_t o : offsets) {
      NEATS_REQUIRE(r.Get() == o, "corrupt ALP blob");
    }
    NEATS_REQUIRE(r.position() == bytes.size(), "corrupt ALP blob");
    out.n_ = out.alp_.size();
    // Exception positions must be strictly increasing and in range — the
    // query paths binary-search them unchecked.
    for (size_t e = 0; e < num_exc; ++e) {
      NEATS_REQUIRE(out.exc_pos_[e] < out.n_ &&
                        (e == 0 || out.exc_pos_[e - 1] < out.exc_pos_[e]),
                    "corrupt ALP blob");
    }
    return out;
  }

  /// The int64-exception patch for a value already decoded as a double.
  int64_t Patched(uint64_t k, double v) const {
    if (!exc_pos_.empty()) {
      auto it = std::lower_bound(exc_pos_.begin(), exc_pos_.end(), k);
      if (it != exc_pos_.end() && *it == k) {
        return exc_val_[static_cast<size_t>(it - exc_pos_.begin())];
      }
    }
    return CastBack(v);
  }

  /// True iff (double)v reconstructs v exactly via the cast back.
  static bool RoundTrips(int64_t v, double d) {
    if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
      return false;
    }
    return static_cast<int64_t>(d) == v;
  }

  /// Range-guarded double -> int64 cast. Non-exception slots round-trip by
  /// construction, so the guard never fires on blobs this encoder wrote —
  /// it exists for forged blobs, where an out-of-range or NaN double would
  /// make the raw cast UB (the guarded value is garbage, which is all a
  /// corrupt payload is entitled to).
  static int64_t CastBack(double d) {
    if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
      return 0;
    }
    return static_cast<int64_t>(d);
  }

  static constexpr uint64_t kMagic = MagicWord("NEATSAP\0");
  static constexpr uint64_t kFormatVersion = 2;

  uint64_t n_ = 0;
  Alp alp_;
  std::vector<uint64_t> exc_pos_;  // sorted global indices
  std::vector<int64_t> exc_val_;
};

static_assert(SeriesCodec<AlpCodec>);

}  // namespace neats
