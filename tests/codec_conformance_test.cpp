// The SeriesCodec conformance suite: one typed battery instantiated over
// every registered codec (Neats, NeatsLossyExact, LecoCodec, AlpCodec,
// GorillaCodec, ChimpCodec). Each codec must
//   - round-trip every test series exactly (full-range decompression),
//   - answer random access, sorted batches, multi-range decompression and
//     range sums identically to the raw values,
//   - serialize canonically (Serialize -> Deserialize -> Serialize is
//     byte-identical; View re-serializes byte-identically too),
//   - reject truncated and clobbered blobs by throwing (never by reading
//     out of bounds — the sanitizer CI job runs this suite),
// plus registry-level checks (dispatch by CodecId, zero-copy flags, unique
// names). This is the executable form of the SeriesCodec contract in
// src/core/series_codec.hpp.

#include "codecs/codec_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "codecs/alp_codec.hpp"
#include "codecs/leco_codec.hpp"
#include "codecs/lossy_exact_codec.hpp"
#include "codecs/xor_codec.hpp"
#include "core/codec_id.hpp"
#include "core/neats.hpp"
#include "core/series_codec.hpp"
#include "require_error.hpp"

namespace neats {
namespace {

// The concept is the contract; every shipped codec must model it.
static_assert(SeriesCodec<Neats>);
static_assert(SeriesCodec<NeatsLossyExact>);
static_assert(SeriesCodec<LecoCodec>);
static_assert(SeriesCodec<AlpCodec>);
static_assert(SeriesCodec<GorillaCodec>);
static_assert(SeriesCodec<ChimpCodec>);

// A series mixing regimes (exponential growth, ramp, noisy plateau,
// quadratic arc) so partition-based codecs get genuinely different
// fragments.
std::vector<int64_t> MixedSeries(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  values.reserve(n);
  size_t quarter = n / 4;
  for (size_t i = 0; i < quarter; ++i) {
    values.push_back(static_cast<int64_t>(
        100.0 * std::exp(0.004 * static_cast<double>(i))));
  }
  while (values.size() < 2 * quarter) values.push_back(values.back() + 9);
  while (values.size() < 3 * quarter) {
    values.push_back(50000 + static_cast<int64_t>(rng() % 64));
  }
  while (values.size() < n) {
    double x = static_cast<double>(values.size() - 3 * quarter);
    values.push_back(60000 - static_cast<int64_t>(0.02 * x * x) +
                     static_cast<int64_t>(rng() % 8));
  }
  return values;
}

// The edge shapes every codec must survive: negatives, constants, huge
// magnitudes past double's 2^53 integer range (exercising AlpCodec's
// exception list), and sign flips.
std::vector<std::vector<int64_t>> EdgeSeries() {
  std::vector<std::vector<int64_t>> all;
  all.push_back({});                // empty
  all.push_back({42});              // single value
  all.push_back({-7, -7, -7, -7});  // constant negative
  std::vector<int64_t> extremes;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 3000; ++i) {
    int64_t v = static_cast<int64_t>(rng() & ((uint64_t{1} << 60) - 1));
    extremes.push_back(i % 2 == 0 ? v : -v);
  }
  all.push_back(std::move(extremes));
  return all;
}

template <typename C>
class CodecConformanceTest : public ::testing::Test {
 protected:
  std::vector<int64_t> series_ = MixedSeries(12000, 7);
};

using AllCodecs = ::testing::Types<Neats, NeatsLossyExact, LecoCodec,
                                   AlpCodec, GorillaCodec, ChimpCodec>;
TYPED_TEST_SUITE(CodecConformanceTest, AllCodecs);

TYPED_TEST(CodecConformanceTest, RoundTripsExactly) {
  std::vector<std::vector<int64_t>> datasets = EdgeSeries();
  datasets.push_back(this->series_);
  for (const std::vector<int64_t>& values : datasets) {
    TypeParam c = TypeParam::Compress(values, {});
    ASSERT_EQ(c.size(), values.size());
    std::vector<int64_t> decoded(values.size());
    c.DecompressRange(0, values.size(), decoded.data());
    ASSERT_EQ(decoded, values);
    EXPECT_GT(c.SizeInBits(), 0u);
  }
}

TYPED_TEST(CodecConformanceTest, RandomAccessMatchesScan) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  std::mt19937_64 rng(11);
  for (int t = 0; t < 2000; ++t) {
    uint64_t k = rng() % this->series_.size();
    ASSERT_EQ(c.Access(k), this->series_[k]) << k;
  }
  EXPECT_EQ(c.Access(0), this->series_.front());
  EXPECT_EQ(c.Access(this->series_.size() - 1), this->series_.back());
}

TYPED_TEST(CodecConformanceTest, SortedAccessBatchMatchesScalar) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    size_t count = 1 + rng() % 400;
    std::vector<uint64_t> idx(count);
    for (auto& k : idx) k = rng() % this->series_.size();
    std::sort(idx.begin(), idx.end());
    std::vector<int64_t> out(count);
    c.AccessBatch(idx, out.data());
    for (size_t j = 0; j < count; ++j) {
      ASSERT_EQ(out[j], this->series_[idx[j]]) << idx[j];
    }
  }
  c.AccessBatch(std::span<const uint64_t>(), nullptr);  // empty batch legal
}

TYPED_TEST(CodecConformanceTest, DecompressRangesAndRangeSums) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  std::vector<int64_t> prefix(this->series_.size() + 1, 0);
  for (size_t i = 0; i < this->series_.size(); ++i) {
    prefix[i + 1] = prefix[i] + this->series_[i];
  }
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<IndexRange> ranges;
    size_t total = 0;
    for (int r = 0; r < 6; ++r) {
      uint64_t from = rng() % this->series_.size();
      uint64_t len =
          rng() % std::min<uint64_t>(500, this->series_.size() - from);
      ranges.push_back({from, len});
      total += len;
    }
    ranges.push_back({0, 0});  // empty range is legal anywhere
    std::vector<int64_t> got(total);
    c.DecompressRanges(ranges, got.data());
    size_t off = 0;
    for (const IndexRange& r : ranges) {
      for (uint64_t j = 0; j < r.len; ++j) {
        ASSERT_EQ(got[off + j], this->series_[r.from + j]);
      }
      off += r.len;
      ASSERT_EQ(c.RangeSum(r.from, r.len), prefix[r.from + r.len] - prefix[r.from]);
    }
  }
}

// Values near 2^60 are inside the ±2^61 every codec accepts, but a few of
// them already sum past the int64 range: RangeSum must wrap modulo 2^64 like
// the prefix sum below instead of overflowing (the sanitizer CI job runs
// this suite under UBSan, which aborts on signed overflow).
TYPED_TEST(CodecConformanceTest, RangeSumWrapsModulo2To64) {
  std::mt19937_64 rng(31);
  std::vector<int64_t> values(4000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (int64_t{1} << 60) + static_cast<int64_t>(i) * 1000 +
                static_cast<int64_t>(rng() % 64);
  }
  std::vector<uint64_t> prefix(values.size() + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + static_cast<uint64_t>(values[i]);
  }
  TypeParam c = TypeParam::Compress(values, {});
  std::vector<IndexRange> spans = {{0, values.size()}, {0, 8}, {1234, 1}};
  for (int t = 0; t < 20; ++t) {
    const uint64_t from = rng() % values.size();
    spans.push_back({from, rng() % (values.size() - from + 1)});
  }
  for (const IndexRange& s : spans) {
    ASSERT_EQ(c.RangeSum(s.from, s.len),
              static_cast<int64_t>(prefix[s.from + s.len] - prefix[s.from]))
        << "[" << s.from << ", +" << s.len << ")";
  }
}

// Serialize -> Deserialize -> Serialize must reproduce the bytes, and the
// deserialized object must answer queries identically.
TYPED_TEST(CodecConformanceTest, SerializationIsCanonical) {
  for (const std::vector<int64_t>& values :
       {this->series_, std::vector<int64_t>{}, std::vector<int64_t>{5}}) {
    TypeParam c = TypeParam::Compress(values, {});
    std::vector<uint8_t> blob;
    c.Serialize(&blob);
    TypeParam back = TypeParam::Deserialize(blob);
    ASSERT_EQ(back.size(), values.size());
    for (size_t k = 0; k < values.size(); k += 1 + values.size() / 300) {
      ASSERT_EQ(back.Access(k), values[k]);
    }
    std::vector<uint8_t> again;
    back.Serialize(&again);
    EXPECT_EQ(blob, again);
  }
}

// View must serve the same values as Deserialize and re-serialize the same
// bytes, whether it borrows (kZeroCopyView) or falls back to an owning load.
TYPED_TEST(CodecConformanceTest, ViewMatchesDeserialize) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  std::vector<uint8_t> blob;
  c.Serialize(&blob);
  // Word-backed copy: borrow mode requires an 8-byte-aligned buffer.
  std::vector<uint64_t> aligned((blob.size() + 7) / 8);
  std::memcpy(aligned.data(), blob.data(), blob.size());
  std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(aligned.data()), blob.size());
  TypeParam viewed = TypeParam::View(bytes);
  ASSERT_EQ(viewed.size(), this->series_.size());
  std::mt19937_64 rng(19);
  for (int t = 0; t < 500; ++t) {
    uint64_t k = rng() % this->series_.size();
    ASSERT_EQ(viewed.Access(k), this->series_[k]) << k;
  }
  std::vector<int64_t> decoded(this->series_.size());
  viewed.DecompressRange(0, this->series_.size(), decoded.data());
  EXPECT_EQ(decoded, this->series_);
  std::vector<uint8_t> again;
  viewed.Serialize(&again);
  EXPECT_EQ(blob, again);
}

// Truncations must throw; arbitrary word clobbers must either throw or load
// into an object that serves *something* without out-of-bounds access (the
// sanitizer job turns any OOB into a failure). Payload-only flips (e.g.
// correction bits) legitimately decode to different values — exactness is
// only required of intact blobs.
TYPED_TEST(CodecConformanceTest, CorruptBlobsAreRejected) {
  TypeParam c = TypeParam::Compress(MixedSeries(3000, 29), {});
  std::vector<uint8_t> blob;
  c.Serialize(&blob);
  for (size_t keep : {size_t{0}, size_t{7}, blob.size() / 3, blob.size() - 8}) {
    std::vector<uint8_t> cut(blob.begin(),
                             blob.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_NEATS_ERROR(TypeParam::Deserialize(cut), "");
  }
  // Wrong magic must name the format mismatch.
  std::vector<uint8_t> junk(64, 0xAB);
  EXPECT_NEATS_ERROR(TypeParam::Deserialize(junk), "not a");

  // Clobber sweep: flip one word at a time across the blob (strided to keep
  // the suite fast, always covering the header words).
  const size_t stride = std::max<size_t>(8, (blob.size() / 64) & ~size_t{7});
  for (size_t w = 0; w + 8 <= blob.size();
       w += (w < 128 ? 8 : stride)) {
    std::vector<uint8_t> evil = blob;
    for (int b = 0; b < 8; ++b) evil[w + static_cast<size_t>(b)] ^= 0xFF;
    try {
      TypeParam loaded = TypeParam::Deserialize(evil);
      std::vector<int64_t> sink(loaded.size());
      if (loaded.size() > 0) {
        loaded.DecompressRange(0, loaded.size(), sink.data());
        for (uint64_t k = 0; k < loaded.size(); k += 1 + loaded.size() / 17) {
          (void)loaded.Access(k);
        }
      }
    } catch (const Error&) {
      // A loader or decode check caught the clobber — the expected case.
    }
  }
}

// ---------------------------------------------------------------------------
// Registry-level dispatch.
// ---------------------------------------------------------------------------

TEST(CodecRegistry, DispatchesEveryIdAndNamesAreUnique) {
  std::vector<int64_t> values = MixedSeries(6000, 31);
  std::set<std::string> names;
  for (CodecId id : CodecRegistry::All()) {
    names.insert(CodecName(id));
    std::unique_ptr<SealedSeries> sealed =
        CodecRegistry::Compress(id, values, {});
    ASSERT_EQ(sealed->codec(), id);
    ASSERT_EQ(sealed->size(), values.size());
    std::vector<uint8_t> blob;
    sealed->Serialize(&blob);
    for (bool allow_view : {false, true}) {
      // In view mode the blob vector stays alive across the queries below.
      std::unique_ptr<SealedSeries> opened =
          CodecRegistry::Open(id, blob, allow_view);
      ASSERT_EQ(opened->size(), values.size());
      std::mt19937_64 rng(33);
      for (int t = 0; t < 200; ++t) {
        uint64_t k = rng() % values.size();
        ASSERT_EQ(opened->Access(k), values[k]) << CodecName(id);
      }
      ASSERT_EQ(opened->RangeSum(100, 1000),
                sealed->RangeSum(100, 1000));
      Neats::ApproximateAggregate agg = opened->ApproximateRangeSum(50, 500);
      int64_t exact = sealed->RangeSum(50, 500);
      EXPECT_LE(std::abs(agg.value - static_cast<double>(exact)),
                agg.error_bound + 1e-6);
    }
  }
  EXPECT_EQ(names.size(), CodecRegistry::All().size());
  // A blob opened under the wrong codec id must be rejected, not misparsed.
  std::unique_ptr<SealedSeries> neats_blob_owner =
      CodecRegistry::Compress(CodecId::kNeats, values, {});
  std::vector<uint8_t> neats_blob;
  neats_blob_owner->Serialize(&neats_blob);
  EXPECT_NEATS_ERROR(CodecRegistry::Open(CodecId::kLeco, neats_blob, false),
                     "");
  EXPECT_NEATS_ERROR(
      CodecRegistry::Open(static_cast<CodecId>(kNumCodecIds), neats_blob,
                          false),
      "unknown codec id");
}

// The zero-copy flags match reality: borrowing codecs serve a View without
// copying the payload (checked via Neats::borrowed()), and the registry
// reports them.
TEST(CodecRegistry, ZeroCopyFlags) {
  EXPECT_TRUE(CodecRegistry::ZeroCopyView(CodecId::kNeats));
  EXPECT_TRUE(CodecRegistry::ZeroCopyView(CodecId::kNeatsLossyExact));
  EXPECT_TRUE(CodecRegistry::ZeroCopyView(CodecId::kLeco));
  EXPECT_TRUE(CodecRegistry::ZeroCopyView(CodecId::kAlp));
  EXPECT_FALSE(CodecRegistry::ZeroCopyView(CodecId::kGorilla));
  EXPECT_FALSE(CodecRegistry::ZeroCopyView(CodecId::kChimp));

  std::vector<int64_t> values = MixedSeries(4000, 37);
  Neats c = Neats::Compress(values);
  std::vector<uint8_t> blob;
  c.Serialize(&blob);
  std::vector<uint64_t> aligned((blob.size() + 7) / 8);
  std::memcpy(aligned.data(), blob.data(), blob.size());
  Neats viewed = Neats::View(
      {reinterpret_cast<const uint8_t*>(aligned.data()), blob.size()});
  EXPECT_TRUE(viewed.borrowed());
}

}  // namespace
}  // namespace neats
