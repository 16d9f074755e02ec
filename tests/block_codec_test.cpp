// The block-codec random-access suite (ISSUE 7): the skip-index / offset-
// index point queries, the block-grouped batch kernels and the store's
// decoded-block cache, fuzzed against raw-value ground truth for the three
// block-structured codecs (AlpCodec, GorillaCodec, ChimpCodec).
//
//   - block surface: BlockValues/DecodeBlock reassemble the series exactly
//     (partial last block, single-block and empty series included);
//   - Access / sorted AccessBatch / DecompressRange vs the raw values, with
//     probe sets hammering block boundaries and duplicates;
//   - owned Deserialize vs View on the block surface;
//   - clobber sweep concentrated on the serialized index sections, and
//     rejection of the retired version word 1;
//   - store level: the decoded-block cache on/off/tiny (hit/miss/eviction
//     stats, unsorted/duplicate/descending probes), and a mixed-codec
//     directory store with batches crossing Neats <-> ALP <-> XOR shard
//     boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "codecs/alp_codec.hpp"
#include "codecs/codec_registry.hpp"
#include "codecs/xor_codec.hpp"
#include "core/codec_id.hpp"
#include "core/series_codec.hpp"
#include "require_error.hpp"
#include "store/neats_store.hpp"

namespace neats {
namespace {

// The block surface is a compile-time property; these are the codecs it
// exists for (and the non-block codecs must NOT model it).
static_assert(BlockStructuredCodec<AlpCodec>);
static_assert(BlockStructuredCodec<GorillaCodec>);
static_assert(BlockStructuredCodec<ChimpCodec>);
static_assert(!BlockStructuredCodec<Neats>);
static_assert(!BlockStructuredCodec<LecoCodec>);

// A series mixing regimes (exponential growth, ramp, noisy plateau,
// quadratic arc) so blocks get genuinely different content.
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

std::string TempStoreDir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("neats_block_codec_test_") + tag + "_" +
           std::to_string(static_cast<unsigned long long>(
               std::chrono::steady_clock::now().time_since_epoch().count()))))
      .string();
}

// Bytes of the index section each codec's blob ends with: ALP's per-vector
// offset index (a count word, one word per vector), the XOR streams' skip
// index (interval and total words, three words per checkpoint).
size_t IndexSectionBytes(const AlpCodec& c) {
  return 8 * (1 + CeilDiv(c.size(), c.BlockValues()));
}
template <typename Xor, uint64_t kMagic>
size_t IndexSectionBytes(const XorSeriesCodec<Xor, kMagic>& c) {
  using Codec = XorSeriesCodec<Xor, kMagic>;
  size_t checkpoints = 0;
  for (uint64_t first = 0; first < c.size(); first += c.BlockValues()) {
    const uint64_t count = std::min(c.BlockValues(), c.size() - first);
    checkpoints += (count - 1) / Codec::kSkipInterval;
  }
  return 8 * (2 + 3 * checkpoints);
}

template <typename C>
class BlockCodecTest : public ::testing::Test {
 protected:
  std::vector<int64_t> series_ = MixedSeries(12000, 7);
};

using BlockCodecs = ::testing::Types<AlpCodec, GorillaCodec, ChimpCodec>;
TYPED_TEST_SUITE(BlockCodecTest, BlockCodecs);

// DecodeBlock over every block reassembles the series exactly, including
// the partial last block; single-block and empty series hold up too.
TYPED_TEST(BlockCodecTest, BlockSurfaceReassemblesSeries) {
  for (size_t n : {this->series_.size(), size_t{257}, size_t{1}, size_t{0}}) {
    std::vector<int64_t> values(this->series_.begin(),
                                this->series_.begin() + n);
    TypeParam c = TypeParam::Compress(values, {});
    const uint64_t bv = c.BlockValues();
    ASSERT_GT(bv, 0u);
    std::vector<int64_t> reassembled;
    std::vector<int64_t> block(bv);
    for (uint64_t b = 0; b * bv < n; ++b) {
      const uint64_t count = c.DecodeBlock(b, block.data());
      ASSERT_EQ(count, std::min<uint64_t>(bv, n - b * bv)) << b;
      reassembled.insert(reassembled.end(), block.begin(),
                         block.begin() + static_cast<ptrdiff_t>(count));
    }
    ASSERT_EQ(reassembled, values);
  }
}

// Scalar Access hammered at block boundaries (first/last value of every
// block) plus random probes.
TYPED_TEST(BlockCodecTest, AccessMatchesValuesAtBlockBoundaries) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  const uint64_t bv = c.BlockValues();
  const uint64_t n = this->series_.size();
  for (uint64_t b = 0; b * bv < n; ++b) {
    for (uint64_t k : {b * bv, std::min(n, (b + 1) * bv) - 1}) {
      ASSERT_EQ(c.Access(k), this->series_[k]) << k;
    }
  }
  std::mt19937_64 rng(23);
  for (int t = 0; t < 3000; ++t) {
    uint64_t k = rng() % n;
    ASSERT_EQ(c.Access(k), this->series_[k]) << k;
  }
}

// The block-grouped batch kernel vs scalar ground truth: sorted probe sets
// of varying density (sparse spreads, dense clusters inside one block,
// heavy duplicates, block-boundary straddles).
TYPED_TEST(BlockCodecTest, SortedBatchFuzzMatchesValues) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  const uint64_t bv = c.BlockValues();
  const uint64_t n = this->series_.size();
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    size_t count = 1 + rng() % 600;
    std::vector<uint64_t> idx(count);
    switch (trial % 4) {
      case 0:  // uniform spread
        for (auto& k : idx) k = rng() % n;
        break;
      case 1: {  // dense cluster inside one block
        uint64_t base = (rng() % (n / bv)) * bv;
        for (auto& k : idx) k = base + rng() % std::min<uint64_t>(bv, n - base);
        break;
      }
      case 2: {  // straddle a block boundary
        uint64_t edge = (1 + rng() % (n / bv)) * bv;
        for (auto& k : idx) {
          uint64_t span = 1 + rng() % 64;
          k = std::min<uint64_t>(n - 1, edge - std::min(edge, span) + rng() % (2 * span));
        }
        break;
      }
      default:  // heavy duplicates
        for (auto& k : idx) k = (rng() % n) / 40 * 40 % n;
        break;
    }
    std::sort(idx.begin(), idx.end());
    std::vector<int64_t> out(count);
    c.AccessBatch(idx, out.data());
    for (size_t j = 0; j < count; ++j) {
      ASSERT_EQ(out[j], this->series_[idx[j]])
          << "probe " << idx[j] << " trial " << trial;
    }
  }
}

// DecompressRange slices starting and ending mid-block, spanning several
// blocks, and hugging block edges.
TYPED_TEST(BlockCodecTest, RangesCrossBlockBoundaries) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  const uint64_t bv = c.BlockValues();
  const uint64_t n = this->series_.size();
  std::mt19937_64 rng(31);
  std::vector<std::pair<uint64_t, uint64_t>> slices = {
      {bv - 1, 2},       // one value each side of the first boundary
      {bv, 1},           // block-aligned single value
      {0, n},            // everything
      {n - 1, 1},        // last value
      {bv / 2, 3 * bv},  // mid-block start spanning multiple blocks
  };
  for (int t = 0; t < 40; ++t) {
    uint64_t from = rng() % n;
    slices.push_back({from, rng() % std::min<uint64_t>(4 * bv, n - from)});
  }
  for (auto [from, len] : slices) {
    std::vector<int64_t> got(len);
    c.DecompressRange(from, len, got.data());
    for (uint64_t j = 0; j < len; ++j) {
      ASSERT_EQ(got[j], this->series_[from + j]) << from << "+" << j;
    }
  }
}

// View (zero-copy for ALP, owning fallback for the XOR streams) serves the
// identical block surface as Deserialize.
TYPED_TEST(BlockCodecTest, ViewMatchesDeserializeOnBlockSurface) {
  TypeParam c = TypeParam::Compress(this->series_, {});
  std::vector<uint8_t> blob;
  c.Serialize(&blob);
  std::vector<uint64_t> aligned((blob.size() + 7) / 8);
  std::memcpy(aligned.data(), blob.data(), blob.size());
  std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(aligned.data()), blob.size());
  TypeParam owned = TypeParam::Deserialize(blob);
  TypeParam viewed = TypeParam::View(bytes);
  ASSERT_EQ(owned.BlockValues(), viewed.BlockValues());
  const uint64_t bv = owned.BlockValues();
  std::vector<int64_t> a(bv), b(bv);
  for (uint64_t blk = 0; blk * bv < this->series_.size(); ++blk) {
    const uint64_t ca = owned.DecodeBlock(blk, a.data());
    const uint64_t cb = viewed.DecodeBlock(blk, b.data());
    ASSERT_EQ(ca, cb);
    for (uint64_t j = 0; j < ca; ++j) {
      ASSERT_EQ(a[j], b[j]);
      ASSERT_EQ(a[j], this->series_[blk * bv + j]);
    }
  }
}

// Clobber sweep concentrated on the index sections: the version word and
// every word of the trailing index section get flipped; the loader must
// throw or produce an object that serves without out-of-bounds access (the
// sanitizer CI job runs this). The retired version word 1 is rejected
// outright by both loaders.
TYPED_TEST(BlockCodecTest, IndexSectionClobberSweep) {
  TypeParam c = TypeParam::Compress(MixedSeries(4000, 41), {});
  std::vector<uint8_t> blob;
  c.Serialize(&blob);
  std::vector<uint8_t> version1 = blob;
  version1[8] = 1;
  EXPECT_NEATS_ERROR(TypeParam::Deserialize(version1), "unsupported");
  EXPECT_NEATS_ERROR(TypeParam::View(version1), "unsupported");
  const size_t index_start = blob.size() - IndexSectionBytes(c);
  std::vector<size_t> words = {8};  // the version word
  for (size_t w = index_start; w + 8 <= blob.size(); w += 8) {
    words.push_back(w);
  }
  // ALP: 4 vectors; Gorilla/Chimp: 4 blocks of 7 checkpoints.
  const size_t expected = std::is_same_v<TypeParam, AlpCodec> ? 5 : 86;
  ASSERT_EQ(words.size() - 1, expected);
  for (size_t w : words) {
    std::vector<uint8_t> evil = blob;
    for (int b = 0; b < 8; ++b) evil[w + static_cast<size_t>(b)] ^= 0xFF;
    try {
      TypeParam loaded = TypeParam::Deserialize(evil);
      // A clobbered-but-validated index may decode garbage values; it must
      // never read out of bounds.
      std::vector<int64_t> sink(loaded.size());
      if (loaded.size() > 0) {
        loaded.DecompressRange(0, loaded.size(), sink.data());
        std::vector<uint64_t> idx;
        for (uint64_t k = 0; k < loaded.size(); k += 1 + loaded.size() / 97) {
          (void)loaded.Access(k);
          idx.push_back(k);
        }
        std::vector<int64_t> out(idx.size());
        loaded.AccessBatch(idx, out.data());
      }
    } catch (const Error&) {
      // The loader rejected the clobber — the expected common case.
    }
  }
}

// ---------------------------------------------------------------------------
// Store level: the decoded-block cache.
// ---------------------------------------------------------------------------

// The cache-backed Access/AccessBatch paths answer exactly like the raw
// values for every block codec, with unsorted / duplicate / descending
// probe orders, and the stats see hits once blocks are warm.
TEST(StoreBlockCache, ServesBlockCodecsExactly) {
  std::vector<int64_t> values = MixedSeries(16000, 3);
  for (CodecId id : {CodecId::kAlp, CodecId::kGorilla, CodecId::kChimp}) {
    NeatsStoreOptions options;
    options.shard_size = 5000;
    options.codec = id;
    NeatsStore store(options);
    store.Append(values);
    store.Flush();
    ASSERT_EQ(store.block_cache_stats().hits, 0u);

    std::mt19937_64 rng(47);
    for (int t = 0; t < 2000; ++t) {
      uint64_t k = rng() % values.size();
      ASSERT_EQ(store.Access(k), values[k]) << CodecName(id) << " " << k;
    }
    const DecodedBlockCache::Stats after_scalar = store.block_cache_stats();
    EXPECT_GT(after_scalar.hits, 0u) << CodecName(id);
    EXPECT_GT(after_scalar.misses, 0u) << CodecName(id);
    EXPECT_GT(after_scalar.entries, 0u) << CodecName(id);

    for (int trial = 0; trial < 30; ++trial) {
      size_t count = 1 + rng() % 700;
      std::vector<uint64_t> idx(count);
      for (auto& k : idx) k = rng() % values.size();
      if (trial % 3 == 1) {  // heavy duplicates
        for (auto& k : idx) k = idx[0] + k % 50;
        for (auto& k : idx) k = std::min<uint64_t>(k, values.size() - 1);
      }
      if (trial % 3 == 2) {  // strictly descending
        std::sort(idx.rbegin(), idx.rend());
      }
      std::vector<int64_t> out(count);
      store.AccessBatch(idx, out);
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(out[j], values[idx[j]])
            << CodecName(id) << " probe " << idx[j] << " trial " << trial;
      }
    }
    EXPECT_GT(store.block_cache_stats().hits, after_scalar.hits)
        << CodecName(id);
  }
}

// block_cache_bytes = 0 disables the cache entirely: answers stay exact,
// stats stay zero.
TEST(StoreBlockCache, DisabledCacheStaysExact) {
  std::vector<int64_t> values = MixedSeries(12000, 5);
  NeatsStoreOptions options;
  options.shard_size = 5000;
  options.codec = CodecId::kGorilla;
  options.block_cache_bytes = 0;
  NeatsStore store(options);
  store.Append(values);
  store.Flush();
  std::mt19937_64 rng(53);
  std::vector<uint64_t> idx(800);
  for (auto& k : idx) k = rng() % values.size();
  std::vector<int64_t> out(idx.size());
  store.AccessBatch(idx, out);
  for (size_t j = 0; j < idx.size(); ++j) {
    ASSERT_EQ(out[j], values[idx[j]]);
  }
  for (int t = 0; t < 500; ++t) {
    uint64_t k = rng() % values.size();
    ASSERT_EQ(store.Access(k), values[k]);
  }
  const DecodedBlockCache::Stats stats = store.block_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// A cache far smaller than the working set evicts (and keeps answering
// exactly); its footprint respects the byte budget.
TEST(StoreBlockCache, TinyCacheEvictsWithinBudget) {
  std::vector<int64_t> values = MixedSeries(16000, 9);
  NeatsStoreOptions options;
  options.shard_size = 8000;
  options.codec = CodecId::kChimp;
  options.block_cache_bytes = 20000;  // ~2 decoded 1000-value blocks
  NeatsStore store(options);
  store.Append(values);
  store.Flush();
  std::mt19937_64 rng(59);
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (uint64_t k = sweep % 2 == 0 ? 0 : 500; k < values.size(); k += 997) {
      ASSERT_EQ(store.Access(k), values[k]) << k;
    }
  }
  const DecodedBlockCache::Stats stats = store.block_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, options.block_cache_bytes);
  EXPECT_GT(stats.entries, 0u);
}

// A directory store whose shards were sealed by different codecs (Neats,
// then ALP, then Gorilla — options govern future seals across reopens):
// batches and multi-range reads crossing every shard boundary answer
// exactly, and only the block-structured shards populate the cache.
TEST(StoreBlockCache, MixedCodecStoreBatchesCrossShardBoundaries) {
  const std::string dir = TempStoreDir("mixed");
  constexpr uint64_t kShard = 6000;
  std::vector<int64_t> values = MixedSeries(3 * kShard, 13);
  NeatsStoreOptions options;
  options.shard_size = kShard;
  {
    options.codec = CodecId::kNeats;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append({values.data(), kShard});
    store.Flush();
  }
  {
    options.codec = CodecId::kAlp;
    NeatsStore store = NeatsStore::OpenDir(dir, options);
    store.Append({values.data() + kShard, kShard});
    store.Flush();
  }
  {
    options.codec = CodecId::kGorilla;
    NeatsStore store = NeatsStore::OpenDir(dir, options);
    store.Append({values.data() + 2 * kShard, kShard});
    store.Flush();
  }

  NeatsStore store = NeatsStore::OpenDir(dir);
  ASSERT_EQ(store.size(), values.size());
  ASSERT_EQ(store.num_shards(), 3u);
  ASSERT_EQ(store.shard_codec(0), CodecId::kNeats);
  ASSERT_EQ(store.shard_codec(1), CodecId::kAlp);
  ASSERT_EQ(store.shard_codec(2), CodecId::kGorilla);

  std::mt19937_64 rng(61);
  for (int trial = 0; trial < 25; ++trial) {
    // Unsorted probes deliberately spanning all three shards.
    size_t count = 3 + rng() % 500;
    std::vector<uint64_t> idx(count);
    for (size_t j = 0; j < count; ++j) {
      idx[j] = (j % 3) * kShard + rng() % kShard;
    }
    std::shuffle(idx.begin(), idx.end(), rng);
    std::vector<int64_t> out(count);
    store.AccessBatch(idx, out);
    for (size_t j = 0; j < count; ++j) {
      ASSERT_EQ(out[j], values[idx[j]]) << idx[j] << " trial " << trial;
    }
  }
  // Ranges straddling both codec boundaries (Neats->ALP, ALP->Gorilla).
  std::vector<IndexRange> ranges = {{kShard - 700, 1400},
                                    {2 * kShard - 5, 10},
                                    {0, 0},
                                    {kShard - 1, 2}};
  size_t total = 0;
  for (const IndexRange& r : ranges) total += r.len;
  std::vector<int64_t> got(total);
  store.DecompressRanges(ranges, got.data());
  size_t off = 0;
  for (const IndexRange& r : ranges) {
    for (uint64_t j = 0; j < r.len; ++j) {
      ASSERT_EQ(got[off + j], values[r.from + j]) << r.from << "+" << j;
    }
    off += r.len;
  }
  // The ALP and Gorilla shards fed the cache; repeated batches hit it.
  const DecodedBlockCache::Stats stats = store.block_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace neats
