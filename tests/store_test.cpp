// Tests for the serving layer (src/store/neats_store.hpp) and its batch
// kernels: AccessBatch / DecompressRanges fuzz against scalar ground truth
// (random, duplicate, unsorted, cross-shard probe sets), shard-boundary
// range sums, append -> seal -> reopen byte identity, and the
// corrupt-manifest clobber sweep matching the blob-hardening suites.

#include "store/neats_store.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "codecs/codec_registry.hpp"
#include "core/codec_id.hpp"
#include "core/neats.hpp"
#include "io/checksum.hpp"
#include "io/manifest.hpp"
#include "io/mmap_file.hpp"
#include "io/text_io.hpp"
#include "require_error.hpp"

namespace neats {
namespace {

// A series mixing regimes so shards get genuinely different partitions:
// exponential growth, a ramp, a noisy plateau, and a quadratic arc.
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

// A store directory path unique to this test process.
std::string TempStoreDir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("neats_store_test_") + tag + "_" +
           std::to_string(static_cast<unsigned long long>(
               std::chrono::steady_clock::now().time_since_epoch().count()))))
      .string();
}

// Builds an in-memory store by appending `values` in ragged slices. With
// `flush` false the store is left mid-ingest: sealed shards, pending seals
// and a non-empty hot tail all present (shard_size chosen accordingly).
NeatsStore BuildStore(const std::vector<int64_t>& values, uint64_t shard_size,
                      bool flush) {
  NeatsStoreOptions options;
  options.shard_size = shard_size;
  options.seal_threads = 2;
  NeatsStore store(options);
  size_t at = 0;
  const size_t slices[] = {997, 2011, 499, 3517};
  size_t s = 0;
  while (at < values.size()) {
    size_t n = std::min(slices[s++ % 4], values.size() - at);
    store.Append({values.data() + at, n});
    at += n;
  }
  if (flush) store.Flush();
  return store;
}

// ---------------------------------------------------------------------------
// Neats::AccessBatch (the fragment-grouped kernel) against scalar Access.
// ---------------------------------------------------------------------------

TEST(NeatsAccessBatch, SortedProbesMatchScalarAccess) {
  std::vector<int64_t> values = MixedSeries(20000, 1);
  for (StartsIndex mode : {StartsIndex::kEliasFano, StartsIndex::kBitVector}) {
    NeatsOptions options;
    options.starts_index = mode;
    Neats compressed = Neats::Compress(values, options);
    std::mt19937_64 rng(2);
    for (int trial = 0; trial < 50; ++trial) {
      size_t count = 1 + rng() % 700;
      std::vector<uint64_t> idx(count);
      for (auto& k : idx) k = rng() % values.size();
      if (trial % 3 == 0) {  // heavy duplicates
        for (auto& k : idx) k = idx[0] + k % 40;
        for (auto& k : idx) k = std::min<uint64_t>(k, values.size() - 1);
      }
      std::sort(idx.begin(), idx.end());
      std::vector<int64_t> out(count);
      compressed.AccessBatch(idx, out.data());
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(out[j], values[idx[j]])
            << "probe " << idx[j] << " trial " << trial;
      }
    }
    // Degenerate batches.
    std::vector<int64_t> one(1);
    compressed.AccessBatch(std::vector<uint64_t>{0}, one.data());
    EXPECT_EQ(one[0], values[0]);
    compressed.AccessBatch(std::vector<uint64_t>{values.size() - 1},
                           one.data());
    EXPECT_EQ(one[0], values.back());
    compressed.AccessBatch(std::span<const uint64_t>(), nullptr);
  }
}

TEST(NeatsDecompressRanges, MatchesPerRangeDecompression) {
  std::vector<int64_t> values = MixedSeries(15000, 3);
  Neats compressed = Neats::Compress(values);
  std::mt19937_64 rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<IndexRange> ranges;
    size_t total = 0;
    for (int r = 0; r < 8; ++r) {
      uint64_t from = rng() % values.size();
      uint64_t len = rng() % std::min<uint64_t>(400, values.size() - from);
      ranges.push_back({from, len});
      total += len;
    }
    ranges.push_back({0, 0});  // empty range is legal anywhere in the batch
    std::vector<int64_t> got(total);
    compressed.DecompressRanges(ranges, got.data());
    size_t off = 0;
    for (const IndexRange& r : ranges) {
      for (uint64_t j = 0; j < r.len; ++j) {
        ASSERT_EQ(got[off + j], values[r.from + j])
            << "range [" << r.from << ", +" << r.len << ") at " << j;
      }
      off += r.len;
    }
  }
}

// ---------------------------------------------------------------------------
// Store queries against raw ground truth, mid-ingest and flushed.
// ---------------------------------------------------------------------------

TEST(NeatsStore, AccessBatchFuzzAllTiers) {
  std::vector<int64_t> values = MixedSeries(30000, 5);
  // Mid-ingest: ~3 sealed shards, pending seals, and a hot tail.
  for (bool flush : {false, true}) {
    NeatsStore store = BuildStore(values, 7000, flush);
    ASSERT_EQ(store.size(), values.size());
    std::mt19937_64 rng(6);
    for (int trial = 0; trial < 40; ++trial) {
      size_t count = 1 + rng() % 600;
      std::vector<uint64_t> idx(count);
      for (auto& k : idx) k = rng() % values.size();
      switch (trial % 3) {
        case 0:  // unsorted random — leave as is
          break;
        case 1:  // duplicates piled on a shard boundary
          for (size_t j = 0; j < count; ++j) {
            idx[j] = (7000 - 2 + j % 5) % values.size();
          }
          break;
        case 2:  // descending
          std::sort(idx.rbegin(), idx.rend());
          break;
      }
      std::vector<int64_t> out(count);
      store.AccessBatch(idx, out);
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(out[j], values[idx[j]]) << "flush=" << flush << " probe "
                                          << idx[j] << " trial " << trial;
        ASSERT_EQ(store.Access(idx[j]), values[idx[j]]);
      }
      // TryAccessBatch answers the same probes and skips those at or past
      // the size it reports, leaving their slots untouched.
      std::vector<uint64_t> tried = idx;
      tried.insert(tried.begin() + static_cast<ptrdiff_t>(count / 2),
                   values.size());
      tried.push_back(values.size() + 12345);
      std::vector<int64_t> tried_out(tried.size(), -7);
      uint64_t size_seen = 0;
      ASSERT_TRUE(store.TryAccessBatch(tried, tried_out, &size_seen));
      ASSERT_EQ(size_seen, values.size());
      for (size_t j = 0; j < tried.size(); ++j) {
        ASSERT_EQ(tried_out[j],
                  tried[j] < values.size() ? values[tried[j]] : -7)
            << "flush=" << flush << " slot " << j << " trial " << trial;
      }
    }
  }
}

TEST(NeatsStore, DecompressRangesAcrossShardsAndTiers) {
  std::vector<int64_t> values = MixedSeries(30000, 7);
  for (bool flush : {false, true}) {
    NeatsStore store = BuildStore(values, 7000, flush);
    std::mt19937_64 rng(8);
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<IndexRange> ranges;
      size_t total = 0;
      for (int r = 0; r < 6; ++r) {
        uint64_t from = rng() % values.size();
        uint64_t len =
            rng() % std::min<uint64_t>(9000, values.size() - from);
        ranges.push_back({from, len});
        total += len;
      }
      std::vector<int64_t> got(total);
      store.DecompressRanges(ranges, got.data());
      size_t off = 0;
      for (const IndexRange& r : ranges) {
        for (uint64_t j = 0; j < r.len; ++j) {
          ASSERT_EQ(got[off + j], values[r.from + j])
              << "flush=" << flush << " range [" << r.from << ", +" << r.len
              << ") at " << j;
        }
        off += r.len;
      }
    }
    // The full series in one range.
    std::vector<int64_t> all(values.size());
    store.DecompressRange(0, values.size(), all.data());
    EXPECT_EQ(all, values);
  }
}

// Bounded-magnitude series for the aggregate checks: MixedSeries' exponential
// segment grows to ~1e15, whose prefix sums exceed 2^53 and stop being
// exactly representable in the double arithmetic ApproximateRangeSum uses —
// the bound check would then fail on rounding alone, not on routing bugs.
std::vector<int64_t> BoundedSeries(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t base = static_cast<int64_t>(i % 5000) * 7 - 12000;
    values.push_back(base + static_cast<int64_t>(rng() % 256));
  }
  return values;
}

TEST(NeatsStore, RangeSumsAcrossShardBoundaries) {
  std::vector<int64_t> values = BoundedSeries(30000, 9);
  std::vector<int64_t> prefix(values.size() + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (bool flush : {false, true}) {
    NeatsStore store = BuildStore(values, 7000, flush);
    // Spans pinned to shard boundaries, spanning several shards, plus the
    // whole series.
    std::vector<IndexRange> spans = {
        {6999, 2},          // exactly straddles the first boundary
        {7000, 7000},       // exactly one shard
        {0, 21000},         // three shards
        {3500, 21000},      // misaligned, four shards
        {0, values.size()}, // everything, including pending + tail
        {20999, 2},         {13999, 7002},
    };
    std::mt19937_64 rng(10);
    for (int t = 0; t < 20; ++t) {
      uint64_t from = rng() % values.size();
      spans.push_back(
          {from, rng() % std::min<uint64_t>(12000, values.size() - from)});
    }
    for (const IndexRange& s : spans) {
      ASSERT_EQ(store.RangeSum(s.from, s.len),
                prefix[s.from + s.len] - prefix[s.from])
          << "flush=" << flush << " span [" << s.from << ", +" << s.len << ")";
      Neats::ApproximateAggregate agg = store.ApproximateRangeSum(s.from, s.len);
      double exact = static_cast<double>(prefix[s.from + s.len] - prefix[s.from]);
      ASSERT_LE(std::abs(agg.value - exact), agg.error_bound + 1e-6)
          << "flush=" << flush << " span [" << s.from << ", +" << s.len << ")";
    }
  }
}

TEST(NeatsStore, ParallelQueryFanOutMatchesSequential) {
  // The same multi-shard queries with the fan-out forced on (threshold 1)
  // and forced off (threshold 0) must agree exactly — per-shard int64
  // partial sums reassociate without changing the answer, and decode
  // targets are disjoint output spans. Runs under the TSan CI job.
  std::vector<int64_t> values = BoundedSeries(40000, 13);
  std::vector<int64_t> prefix(values.size() + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (uint64_t threshold : {uint64_t{0}, uint64_t{1}}) {
    NeatsStoreOptions options;
    options.shard_size = 5000;  // eight sealed shards
    options.seal_threads = 2;
    options.parallel_query_values = threshold;
    NeatsStore store(options);
    store.Append(values);
    store.Flush();
    std::mt19937_64 rng(14);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<IndexRange> ranges;
      size_t total = 0;
      for (int r = 0; r < 5; ++r) {
        uint64_t from = rng() % values.size();
        uint64_t len =
            1 + rng() % std::min<uint64_t>(15000, values.size() - from);
        ranges.push_back({from, len});
        total += len;
      }
      std::vector<int64_t> got(total);
      store.DecompressRanges(ranges, got.data());
      size_t off = 0;
      for (const IndexRange& r : ranges) {
        for (uint64_t j = 0; j < r.len; ++j) {
          ASSERT_EQ(got[off + j], values[r.from + j])
              << "threshold=" << threshold << " range [" << r.from << ", +"
              << r.len << ") at " << j;
        }
        off += r.len;
      }
      const IndexRange& s = ranges[0];
      ASSERT_EQ(store.RangeSum(s.from, s.len),
                prefix[s.from + s.len] - prefix[s.from])
          << "threshold=" << threshold;
    }
    // The whole series in one call covers every shard at once.
    std::vector<int64_t> all(values.size());
    store.DecompressRange(0, values.size(), all.data());
    EXPECT_EQ(all, values);
    EXPECT_EQ(store.RangeSum(0, values.size()), prefix[values.size()]);
  }
}

// Values near 2^60 are inside the ±2^61 the compressor accepts, but a few of
// them already sum past the int64 range: RangeSum must wrap modulo 2^64 at
// every add — unsealed tail, per shard and across fan-out partials — and
// match the wrapping prefix sum, without signed overflow (the sanitizer CI
// job runs this suite under UBSan).
TEST(NeatsStore, RangeSumWrapsModulo2To64AcrossShardsAndTail) {
  std::mt19937_64 rng(41);
  std::vector<int64_t> values(12345);  // two sealed shards + unsealed tail
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (int64_t{1} << 60) + static_cast<int64_t>(i) * 977 +
                static_cast<int64_t>(rng() % 512);
  }
  std::vector<uint64_t> prefix(values.size() + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + static_cast<uint64_t>(values[i]);
  }
  for (uint64_t threshold : {uint64_t{0}, uint64_t{1}}) {
    NeatsStoreOptions options;
    options.shard_size = 5000;
    options.seal_threads = 2;
    options.parallel_query_values = threshold;
    NeatsStore store(options);
    for (size_t at = 0; at < values.size(); at += 1000) {
      const size_t n = std::min<size_t>(1000, values.size() - at);
      store.Append({values.data() + at, n});
    }
    const std::vector<IndexRange> spans = {
        {0, values.size()}, {4990, 20}, {0, 10000},
        {4000, 8345},       {9999, 2},  {10000, 2345}};
    for (const IndexRange& s : spans) {
      ASSERT_EQ(store.RangeSum(s.from, s.len),
                static_cast<int64_t>(prefix[s.from + s.len] - prefix[s.from]))
          << "threshold=" << threshold << " span [" << s.from << ", +"
          << s.len << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Durability: append -> seal -> reopen.
// ---------------------------------------------------------------------------

TEST(NeatsStore, AppendSealReopenRoundTripByteIdentity) {
  std::vector<int64_t> values = MixedSeries(25000, 11);
  const uint64_t kShard = 6000;
  std::string dir = TempStoreDir("roundtrip");
  {
    NeatsStoreOptions options;
    options.shard_size = kShard;
    options.seal_threads = 2;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    // Ragged appends must not affect the sealed bytes — only shard_size
    // decides where shards get cut.
    size_t at = 0;
    const size_t slices[] = {1, 4099, 811, 9973};
    size_t s = 0;
    while (at < values.size()) {
      size_t n = std::min(slices[s++ % 4], values.size() - at);
      store.Append({values.data() + at, n});
      at += n;
    }
    store.Flush();
    EXPECT_EQ(store.num_shards(), (values.size() + kShard - 1) / kShard);
  }

  // Every shard blob is byte-identical to compressing that slice directly —
  // the append path adds no hidden state to the sealed form — plus the
  // 16-byte checksum trailer the durability layer appends, which must
  // verify against the payload.
  size_t num_shards = (values.size() + kShard - 1) / kShard;
  for (size_t s = 0; s < num_shards; ++s) {
    size_t first = s * kShard;
    size_t count = std::min<size_t>(kShard, values.size() - first);
    Neats direct = Neats::Compress({values.data() + first, count});
    std::vector<uint8_t> expected;
    direct.Serialize(&expected);
    std::vector<uint8_t> on_disk =
        ReadFile(dir + "/" + StoreManifest::ShardFileName(s));
    TrailerInfo trailer = CheckChecksumTrailer(on_disk);
    ASSERT_EQ(trailer.state, TrailerState::kValid) << "shard " << s;
    std::vector<uint8_t> payload(trailer.payload.begin(),
                                 trailer.payload.end());
    ASSERT_EQ(payload, expected) << "shard " << s;
  }

  // Reopen: zero-copy serving, values bit-identical to a one-shot
  // compression of the full series.
  NeatsStore reopened = NeatsStore::OpenDir(dir);
  ASSERT_EQ(reopened.size(), values.size());
  ASSERT_EQ(reopened.shard_size(), kShard);
  Neats one_shot = Neats::Compress(values);
  for (size_t k = 0; k < values.size(); k += 83) {
    ASSERT_EQ(reopened.Access(k), one_shot.Access(k)) << k;
    ASSERT_EQ(reopened.Access(k), values[k]) << k;
  }

  // A second Flush with no new data must rewrite the manifest verbatim.
  std::vector<uint8_t> manifest_before =
      ReadFile(dir + "/" + StoreManifest::FileName());
  reopened.Flush();
  EXPECT_EQ(ReadFile(dir + "/" + StoreManifest::FileName()), manifest_before);

  // Appending after reopen grows the store and survives another reopen.
  reopened.Append({values.data(), 1234});
  reopened.Flush();
  NeatsStore again = NeatsStore::OpenDir(dir);
  ASSERT_EQ(again.size(), values.size() + 1234);
  for (size_t k = 0; k < 1234; k += 13) {
    ASSERT_EQ(again.Access(values.size() + k), values[k]) << k;
  }
  std::filesystem::remove_all(dir);
}

TEST(NeatsStore, MoveAssignmentDrainsInFlightSeals) {
  // Overwriting a store that still has background seals in flight must not
  // free the chunks those seal tasks read (the sanitizer job would flag a
  // use-after-free here if move assignment skipped the drain).
  std::vector<int64_t> values = MixedSeries(20000, 15);
  NeatsStoreOptions options;
  options.shard_size = 4000;
  options.seal_threads = 2;
  NeatsStore dst(options);
  dst.Append(values);  // several chunks immediately handed to the sealer
  NeatsStore src(options);
  src.Append({values.data(), 5000});
  dst = std::move(src);
  dst.Flush();
  ASSERT_EQ(dst.size(), 5000u);
  for (size_t k = 0; k < 5000; k += 97) {
    ASSERT_EQ(dst.Access(k), values[k]) << k;
  }
}

// ---------------------------------------------------------------------------
// Corrupt-store hardening, matching the blob clobber-sweep suites.
// ---------------------------------------------------------------------------

TEST(NeatsStore, CorruptManifestClobberSweep) {
  std::vector<int64_t> values = MixedSeries(12000, 13);
  std::string dir = TempStoreDir("clobber");
  {
    NeatsStoreOptions options;
    options.shard_size = 5000;
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append(values);
    store.Flush();
  }
  const std::string manifest_path = dir + "/" + StoreManifest::FileName();
  std::vector<uint8_t> good = ReadFile(manifest_path);

  // Truncations must be rejected loudly.
  for (size_t keep : {size_t{0}, size_t{7}, good.size() / 2, good.size() - 8}) {
    std::vector<uint8_t> cut(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(keep));
    WriteFile(manifest_path, cut);
    EXPECT_NEATS_ERROR(NeatsStore::OpenDir(dir), "manifest");
  }

  // Flipping any word of the manifest must either throw a diagnostic or
  // (if ever benign) still open into a store that serves correct values
  // — never a crash or silent misroute.
  for (size_t w = 0; w + 8 <= good.size(); w += 8) {
    std::vector<uint8_t> evil = good;
    for (int b = 0; b < 8; ++b) evil[w + static_cast<size_t>(b)] ^= 0xFF;
    WriteFile(manifest_path, evil);
    try {
      NeatsStore opened = NeatsStore::OpenDir(dir);
      for (uint64_t k = 0; k < opened.size(); k += 701) {
        ASSERT_EQ(opened.Access(k), values[k])
            << "clobbered manifest word at byte " << w;
      }
    } catch (const Error&) {
      // A loader check caught the clobber — the expected common case.
    }
  }
  WriteFile(manifest_path, good);

  // A shard blob that disagrees with the manifest (truncated file) no
  // longer poisons the whole store: OpenDir quarantines that shard, keeps
  // serving the healthy ones bit-identically, and reports the damage.
  // Queries routed into the quarantined range fail with a typed
  // kUnavailable error instead of a wrong answer.
  const std::string shard0 = dir + "/" + StoreManifest::ShardFileName(0);
  std::vector<uint8_t> blob = ReadFile(shard0);
  std::vector<uint8_t> short_blob(blob.begin(), blob.end() - 8);
  WriteFile(shard0, short_blob);
  {
    NeatsStore degraded = NeatsStore::OpenDir(dir);
    EXPECT_TRUE(degraded.degraded());
    ASSERT_EQ(degraded.recovery_report().quarantined.size(), 1u);
    EXPECT_EQ(degraded.recovery_report().quarantined[0].shard, 0u);
    ASSERT_EQ(degraded.size(), values.size());
    try {
      degraded.Access(17);  // shard 0's range
      FAIL() << "expected a quarantine error";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), StatusCode::kUnavailable);
      EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
    }
    for (size_t k = 5000; k < values.size(); k += 977) {
      ASSERT_EQ(degraded.Access(k), values[k]);  // healthy shards serve
    }
  }
  WriteFile(shard0, blob);

  // Restored, the store opens and serves again.
  NeatsStore ok = NeatsStore::OpenDir(dir);
  for (size_t k = 0; k < values.size(); k += 977) {
    ASSERT_EQ(ok.Access(k), values[k]);
  }

  // CreateDir must refuse a directory that already holds a store — a
  // fresh store's seals would clobber the existing blobs out from under
  // the surviving manifest.
  EXPECT_NEATS_ERROR(NeatsStore::CreateDir(dir), "use OpenDir");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Manifest unit coverage.
// ---------------------------------------------------------------------------

TEST(StoreManifest, RoundTripAndValidation) {
  StoreManifest m;
  m.shard_size = 4096;
  m.shards = {{0, 4096, 1000, CodecId::kNeats},
              {4096, 4096, 900, CodecId::kGorilla},
              {8192, 77, 500, CodecId::kLeco}};
  std::vector<uint8_t> bytes;
  m.Serialize(&bytes);
  StoreManifest back = StoreManifest::Deserialize(bytes);
  EXPECT_EQ(back.shard_size, m.shard_size);
  ASSERT_EQ(back.shards.size(), m.shards.size());
  for (size_t i = 0; i < m.shards.size(); ++i) {
    EXPECT_EQ(back.shards[i].first, m.shards[i].first);
    EXPECT_EQ(back.shards[i].count, m.shards[i].count);
    EXPECT_EQ(back.shards[i].blob_bytes, m.shards[i].blob_bytes);
    EXPECT_EQ(back.shards[i].codec, m.shards[i].codec);
  }
  EXPECT_EQ(back.total(), 8192u + 77u);

  // Non-contiguous coverage is rejected.
  StoreManifest holey = m;
  holey.shards[1].first = 5000;
  std::vector<uint8_t> bad;
  holey.Serialize(&bad);
  EXPECT_NEATS_ERROR(StoreManifest::Deserialize(bad), "corrupt");

  // An unassigned codec id is rejected.
  StoreManifest alien = m;
  alien.shards[1].codec = static_cast<CodecId>(kNumCodecIds + 7);
  std::vector<uint8_t> bad_codec;
  alien.Serialize(&bad_codec);
  EXPECT_NEATS_ERROR(StoreManifest::Deserialize(bad_codec), "corrupt");

  // A row whose crc flag word is 0 (the retired "no checksum recorded"
  // marker) is rejected, even under a valid file checksum.
  std::vector<uint8_t> no_crc = bytes;
  no_crc.resize(no_crc.size() - kChecksumTrailerBytes);
  const size_t crc_word = 8 * (4 + 5 * 1 + 4);  // header, row 0, row 1 word 4
  std::memset(no_crc.data() + crc_word, 0, 8);
  AppendChecksumTrailer(&no_crc);
  EXPECT_NEATS_ERROR(StoreManifest::Deserialize(no_crc), "corrupt");
}


// ---------------------------------------------------------------------------
// Codec-pluggable shards: fixed non-NeaTS codecs, the auto seal policy,
// and the durability/prefetch satellites.
// ---------------------------------------------------------------------------

// Every registered codec can serve a whole store: append -> seal -> flush ->
// reopen, with queries fuzzed against raw ground truth across shard
// boundaries.
TEST(NeatsStoreCodecs, FixedCodecStoresRoundTripAllCodecs) {
  std::vector<int64_t> values = MixedSeries(12000, 17);
  for (CodecId id : CodecRegistry::All()) {
    std::string dir = TempStoreDir(CodecName(id));
    {
      NeatsStoreOptions options;
      options.shard_size = 5000;
      options.seal_threads = 2;
      options.codec = id;
      NeatsStore store = NeatsStore::CreateDir(dir, options);
      store.Append(values);
      store.Flush();
      ASSERT_EQ(store.num_shards(), 3u);
      for (size_t s = 0; s < store.num_shards(); ++s) {
        EXPECT_EQ(store.shard_codec(s), id);
      }
    }
    NeatsStore reopened = NeatsStore::OpenDir(dir);
    ASSERT_EQ(reopened.size(), values.size()) << CodecName(id);
    std::mt19937_64 rng(18);
    for (int trial = 0; trial < 8; ++trial) {
      size_t count = 1 + rng() % 200;
      std::vector<uint64_t> idx(count);
      for (auto& k : idx) k = rng() % values.size();
      std::vector<int64_t> out(count);
      reopened.AccessBatch(idx, out);
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(out[j], values[idx[j]]) << CodecName(id);
      }
      uint64_t from = rng() % (values.size() - 100);
      uint64_t len = 1 + rng() % std::min<uint64_t>(
                              6000, values.size() - from);
      std::vector<int64_t> got(len);
      reopened.DecompressRange(from, len, got.data());
      for (uint64_t j = 0; j < len; ++j) {
        ASSERT_EQ(got[j], values[from + j]) << CodecName(id);
      }
    }
    // The manifest records the codec per shard.
    StoreManifest manifest = StoreManifest::Deserialize(
        ReadFile(dir + "/" + StoreManifest::FileName()));
    for (const StoreManifest::Shard& row : manifest.shards) {
      EXPECT_EQ(row.codec, id);
    }
    std::filesystem::remove_all(dir);
  }
}

// A series whose regimes favour different codecs: a smooth quadratic arc
// (NeaTS stores it as a handful of functions) followed by short runs of
// random 60-bit levels (Gorilla pays one bit per repeat; NeaTS pays two
// 64-bit parameters per run).
std::vector<int64_t> CodecContrastSeries(size_t arc_n, size_t step_n,
                                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  values.reserve(arc_n + step_n);
  for (size_t i = 0; i < arc_n; ++i) {
    double x = static_cast<double>(i);
    values.push_back(1000 + static_cast<int64_t>(0.3 * x + 0.0004 * x * x));
  }
  int64_t level = 0;
  for (size_t i = 0; i < step_n; ++i) {
    if (i % 40 == 0) {
      level = static_cast<int64_t>(rng() & ((uint64_t{1} << 60) - 1));
    }
    values.push_back(level);
  }
  return values;
}

TEST(NeatsStoreCodecs, AutoSealPolicyPicksDistinctCodecsAndRoundTrips) {
  const size_t kShard = 6000;
  std::vector<int64_t> values = CodecContrastSeries(kShard, 2 * kShard, 19);
  std::string dir = TempStoreDir("auto");
  {
    NeatsStoreOptions options;
    options.shard_size = kShard;
    options.seal_threads = 2;
    options.seal_policy = SealPolicy::kAuto;
    options.codec_candidates = {CodecId::kNeats, CodecId::kGorilla,
                                CodecId::kChimp};
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    // Ragged appends, mid-ingest queries against all tiers.
    size_t at = 0;
    const size_t slices[] = {1763, 4099, 811, 2973};
    size_t sl = 0;
    while (at < values.size()) {
      size_t n = std::min(slices[sl++ % 4], values.size() - at);
      store.Append({values.data() + at, n});
      at += n;
      ASSERT_EQ(store.Access(at - 1), values[at - 1]);
    }
    store.Flush();
    ASSERT_EQ(store.num_shards(), 3u);
    // The arc shard compresses best with NeaTS, the step shards with an
    // XOR codec — the auto policy must have mixed codecs in one store.
    EXPECT_EQ(store.shard_codec(0), CodecId::kNeats);
    EXPECT_NE(store.shard_codec(1), CodecId::kNeats);
    std::set<CodecId> distinct;
    for (size_t s = 0; s < store.num_shards(); ++s) {
      distinct.insert(store.shard_codec(s));
    }
    EXPECT_GE(distinct.size(), 2u);
  }

  // Manifest v2 records the mixed codec ids; reopen serves bit-identical
  // values through every query shape.
  StoreManifest manifest = StoreManifest::Deserialize(
      ReadFile(dir + "/" + StoreManifest::FileName()));
  ASSERT_EQ(manifest.shards.size(), 3u);
  EXPECT_EQ(manifest.shards[0].codec, CodecId::kNeats);
  EXPECT_NE(manifest.shards[1].codec, CodecId::kNeats);

  NeatsStore reopened = NeatsStore::OpenDir(dir);
  ASSERT_EQ(reopened.size(), values.size());
  for (size_t k = 0; k < values.size(); k += 37) {
    ASSERT_EQ(reopened.Access(k), values[k]) << k;
  }
  std::mt19937_64 rng(20);
  for (int trial = 0; trial < 20; ++trial) {
    size_t count = 1 + rng() % 500;
    std::vector<uint64_t> idx(count);
    for (auto& k : idx) k = rng() % values.size();
    std::vector<int64_t> out(count);
    reopened.AccessBatch(idx, out);
    for (size_t j = 0; j < count; ++j) {
      ASSERT_EQ(out[j], values[idx[j]]);
    }
    std::vector<IndexRange> ranges;
    size_t total = 0;
    for (int r = 0; r < 5; ++r) {
      uint64_t from = rng() % values.size();
      uint64_t len = rng() % std::min<uint64_t>(8000, values.size() - from);
      ranges.push_back({from, len});
      total += len;
    }
    std::vector<int64_t> got(total);
    reopened.DecompressRanges(ranges, got.data());
    size_t off = 0;
    for (const IndexRange& r : ranges) {
      for (uint64_t j = 0; j < r.len; ++j) {
        ASSERT_EQ(got[off + j], values[r.from + j]);
      }
      off += r.len;
    }
  }
  std::filesystem::remove_all(dir);
}

// The manifest persists per-shard geometry and codec ids, not the seal
// policy — a caller reopening with kAuto options keeps choosing codecs per
// shard, and one reopening with defaults seals kFixed/kNeats.
TEST(NeatsStoreCodecs, SealPolicyComesFromOpenOptionsAfterReopen) {
  const size_t kShard = 6000;
  std::vector<int64_t> values = CodecContrastSeries(kShard, kShard, 25);
  std::string dir = TempStoreDir("reopen_policy");
  NeatsStoreOptions options;
  options.shard_size = kShard;
  options.seal_policy = SealPolicy::kAuto;
  options.codec_candidates = {CodecId::kNeats, CodecId::kGorilla};
  {
    NeatsStore store = NeatsStore::CreateDir(dir, options);
    store.Append(values);
    store.Flush();
    ASSERT_EQ(store.num_shards(), 2u);
    ASSERT_NE(store.shard_codec(1), CodecId::kNeats);  // the step shard
  }
  // Reopen with the same options: appending another step shard must again
  // go through the auto policy and pick the XOR codec.
  {
    NeatsStore store = NeatsStore::OpenDir(dir, options);
    std::vector<int64_t> more(values.begin() + static_cast<ptrdiff_t>(kShard),
                              values.end());
    store.Append(more);
    store.Flush();
    ASSERT_EQ(store.num_shards(), 3u);
    EXPECT_NE(store.shard_codec(2), CodecId::kNeats);
    for (size_t k = 0; k < more.size(); k += 101) {
      ASSERT_EQ(store.Access(values.size() + k), more[k]);
    }
  }
  // Reopen with default options: the policy is NOT persisted, so the next
  // sealed shard is kFixed/kNeats — the documented contract.
  {
    NeatsStore store = NeatsStore::OpenDir(dir);
    store.Append({values.data(), kShard});
    store.Flush();
    ASSERT_EQ(store.num_shards(), 4u);
    EXPECT_EQ(store.shard_codec(3), CodecId::kNeats);
  }
  std::filesystem::remove_all(dir);
}

// Exact range sums and approximate aggregates hold across mixed-codec
// boundaries: NeaTS shards answer from the learned functions with a bound,
// non-NeaTS shards answer exactly with a zero bound, and the not-yet-sealed
// tiers contribute exactly. Magnitudes are bounded so the double arithmetic
// of the aggregate stays exact (see BoundedSeries).
TEST(NeatsStoreCodecs, AggregatesAcrossMixedCodecShards) {
  // Bounded contrast series: a quadratic arc shard (NeaTS wins) followed by
  // step shards of 40-value runs at random 17-bit levels (Gorilla wins).
  std::mt19937_64 gen(21);
  std::vector<int64_t> values;
  for (size_t i = 0; i < 6000; ++i) {
    double x = static_cast<double>(i);
    values.push_back(1000 + static_cast<int64_t>(0.3 * x + 0.0004 * x * x));
  }
  int64_t level = 0;
  while (values.size() < 18000) {
    if (values.size() % 40 == 0) {
      level = static_cast<int64_t>(gen() & 0x1FFFF);
    }
    values.push_back(level);
  }
  NeatsStoreOptions options;
  options.shard_size = 6000;
  options.seal_threads = 2;
  options.seal_policy = SealPolicy::kAuto;
  options.codec_candidates = {CodecId::kNeats, CodecId::kGorilla};
  NeatsStore store(options);
  store.Append({values.data(), 13000});
  store.Flush();  // two sealed shards (arc -> NeaTS, steps -> Gorilla)
  store.Append({values.data() + 13000, values.size() - 13000});
  // Mid-ingest: one pending/sealing chunk plus a raw tail remain.
  ASSERT_EQ(store.size(), values.size());
  std::set<CodecId> distinct;
  for (size_t sh = 0; sh < store.num_shards(); ++sh) {
    distinct.insert(store.shard_codec(sh));
  }
  EXPECT_GE(distinct.size(), 2u);

  std::vector<int64_t> prefix(values.size() + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  std::mt19937_64 rng(22);
  for (int t = 0; t < 25; ++t) {
    uint64_t from = rng() % values.size();
    uint64_t len = rng() % std::min<uint64_t>(9000, values.size() - from);
    ASSERT_EQ(store.RangeSum(from, len), prefix[from + len] - prefix[from]);
    Neats::ApproximateAggregate agg = store.ApproximateRangeSum(from, len);
    double exact = static_cast<double>(prefix[from + len] - prefix[from]);
    ASSERT_LE(std::abs(agg.value - exact), agg.error_bound + 1e-6);
  }
  ASSERT_EQ(store.RangeSum(0, values.size()), prefix[values.size()]);
}

// Durability satellite: the fsync'd write path round-trips bytes exactly
// (behavioural fsync coverage needs power-loss injection; this pins the
// plumbing) and the prefetch satellite: every Advise hint is accepted on a
// real mapping.
TEST(NeatsStoreCodecs, DurableWriteAndAdviseSmoke) {
  std::string dir = TempStoreDir("durable");
  std::filesystem::create_directories(dir);
  std::vector<uint8_t> payload(12345);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131);
  }
  WriteFileDurable(dir + "/blob", payload);
  SyncDir(dir);
  EXPECT_EQ(ReadFile(dir + "/blob"), payload);
  // Overwrite must truncate, not append.
  std::vector<uint8_t> shorter(100, 0x5A);
  WriteFileDurable(dir + "/blob", shorter);
  EXPECT_EQ(ReadFile(dir + "/blob"), shorter);

  MmapFile map = MmapFile::Open(dir + "/blob");
  map.Advise(MmapFile::Advice::kWillNeed);
  map.Advise(MmapFile::Advice::kSequential);
  map.Advise(MmapFile::Advice::kRandom);
  map.Advise(MmapFile::Advice::kNormal);
  EXPECT_EQ(map.size(), shorter.size());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace neats
