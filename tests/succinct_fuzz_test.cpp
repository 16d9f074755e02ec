// Randomized and adversarial coverage for the overhauled succinct layer:
//   - EliasFano::Rank/Access fuzz against std::upper_bound on dense, sparse,
//     single-bucket pile-up and empty distributions (the word-wise bucket
//     scan and the sampled select directories both get exercised),
//   - RankSelect sampled Select1/Select0 at scale via rank/select inverse
//     invariants, plus OnesRunLength on constructed runs,
//   - view-vs-owned byte identity, and rejection of every magic and
//     version word the v3 reader does not read,
//   - the interleaved fragment directory against the legacy S/B/O/K/D
//     metadata path (equality fuzz on owned, heap-view and mmap-view opens)
//     and a clobber sweep over the v3 directory section,
//   - Cursor::Seek backward hops against Access ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "core/neats.hpp"
#include "core/neats_lossy.hpp"
#include "datasets/generators.hpp"
#include "io/mmap_file.hpp"
#include "io/text_io.hpp"
#include "require_error.hpp"
#include "succinct/bit_vector.hpp"
#include "succinct/elias_fano.hpp"

namespace neats {

/// Test-only backdoor into the v3 layout.
class NeatsTestPeer {
 public:
  /// Byte offset of the trailing fragment-directory section in `c`'s
  /// serialization.
  static size_t DirectoryOffset(const Neats& c) {
    return c.SectionsSizeInBits() / 8;
  }
};

namespace {

// ---------------------------------------------------------------------------
// EliasFano fuzz vs std::upper_bound.
// ---------------------------------------------------------------------------

size_t NaiveRank(const std::vector<uint64_t>& values, uint64_t x) {
  return static_cast<size_t>(
      std::upper_bound(values.begin(), values.end(), x) - values.begin());
}

void FuzzSequence(const std::vector<uint64_t>& values, uint64_t seed) {
  EliasFano ef(values);
  ASSERT_EQ(ef.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(ef.Access(i), values[i]) << "access at " << i;
  }
  auto check_probe = [&](uint64_t x) {
    size_t r = NaiveRank(values, x);
    ASSERT_EQ(ef.Rank(x), r) << "rank of " << x;
    if (r > 0) {  // fused predecessor must agree with rank + access
      auto [pi, pv] = ef.Predecessor(x);
      ASSERT_EQ(pi, r - 1) << "predecessor index of " << x;
      ASSERT_EQ(pv, values[r - 1]) << "predecessor value of " << x;
    }
  };
  // Adversarial probes: every value and its neighbours...
  for (uint64_t v : values) {
    for (uint64_t x : {v == 0 ? 0 : v - 1, v, v + 1}) check_probe(x);
  }
  // ... plus uniform random probes over a slightly padded universe.
  if (!values.empty()) {
    std::mt19937_64 rng(seed);
    for (int t = 0; t < 2000; ++t) check_probe(rng() % (values.back() + 3));
  }
}

TEST(EliasFanoFuzz, Empty) {
  EliasFano ef{std::vector<uint64_t>{}};
  EXPECT_EQ(ef.Rank(0), 0u);
  EXPECT_EQ(ef.Rank(~0ULL), 0u);
}

TEST(EliasFanoFuzz, DenseConsecutiveAndNearConsecutive) {
  std::vector<uint64_t> values(5000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  FuzzSequence(values, 1);
  std::mt19937_64 rng(2);
  uint64_t cur = 0;
  for (auto& v : values) v = (cur += rng() % 2);  // duplicates + steps
  FuzzSequence(values, 3);
}

TEST(EliasFanoFuzz, SparseHugeGaps) {
  std::mt19937_64 rng(4);
  std::vector<uint64_t> values;
  uint64_t cur = 0;
  for (int i = 0; i < 1500; ++i) {
    cur += 1 + (rng() % (1ULL << 40));
    values.push_back(cur);
  }
  FuzzSequence(values, 5);
}

TEST(EliasFanoFuzz, SingleBucketPileUps) {
  // Long runs of equal values land in one high bucket and stress the
  // in-bucket binary search (bucket length >> linear-probe threshold).
  std::vector<uint64_t> values;
  for (uint64_t v : {uint64_t{7}, uint64_t{7000}, uint64_t{1} << 35}) {
    for (int i = 0; i < 700; ++i) values.push_back(v);
  }
  FuzzSequence(values, 6);
  // All-equal corner: one bucket holds the entire sequence.
  FuzzSequence(std::vector<uint64_t>(3000, 42), 7);
}

TEST(EliasFanoFuzz, MixedAdversarialRounds) {
  std::mt19937_64 rng(8);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint64_t> values;
    uint64_t cur = 0;
    int len = 500 + static_cast<int>(rng() % 2500);
    for (int i = 0; i < len; ++i) {
      switch (rng() % 4) {
        case 0: break;                         // duplicate
        case 1: cur += rng() % 3; break;       // dense
        case 2: cur += rng() % 1000; break;    // medium
        default: cur += rng() % (1ULL << 33);  // sparse jump
      }
      values.push_back(cur);
    }
    FuzzSequence(values, 100 + static_cast<uint64_t>(round));
  }
}

// ---------------------------------------------------------------------------
// RankSelect sampled select directories at scale.
// ---------------------------------------------------------------------------

void CheckSelectInverse(const RankSelect& rs) {
  const uint64_t ones = rs.ones();
  const uint64_t zeros = rs.size() - ones;
  // Dense probe of the first/last few plus a stride across the middle; the
  // inverse invariants pin Select to the exact bit.
  auto probe1 = [&](uint64_t k) {
    size_t pos = rs.Select1(k);
    ASSERT_TRUE(rs.Get(pos)) << "select1(" << k << ")";
    ASSERT_EQ(rs.Rank1(pos), k);
  };
  auto probe0 = [&](uint64_t k) {
    size_t pos = rs.Select0(k);
    ASSERT_FALSE(rs.Get(pos)) << "select0(" << k << ")";
    ASSERT_EQ(rs.Rank0(pos), k);
  };
  for (uint64_t k = 0; k < std::min<uint64_t>(ones, 700); ++k) probe1(k);
  for (uint64_t k = 0; k < ones; k += 509) probe1(k);
  if (ones > 0) probe1(ones - 1);
  for (uint64_t k = 0; k < std::min<uint64_t>(zeros, 700); ++k) probe0(k);
  for (uint64_t k = 0; k < zeros; k += 509) probe0(k);
  if (zeros > 0) probe0(zeros - 1);
}

TEST(RankSelectSampled, LargeAtExtremeDensities) {
  for (int permille : {1, 50, 500, 950, 999}) {
    std::mt19937_64 rng(static_cast<uint64_t>(permille) * 31 + 5);
    BitVector bv(300000);
    for (size_t i = 0; i < bv.size(); ++i) {
      if (static_cast<int>(rng() % 1000) < permille) bv.Set(i);
    }
    RankSelect rs{std::move(bv)};
    CheckSelectInverse(rs);
  }
}

TEST(RankSelectSampled, ClusteredRuns) {
  // Alternating solid runs of ones and zeros make the sampled directories
  // maximally uneven (many superblocks between consecutive samples).
  BitVector bv(200000);
  bool on = false;
  size_t i = 0;
  std::mt19937_64 rng(17);
  while (i < bv.size()) {
    size_t run = 1 + rng() % 3000;
    for (size_t j = 0; j < run && i < bv.size(); ++j, ++i) {
      if (on) bv.Set(i);
    }
    on = !on;
  }
  RankSelect rs{std::move(bv)};
  CheckSelectInverse(rs);
}

TEST(RankSelectSampled, OnesRunLength) {
  BitVector bv(1000);
  // Runs at word-straddling offsets: [5,9), [60,200), [500,1000).
  for (size_t i = 5; i < 9; ++i) bv.Set(i);
  for (size_t i = 60; i < 200; ++i) bv.Set(i);
  for (size_t i = 500; i < 1000; ++i) bv.Set(i);
  RankSelect rs{std::move(bv)};
  EXPECT_EQ(rs.OnesRunLength(5), 4u);
  EXPECT_EQ(rs.OnesRunLength(7), 2u);
  EXPECT_EQ(rs.OnesRunLength(60), 140u);
  EXPECT_EQ(rs.OnesRunLength(63), 137u);
  EXPECT_EQ(rs.OnesRunLength(64), 136u);
  EXPECT_EQ(rs.OnesRunLength(199), 1u);
  EXPECT_EQ(rs.OnesRunLength(500), 500u);  // run ends at the vector's end
  EXPECT_EQ(rs.OnesRunLength(999), 1u);
}

// ---------------------------------------------------------------------------
// Format v3 loaders and zero-copy views.
// ---------------------------------------------------------------------------

std::vector<int64_t> TestSeries(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  int64_t cur = -1000;
  for (size_t i = 0; i < n; ++i) {
    cur += static_cast<int64_t>(rng() % 61) - 30;
    values.push_back(cur);
  }
  return values;
}

TEST(FormatV2, ViewMatchesOwnedByteForByte) {
  for (const auto& code : AllDatasetCodes()) {
    Dataset ds = MakeDataset(code, 4000);
    Neats original = Neats::Compress(ds.values);
    std::vector<uint8_t> bytes;
    original.Serialize(&bytes);

    Neats owned = Neats::Deserialize(bytes);
    Neats viewed = Neats::View(bytes);
    EXPECT_FALSE(owned.borrowed());
    EXPECT_TRUE(viewed.borrowed());

    // Identical query results...
    std::vector<int64_t> a, b;
    owned.Decompress(&a);
    viewed.Decompress(&b);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, ds.values);
    for (size_t k = 0; k < ds.values.size(); k += 97) {
      ASSERT_EQ(viewed.Access(k), ds.values[k]);
    }
    EXPECT_EQ(viewed.RangeSum(7, 1000), owned.RangeSum(7, 1000));

    // ... and byte-identical re-serialization from both open paths.
    std::vector<uint8_t> from_owned, from_view;
    owned.Serialize(&from_owned);
    viewed.Serialize(&from_view);
    EXPECT_EQ(bytes, from_owned);
    EXPECT_EQ(bytes, from_view);
  }
}

TEST(FormatV2, EmptyAndTinySeries) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}}) {
    std::vector<int64_t> values = TestSeries(n, 33);
    Neats original = Neats::Compress(values);
    std::vector<uint8_t> bytes;
    original.Serialize(&bytes);
    Neats viewed = Neats::View(bytes);
    Neats owned = Neats::Deserialize(bytes);
    EXPECT_EQ(viewed.size(), n);
    std::vector<int64_t> decoded;
    owned.Decompress(&decoded);
    EXPECT_EQ(decoded, values);
    viewed.Decompress(&decoded);
    EXPECT_EQ(decoded, values);
  }
}

TEST(FormatV2, SizeInBitsMatchesSerializedBytes) {
  // SizeInBits is documented as exactly the serialized size; benches and
  // the CLI report it as on-disk footprint.
  for (size_t n : {size_t{0}, size_t{1}, size_t{500}, size_t{12000}}) {
    for (auto mode : {StartsIndex::kEliasFano, StartsIndex::kBitVector}) {
      NeatsOptions options;
      options.starts_index = mode;
      Neats c = Neats::Compress(TestSeries(n, 13 + n), options);
      std::vector<uint8_t> bytes;
      c.Serialize(&bytes);
      EXPECT_EQ(c.SizeInBits(), bytes.size() * 8) << "n=" << n;
    }
  }
  Dataset ds = MakeDataset("AP", 4000);
  NeatsLossy lossy = NeatsLossy::Compress(ds.values, 50);
  std::vector<uint8_t> bytes;
  lossy.Serialize(&bytes);
  EXPECT_EQ(lossy.SizeInBits(), bytes.size() * 8);
}

TEST(FormatV2, MagicIsAsciiReadable) {
  // The first bytes of a blob are the ASCII format name — the property
  // file sniffers and docs/FORMAT.md rely on.
  Neats c = Neats::Compress(TestSeries(100, 99));
  std::vector<uint8_t> bytes;
  c.Serialize(&bytes);
  EXPECT_EQ(std::memcmp(bytes.data(), "NEATSv2\0", 8), 0);
}

TEST(FormatV2, RejectsTruncatedAndCorruptBlobs) {
  Neats original = Neats::Compress(TestSeries(8000, 77));
  std::vector<uint8_t> bytes;
  original.Serialize(&bytes);

  // Truncation anywhere past the magic must die loudly, not load partially.
  for (size_t keep : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 8}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_NEATS_ERROR(Neats::Deserialize(cut), "NeaTS blob");
    EXPECT_NEATS_ERROR(Neats::View(cut), "NeaTS blob");
  }

  // An inflated n (header word 2) must be rejected outright — both the
  // direct bound (n <= 2^56, closing multiplication-wrap forgeries) and
  // the fragment-walk consistency check stand behind it.
  for (uint64_t evil_n : {uint64_t{1} << 60, uint64_t{8000 * 2}}) {
    std::vector<uint8_t> evil = bytes;
    std::memcpy(evil.data() + 16, &evil_n, 8);
    EXPECT_NEATS_ERROR(Neats::Deserialize(evil), "corrupt NeaTS blob");
    EXPECT_NEATS_ERROR(Neats::View(evil), "corrupt NeaTS blob");
  }

  // Clobbering a count/size word must either be caught by a loader
  // REQUIRE (throw) or — when the word was plain payload — load fine and
  // stay queryable. Sweep word positions across the blob; every outcome
  // other than clean-load-or-throw (e.g. a segfault from an unchecked
  // count) fails. The sanitizer CI job backs up the payload-word case.
  for (size_t w = 8; w + 8 <= bytes.size(); w += 8 * 97) {
    std::vector<uint8_t> evil = bytes;
    for (int b = 0; b < 8; ++b) evil[w + static_cast<size_t>(b)] = 0xFF;
    try {
      Neats loaded = Neats::Deserialize(evil);
      for (uint64_t k = 0; k < loaded.size(); k += 1 + loaded.size() / 13) {
        loaded.Access(k);
      }
    } catch (const Error&) {
      // A loader check caught the clobber — the expected common case.
    }
  }
}

TEST(FormatV2, ViewRejectsV1AndGarbage) {
  Neats original = Neats::Compress(TestSeries(2000, 44));
  std::vector<uint8_t> bytes;
  original.Serialize(&bytes);
  // The retired v1 magic word and the retired version word 2 are rejected
  // like any other foreign blob, by both loaders.
  std::vector<uint8_t> v1_magic = bytes;
  const uint64_t retired_magic = 0x5354414554414E45ULL;
  std::memcpy(v1_magic.data(), &retired_magic, 8);
  EXPECT_NEATS_ERROR(Neats::View(v1_magic), "not a NeaTS blob");
  EXPECT_NEATS_ERROR(Neats::Deserialize(v1_magic), "not a NeaTS blob");
  std::vector<uint8_t> version2 = bytes;
  version2[8] = 2;
  EXPECT_NEATS_ERROR(Neats::View(version2), "unsupported NeaTS format version");
  EXPECT_NEATS_ERROR(Neats::Deserialize(version2),
                     "unsupported NeaTS format version");
  std::vector<uint8_t> junk(64, 0xAB);
  EXPECT_NEATS_ERROR(Neats::View(junk), "not a NeaTS blob");
  EXPECT_NEATS_ERROR(Neats::Deserialize(junk), "not a NeaTS blob");
}

TEST(FormatV2, LossyRoundTripAndView) {
  Dataset ds = MakeDataset("AP", 6000);
  NeatsLossy original = NeatsLossy::Compress(ds.values, 50);
  std::vector<uint8_t> bytes;
  original.Serialize(&bytes);
  NeatsLossy owned = NeatsLossy::Deserialize(bytes);
  NeatsLossy viewed = NeatsLossy::View(bytes);
  ASSERT_EQ(owned.size(), ds.values.size());
  ASSERT_EQ(owned.epsilon(), 50);
  std::vector<int64_t> a, b;
  owned.Decompress(&a);
  viewed.Decompress(&b);
  ASSERT_EQ(a, b);
  for (size_t k = 0; k < ds.values.size(); k += 61) {
    ASSERT_EQ(owned.Access(k), viewed.Access(k));
    ASSERT_LE(std::abs(a[k] - ds.values[k]), 51);  // eps + 1 (floor slack)
  }
  std::vector<uint8_t> again;
  viewed.Serialize(&again);
  EXPECT_EQ(bytes, again);
}

// ---------------------------------------------------------------------------
// Format v3: the interleaved fragment directory.
// ---------------------------------------------------------------------------

TEST(FormatV3, DirectoryMatchesLegacyPath) {
  // The directory is redundant metadata; on every open path its records
  // must resolve queries exactly like the separate S/B/O/K/D structures.
  for (const auto& code : AllDatasetCodes()) {
    Dataset ds = MakeDataset(code, 6000);
    Neats c = Neats::Compress(ds.values);
    std::vector<uint8_t> bytes;
    c.Serialize(&bytes);
    Neats viewed = Neats::View(bytes);
    std::mt19937_64 rng(7);
    for (int t = 0; t < 1200; ++t) {
      uint64_t k = rng() % ds.values.size();
      ASSERT_EQ(c.Access(k), c.AccessViaLegacyStructures(k))
          << code << " k=" << k;
      ASSERT_EQ(viewed.Access(k), viewed.AccessViaLegacyStructures(k))
          << code << " k=" << k;
      ASSERT_EQ(c.Access(k), ds.values[k]) << code << " k=" << k;
    }
  }
}

TEST(FormatV3, DirectoryMatchesLegacyPathMmap) {
  std::vector<int64_t> values = TestSeries(20000, 101);
  Neats c = Neats::Compress(values);
  std::vector<uint8_t> bytes;
  c.Serialize(&bytes);
  std::string path = ::testing::TempDir() + "/neats_dir_fuzz.v3";
  WriteFile(path, bytes);
  {
    MmapFile map = MmapFile::Open(path);
    Neats view = Neats::View(map.bytes());
    EXPECT_TRUE(view.borrowed());
    std::mt19937_64 rng(8);
    for (int t = 0; t < 2000; ++t) {
      uint64_t k = rng() % values.size();
      ASSERT_EQ(view.Access(k), values[k]) << "k=" << k;
      ASSERT_EQ(view.AccessViaLegacyStructures(k), values[k]) << "k=" << k;
    }
  }
  std::remove(path.c_str());
}

TEST(FormatV3, LossyDirectoryMatchesLegacyPath) {
  Dataset ds = MakeDataset("AP", 6000);
  NeatsLossy lossy = NeatsLossy::Compress(ds.values, 50);
  std::vector<uint8_t> bytes;
  lossy.Serialize(&bytes);
  NeatsLossy viewed = NeatsLossy::View(bytes);
  std::mt19937_64 rng(9);
  for (int t = 0; t < 1200; ++t) {
    uint64_t k = rng() % ds.values.size();
    ASSERT_EQ(lossy.Access(k), lossy.AccessViaLegacyStructures(k)) << k;
    ASSERT_EQ(viewed.Access(k), lossy.Access(k)) << k;
  }
}

TEST(FormatV3, ClobberSweepDirectorySection) {
  // Flip every word of the trailing directory section: the count word, the
  // five width words, the alignment pad (zero on the wire) and the packed
  // records are all covered by loader checks, so every flip must throw a
  // diagnostic (or, at worst, load into a still-consistent structure) —
  // never load a directory that disagrees with the S/B/O/K/D ground truth.
  Neats original = Neats::Compress(TestSeries(5000, 123));
  std::vector<uint8_t> bytes;
  original.Serialize(&bytes);
  const size_t dir_start = NeatsTestPeer::DirectoryOffset(original);
  ASSERT_EQ(dir_start % 8, 0u);
  // The section opens with its record count; this series' section is 20
  // words (count, five widths, pad, records).
  uint64_t count_word;
  std::memcpy(&count_word, bytes.data() + dir_start, 8);
  ASSERT_EQ(count_word, original.num_fragments());
  ASSERT_EQ((bytes.size() - dir_start) / 8, 20u);
  for (size_t w = dir_start; w + 8 <= bytes.size(); w += 8) {
    std::vector<uint8_t> evil = bytes;
    for (int b = 0; b < 8; ++b) evil[w + static_cast<size_t>(b)] ^= 0xFF;
    try {
      Neats loaded = Neats::Deserialize(evil);
      Neats viewed = Neats::View(evil);
      for (uint64_t k = 0; k < loaded.size(); k += 1 + loaded.size() / 13) {
        ASSERT_EQ(loaded.Access(k), loaded.AccessViaLegacyStructures(k))
            << "clobbered directory word at byte " << w;
        ASSERT_EQ(viewed.Access(k), loaded.Access(k))
            << "clobbered directory word at byte " << w;
      }
    } catch (const Error&) {
      // The loader rejected the clobbered directory — the expected case.
    }
  }
}

// ---------------------------------------------------------------------------
// Cursor seeks, both directions, vs Access ground truth.
// ---------------------------------------------------------------------------

TEST(CursorSeek, RandomBidirectionalSeeks) {
  std::vector<int64_t> values = TestSeries(30000, 55);
  Neats compressed = Neats::Compress(values);
  std::mt19937_64 rng(56);
  Neats::Cursor cursor(compressed);
  uint64_t pos = 0;
  for (int t = 0; t < 4000; ++t) {
    switch (rng() % 3) {
      case 0:  // local jitter around the current position (hop path)
        pos = std::min<uint64_t>(
            values.size() - 1,
            static_cast<uint64_t>(std::max<int64_t>(
                0, static_cast<int64_t>(pos) +
                       static_cast<int64_t>(rng() % 2001) - 1000)));
        break;
      case 1:  // short backward step (retreat path)
        pos = pos >= 37 ? pos - 37 : 0;
        break;
      default:  // far jump (rank fallback)
        pos = rng() % values.size();
    }
    cursor.Seek(pos);
    ASSERT_EQ(cursor.position(), pos);
    ASSERT_EQ(cursor.Value(), values[pos]) << "seek to " << pos;
  }
}

TEST(CursorSeek, BackwardSweepMatchesAccess) {
  std::vector<int64_t> values = TestSeries(20000, 57);
  Neats compressed = Neats::Compress(values);
  Neats::Cursor cursor(compressed, values.size() - 1);
  for (uint64_t k = values.size(); k-- > 0;) {
    cursor.Seek(k);
    ASSERT_EQ(cursor.Value(), values[k]) << "backward seek to " << k;
  }
}

}  // namespace
}  // namespace neats
