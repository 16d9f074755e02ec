// The NeaTS lossless compressor (paper, Sec. III-C).
//
// Compressed layout — the tuple ⟨S, B, O, C, K, P⟩ of the paper, plus a small
// displacement array D introduced by this implementation:
//
//   S  fragment start positions; Elias-Fano (O(1) access, O(log) rank) or,
//      optionally, a plain bitvector with rank9 for O(1)-time random access
//      (both variants are described in the paper).
//   B  per-fragment correction bit widths, in a packed array.
//   O  cumulative correction bit offsets, Elias-Fano.
//   C  the corrections themselves, bit-packed back to back.
//   K  per-fragment function kinds, a wavelet tree over the (dense) kind ids.
//   P  per-kind concatenation of the function parameters; the parameters of
//      fragment i live at index K.rank_{K[i]}(i) of its kind's array.
//   D  per-fragment displacement start - origin (non-zero only for fragments
//      born as suffix edges, whose parameters keep the original fit origin;
//      width is 0 bits whenever no suffix fragment survives in the partition).
//
// On top of the tuple sits an interleaved per-fragment directory (format v3,
// src/succinct/fragment_directory.hpp): the B/O/K/D cells plus the parameter
// offset of each fragment, bit-packed into one contiguous record. Queries
// resolve the fragment with one Elias-Fano predecessor scan on S and then
// read a single directory record instead of probing B, O, K and D
// separately; the individual structures remain the serialized source of
// truth (and the ground truth the loaders verify the directory against).
//
// Full decompression is Algorithm 2; random access is Algorithm 3; range
// decompression combines one random access with a forward scan.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/touch_probe.hpp"
#include "core/partitioner.hpp"
#include "functions/approximator.hpp"
#include "functions/kinds.hpp"
#include "succinct/bit_stream.hpp"
#include "succinct/bit_vector.hpp"
#include "succinct/elias_fano.hpp"
#include "succinct/fragment_directory.hpp"
#include "succinct/packed_array.hpp"
#include "succinct/storage.hpp"
#include "succinct/wavelet_tree.hpp"

namespace neats {

/// How the S array (fragment starts) is represented.
enum class StartsIndex {
  kEliasFano,  // compressed, rank in O(min(log m, log n/m))
  kBitVector,  // plain n-bit vector with rank9, rank in O(1)
};

/// Compression options for Neats::Compress.
struct NeatsOptions {
  PartitionOptions partition;
  StartsIndex starts_index = StartsIndex::kEliasFano;

  /// Threads used during compression. 1 = serial, 0 = all hardware threads.
  /// Without chunking this parallelizes the partitioner's Phase-1 edge
  /// rebuilds (bit-identical output for every thread count); with
  /// `chunk_size` set it additionally partitions the chunks concurrently.
  int num_threads = 1;

  /// When non-zero, the series is cut into disjoint blocks of this many
  /// values, each block is partitioned independently (concurrently on
  /// `num_threads` threads) and the fragment lists are stitched. The output
  /// is deterministic — identical bytes for every thread count — but may be
  /// slightly larger than the global partition, since fragments never span
  /// a block boundary. 0 = single global partition.
  uint64_t chunk_size = 0;
};

/// A half-open index range [from, from + len) of the decompressed series —
/// the unit of the multi-range query APIs (Neats::DecompressRanges and the
/// store layer's batch surface).
struct IndexRange {
  uint64_t from = 0;
  uint64_t len = 0;
};

/// A lossless, randomly-accessible compressed representation of an integer
/// time series.
class Neats {
 public:
  Neats() = default;

  /// Compresses `values`. Values must lie within ±2^61 (see kMaxAbsValue).
  static Neats Compress(std::span<const int64_t> values,
                        const NeatsOptions& options = {}) {
    std::vector<int64_t> eps = options.partition.epsilons;
    if (eps.empty()) eps = DefaultEpsilons(ShiftView(values).shifted);
    return CompressImpl(values, options, eps);
  }

  /// SNeaTS (paper, Sec. IV-C1): runs the partitioner on the first
  /// `sample_fraction` of the series, keeps the `top_pairs` most used
  /// (kind, eps) pairs, and compresses the whole series with only those.
  static Neats CompressWithModelSelection(std::span<const int64_t> values,
                                          const NeatsOptions& options = {},
                                          double sample_fraction = 0.1,
                                          size_t top_pairs = 5);

  /// Number of values.
  uint64_t size() const { return n_; }

  /// Number of fragments in the partition.
  size_t num_fragments() const { return m_; }

  /// Algorithm 3: the value at index k, in O(rank) time. On the Elias-Fano
  /// starts index the fragment index and its start position come out of one
  /// fused predecessor scan; everything else the decode needs — kind,
  /// parameter offset, displacement, correction width and correction offset —
  /// is a single interleaved directory record (format v3), so the metadata
  /// resolution costs one extra cache line instead of separate probes into
  /// the B, O, K and D structures.
  int64_t Access(uint64_t k) const {
    NEATS_DCHECK(k < n_);
    if (starts_mode_ == StartsIndex::kEliasFano) {
      auto [i, start] = starts_ef_.Predecessor(k);
      return DecodeAt(i, start, k);
    }
    size_t i = FragmentIndexOf(k);
    return DecodeAt(i, FragmentStart(i), k);
  }

  /// Algorithm 3 resolved through the individual S/B/O/K/D structures — the
  /// metadata path every query used before the interleaved directory
  /// existed. Kept as the ground truth the directory is fuzzed against and
  /// as the paired `access_ns_legacy` baseline column of bench_report;
  /// production callers should use Access.
  int64_t AccessViaLegacyStructures(uint64_t k) const {
    NEATS_DCHECK(k < n_);
    size_t i;
    uint64_t start;
    if (starts_mode_ == StartsIndex::kEliasFano) {
      auto [pi, pstart] = starts_ef_.Predecessor(k);
      i = pi;
      start = pstart;
    } else {
      i = FragmentIndexOf(k);
      start = FragmentStart(i);
    }
    auto [dense, occ] = kinds_wt_.AccessAndRank(i);
    NEATS_TOUCH(kind_table_.data() + dense);
    FunctionKind kind = kind_table_[dense];
    const double* params =
        params_[dense].data() + occ * static_cast<size_t>(NumParams(kind));
    NEATS_TOUCH(params);
    int bits = static_cast<int>(widths_[i]);
    uint64_t origin = start - displacement_[i];
    int64_t pred =
        PredictFloor(kind, params, static_cast<int64_t>(k - origin) + 1);
    if (bits == 0) return pred - shift_;
    int64_t bias = int64_t{1} << (bits - 1);
    uint64_t o = offsets_.Access(i) + (k - start) * static_cast<uint64_t>(bits);
    NEATS_TOUCH(corrections_.data() + (o >> 6));
    int64_t c =
        static_cast<int64_t>(ReadBits(corrections_.data(), o, bits)) - bias;
    return pred + c - shift_;
  }

  /// Batched Algorithm 3: decodes the values at positions `idx` — which must
  /// be non-decreasing (duplicates allowed; callers with unsorted probes sort
  /// first, as NeatsStore::AccessBatch does) — into out[0..idx.size()).
  /// Consecutive probes covered by the same fragment decode from one cached
  /// state: the fragment is resolved by the Elias-Fano PredecessorScanner
  /// (a forward high-bits walk between nearby probes, a plain bucket scan
  /// across far jumps — never more than scalar Access pays) and its
  /// directory record is read once per fragment run, so the per-probe cost
  /// of a dense sorted batch approaches the predict + correction read
  /// alone. Unlike the cursor path, the fragment *end* is never computed —
  /// the scanner itself reports when a probe crosses into the next
  /// fragment, saving the extra select per fragment that sparse batches
  /// would otherwise pay over scalar Access.
  void AccessBatch(std::span<const uint64_t> idx, int64_t* out) const {
    FragState st;
    size_t cur = SIZE_MAX;
    if (starts_mode_ == StartsIndex::kEliasFano) {
      EliasFano::PredecessorScanner scanner(starts_ef_);
      for (size_t p = 0; p < idx.size(); ++p) {
        NEATS_DCHECK(idx[p] < n_ && (p == 0 || idx[p - 1] <= idx[p]));
        auto [i, start] = scanner.Next(idx[p]);
        if (i != cur) {
          st = LoadFragmentState(i, start);
          cur = i;
        }
        out[p] = DecodeFragValue(st, idx[p]);
      }
      return;
    }
    for (size_t p = 0; p < idx.size(); ++p) {
      NEATS_DCHECK(idx[p] < n_ && (p == 0 || idx[p - 1] <= idx[p]));
      size_t i = FragmentIndexOf(idx[p]);
      if (i != cur) {
        st = LoadFragmentState(i, FragmentStart(i));
        cur = i;
      }
      out[p] = DecodeFragValue(st, idx[p]);
    }
  }

  /// Multi-range decompression: concatenates the values of every range into
  /// `out` (sized to the sum of the lengths), sharing one cursor across the
  /// whole batch — consecutive ranges that land in nearby fragments reuse
  /// the cached decode state through the cursor's monotone-seek hop chain
  /// instead of paying a fresh rank per range.
  void DecompressRanges(std::span<const IndexRange> ranges, int64_t* out) const;

  /// Sequential-access cursor over the decompressed values; see the class
  /// definition below. Iteration and monotone seeks skip the per-call
  /// FragmentIndexOf rank that Access pays.
  class Cursor;

  /// Algorithm 2: appends all n values to `out` (cleared first).
  void Decompress(std::vector<int64_t>* out) const {
    out->resize(n_);
    DecompressRange(0, n_, out->data());
  }

  /// Decompresses values[k, k + len) into out (one cursor seek + scan).
  void DecompressRange(uint64_t k, uint64_t len, int64_t* out) const;

  /// Total size of the compressed representation in bits — exactly the v3
  /// serialized size (8 * Serialize output bytes), kept in lockstep with the
  /// writer so benches and the CLI report what lands on disk.
  size_t SizeInBits() const {
    const size_t before = SectionsSizeInBits();
    return before + directory_.SizeInBitsAt(before);
  }

  /// Result of an approximate aggregate: the estimate plus a hard bound on
  /// its distance from the exact answer.
  struct ApproximateAggregate {
    double value;
    double error_bound;
  };

  /// Approximate sum over values[from, from+len) computed from the learned
  /// functions alone — the corrections (and hence most of the compressed
  /// payload) are never touched, which is the aggregate-query direction the
  /// paper suggests as future work (Sec. VI). Each skipped correction lies
  /// in [-2^(B[i]-1), 2^(B[i]-1) - 1], so the result is off by at most
  /// len_i * 2^(B[i]-1) per covered fragment; the bound returned is exact.
  /// The predictions run through the decode kernel's per-kind Σ⌊f⌋ loop and
  /// are summed exactly in 128-bit integers, then rounded to double once.
  ApproximateAggregate ApproximateRangeSum(uint64_t from, uint64_t len) const {
    NEATS_DCHECK(from + len <= n_);
    ApproximateAggregate agg{0.0, 0.0};
    if (len == 0) return agg;
    __int128 sum = 0;
    size_t i = FragmentIndexOf(from);
    uint64_t covered = 0;
    while (covered < len) {
      uint64_t start = FragmentStart(i);
      uint64_t end = FragmentEnd(i);
      uint64_t lo = std::max(from + covered, start);
      uint64_t hi = std::min(from + len, end);
      const FragmentDirectory::Record& rec = directory_[i];
      FunctionKind kind = kind_table_[rec.kind];
      const double* params = params_[rec.kind].data() + rec.param_index;
      const double x = static_cast<double>(lo - (start - rec.displacement) + 1);
      sum += DispatchKind(kind, [&]<FunctionKind K>() {
        return SumPredictFloor<K, __int128>(params, x, hi - lo);
      });
      int bits = rec.correction_bits;
      double max_corr = bits == 0 ? 0.0
                                  : static_cast<double>(uint64_t{1} << (bits - 1));
      agg.error_bound += static_cast<double>(hi - lo) * max_corr;
      covered += hi - lo;
      ++i;
    }
    sum -= static_cast<__int128>(shift_) * static_cast<__int128>(len);
    agg.value = static_cast<double>(sum);
    return agg;
  }

  /// Exact sum over values[from, from+len), wrapping modulo 2^64 (two's
  /// complement). The decode kernel accumulates as it decodes: no value is
  /// ever stored.
  int64_t RangeSum(uint64_t from, uint64_t len) const;

  /// Serializes the compressed representation to bytes in format v3: a
  /// flat, 8-byte-aligned little-endian layout (docs/FORMAT.md) ending in
  /// the interleaved fragment directory. Every succinct structure is stored
  /// together with its rank/select directories, so View can open the blob
  /// zero-copy — no deserialization copy; the stored directories are
  /// verified against the payload on load.
  void Serialize(std::vector<uint8_t>* out) const {
    out->clear();
    WordWriter w(out);
    w.Put(kMagic);
    w.Put(kFormatVersion);
    w.Put(n_);
    w.Put(static_cast<uint64_t>(m_));
    w.Put(static_cast<uint64_t>(shift_));
    w.Put(starts_mode_ == StartsIndex::kEliasFano ? 0 : 1);
    w.Put(kind_table_.size());
    for (FunctionKind kind : kind_table_) w.Put(static_cast<uint64_t>(kind));
    if (m_ > 0) {
      if (starts_mode_ == StartsIndex::kEliasFano) {
        starts_ef_.Serialize(w);
      } else {
        starts_bv_.Serialize(w);
      }
      widths_.Serialize(w);
      displacement_.Serialize(w);
      offsets_.Serialize(w);
      kinds_wt_.Serialize(w);
    }
    w.PutArray(corrections_);
    w.Put(params_.size());
    for (const auto& p : params_) w.PutArray(p);
    directory_.Serialize(w);
  }

  /// Rebuilds a Neats object from Serialize output, copying the payload into
  /// owned storage. Reads format v3 only; any other magic or version word
  /// throws neats::Error.
  static Neats Deserialize(std::span<const uint8_t> bytes) {
    return LoadFlat(bytes, /*borrow=*/false);
  }

  /// Opens a Serialize blob zero-copy: every payload array, the fragment
  /// directory included, is a span into `bytes`, which must be 8-byte
  /// aligned (mmap and heap buffers both are) and must outlive the returned
  /// object and everything decoded from it.
  static Neats View(std::span<const uint8_t> bytes) {
    return LoadFlat(bytes, /*borrow=*/true);
  }

  /// True when this object borrows its payload from an external buffer
  /// (i.e. it was produced by View rather than Compress/Deserialize).
  bool borrowed() const { return corrections_.borrowed(); }

  /// SeriesCodec trait: View genuinely borrows the caller's buffer, so a
  /// store shard mapped from disk serves with no deserialization copy.
  static constexpr bool kZeroCopyView = true;

  /// Introspection: a decoded view of fragment i (for examples & benches).
  struct FragmentInfo {
    uint64_t start, end, origin;
    FunctionKind kind;
    int correction_bits;
    double params[3];
  };
  FragmentInfo GetFragment(size_t i) const {
    const FragmentDirectory::Record& rec = directory_[i];
    FragmentInfo info;
    info.start = FragmentStart(i);
    info.end = FragmentEnd(i);
    info.origin = info.start - rec.displacement;
    info.kind = kind_table_[rec.kind];
    info.correction_bits = static_cast<int>(rec.correction_bits);
    const double* p = params_[rec.kind].data() + rec.param_index;
    for (int j = 0; j < 3; ++j) {
      info.params[j] = j < NumParams(info.kind) ? p[j] : 0.0;
    }
    return info;
  }

 private:
  friend class NeatsTestPeer;

  struct ShiftedValues {
    std::vector<int64_t> storage;
    std::span<const int64_t> shifted;
    int64_t shift = 0;
  };

  /// Applies the positivity shift of footnote 2: y' = y + shift with
  /// shift = 1 - min(y) when min(y) < 1, so log-domain kinds stay usable.
  static ShiftedValues ShiftView(std::span<const int64_t> values) {
    ShiftedValues sv;
    int64_t lo = 0;
    for (int64_t v : values) {
      NEATS_REQUIRE(v >= -kMaxAbsValue && v <= kMaxAbsValue,
                    "value outside ±2^61");
      lo = std::min(lo, v);
    }
    if (values.empty() || lo >= 1) {
      sv.shifted = values;
      return sv;
    }
    sv.shift = 1 - lo;
    sv.storage.reserve(values.size());
    for (int64_t v : values) sv.storage.push_back(v + sv.shift);
    sv.shifted = sv.storage;
    return sv;
  }

  static Neats CompressImpl(std::span<const int64_t> values,
                            const NeatsOptions& options,
                            const std::vector<int64_t>& epsilons) {
    Neats out;
    out.n_ = values.size();
    out.starts_mode_ = options.starts_index;
    if (values.empty()) return out;

    ShiftedValues sv = ShiftView(values);
    out.shift_ = sv.shift;

    PartitionOptions popts = options.partition;
    popts.epsilons = epsilons;
    if (popts.num_threads == 1) popts.num_threads = options.num_threads;
    std::vector<Fragment> fragments =
        options.chunk_size > 0
            ? PartitionLosslessChunked(sv.shifted, options.chunk_size,
                                       options.num_threads, popts)
            : PartitionLossless(sv.shifted, popts);
    out.BuildLayout(sv.shifted, fragments, options);
    return out;
  }

  /// Shared body of Deserialize (copy mode) and View (borrow mode). In
  /// borrow mode every GetArray returns a span into `bytes`.
  static Neats LoadFlat(std::span<const uint8_t> bytes, bool borrow) {
    WordReader r(bytes, borrow);
    NEATS_REQUIRE(r.Get() == kMagic, "not a NeaTS blob");
    NEATS_REQUIRE(r.Get() == kFormatVersion,
                  "unsupported NeaTS format version");
    Neats out;
    out.n_ = r.Get();
    out.m_ = r.Get();
    // Bound n so every length*width product below stays far from uint64
    // wrap (2^56 values * 64 bits = 2^62) — a wrapped product could forge
    // the fragment-walk consistency check.
    NEATS_REQUIRE(out.n_ <= (uint64_t{1} << 56) && out.m_ <= out.n_,
                  "corrupt NeaTS blob");
    out.shift_ = static_cast<int64_t>(r.Get());
    out.starts_mode_ = r.Get() == 0 ? StartsIndex::kEliasFano
                                    : StartsIndex::kBitVector;
    size_t kinds = r.Get();
    NEATS_REQUIRE(kinds <= static_cast<size_t>(kNumFunctionKinds),
                  "corrupt NeaTS blob");
    for (size_t i = 0; i < kinds; ++i) {
      const uint64_t kind = r.Get();
      NEATS_REQUIRE(kind < static_cast<uint64_t>(kNumFunctionKinds),
                    "corrupt NeaTS blob");
      out.kind_table_.push_back(static_cast<FunctionKind>(kind));
    }
    if (out.m_ > 0) {
      if (out.starts_mode_ == StartsIndex::kEliasFano) {
        out.starts_ef_ = EliasFano::Load(r);
        // Fragment 0 must start at value 0 and the last start must lie in
        // [0, n): Access relies on both (a rank of 0 would underflow).
        NEATS_REQUIRE(out.starts_ef_.size() == out.m_ &&
                          out.starts_ef_.Access(0) == 0 &&
                          out.starts_ef_.Access(out.m_ - 1) < out.n_,
                      "corrupt NeaTS blob");
      } else {
        out.starts_bv_ = RankSelect::Load(r);
        NEATS_REQUIRE(out.starts_bv_.size() == out.n_ &&
                          out.starts_bv_.ones() == out.m_ &&
                          out.starts_bv_.Get(0),
                      "corrupt NeaTS blob");
      }
      out.widths_ = PackedArray::Load(r);
      out.displacement_ = PackedArray::Load(r);
      out.offsets_ = EliasFano::Load(r);
      out.kinds_wt_ = WaveletTree::Load(r);
      NEATS_REQUIRE(out.widths_.size() == out.m_ &&
                        out.displacement_.size() == out.m_ &&
                        out.offsets_.size() == out.m_ + 1 &&
                        out.kinds_wt_.size() == out.m_,
                    "corrupt NeaTS blob");
    }
    out.corrections_ = r.GetArray<uint64_t>();
    // Cross-check the sections against each other: the offsets EF must end
    // exactly at the bit size of the corrections payload, and every
    // fragment's correction span must equal its length times its width —
    // otherwise a query could compute a bit offset outside the payload.
    // O(m) constant-time probes, no allocation, so View stays zero-copy.
    uint64_t total_bits = out.m_ > 0 ? out.offsets_.Access(out.m_) : 0;
    NEATS_REQUIRE(out.corrections_.size() == CeilDiv(total_bits, 64),
                  "corrupt NeaTS blob");
    if (out.m_ > 0) {
      NEATS_REQUIRE(kinds > 0, "corrupt NeaTS blob");
      uint64_t prev_start = out.FragmentStart(0);  // == 0, checked above
      uint64_t prev_off = out.offsets_.Access(0);
      NEATS_REQUIRE(prev_off == 0, "corrupt NeaTS blob");
      for (size_t i = 1; i <= out.m_; ++i) {
        uint64_t start = i < out.m_ ? out.FragmentStart(i) : out.n_;
        uint64_t off = out.offsets_.Access(i);
        uint64_t width = out.widths_[i - 1];
        NEATS_REQUIRE(start > prev_start && off >= prev_off && width <= 64 &&
                          off - prev_off == (start - prev_start) * width,
                      "corrupt NeaTS blob");
        prev_start = start;
        prev_off = off;
      }
    }
    size_t n_params = r.Get();
    NEATS_REQUIRE(n_params == kinds || (out.m_ == 0 && n_params == 0),
                  "corrupt NeaTS blob");
    out.params_.reserve(n_params);
    for (size_t i = 0; i < n_params; ++i) {
      out.params_.push_back(r.GetArray<double>());
      // Each kind's array must hold exactly the parameters its fragments
      // index into (occurrences * arity) — DecodeAt reads unchecked.
      NEATS_REQUIRE(
          out.params_[i].size() ==
              out.kinds_wt_.Rank(static_cast<uint32_t>(i), out.m_) *
                  static_cast<size_t>(NumParams(out.kind_table_[i])),
          "corrupt NeaTS blob");
    }
    // The interleaved directory is redundant with S/B/O/K/D, and queries
    // trust its records without bounds checks — so the stored directory is
    // verified record-for-record against one rebuilt from the sections just
    // validated (O(m), transient, like RankSelect's directory check).
    out.directory_ = FragmentDirectory::Load(r);
    NEATS_REQUIRE(out.directory_.Matches(out.ComputeDirectoryRecords()),
                  "corrupt NeaTS blob");
    return out;
  }

  /// Rebuilds the interleaved directory records from the S/B/O/K/D
  /// structures, in fragment order — the inverse of what BuildLayout packs
  /// at compress time. Loaders use it as the expected value a stored
  /// directory must match byte-for-byte (zero pad included).
  std::vector<FragmentDirectory::Record> ComputeDirectoryRecords() const {
    std::vector<FragmentDirectory::Record> records(m_);
    for (size_t i = 0; i < m_; ++i) {
      auto [dense, occ] = kinds_wt_.AccessAndRank(i);
      FragmentDirectory::Record rec{};
      rec.corr_offset = offsets_.Access(i);
      rec.displacement = displacement_[i];
      rec.param_index =
          occ * static_cast<size_t>(NumParams(kind_table_[dense]));
      rec.kind = static_cast<uint8_t>(dense);
      rec.correction_bits = static_cast<uint8_t>(widths_[i]);
      records[i] = rec;
    }
    return records;
  }

  void BuildLayout(std::span<const int64_t> shifted,
                   const std::vector<Fragment>& fragments,
                   const NeatsOptions& options) {
    const size_t m = fragments.size();

    // Dense kind table: only kinds actually used get an id.
    std::vector<int> kind_to_dense(kNumFunctionKinds, -1);
    std::vector<uint32_t> kind_symbols(m);
    for (size_t i = 0; i < m; ++i) {
      int raw = static_cast<int>(fragments[i].kind);
      if (kind_to_dense[raw] < 0) {
        kind_to_dense[raw] = static_cast<int>(kind_table_.size());
        kind_table_.push_back(fragments[i].kind);
      }
      kind_symbols[i] = static_cast<uint32_t>(kind_to_dense[raw]);
    }
    kinds_wt_ = WaveletTree(kind_symbols,
                            static_cast<uint32_t>(kind_table_.size()));
    std::vector<std::vector<double>> params(kind_table_.size());

    m_ = m;
    std::vector<uint64_t> starts(m);
    std::vector<uint64_t> widths(m), displacement(m), offsets(m + 1);
    std::vector<FragmentDirectory::Record> records(m);
    BitWriter corrections;

    for (size_t i = 0; i < m; ++i) {
      const Fragment& frag = fragments[i];
      starts[i] = frag.start;
      displacement[i] = frag.start - frag.origin;
      FragmentDirectory::Record rec{};  // zero pad: canonical bytes
      rec.displacement = displacement[i];
      rec.kind = static_cast<uint8_t>(kind_symbols[i]);
      rec.param_index = params[kind_symbols[i]].size();
      for (int j = 0; j < NumParams(frag.kind); ++j) {
        params[kind_symbols[i]].push_back(frag.params[j]);
      }
      // Residual pass 1: actual range (floating-point-safe width).
      int64_t lo = 0, hi = 0;
      for (uint64_t k = frag.start; k < frag.end; ++k) {
        int64_t r = shifted[k] - frag.Predict(k);
        lo = std::min(lo, r);
        hi = std::max(hi, r);
      }
      int bits = ResidualBits(lo, hi);
      widths[i] = static_cast<uint64_t>(bits);
      offsets[i] = corrections.bit_size();
      rec.correction_bits = static_cast<uint8_t>(bits);
      rec.corr_offset = offsets[i];
      records[i] = rec;
      // Residual pass 2: emit with bias 2^(bits-1).
      int64_t bias = bits == 0 ? 0 : (int64_t{1} << (bits - 1));
      for (uint64_t k = frag.start; k < frag.end; ++k) {
        int64_t r = shifted[k] - frag.Predict(k);
        corrections.Append(static_cast<uint64_t>(r + bias), bits);
      }
    }
    offsets[m] = corrections.bit_size();

    if (starts_mode_ == StartsIndex::kEliasFano) {
      starts_ef_ = EliasFano(starts, n_);
    } else {
      BitVector bv(n_);
      for (uint64_t s : starts) bv.Set(s);
      starts_bv_ = RankSelect(std::move(bv));
    }
    widths_ = PackedArray::FromValues(widths);
    displacement_ = PackedArray::FromValues(displacement);
    offsets_ = EliasFano(offsets, offsets[m] + 1);
    corrections_ = Storage<uint64_t>(corrections.TakeWords());
    directory_ = FragmentDirectory(std::move(records));
    params_.reserve(params.size());
    for (auto& p : params) params_.emplace_back(std::move(p));
    (void)options;
  }

  /// Index of the fragment covering position k (S.rank(k) - 1).
  size_t FragmentIndexOf(uint64_t k) const {
    if (starts_mode_ == StartsIndex::kEliasFano) {
      return starts_ef_.Rank(k) - 1;
    }
    return static_cast<size_t>(starts_bv_.Rank1(k + 1)) - 1;
  }

  uint64_t FragmentStart(size_t i) const {
    return starts_mode_ == StartsIndex::kEliasFano
               ? starts_ef_.Access(i)
               : starts_bv_.Select1(i);
  }
  uint64_t FragmentEnd(size_t i) const {
    return i + 1 < m_ ? FragmentStart(i + 1) : n_;
  }

  /// Decodes the value at position k of fragment i (whose start is already
  /// known) from the fragment's directory record: one contiguous record
  /// read supplies kind, parameter offset, displacement, correction width
  /// and correction offset, replacing the wavelet-tree traversal plus the
  /// B/D/O probes of the legacy layout.
  int64_t DecodeAt(size_t i, uint64_t start, uint64_t k) const {
    const FragmentDirectory::Record& rec = directory_[i];
    NEATS_TOUCH(kind_table_.data() + rec.kind);
    FunctionKind kind = kind_table_[rec.kind];
    const double* params = params_[rec.kind].data() + rec.param_index;
    NEATS_TOUCH(params);
    uint64_t origin = start - rec.displacement;
    int64_t pred = PredictFloor(kind, params, static_cast<int64_t>(k - origin) + 1);
    const int bits = rec.correction_bits;
    if (bits == 0) return pred - shift_;  // pure function: no corrections
    int64_t bias = int64_t{1} << (bits - 1);
    uint64_t o = rec.corr_offset + (k - start) * static_cast<uint64_t>(bits);
    NEATS_TOUCH(corrections_.data() + (o >> 6));
    int64_t c = static_cast<int64_t>(ReadBits(corrections_.data(), o, bits)) - bias;
    return pred + c - shift_;
  }

  /// Decoded per-fragment state, loaded once per fragment and carried by
  /// cursors: everything needed to decode any value of the fragment without
  /// touching the succinct indexes again.
  struct FragState {
    uint64_t start = 0, end = 0, origin = 0;
    uint64_t corr_base = 0;  // absolute bit offset of the first correction
    const double* params = nullptr;
    FunctionKind kind = FunctionKind::kLinear;
    int bits = 0;
    int64_t bias = 0;
  };

  /// The decode-relevant fields of fragment i (everything but `end`), from
  /// one directory record read. The batch kernel caches exactly this — it
  /// learns about fragment transitions from the predecessor scanner, so it
  /// never pays the extra starts select that computing `end` would cost.
  FragState LoadFragmentState(size_t i, uint64_t start) const {
    const FragmentDirectory::Record& rec = directory_[i];
    FragState s;
    s.start = start;
    s.kind = kind_table_[rec.kind];
    s.params = params_[rec.kind].data() + rec.param_index;
    s.bits = rec.correction_bits;
    s.bias = s.bits == 0 ? 0 : (int64_t{1} << (s.bits - 1));
    s.origin = start - rec.displacement;
    s.corr_base = rec.corr_offset;
    return s;
  }

  /// Loads fragment i given its start (already known to sequential callers —
  /// the next start is the previous end). Everything else comes out of the
  /// fragment's directory record in one read.
  FragState LoadFragment(size_t i, uint64_t start) const {
    FragState s = LoadFragmentState(i, start);
    s.end = FragmentEnd(i);
    return s;
  }

  /// Loads fragment i from scratch (one starts access + the record read).
  FragState LoadFragment(size_t i) const {
    return LoadFragment(i, FragmentStart(i));
  }

  /// Decodes the value at position k of the loaded fragment `s`
  /// (s.start <= k < s.end) — the one-value decode shared by Cursor::Value
  /// and the batch kernel's per-group loop.
  int64_t DecodeFragValue(const FragState& s, uint64_t k) const {
    int64_t pred = PredictFloor(s.kind, s.params,
                                static_cast<int64_t>(k - s.origin) + 1);
    uint64_t o = s.corr_base + (k - s.start) * static_cast<uint64_t>(s.bits);
    int64_t c =
        static_cast<int64_t>(ReadBits(corrections_.data(), o, s.bits)) - s.bias;
    return pred + c - shift_;
  }

  // The per-kind decode kernel over `count` values of one fragment starting
  // at fragment-local coordinate `x`. KIND is a compile-time constant, so
  // PredictFloorAt's kind switch folds away and each value costs the kind's
  // scalar double arithmetic (plus the libm call of the exp/log kinds), an
  // integer floor and the bit-unpacked correction. Corrections are unpacked
  // 128 at a time (UnpackBitsRun) into a stack buffer instead of paying an
  // unaligned ReadBits per element. Without kSum the values go to `out`;
  // with kSum nothing is stored and the kernel returns Σpred + Σcorr −
  // count·base, the values' sum modulo 2^64.
  template <FunctionKind KIND, bool kSum>
  uint64_t DecodeLoop(const double* params, double x, uint64_t count, int bits,
                      uint64_t bit_offset, int64_t* out) const {
    const uint64_t base = (bits == 0 ? 0 : uint64_t{1} << (bits - 1)) +
                          static_cast<uint64_t>(shift_);
    uint64_t sum = 0;
    if (bits == 0) {  // pure function: no corrections stored at all
      if constexpr (kSum) {
        sum = SumPredictFloor<KIND, uint64_t>(params, x, count);
      } else {
        for (uint64_t j = 0; j < count; ++j, x += 1.0) {
          out[j] = PredictFloorAt(KIND, params, x) - shift_;
        }
      }
      return sum - count * base;
    }
    const uint64_t* words = corrections_.data();
    constexpr uint64_t kRun = 128;
    uint64_t corr[kRun];
    for (uint64_t done = 0; done < count;) {
      const uint64_t run = std::min<uint64_t>(kRun, count - done);
      UnpackBitsRun(words, bit_offset, bits, run, corr);
      if constexpr (kSum) {
        sum += SumPredictFloor<KIND, uint64_t>(params, x, run);
        for (uint64_t j = 0; j < run; ++j) sum += corr[j];
        x += static_cast<double>(run);
      } else {
        for (uint64_t j = 0; j < run; ++j, x += 1.0) {
          const uint64_t pred =
              static_cast<uint64_t>(PredictFloorAt(KIND, params, x));
          out[done + j] = static_cast<int64_t>(pred + corr[j] - base);
        }
      }
      done += run;
      bit_offset += run * static_cast<uint64_t>(bits);
    }
    return sum - count * base;
  }

  /// Decodes values[from, to) of a loaded fragment into `out`, or with kSum
  /// returns their sum modulo 2^64 (kind-dispatched kernel).
  template <bool kSum>
  uint64_t DecodeRun(const FragState& s, uint64_t from, uint64_t to,
                     int64_t* out) const {
    const uint64_t o =
        s.corr_base + (from - s.start) * static_cast<uint64_t>(s.bits);
    const double x = static_cast<double>(from - s.origin + 1);
    return DispatchKind(s.kind, [&]<FunctionKind K>() {
      return DecodeLoop<K, kSum>(s.params, x, to - from, s.bits, o, out);
    });
  }

  /// Bits of the serialized header: magic, version, n, m, shift, starts
  /// mode, kind-table length, and one word per kind-table entry (matches the
  /// fixed-size prefix Serialize emits before the section list).
  size_t HeaderSizeInBits() const { return (7 + kind_table_.size()) * 64; }

  /// Bits Serialize writes before the trailing directory section: the
  /// header, S/B/O/K/D, the corrections and the parameter arrays.
  size_t SectionsSizeInBits() const {
    size_t bits = HeaderSizeInBits() + 64 + corrections_.size() * 64 + 64;
    for (const auto& p : params_) bits += 64 + p.size() * 64;
    if (m_ > 0) {
      size_t s_bits = starts_mode_ == StartsIndex::kEliasFano
                          ? starts_ef_.SizeInBits()
                          : starts_bv_.SizeInBits();
      bits += s_bits + widths_.SizeInBits() + displacement_.SizeInBits() +
              offsets_.SizeInBits() + kinds_wt_.SizeInBits();
    }
    return bits;
  }

  // Little-endian "NEATSv2\0": the mapped bytes of a blob start with the
  // ASCII name, so `head -c7` / file sniffers see it verbatim. The magic
  // names the format *family*; revisions bump the version word, not the
  // magic (docs/FORMAT.md).
  static constexpr uint64_t kMagic = 0x003276535441454EULL;
  static constexpr uint64_t kFormatVersion = 3;

  uint64_t n_ = 0;
  size_t m_ = 0;
  int64_t shift_ = 0;
  StartsIndex starts_mode_ = StartsIndex::kEliasFano;

  EliasFano starts_ef_;   // S (Elias-Fano variant)
  RankSelect starts_bv_;  // S (plain bitvector variant)

  PackedArray widths_;             // B
  EliasFano offsets_;              // O
  Storage<uint64_t> corrections_;  // C
  WaveletTree kinds_wt_;           // K
  PackedArray displacement_;       // D
  FragmentDirectory directory_;    // interleaved B/O/K/D + param offsets (v3)
  std::vector<FunctionKind> kind_table_;
  std::vector<Storage<double>> params_;  // P, one array per dense kind
};

/// Sequential-access cursor: caches the current fragment's decoded state
/// (kind, params, correction width, bit offsets) plus the fragment index.
/// next()/Read() advance fragment-to-fragment in O(1) — the next start is
/// the current end and everything else comes out of the next fragment's
/// directory record, so neither the S rank nor any B/O/K/D probe of
/// Algorithm 3 is paid. Monotone Seek() hops the chain the same way (in
/// either direction) and only falls back to a full rank for long jumps.
class Neats::Cursor {
 public:
  /// Positions the cursor at `position` (clamped to n = end-of-series).
  /// A non-zero start pays one FragmentIndexOf rank, like Access would —
  /// the hop heuristic of Seek only helps once the cursor is warm.
  explicit Cursor(const Neats& neats, uint64_t position = 0) : neats_(&neats) {
    if (neats_->m_ == 0) return;
    if (position >= neats_->n_) position = neats_->n_;
    if (position == neats_->n_ || position == 0) {
      // The first fragment starts at value 0.
      st_ = neats_->LoadFragment(0, 0);
      pos_ = position;
      return;
    }
    frag_ = neats_->FragmentIndexOf(position);
    st_ = neats_->LoadFragment(frag_);
    pos_ = position;
  }

  /// Current position in [0, n]; n means exhausted.
  uint64_t position() const { return pos_; }

  /// True once the cursor has moved past the last value.
  bool done() const { return pos_ >= neats_->n_; }

  /// The value at the current position (the cursor does not advance).
  int64_t Value() const {
    NEATS_DCHECK(!done());
    return neats_->DecodeFragValue(st_, pos_);
  }

  /// The value at the current position, then advances by one.
  int64_t Next() {
    int64_t v = Value();
    ++pos_;
    if (pos_ == st_.end && pos_ < neats_->n_) AdvanceFragment();
    return v;
  }

  /// Moves to position k (<= n). Seeks inside the current fragment (in either
  /// direction) reuse the cached decode state outright; seeks to nearby
  /// fragments hop the chain — forward or backward — in O(1) per fragment.
  /// Only a jump further than kMaxSeekHops fragments away falls back to the
  /// full FragmentIndexOf rank.
  void Seek(uint64_t k) {
    NEATS_DCHECK(k <= neats_->n_);
    if (k >= neats_->n_) {
      pos_ = neats_->n_;
      return;
    }
    if (k >= st_.start && k < st_.end) {
      pos_ = k;
      return;
    }
    if (k >= st_.end) {
      for (int hops = 0; hops < kMaxSeekHops && k >= st_.end; ++hops) {
        AdvanceFragment();
      }
      if (k < st_.end) {
        pos_ = k;
        return;
      }
    } else {
      // Backward: the previous fragment's start is one Elias-Fano access and
      // its record one read, so short backward seeks never pay the rank.
      for (int hops = 0; hops < kMaxSeekHops && k < st_.start; ++hops) {
        RetreatFragment();
      }
      if (k >= st_.start) {
        pos_ = k;  // k < st_.end holds: the chain is contiguous
        return;
      }
    }
    frag_ = neats_->FragmentIndexOf(k);
    st_ = neats_->LoadFragment(frag_);
    pos_ = k;
  }

  /// Bulk-decodes up to `len` values starting at the current position into
  /// `out` (fragment-at-a-time, through the per-kind decode kernel) and
  /// advances past them. Returns the number produced (less than `len` only
  /// at the end).
  uint64_t Read(uint64_t len, int64_t* out) {
    const uint64_t want = std::min(len, neats_->n_ - pos_);
    Scan<false>(want, out);
    return want;
  }

  /// Advances past up to `len` values and returns their sum modulo 2^64 —
  /// the same kernel as Read, accumulating instead of storing.
  int64_t Sum(uint64_t len) {
    return static_cast<int64_t>(Scan<true>(len, nullptr));
  }

 private:
  static constexpr int kMaxSeekHops = 8;

  // Read/Sum body: up to `len` values from the current position, fragment
  // by fragment; with kSum returns their sum modulo 2^64.
  template <bool kSum>
  uint64_t Scan(uint64_t len, int64_t* out) {
    const uint64_t want = std::min(len, neats_->n_ - pos_);
    uint64_t sum = 0;
    for (uint64_t produced = 0; produced < want;) {
      const uint64_t to = std::min(pos_ + (want - produced), st_.end);
      sum += neats_->DecodeRun<kSum>(st_, pos_, to,
                                     kSum ? nullptr : out + produced);
      produced += to - pos_;
      pos_ = to;
      if (pos_ == st_.end && pos_ < neats_->n_) AdvanceFragment();
    }
    return sum;
  }

  void AdvanceFragment() {
    ++frag_;
    st_ = neats_->LoadFragment(frag_, st_.end);
  }

  /// Inverse of AdvanceFragment; precondition: frag_ > 0.
  void RetreatFragment() {
    --frag_;
    st_ = neats_->LoadFragment(frag_);
  }

  const Neats* neats_;
  size_t frag_ = 0;
  uint64_t pos_ = 0;
  FragState st_;
};

inline void Neats::DecompressRange(uint64_t k, uint64_t len,
                                   int64_t* out) const {
  NEATS_DCHECK(k + len <= n_);
  if (len == 0) return;
  Cursor cursor(*this, k);
  cursor.Read(len, out);
}

inline void Neats::DecompressRanges(std::span<const IndexRange> ranges,
                                    int64_t* out) const {
  if (ranges.empty()) return;
  Cursor cursor(*this, ranges[0].from);
  uint64_t off = 0;
  for (const IndexRange& r : ranges) {
    NEATS_DCHECK(r.from + r.len <= n_);
    cursor.Seek(r.from);
    cursor.Read(r.len, out + off);
    off += r.len;
  }
}

inline int64_t Neats::RangeSum(uint64_t from, uint64_t len) const {
  NEATS_DCHECK(from + len <= n_);
  if (len == 0) return 0;
  Cursor cursor(*this, from);
  return cursor.Sum(len);
}

inline Neats Neats::CompressWithModelSelection(std::span<const int64_t> values,
                                               const NeatsOptions& options,
                                               double sample_fraction,
                                               size_t top_pairs) {
  if (values.size() < 1000) return Compress(values, options);
  ShiftedValues sv = ShiftView(values);

  size_t sample_n = std::max<size_t>(1000, static_cast<size_t>(
      static_cast<double>(values.size()) * sample_fraction));
  sample_n = std::min(sample_n, values.size());

  PartitionOptions popts = options.partition;
  if (popts.epsilons.empty()) popts.epsilons = DefaultEpsilons(sv.shifted);
  std::vector<Fragment> sample_frags =
      PartitionLossless(sv.shifted.subspan(0, sample_n), popts);

  // Vote: total covered length per (kind, eps) pair.
  struct PairUse {
    FunctionKind kind;
    int64_t eps;
    uint64_t covered = 0;
  };
  std::vector<PairUse> uses;
  for (const Fragment& f : sample_frags) {
    bool found = false;
    for (PairUse& u : uses) {
      if (u.kind == f.kind && u.eps == f.epsilon) {
        u.covered += f.length();
        found = true;
        break;
      }
    }
    if (!found) uses.push_back({f.kind, f.epsilon, f.length()});
  }
  std::sort(uses.begin(), uses.end(),
            [](const PairUse& a, const PairUse& b) { return a.covered > b.covered; });
  if (uses.size() > top_pairs) uses.resize(top_pairs);

  NeatsOptions pruned = options;
  pruned.partition.kinds.clear();
  pruned.partition.epsilons.clear();
  for (const PairUse& u : uses) {
    if (std::find(pruned.partition.kinds.begin(), pruned.partition.kinds.end(),
                  u.kind) == pruned.partition.kinds.end()) {
      pruned.partition.kinds.push_back(u.kind);
    }
    if (std::find(pruned.partition.epsilons.begin(),
                  pruned.partition.epsilons.end(),
                  u.eps) == pruned.partition.epsilons.end()) {
      pruned.partition.epsilons.push_back(u.eps);
    }
  }
  if (pruned.partition.kinds.empty()) return Compress(values, options);
  return CompressImpl(values, pruned, pruned.partition.epsilons);
}

}  // namespace neats
