// NeaTS-L: the lossy variant of NeaTS (paper, Sec. III-B, "Partitioning for
// lossy compression", evaluated in Sec. IV-B).
//
// A single error bound eps is used, corrections are dropped, and the
// partitioner minimises the storage of the function parameters alone. The
// result is a piecewise nonlinear eps-approximation with a maximum-error
// guarantee: |decoded[k] - original[k]| <= eps + 1 for every k (the +1
// accounts for the floor applied to predictions; the un-floored function is
// within eps).

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
#include "succinct/elias_fano.hpp"
#include "succinct/fragment_directory.hpp"
#include "succinct/packed_array.hpp"
#include "succinct/storage.hpp"
#include "succinct/wavelet_tree.hpp"

namespace neats {

/// Lossy compressed representation: fragments + functions, no corrections.
class NeatsLossy {
 public:
  NeatsLossy() = default;

  /// Compresses `values` under the error bound `eps` (>= 0).
  static NeatsLossy Compress(std::span<const int64_t> values, int64_t eps,
                             const PartitionOptions& options = {}) {
    NeatsLossy out;
    out.n_ = values.size();
    out.eps_ = eps;
    if (values.empty()) return out;

    int64_t lo = values[0];
    for (int64_t v : values) {
      NEATS_REQUIRE(v >= -kMaxAbsValue && v <= kMaxAbsValue,
                    "value outside ±2^61");
      lo = std::min(lo, v);
    }
    if (lo < 1) out.shift_ = 1 - lo;

    std::vector<int64_t> shifted;
    std::span<const int64_t> view = values;
    if (out.shift_ != 0) {
      shifted.reserve(values.size());
      for (int64_t v : values) shifted.push_back(v + out.shift_);
      view = shifted;
    }

    std::vector<Fragment> fragments = PartitionLossy(view, eps, options);
    out.Build(fragments);
    return out;
  }

  uint64_t size() const { return n_; }
  size_t num_fragments() const { return m_; }
  int64_t epsilon() const { return eps_; }

  /// The approximated value at index k: one Elias-Fano predecessor scan on
  /// the starts plus a single interleaved directory record read (kind,
  /// parameter offset and displacement together), as in Neats::Access.
  int64_t Access(uint64_t k) const {
    NEATS_DCHECK(k < n_);
    auto [i, start] = starts_.Predecessor(k);
    const FragmentDirectory::Record& rec = directory_[i];
    NEATS_TOUCH(kind_table_.data() + rec.kind);
    FunctionKind kind = kind_table_[rec.kind];
    const double* params = params_[rec.kind].data() + rec.param_index;
    NEATS_TOUCH(params);
    uint64_t origin = start - rec.displacement;
    return PredictFloor(kind, params, static_cast<int64_t>(k - origin) + 1) -
           shift_;
  }

  /// Access resolved through the separate K/D structures — the pre-directory
  /// path, kept as fuzz ground truth (see Neats::AccessViaLegacyStructures).
  int64_t AccessViaLegacyStructures(uint64_t k) const {
    NEATS_DCHECK(k < n_);
    auto [i, start] = starts_.Predecessor(k);
    auto [dense, occ] = kinds_wt_.AccessAndRank(i);
    FunctionKind kind = kind_table_[dense];
    const double* params =
        params_[dense].data() + occ * static_cast<size_t>(NumParams(kind));
    uint64_t origin = start - displacement_[i];
    return PredictFloor(kind, params, static_cast<int64_t>(k - origin) + 1) -
           shift_;
  }

  /// Reconstructs the whole approximated series.
  void Decompress(std::vector<int64_t>* out) const {
    out->resize(n_);
    for (size_t i = 0; i < m_; ++i) {
      uint64_t start = starts_.Access(i);
      uint64_t end = i + 1 < m_ ? starts_.Access(i + 1) : n_;
      const FragmentDirectory::Record& rec = directory_[i];
      FunctionKind kind = kind_table_[rec.kind];
      const double* params = params_[rec.kind].data() + rec.param_index;
      int64_t* dst = out->data() + start;
      const double x = static_cast<double>(rec.displacement + 1);
      DispatchKind(kind, [&]<FunctionKind K>() {
        PredictLoop<K>(params, x, end - start, dst);
      });
    }
  }

  /// Size of the lossy representation in bits — exactly the v2 serialized
  /// size (8 * Serialize output bytes).
  size_t SizeInBits() const {
    size_t bits = (7 + kind_table_.size()) * 64 + 64;  // header + params count
    for (const auto& p : params_) bits += 64 + p.size() * 64;
    if (m_ == 0) return bits;
    return bits + starts_.SizeInBits() + displacement_.SizeInBits() +
           kinds_wt_.SizeInBits();
  }

  /// Format v2 (flat, word-aligned; same section grammar as Neats). Unlike
  /// the lossless format, the interleaved directory is *not* serialized:
  /// the lossy layout competes with PLA byte-for-byte on parameter storage
  /// alone, and its three-field records rebuild in O(m) at open time, so
  /// the wire format stays at version 2 (see docs/FORMAT.md).
  void Serialize(std::vector<uint8_t>* out) const {
    out->clear();
    WordWriter w(out);
    w.Put(kMagicV2);
    w.Put(kFormatVersion);
    w.Put(n_);
    w.Put(static_cast<uint64_t>(m_));
    w.Put(static_cast<uint64_t>(eps_));
    w.Put(static_cast<uint64_t>(shift_));
    w.Put(kind_table_.size());
    for (FunctionKind kind : kind_table_) w.Put(static_cast<uint64_t>(kind));
    if (m_ > 0) {
      starts_.Serialize(w);
      displacement_.Serialize(w);
      kinds_wt_.Serialize(w);
    }
    w.Put(params_.size());
    for (const auto& p : params_) w.PutArray(p);
  }

  /// Rebuilds from Serialize output into owned storage (the in-memory
  /// directory is rebuilt from the stored sections).
  static NeatsLossy Deserialize(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/false);
  }

  /// Opens a blob zero-copy; `bytes` must be 8-byte aligned and outlive the
  /// returned object.
  static NeatsLossy View(std::span<const uint8_t> bytes) {
    return Load(bytes, /*borrow=*/true);
  }

 private:
  static NeatsLossy Load(std::span<const uint8_t> bytes, bool borrow) {
    WordReader r(bytes, borrow);
    NEATS_REQUIRE(r.Get() == kMagicV2, "not a NeaTS-L blob");
    NEATS_REQUIRE(r.Get() == kFormatVersion,
                  "unsupported NeaTS-L format version");
    NeatsLossy out;
    out.n_ = r.Get();
    out.m_ = r.Get();
    out.eps_ = static_cast<int64_t>(r.Get());
    out.shift_ = static_cast<int64_t>(r.Get());
    size_t kinds = r.Get();
    NEATS_REQUIRE(kinds <= static_cast<size_t>(kNumFunctionKinds),
                  "corrupt NeaTS-L blob");
    for (size_t i = 0; i < kinds; ++i) {
      const uint64_t kind = r.Get();
      NEATS_REQUIRE(kind < static_cast<uint64_t>(kNumFunctionKinds),
                    "corrupt NeaTS-L blob");
      out.kind_table_.push_back(static_cast<FunctionKind>(kind));
    }
    if (out.m_ > 0) {
      out.starts_ = EliasFano::Load(r);
      out.displacement_ = PackedArray::Load(r);
      out.kinds_wt_ = WaveletTree::Load(r);
      NEATS_REQUIRE(out.starts_.size() == out.m_ &&
                        out.starts_.Access(0) == 0 &&
                        out.starts_.Access(out.m_ - 1) < out.n_ &&
                        out.displacement_.size() == out.m_ &&
                        out.kinds_wt_.size() == out.m_,
                    "corrupt NeaTS-L blob");
    }
    size_t n_params = r.Get();
    NEATS_REQUIRE(n_params == kinds || (out.m_ == 0 && n_params == 0),
                  "corrupt NeaTS-L blob");
    out.params_.reserve(n_params);
    for (size_t i = 0; i < n_params; ++i) {
      out.params_.push_back(r.GetArray<double>());
      NEATS_REQUIRE(
          out.params_[i].size() ==
              out.kinds_wt_.Rank(static_cast<uint32_t>(i), out.m_) *
                  static_cast<size_t>(NumParams(out.kind_table_[i])),
          "corrupt NeaTS-L blob");
    }
    out.directory_ = FragmentDirectory(out.ComputeDirectoryRecords());
    return out;
  }

  /// Directory records rebuilt from K/D (the lossy layout stores no
  /// corrections, so corr_offset and correction_bits are zero).
  std::vector<FragmentDirectory::Record> ComputeDirectoryRecords() const {
    std::vector<FragmentDirectory::Record> records(m_);
    for (size_t i = 0; i < m_; ++i) {
      auto [dense, occ] = kinds_wt_.AccessAndRank(i);
      FragmentDirectory::Record rec{};
      rec.displacement = displacement_[i];
      rec.param_index =
          occ * static_cast<size_t>(NumParams(kind_table_[dense]));
      rec.kind = static_cast<uint8_t>(dense);
      records[i] = rec;
    }
    return records;
  }
  // Per-kind prediction loop over `count` values from coordinate `x`: KIND
  // is compile-time, so PredictFloorAt's kind switch folds away and each
  // value costs the kind's scalar double arithmetic and an integer floor.
  template <FunctionKind KIND>
  void PredictLoop(const double* params, double x, uint64_t count,
                   int64_t* dst) const {
    for (uint64_t j = 0; j < count; ++j, x += 1.0) {
      dst[j] = PredictFloorAt(KIND, params, x) - shift_;
    }
  }

  void Build(const std::vector<Fragment>& fragments) {
    m_ = fragments.size();
    std::vector<int> kind_to_dense(kNumFunctionKinds, -1);
    std::vector<uint32_t> kind_symbols(m_);
    std::vector<uint64_t> starts(m_), displacement(m_);
    for (size_t i = 0; i < m_; ++i) {
      const Fragment& frag = fragments[i];
      int raw = static_cast<int>(frag.kind);
      if (kind_to_dense[raw] < 0) {
        kind_to_dense[raw] = static_cast<int>(kind_table_.size());
        kind_table_.push_back(frag.kind);
      }
      kind_symbols[i] = static_cast<uint32_t>(kind_to_dense[raw]);
      starts[i] = frag.start;
      displacement[i] = frag.start - frag.origin;
    }
    std::vector<std::vector<double>> params(kind_table_.size());
    std::vector<FragmentDirectory::Record> records(m_);
    for (size_t i = 0; i < m_; ++i) {
      FragmentDirectory::Record rec{};
      rec.displacement = displacement[i];
      rec.kind = static_cast<uint8_t>(kind_symbols[i]);
      rec.param_index = params[kind_symbols[i]].size();
      records[i] = rec;
      for (int j = 0; j < NumParams(fragments[i].kind); ++j) {
        params[kind_symbols[i]].push_back(fragments[i].params[j]);
      }
    }
    params_.reserve(params.size());
    for (auto& p : params) params_.emplace_back(std::move(p));
    starts_ = EliasFano(starts, n_);
    kinds_wt_ = WaveletTree(kind_symbols, static_cast<uint32_t>(kind_table_.size()));
    displacement_ = PackedArray::FromValues(displacement);
    directory_ = FragmentDirectory(std::move(records));
  }

  // Little-endian "NEATSL2\0" — ASCII-readable at the head of the blob.
  static constexpr uint64_t kMagicV2 = 0x00324C535441454EULL;
  static constexpr uint64_t kFormatVersion = 2;

  uint64_t n_ = 0;
  size_t m_ = 0;
  int64_t eps_ = 0;
  int64_t shift_ = 0;
  EliasFano starts_;
  WaveletTree kinds_wt_;
  PackedArray displacement_;
  FragmentDirectory directory_;  // interleaved K/D + param offsets
                                 // (in-memory only; rebuilt on load)
  std::vector<FunctionKind> kind_table_;
  std::vector<Storage<double>> params_;  // one array per dense kind
};

}  // namespace neats
