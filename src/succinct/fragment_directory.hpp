// Interleaved per-fragment directory: the hot metadata of each fragment in
// one contiguous record.
//
// Algorithm 3 (random access) needs five facts about the fragment covering a
// query position: its function kind, where its parameters live, its
// displacement (start - origin), its correction bit width, and where its
// corrections start in the C stream. Stored separately — K (wavelet tree),
// B (packed widths), D (packed displacements), O (Elias-Fano offsets) — those
// lookups scatter over ~10 cache lines per query. This directory interleaves
// all five into one bit-packed record per fragment, so after the single
// Elias-Fano predecessor scan on S the rest of the metadata resolves inside
// one (rarely two, when a record straddles a line boundary) cache line.
//
// Records are packed with per-structure minimal field widths, exactly like
// PackedArray cells: each of the five fields takes BitWidth(max value over
// all fragments) bits, so a typical record is 40-60 bits and the whole
// directory costs well under one bit per value — the interleaving buys
// locality without giving back the compression ratio. The serialized payload
// is padded to start on a 64-byte boundary relative to the blob start, so an
// mmap'd blob (page-aligned) reads records at predictable line offsets.
//
// The directory is redundant: every field is derivable from S/B/O/K/D, and
// the loader exploits that — the stored directory is verified against one
// rebuilt from the other sections (like RankSelect verifies its stored
// rank/select directories). Queries then trust the records without bounds
// checks.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/touch_probe.hpp"
#include "succinct/bit_stream.hpp"
#include "succinct/storage.hpp"

namespace neats {

/// Immutable array of interleaved per-fragment metadata records.
class FragmentDirectory {
 public:
  /// One fragment's hot metadata, in build/query currency. The packed wire
  /// form stores each field with the directory-wide minimal width.
  struct Record {
    uint64_t corr_offset = 0;     // absolute bit offset of first correction
    uint64_t displacement = 0;    // start - origin (the D cell)
    uint64_t param_index = 0;     // offset into the kind's parameter array
    uint8_t kind = 0;             // dense kind id (index into the kind table)
    uint8_t correction_bits = 0;  // width of one correction (the B cell)

    bool operator==(const Record&) const = default;
  };

  /// Serialized record words start at a multiple of this many bytes from
  /// the blob start (the section is padded with zero words).
  static constexpr size_t kPayloadAlignment = 64;

  FragmentDirectory() = default;

  /// Freezes `records` (one per fragment, in fragment order), choosing the
  /// minimal width for each of the five fields.
  explicit FragmentDirectory(const std::vector<Record>& records)
      : size_(records.size()) {
    Record max;
    for (const Record& r : records) {
      max.corr_offset = std::max(max.corr_offset, r.corr_offset);
      max.displacement = std::max(max.displacement, r.displacement);
      max.param_index = std::max(max.param_index, r.param_index);
      max.kind = std::max(max.kind, r.kind);
      max.correction_bits = std::max(max.correction_bits, r.correction_bits);
    }
    widths_[kCorr] = BitWidth(max.corr_offset);
    widths_[kDisp] = BitWidth(max.displacement);
    widths_[kParam] = BitWidth(max.param_index);
    widths_[kKind] = BitWidth(max.kind);
    widths_[kBits] = BitWidth(max.correction_bits);
    FinishWidths();
    BitWriter writer;
    for (const Record& r : records) {
      writer.Append(r.corr_offset, widths_[kCorr]);
      writer.Append(r.displacement, widths_[kDisp]);
      writer.Append(r.param_index, widths_[kParam]);
      writer.Append(r.kind, widths_[kKind]);
      writer.Append(r.correction_bits, widths_[kBits]);
    }
    words_ = Storage<uint64_t>(writer.TakeWords());
  }

  /// Record of fragment `i` — the one metadata read of a directory query.
  /// All five fields unpack from `record_width_` consecutive bits.
  Record operator[](size_t i) const {
    NEATS_DCHECK(i < size_);
    const size_t base = i * record_width_;
    const uint64_t* w = words_.data();
    if (record_width_ > 0) {
      NEATS_TOUCH(w + (base >> 6));
      NEATS_TOUCH(w + ((base + record_width_ - 1) >> 6));
    }
    Record r;
    r.corr_offset = ReadBits(w, base + offsets_[kCorr], widths_[kCorr]);
    r.displacement = ReadBits(w, base + offsets_[kDisp], widths_[kDisp]);
    r.param_index = ReadBits(w, base + offsets_[kParam], widths_[kParam]);
    r.kind = static_cast<uint8_t>(
        ReadBits(w, base + offsets_[kKind], widths_[kKind]));
    r.correction_bits = static_cast<uint8_t>(
        ReadBits(w, base + offsets_[kBits], widths_[kBits]));
    return r;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Bits of one packed record (the sum of the five field widths).
  int record_width() const { return record_width_; }

  /// True when the packed words are borrowed from an external buffer.
  bool borrowed() const { return words_.borrowed(); }

  /// Section grammar: count word, five field-width words, zero words up to
  /// the next 64-byte blob offset, then the packed record words.
  void Serialize(WordWriter& w) const {
    w.Put(size_);
    for (int f = 0; f < kNumFields; ++f) {
      w.Put(static_cast<uint64_t>(widths_[f]));
    }
    w.AlignTo(kPayloadAlignment);
    w.PutCells(words_.data(), words_.size());
  }

  static FragmentDirectory Load(WordReader& r) {
    FragmentDirectory d;
    d.size_ = r.Get();
    // Stricter than the 2^56 cap elsewhere so size * record_width (up to
    // 5 * 64 bits) cannot wrap uint64; petabyte-scale directories are not a
    // thing this side of the check.
    NEATS_REQUIRE(d.size_ <= (uint64_t{1} << 53), "corrupt NeaTS blob");
    for (int f = 0; f < kNumFields; ++f) {
      uint64_t width = r.Get();
      NEATS_REQUIRE(width <= 64, "corrupt NeaTS blob");
      d.widths_[f] = static_cast<int>(width);
    }
    d.FinishWidths();
    r.AlignTo(kPayloadAlignment);
    d.words_ = r.GetCells<uint64_t>(
        CeilDiv(d.size_ * static_cast<size_t>(d.record_width_), 64));
    return d;
  }

  /// Serialized size in bits of a directory whose section begins
  /// `bits_before` bits into the blob (the alignment pad depends on the
  /// position, so callers sum the preceding sections first).
  size_t SizeInBitsAt(size_t bits_before) const {
    constexpr size_t kAlignBits = kPayloadAlignment * 8;
    size_t pos = bits_before + (1 + kNumFields) * 64;
    size_t pad = (kAlignBits - pos % kAlignBits) % kAlignBits;
    return (1 + kNumFields) * 64 + pad + words_.size() * 64;
  }

  /// True iff this directory is exactly the one a fresh build from
  /// `expected` would produce — same canonical (minimal) field widths, same
  /// packed words. This is the loader's verification pass: equality here
  /// guarantees both correct records and canonical re-serialization.
  bool Matches(const std::vector<Record>& expected) const {
    FragmentDirectory canon(expected);
    return size_ == canon.size_ &&
           std::memcmp(widths_, canon.widths_, sizeof(widths_)) == 0 &&
           words_.size() == canon.words_.size() &&
           (words_.empty() ||
            std::memcmp(words_.data(), canon.words_.data(),
                        words_.size() * sizeof(uint64_t)) == 0);
  }

 private:
  enum Field { kCorr = 0, kDisp, kParam, kKind, kBits, kNumFields };

  /// Derives the in-record field offsets and the total record width.
  void FinishWidths() {
    int off = 0;
    for (int f = 0; f < kNumFields; ++f) {
      offsets_[f] = off;
      off += widths_[f];
    }
    record_width_ = off;
  }

  size_t size_ = 0;
  int widths_[kNumFields] = {0, 0, 0, 0, 0};
  int offsets_[kNumFields] = {0, 0, 0, 0, 0};
  int record_width_ = 0;
  Storage<uint64_t> words_;  // packed records, back to back
};

}  // namespace neats
