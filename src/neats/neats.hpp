// neats/neats.hpp — the stable public umbrella of the library.
//
// One include pulls in the whole serving stack: the NeaTS core (lossless +
// lossy), the SeriesCodec concept and registry, the sharded NeatsStore, and
// the I/O helpers. On top it adds the Status / Result error surface: the
// library's internal contract is "corrupt input throws neats::Error", and
// the facade's open/load entry points catch at the boundary and hand back a
// Status instead — so applications choose between exceptions and
// status-checking without the core paying for both.
//
//   neats::Result<neats::NeatsStore> store = neats::OpenStoreDir(dir);
//   if (!store.ok()) { log(store.status().message()); return; }
//   int64_t v = store->Access(42);
//
// Everything the facade returns is fully constructed or not returned at
// all; a failed open leaves no half-open state behind.

#pragma once

#include <optional>
#include <string>
#include <utility>

#include "codecs/codec_registry.hpp"
#include "common/assert.hpp"
#include "core/codec_id.hpp"
#include "core/neats.hpp"
#include "core/neats_lossy.hpp"
#include "core/series_codec.hpp"
#include "io/checksum.hpp"
#include "io/fs.hpp"
#include "io/manifest.hpp"
#include "io/mmap_file.hpp"
#include "io/text_io.hpp"
#include "store/neats_store.hpp"
#include "store/wal.hpp"

namespace neats {

/// The outcome of a facade operation: OK, or a failure with a message
/// (the text of the NEATS_REQUIRE that rejected the input) and a coarse
/// StatusCode (common/assert.hpp) — kIo for filesystem failures,
/// kUnavailable when a query routed into a quarantined shard, kDegraded
/// for reports on a partially-healthy store, kFailed otherwise.
class Status {
 public:
  Status() = default;  // OK

  static Status Ok() { return Status(); }
  static Status Failure(std::string message,
                        StatusCode code = StatusCode::kFailed) {
    Status s;
    s.code_ = code == StatusCode::kOk ? StatusCode::kFailed : code;
    s.message_ = std::move(message);
    return s;
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A Status plus, on success, a value of type T (move-only friendly).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}                 // NOLINT
  Result(Status status) : status_(std::move(status)) {          // NOLINT
    NEATS_DCHECK(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    NEATS_REQUIRE(ok(), "Result::value() on a failed Result");
    return *value_;
  }
  const T& value() const {
    NEATS_REQUIRE(ok(), "Result::value() on a failed Result");
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Runs `fn` and converts a thrown neats::Error (or any std::exception)
/// into a failed Result — the boundary adapter every facade entry point is
/// built from. Useful directly for one-off guarded calls:
///
///   auto r = neats::Checked([&] { return Neats::Deserialize(bytes); });
template <typename F>
auto Checked(F&& fn) -> Result<decltype(fn())> {
  try {
    return Result<decltype(fn())>(fn());
  } catch (const Error& e) {
    return Result<decltype(fn())>(Status::Failure(e.what(), e.code()));
  } catch (const std::exception& e) {
    return Result<decltype(fn())>(Status::Failure(e.what()));
  }
}

/// Status-returning variant of Checked for void operations.
template <typename F>
Status CheckedStatus(F&& fn) {
  try {
    fn();
    return Status::Ok();
  } catch (const Error& e) {
    return Status::Failure(e.what(), e.code());
  } catch (const std::exception& e) {
    return Status::Failure(e.what());
  }
}

/// Opens a flushed store directory (NeatsStore::OpenDir behind a Status).
inline Result<NeatsStore> OpenStoreDir(const std::string& dir,
                                       const NeatsStoreOptions& options = {}) {
  return Checked([&] { return NeatsStore::OpenDir(dir, options); });
}

/// Creates a fresh directory-backed store (NeatsStore::CreateDir behind a
/// Status; fails if the directory already holds a store).
inline Result<NeatsStore> CreateStoreDir(
    const std::string& dir, const NeatsStoreOptions& options = {}) {
  return Checked([&] { return NeatsStore::CreateDir(dir, options); });
}

/// Flushes a store, reporting write failures as a Status.
inline Status FlushStore(NeatsStore& store) {
  return CheckedStatus([&] { store.Flush(); });
}

/// Scrubs a directory-backed store — re-verifies every shard blob and
/// repairs quarantined shards from the WAL where possible (see
/// NeatsStore::Scrub). Returns OK when the store ends fully healthy, and a
/// kDegraded Status naming the still-quarantined shards otherwise.
inline Status ScrubStore(NeatsStore& store) {
  return CheckedStatus([&] {
    const NeatsStore::RepairReport& report = store.Scrub();
    if (!report.quarantined.empty()) {
      std::string msg = "store is degraded; quarantined shard(s):";
      for (const auto& q : report.quarantined) {
        msg += " " + std::to_string(q.shard);
      }
      throw Error(msg, StatusCode::kDegraded);
    }
  });
}

/// A NeaTS blob opened from a file: the mapping and the series borrowing
/// it. Move-only; the mapping's buffer is address-stable across moves, so
/// the borrowed spans stay valid.
struct MappedSeries {
  MmapFile map;
  Neats series;
};

/// Opens a serialized NeaTS blob file for querying: the blob is mmap'd and
/// served zero-copy.
inline Result<MappedSeries> OpenSeriesFile(const std::string& path) {
  return Checked([&] {
    MappedSeries opened;
    opened.map = MmapFile::Open(path);
    opened.series = Neats::View(opened.map.bytes());
    return opened;
  });
}

/// Loads a serialized NeaTS blob file into owned storage.
inline Result<Neats> LoadSeriesFile(const std::string& path) {
  return Checked([&] {
    std::vector<uint8_t> bytes = ReadFile(path);
    return Neats::Deserialize(bytes);
  });
}

/// Loads a one-value-per-line decimal text file (the paper's dataset
/// format) behind a Status.
inline Result<ParsedSeries> LoadDecimalSeries(const std::string& path) {
  return Checked([&] { return LoadDecimalFile(path); });
}

}  // namespace neats
