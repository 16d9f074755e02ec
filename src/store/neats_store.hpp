// The serving layer: a long (and growing) series as a set of sealed,
// independently-compressed shards behind one routing index, plus a
// write-ahead hot tail for streaming ingest (the storage-engine deployment
// of Sec. IV-C1, grown into a subsystem).
//
// Shape of the store:
//
//   [ shard 0 ][ shard 1 ] ... [ shard s-1 ][ pending seals ][ hot tail ]
//     sealed codec blobs, immutable            raw chunks       raw vector
//     (owned, or mmap'd zero-copy where        compressing in
//      the codec supports it)                  the background
//
// Every shard is a SealedSeries — any codec of the registry
// (src/codecs/codec_registry.hpp) can serve one, and shards of one store may
// use different codecs. The seal policy decides: kFixed compresses every
// chunk with `options.codec`; kAuto compresses each chunk with every
// candidate codec and keeps the smallest blob, so the store adapts per shard
// to whatever regime the data is in (the paper's comparison table as a live
// engineering choice). The per-shard codec id travels in MANIFEST.neats
// (manifest v2, src/io/manifest.hpp).
//
// Append() buffers into the hot tail; every time the tail reaches
// `shard_size` values a chunk is cut off and handed to the thread pool,
// which compresses it into a new shard in the background (the raw values
// stay queryable until the seal lands, so queries never wait on a
// compressor). Flush() seals the remaining tail, drains the pool and — for
// a directory-backed store — writes one blob per shard plus the manifest;
// blobs and the manifest are fsync'd (write-to-temp + rename + directory
// fsync), so a completed Flush survives power loss. OpenDir() routes by the
// manifest and re-opens every blob zero-copy where its codec supports
// borrowing (Neats, LeCo, NeatsLossyExact), deserializing the rest.
//
// Durability & recovery (docs/ARCHITECTURE.md, "Durability & recovery"):
//
//   - Every file operation routes through a neats::io::FileSystem
//     (NeatsStoreOptions::fs), so the whole layer runs unchanged against
//     the fault-injection backend (io/fault_fs.hpp) in the crash harness.
//   - A directory-backed store write-ahead-logs the hot tail: Append()
//     puts a checksummed record in WAL.neats and fsyncs it before
//     returning, Flush() resets the log once the manifest durably covers
//     everything, and OpenDir() replays surviving records (discarding a
//     torn final record — the expected shape of a crash).
//   - Sealed blobs and the manifest carry CRC32C trailers (manifest v3).
//     OpenDir() verifies each shard against its manifest row and
//     *quarantines* failures — a shard that is corrupt or missing stops
//     serving, but the store still opens, healthy shards answer queries
//     bit-identically, and a query routed into the quarantined range
//     throws a typed Error (StatusCode::kUnavailable) instead of a wrong
//     value. recovery_report() enumerates the damage; Scrub() re-verifies
//     every blob and re-seals quarantined shards whose value range is
//     still covered by intact WAL records.
//
// Every query routes through the in-memory routing index (shard ->
// [first, first+count)) and stitches across shard boundaries:
//
//   Access(i)              one shard lookup + one codec Access
//   AccessBatch(idx, out)  probes of any order: argsorted, grouped per
//                          shard, then resolved by the shard codec's
//                          batch kernel (no prefetch hint: a batch touches
//                          a few pages, and a WILLNEED over the whole
//                          mapping cost more than the probes it served)
//   DecompressRange(s)     per-shard scans, stitched; consecutive ranges
//                          covered by the same shard go to the codec as one
//                          DecompressRanges call, so one cursor serves the
//                          whole group instead of re-seeking per range
//   RangeSum /             exact and corrections-free approximate sums,
//   ApproximateRangeSum    combined across the covered shards
//
// Threading contract: single writer, many readers. One thread at a time may
// mutate the store (Append/Flush/Scrub — they take the store's writer lock);
// any number of threads may run const queries concurrently — with each other,
// with the background seals, *and* with the writer (queries take the reader
// side of the same lock, so they see the topology either before or after a
// mutation, never mid-flight). The scenario engine (src/scenario/) drives
// exactly this shape — concurrent appenders/readers with every read verified
// — under ThreadSanitizer in CI. Moves and destruction still require outside
// quiescence, like any standard container.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codecs/codec_registry.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "core/codec_id.hpp"
#include "core/neats.hpp"
#include "io/checksum.hpp"
#include "io/fs.hpp"
#include "io/manifest.hpp"
#include "io/mmap_file.hpp"
#include "io/text_io.hpp"
#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log_sink.hpp"
#include "obs/metrics.hpp"
#include "store/block_cache.hpp"
#include "store/wal.hpp"

namespace neats {

/// How a chunk's codec is chosen at seal time.
enum class SealPolicy {
  kFixed,  // every shard uses NeatsStoreOptions::codec
  kAuto,   // compress with every candidate codec, keep the smallest blob
};

/// Tuning knobs of a NeatsStore.
struct NeatsStoreOptions {
  /// Values per sealed shard. Smaller shards seal sooner and parallelize
  /// better; larger shards amortize per-shard metadata and compress a bit
  /// tighter. Ignored by OpenDir (the manifest's value wins, so a store
  /// keeps its geometry across reopen).
  uint64_t shard_size = uint64_t{1} << 16;

  /// Compression options passed to the sealing codec (NeaTS uses all of
  /// them; other codecs take what applies, e.g. partition epsilons for
  /// NeatsLossyExact).
  NeatsOptions neats;

  /// Worker threads of the background sealer. 1 = a pool with no extra
  /// workers (seals run inline at the Append that cuts the chunk);
  /// 0 = one per hardware thread.
  int seal_threads = 1;

  /// Codec selection per sealed chunk (see SealPolicy).
  SealPolicy seal_policy = SealPolicy::kFixed;

  /// The codec of every shard under SealPolicy::kFixed.
  CodecId codec = CodecId::kNeats;

  /// Candidate set of SealPolicy::kAuto, tried in order (a strictly smaller
  /// blob wins; ties keep the earlier candidate, so the choice is
  /// deterministic). Empty = every registered codec.
  std::vector<CodecId> codec_candidates;

  /// The filesystem every store file goes through. Null = the production
  /// POSIX backend; the crash harness passes an io::FaultFs. Must outlive
  /// the store.
  io::FileSystem* fs = nullptr;

  /// Write-ahead-log the hot tail of a directory-backed store (Append
  /// fsyncs the record before acking). Disabling trades the pre-Flush
  /// crash guarantee for one fsync less per Append.
  bool wal = true;

  /// Parallel query fan-out: a DecompressRanges / RangeSum spanning
  /// several sealed shards and at least this many sealed values dispatches
  /// one task per covered shard on the seal pool (queries stay sequential
  /// below the threshold — fan-out has dispatch overhead, and small
  /// queries are cursor-bound, not core-bound). 0 disables fan-out. Only
  /// helps with seal_threads > 1: the pool the sealer shares is the pool
  /// the fan-out rides.
  uint64_t parallel_query_values = uint64_t{1} << 17;

  /// Byte budget of the decoded-block LRU cache (store/block_cache.hpp)
  /// consulted by Access/AccessBatch before any block-structured codec
  /// (ALP, Gorilla, Chimp) decode; 0 disables it. Shards of codecs with
  /// native point access (Neats, LeCo) never touch the cache. The default
  /// holds ~1M decoded values — enough to pin the hot blocks of a
  /// point-lookup storm while staying small next to the mapped blobs.
  uint64_t block_cache_bytes = uint64_t{8} << 20;

  // --- Observability (src/obs/, docs/ARCHITECTURE.md "Observability") ----

  /// Maintain the store's metrics registry and flight recorder: per-op
  /// latency histograms, op/WAL/seal/quarantine counters, StatsSnapshot()
  /// and TraceDump(). Recording is per-thread relaxed-atomic — the
  /// bench_report overhead guard holds the scalar-access cost under 3% —
  /// but a store that wants the last nanosecond can turn it all off.
  bool metrics = true;

  /// Scalar Access latency sampling: 1 in `latency_sample_every` accesses
  /// is timed into the "access" histogram (counters always count every
  /// op). Batch and cold ops are always timed — their per-call cost is
  /// amortized. 1 = time every access.
  uint32_t latency_sample_every = 64;

  /// Flight-recorder ring capacity in events (rounded up to a power of
  /// two); 0 disables trace recording. Sampled ops, cold ops, and every
  /// error land in the ring; see NeatsStore::TraceDump().
  size_t trace_events = 256;

  /// Structured log hook for quarantine / Scrub / WAL-replay events
  /// (obs::LogSink). Default (empty) prints one line per event to stderr;
  /// obs::NullLogSink() silences them. Ignored when metrics = false.
  obs::LogSink log_sink;
};

namespace store_internal {

/// The store's wiring into the observability layer: one registry with
/// every metric id resolved at construction (so recording sites index
/// arrays instead of hashing names), the flight recorder, and the log
/// sink. Heap-owned by the store so background seal tasks can capture the
/// stable pointer across store moves.
struct StoreObs {
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder;
  obs::LogSink sink;
  uint32_t sample_every;

  // Counter / gauge / histogram ids, resolved once.
  obs::CounterId c_access, c_batch_calls, c_batch_probes, c_range_calls,
      c_range_values, c_sum_calls, c_sum_values, c_approx_calls,
      c_append_calls, c_append_values, c_bytes_in, c_wal_records,
      c_wal_fsyncs, c_wal_replayed, c_flush, c_seals, c_seal_bytes,
      c_scrub_calls, c_scrub_repaired, c_quarantine_in, c_quarantine_out,
      c_errors;
  obs::CounterId c_seal_codec[kNumCodecIds];
  obs::GaugeId g_size, g_shards, g_pending, g_tail, g_quarantined,
      g_cache_entries, g_cache_bytes;
  obs::HistogramId h_access, h_batch, h_range, h_sum, h_append, h_flush,
      h_seal, h_scrub;

  StoreObs(uint32_t sample, size_t trace_events, obs::LogSink log_sink)
      : recorder(trace_events == 0 ? 2 : trace_events),
        sink(log_sink ? std::move(log_sink) : obs::LogSink(obs::StderrLog)),
        sample_every(sample == 0 ? 1 : sample),
        trace_enabled_(trace_events > 0) {
    c_access = registry.AddCounter("access.ops");
    c_batch_calls = registry.AddCounter("access_batch.calls");
    c_batch_probes = registry.AddCounter("access_batch.probes");
    c_range_calls = registry.AddCounter("range.calls");
    c_range_values = registry.AddCounter("range.values");
    c_sum_calls = registry.AddCounter("range_sum.calls");
    c_sum_values = registry.AddCounter("range_sum.values");
    c_approx_calls = registry.AddCounter("approx_sum.calls");
    c_append_calls = registry.AddCounter("append.calls");
    c_append_values = registry.AddCounter("append.values");
    c_bytes_in = registry.AddCounter("bytes.in");
    c_wal_records = registry.AddCounter("wal.records");
    c_wal_fsyncs = registry.AddCounter("wal.fsyncs");
    c_wal_replayed = registry.AddCounter("wal.replayed_records");
    c_flush = registry.AddCounter("flush.calls");
    c_seals = registry.AddCounter("seal.count");
    c_seal_bytes = registry.AddCounter("seal.blob_bytes");
    c_scrub_calls = registry.AddCounter("scrub.calls");
    c_scrub_repaired = registry.AddCounter("scrub.repaired");
    c_quarantine_in = registry.AddCounter("quarantine.entered");
    c_quarantine_out = registry.AddCounter("quarantine.exited");
    c_errors = registry.AddCounter("errors");
    for (uint32_t id = 0; id < kNumCodecIds; ++id) {
      c_seal_codec[id] = registry.AddCounter(
          std::string("seal.codec.") + CodecName(static_cast<CodecId>(id)));
    }
    g_size = registry.AddGauge("store.values");
    g_shards = registry.AddGauge("store.shards");
    g_pending = registry.AddGauge("store.pending_seals");
    g_tail = registry.AddGauge("store.tail_values");
    g_quarantined = registry.AddGauge("store.quarantined_shards");
    g_cache_entries = registry.AddGauge("cache.entries");
    g_cache_bytes = registry.AddGauge("cache.bytes");
    h_access = registry.AddHistogram("access");
    h_batch = registry.AddHistogram("access_batch");
    h_range = registry.AddHistogram("range");
    h_sum = registry.AddHistogram("range_sum");
    h_append = registry.AddHistogram("append");
    h_flush = registry.AddHistogram("flush");
    h_seal = registry.AddHistogram("seal");
    h_scrub = registry.AddHistogram("scrub");
  }

  bool trace_enabled() const { return trace_enabled_; }

  void Trace(obs::EventId op, obs::TraceTier tier, uint16_t status,
             uint32_t codec, uint64_t shard, uint64_t arg, uint64_t len,
             uint64_t dur_ns) {
    if (trace_enabled_) {
      recorder.Record(op, tier, status, codec, shard, arg, len, dur_ns);
    }
  }

  /// A recovery-class event: counted into the trace ring AND reported
  /// through the structured log hook.
  void Log(obs::EventId id, obs::Severity sev, uint64_t shard,
           std::string msg) {
    Trace(id, obs::TraceTier::kNone, 0, obs::TraceEvent::kNoCodec, shard,
          0, 0, 0);
    sink(obs::LogEvent{id, sev, shard, std::move(msg)});
  }

  /// A failed op: counted, traced with its status code, never logged (a
  /// kUnavailable storm must not flood the sink — the quarantine that
  /// caused it already did, with a trace dump).
  void Error(obs::EventId op, uint64_t arg, uint16_t status) {
    registry.Count(c_errors);
    Trace(op, obs::TraceTier::kNone, status, obs::TraceEvent::kNoCodec,
          obs::kNoShard, arg, 0, 0);
  }

  /// Emits the flight recorder's recent events through the log sink — the
  /// dump-on-quarantine path, so degraded states arrive with their
  /// last-N-operations context.
  void DumpTrace(const std::string& why) {
    sink(obs::LogEvent{obs::EventId::kTraceDump, obs::Severity::kWarn,
                       obs::kNoShard,
                       why + "; recent operations:\n" +
                           obs::TraceText(recorder.Dump())});
  }

 private:
  bool trace_enabled_;
};

}  // namespace store_internal

/// A sharded, append-able, randomly-accessible compressed series store.
class NeatsStore {
 public:
  /// What OpenDir()/Scrub() found wrong with a store directory and what
  /// they did about it. Empty everywhere = a fully healthy store.
  struct RepairReport {
    /// One quarantined shard: its routing row and why it stopped serving.
    struct ShardState {
      size_t shard = 0;      // index (and blob file ordinal)
      uint64_t first = 0;    // global index range the shard covers
      uint64_t count = 0;
      CodecId codec = CodecId::kNeats;
      std::string error;     // what the verification failed with
      /// The structured-log/flight-recorder event id this entry correlates
      /// with (obs::EventId) — a log sink and a repair report describing
      /// the same incident agree on it.
      obs::EventId event = obs::EventId::kQuarantine;
    };
    std::vector<ShardState> quarantined;  // shards currently not serving
    std::vector<size_t> repaired;         // shards Scrub() re-sealed
    std::vector<std::string> warnings;    // non-fatal recovery notes
  };

  NeatsStore() : NeatsStore(NeatsStoreOptions{}) {}

  explicit NeatsStore(const NeatsStoreOptions& options)
      : options_(options),
        fs_(options.fs != nullptr ? options.fs : &io::PosixFileSystem()),
        pool_(std::make_unique<ThreadPool>(
            ResolveNumThreads(options.seal_threads))) {
    NEATS_REQUIRE(options_.shard_size > 0, "shard_size must be positive");
    if (options_.block_cache_bytes > 0) {
      cache_ = std::make_unique<DecodedBlockCache>(options_.block_cache_bytes);
    }
    if (options_.metrics) {
      obs_ = std::make_unique<store_internal::StoreObs>(
          options_.latency_sample_every, options_.trace_events,
          options_.log_sink);
    }
    // Validated here, where the caller can catch — a bad id discovered
    // inside a background seal task would terminate the process instead.
    NEATS_REQUIRE(IsValidCodecId(static_cast<uint64_t>(options_.codec)),
                  "unknown codec id");
    for (CodecId id : options_.codec_candidates) {
      NEATS_REQUIRE(IsValidCodecId(static_cast<uint64_t>(id)),
                    "unknown codec id");
    }
  }

  /// A directory-backed store rooted at `dir` (created if missing): sealed
  /// shards are written there as codec blobs and served zero-copy via mmap
  /// once sealed; Flush() writes the manifest that OpenDir routes by.
  /// Refuses a directory that already holds a manifest — a fresh store's
  /// seals would overwrite the existing store's blobs out from under it;
  /// reopen with OpenDir (or clear the directory) instead. Stale files an
  /// abandoned store left behind (a WAL, a manifest temp) are removed.
  static NeatsStore CreateDir(const std::string& dir,
                              const NeatsStoreOptions& options = {}) {
    NeatsStore store(options);
    store.fs_->CreateDirs(dir);
    NEATS_REQUIRE(!store.fs_->Exists(dir + "/" + StoreManifest::FileName()),
                  "directory already holds a store — use OpenDir");
    store.dir_ = dir;
    store.fs_->Remove(dir + "/" + WalFileName());
    store.fs_->Remove(dir + "/" + StoreManifest::FileName() +
                      std::string(".tmp"));
    // Durably commit an empty manifest right away, so the directory is
    // OpenDir-able after a crash at ANY later point — including before the
    // first Flush(), when the WAL holds the only copy of acked appends.
    store.WriteManifest();
    return store;
  }

  /// Opens a store directory: parses the manifest (version 3 only), verifies
  /// and opens every shard blob through the codec registry — zero-copy where
  /// the shard's codec supports borrowing — and replays the write-ahead
  /// log over the manifested prefix. A shard that fails verification
  /// (missing blob, size mismatch, bad checksum, codec rejection) is
  /// *quarantined*, not fatal: the store opens, healthy shards serve, and
  /// recovery_report() says what happened. Only a damaged manifest — the
  /// routing root itself — still throws. `options` supplies the
  /// compression knobs *and seal policy* for future seals (the manifest
  /// persists per-shard geometry and codec ids, not the policy that chose
  /// them; the manifest's shard_size wins).
  static NeatsStore OpenDir(const std::string& dir,
                            const NeatsStoreOptions& options = {}) {
    NeatsStore store(options);
    store.dir_ = dir;
    io::FileSystem& fs = *store.fs_;
    const std::string manifest_path = dir + "/" + StoreManifest::FileName();
    const std::string tmp = manifest_path + ".tmp";
    if (fs.Exists(tmp)) {
      // A crash between the temp write and the rename left this behind;
      // the real manifest is still authoritative.
      fs.Remove(tmp);
      store.report_.warnings.push_back(
          "removed stale manifest temp file left by an interrupted Flush");
    }
    const io::MappedRegion manifest_bytes = fs.OpenRead(manifest_path);
    const StoreManifest manifest =
        StoreManifest::Deserialize(manifest_bytes.bytes());
    if (store.obs_ != nullptr) {
      // Everything collected so far (a stale temp file) goes through the
      // structured log hook; RecoverWal below reports its own warnings
      // under their specific event ids.
      for (const std::string& w : store.report_.warnings) {
        store.obs_->Log(obs::EventId::kOpenWarning, obs::Severity::kWarn,
                        obs::kNoShard, w);
      }
    }
    store.options_.shard_size = manifest.shard_size;
    store.shards_.reserve(manifest.shards.size());
    for (size_t s = 0; s < manifest.shards.size(); ++s) {
      store.shards_.push_back(store.OpenShard(s, manifest.shards[s]));
    }
    store.sealed_total_ = manifest.total();
    store.manifest_total_ = manifest.total();
    store.next_ordinal_ = store.shards_.size();
    store.RecoverWal();
    return store;
  }

  NeatsStore(NeatsStore&&) = default;

  /// Move assignment first drains this store's own background seals: their
  /// tasks hold pointers into the pending chunks about to be destroyed, so
  /// a memberwise move while a seal is in flight would be a use-after-free.
  NeatsStore& operator=(NeatsStore&& o) {
    if (this != &o) {
      if (pool_ != nullptr) pool_->DrainTasks();
      // The destination keeps its own lock object (a moved-from source may
      // have lost its to a move construction); both stores must be quiescent
      // here anyway.
      if (mu_ == nullptr) mu_ = std::make_unique<std::shared_mutex>();
      options_ = std::move(o.options_);
      dir_ = std::move(o.dir_);
      fs_ = o.fs_;
      shards_ = std::move(o.shards_);
      sealed_total_ = o.sealed_total_;
      manifest_total_ = o.manifest_total_;
      pending_ = std::move(o.pending_);
      pending_total_ = o.pending_total_;
      tail_ = std::move(o.tail_);
      next_ordinal_ = o.next_ordinal_;
      wal_ = std::move(o.wal_);
      wal_dirty_ = o.wal_dirty_;
      report_ = std::move(o.report_);
      obs_ = std::move(o.obs_);
      cache_ = std::move(o.cache_);
      pool_ = std::move(o.pool_);
    }
    return *this;
  }

  /// Waits for in-flight background seals (their tasks reference the
  /// pending chunks this object owns). Does NOT flush: an unflushed
  /// directory store simply keeps its already-written shard blobs and the
  /// previous manifest.
  ~NeatsStore() {
    if (pool_ != nullptr) pool_->DrainTasks();
  }

  // --- Ingest -------------------------------------------------------------

  /// Appends `values`; every full `shard_size` chunk is sealed into a new
  /// shard in the background and only the sub-shard remainder is buffered
  /// in the hot tail. Full chunks are cut straight from the incoming span
  /// (after topping up whatever the tail already holds), so a bulk append
  /// of many shards' worth of data is linear — the tail is never repeatedly
  /// erased from the front. Also promotes any seals that completed since
  /// the last call, so the sealed prefix advances without ever blocking the
  /// append path on a compressor.
  ///
  /// Directory-backed stores log the values to the WAL and fsync it before
  /// anything else — when Append returns, the data survives a crash.
  void Append(std::span<const int64_t> values) {
    std::unique_lock<std::shared_mutex> lock(*mu_);
    store_internal::StoreObs* ob = obs_.get();
    if (ob == nullptr) {
      PromoteSealed();
      LogToWal(values);
      AppendImpl(values);
      return;
    }
    const uint64_t at = SizeImpl();
    try {
      const uint64_t t0 = obs::NowNs();
      PromoteSealed();
      LogToWal(values);
      AppendImpl(values);
      const uint64_t dur = obs::NowNs() - t0;
      // Counted after the body so the counters mean *acked* appends (a
      // failed WAL write rethrows without mutating the store).
      ob->registry.Count(ob->c_append_calls);
      ob->registry.Count(ob->c_append_values, values.size());
      ob->registry.Count(ob->c_bytes_in, values.size() * sizeof(int64_t));
      ob->registry.Record(ob->h_append, dur);
      ob->Trace(obs::EventId::kAppend, obs::TraceTier::kNone, 0,
                obs::TraceEvent::kNoCodec, obs::kNoShard, at, values.size(),
                dur);
    } catch (const Error& e) {
      ob->Error(obs::EventId::kAppend, at, static_cast<uint16_t>(e.code()));
      throw;
    }
  }

  /// Seals the remaining tail (as a final, possibly partial shard), drains
  /// the background sealer, and — for a directory-backed store — writes the
  /// manifest durably and resets the WAL it now supersedes. Afterwards
  /// every value lives in a sealed shard; appending may continue (new
  /// shards, manifest rewritten by the next Flush).
  void Flush() {
    std::unique_lock<std::shared_mutex> lock(*mu_);
    store_internal::StoreObs* ob = obs_.get();
    const uint64_t t0 = ob != nullptr ? obs::NowNs() : 0;
    try {
      FlushLocked();
    } catch (const Error& e) {
      if (ob != nullptr) {
        ob->Error(obs::EventId::kFlush, SizeImpl(),
                  static_cast<uint16_t>(e.code()));
      }
      throw;
    }
    if (ob != nullptr) {
      const uint64_t dur = obs::NowNs() - t0;
      ob->registry.Count(ob->c_flush);
      ob->registry.Record(ob->h_flush, dur);
      ob->Trace(obs::EventId::kFlush, obs::TraceTier::kNone, 0,
                obs::TraceEvent::kNoCodec, obs::kNoShard, SizeImpl(), 0, dur);
    }
  }

  // --- Recovery -----------------------------------------------------------

  /// What OpenDir() and the last Scrub() found and did. Returns a reference
  /// into the store, so read it quiesced — not while another thread may be
  /// inside Scrub() rewriting it.
  const RepairReport& recovery_report() const { return report_; }

  /// True while any shard is quarantined (queries into its range throw
  /// kUnavailable; everything else keeps serving).
  bool degraded() const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    return DegradedImpl();
  }

  /// Re-verifies every healthy shard blob against its recorded checksum
  /// (quarantining new failures) and tries to repair quarantined shards:
  /// a shard whose value range is still fully covered by intact WAL
  /// records is re-compressed with its original codec, written durably,
  /// and returned to service; the manifest is rewritten when anything was
  /// repaired. Returns the updated report — `repaired` lists the shards
  /// brought back, `quarantined` what is still down.
  const RepairReport& Scrub() {
    std::unique_lock<std::shared_mutex> lock(*mu_);
    NEATS_REQUIRE(!dir_.empty(), "Scrub requires a directory-backed store");
    store_internal::StoreObs* ob = obs_.get();
    const uint64_t t0 = ob != nullptr ? obs::NowNs() : 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].series == nullptr) continue;
      try {
        VerifyShardBlob(s);
      } catch (const std::exception& e) {
        Quarantine(s, e.what());
      }
    }
    RepairFromWal();
    RebuildQuarantineList();
    if (ob != nullptr) {
      const uint64_t dur = obs::NowNs() - t0;
      ob->registry.Count(ob->c_scrub_calls);
      ob->registry.Record(ob->h_scrub, dur);
      ob->Trace(obs::EventId::kScrub, obs::TraceTier::kNone, 0,
                obs::TraceEvent::kNoCodec, obs::kNoShard, shards_.size(),
                report_.repaired.size(), dur);
    }
    return report_;
  }

  // --- Introspection ------------------------------------------------------

  /// Total number of values in the store (sealed + sealing + hot tail).
  uint64_t size() const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    return SizeImpl();
  }

  /// Sealed-and-promoted shards (everything, after a Flush).
  size_t num_shards() const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    return shards_.size();
  }

  /// The codec serving sealed shard `s` (what the manifest records).
  CodecId shard_codec(size_t s) const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    return shards_[s].codec;
  }

  /// Chunks currently compressing in the background.
  size_t num_pending_seals() const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    return pending_.size();
  }

  /// Values still in the raw hot tail.
  uint64_t tail_size() const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    return tail_.size();
  }

  /// Values per sealed shard (from the options, or the manifest after
  /// OpenDir).
  uint64_t shard_size() const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    return options_.shard_size;
  }

  /// Hit/miss/eviction counters and current footprint of the decoded-block
  /// cache; all zeros when it is disabled (block_cache_bytes = 0).
  DecodedBlockCache::Stats block_cache_stats() const {
    return cache_ != nullptr ? cache_->stats() : DecodedBlockCache::Stats{};
  }

  /// True when the store maintains its metrics registry and flight
  /// recorder (NeatsStoreOptions::metrics).
  bool metrics_enabled() const { return obs_ != nullptr; }

  /// A merged, point-in-time view of every store metric: exact op/WAL/
  /// seal/quarantine counters, sampled per-op latency histograms, and
  /// current-topology gauges. The decoded-block cache's own counters are
  /// folded in as `cache.*` rows and a derived `bytes.out` (8 bytes per
  /// value served through Access/AccessBatch/ranges/sums) rides along, so
  /// one snapshot is the whole exposition surface. Empty when metrics are
  /// disabled. Safe concurrently with queries and writers; totals are
  /// exact for operations that happened-before the call.
  obs::MetricsSnapshot StatsSnapshot() const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    if (obs_ == nullptr) return {};
    store_internal::StoreObs& ob = *obs_;
    ob.registry.SetGauge(ob.g_size, static_cast<int64_t>(SizeImpl()));
    ob.registry.SetGauge(ob.g_shards, static_cast<int64_t>(shards_.size()));
    ob.registry.SetGauge(ob.g_pending,
                         static_cast<int64_t>(pending_.size()));
    ob.registry.SetGauge(ob.g_tail, static_cast<int64_t>(tail_.size()));
    int64_t quarantined = 0;
    for (const Shard& s : shards_) {
      if (s.series == nullptr) ++quarantined;
    }
    ob.registry.SetGauge(ob.g_quarantined, quarantined);
    const DecodedBlockCache::Stats cs =
        cache_ != nullptr ? cache_->stats() : DecodedBlockCache::Stats{};
    ob.registry.SetGauge(ob.g_cache_entries,
                         static_cast<int64_t>(cs.entries));
    ob.registry.SetGauge(ob.g_cache_bytes, static_cast<int64_t>(cs.bytes));
    obs::MetricsSnapshot snap = ob.registry.Snapshot();
    snap.counters.emplace_back("cache.hits", cs.hits);
    snap.counters.emplace_back("cache.misses", cs.misses);
    snap.counters.emplace_back("cache.evictions", cs.evictions);
    const uint64_t served = *snap.counter("access.ops") +
                            *snap.counter("access_batch.probes") +
                            *snap.counter("range.values") +
                            *snap.counter("range_sum.values");
    snap.counters.emplace_back("bytes.out", served * sizeof(int64_t));
    return snap;
  }

  /// The flight recorder's surviving trace events, oldest-first; empty
  /// when metrics or tracing (NeatsStoreOptions::trace_events = 0) are
  /// off. The store dumps the same ring through the log sink whenever a
  /// shard is quarantined at runtime.
  std::vector<obs::TraceEvent> TraceDump() const {
    return obs_ != nullptr ? obs_->recorder.Dump()
                           : std::vector<obs::TraceEvent>{};
  }

  /// Compressed size of the sealed shards plus 64 bits per not-yet-sealed
  /// value (pending chunks and the hot tail are raw; a quarantined shard
  /// counts as raw too — its compressed form is not trustworthy).
  size_t SizeInBits() const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    size_t bits = (pending_total_ + tail_.size()) * 64;
    for (const Shard& s : shards_) {
      bits += s.series != nullptr ? s.series->SizeInBits() : s.count * 64;
    }
    return bits;
  }

  // --- Queries ------------------------------------------------------------

  /// The value at global index i: one routing lookup, then the covering
  /// shard codec's Access (or a raw read from a pending chunk / the tail).
  /// Block-structured shards answer from the decoded-block cache when it
  /// holds the containing block (a hash probe + one array read — Neats-class
  /// latency), decoding and caching the block otherwise.
  int64_t Access(uint64_t i) const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    NEATS_DCHECK(i < SizeImpl());
    store_internal::StoreObs* ob = obs_.get();
    if (ob == nullptr) return AccessLocked(i, nullptr);
    try {
      // The counter is exact; the clock pair is sampled (1 in sample_every
      // per thread) so timing costs a fraction of a nanosecond amortized.
      // One combined slab lookup — the bench report's metrics_overhead
      // gate holds this whole branch to <3% of the access itself.
      if (!ob->registry.CountAndTick(ob->c_access, ob->h_access,
                                     ob->sample_every)) {
        return AccessLocked(i, nullptr);
      }
      obs::TraceEvent ev;
      const uint64_t t0 = obs::NowNs();
      const int64_t v = AccessLocked(i, &ev);
      const uint64_t dur = obs::NowNs() - t0;
      ob->registry.Record(ob->h_access, dur);
      ob->Trace(obs::EventId::kAccess, ev.tier, 0, ev.codec, ev.shard, i, 1,
                dur);
      return v;
    } catch (const Error& e) {
      ob->Error(obs::EventId::kAccess, i, static_cast<uint16_t>(e.code()));
      throw;
    }
  }

  /// Batched point queries, any probe order, duplicates allowed; every
  /// probe must be < size(). Probes are argsorted, grouped per shard, and
  /// each shard group is resolved by the shard codec's batch kernel; out[j]
  /// receives the value at idx[j] (the sort is internal, results come back
  /// in input order).
  void AccessBatch(std::span<const uint64_t> idx,
                   std::span<int64_t> out) const {
    NEATS_DCHECK(idx.size() == out.size());
    if (idx.empty()) return;
    std::shared_lock<std::shared_mutex> lock(*mu_);
    [[maybe_unused]] const size_t served = AccessBatchObserved(idx, out);
    NEATS_DCHECK(served == idx.size());
  }

  /// AccessBatch for probes that may run past the end, in one reader-lock
  /// acquisition: `*size_seen` receives the store size the batch was
  /// served at, probes at or past it are skipped (their out[j] is left
  /// untouched), and the rest are answered as AccessBatch answers them,
  /// with the same metrics. Without `wait` the lock is only tried: when a
  /// writer holds it (Append across its WAL fsync, Flush and Scrub for
  /// seconds) this returns false at once and serves nothing, which is what
  /// lets the server's IO thread read through here without ever stalling
  /// behind a writer. With `wait` it blocks like every other query and
  /// always returns true.
  bool TryAccessBatch(std::span<const uint64_t> idx, std::span<int64_t> out,
                      uint64_t* size_seen, bool wait = false) const {
    NEATS_DCHECK(idx.size() == out.size());
    std::shared_lock<std::shared_mutex> lock(*mu_, std::defer_lock);
    if (wait) {
      lock.lock();
    } else if (!lock.try_lock()) {
      return false;
    }
    *size_seen = SizeImpl();
    if (!idx.empty()) AccessBatchObserved(idx, out);
    return true;
  }

 private:
  /// AccessBatchLocked plus the access_batch metrics and trace event.
  size_t AccessBatchObserved(std::span<const uint64_t> idx,
                             std::span<int64_t> out) const {
    store_internal::StoreObs* ob = obs_.get();
    if (ob == nullptr) return AccessBatchLocked(idx, out);
    ob->registry.Count(ob->c_batch_calls);
    try {
      const uint64_t t0 = obs::NowNs();
      const size_t served = AccessBatchLocked(idx, out);
      const uint64_t dur = obs::NowNs() - t0;
      ob->registry.Count(ob->c_batch_probes, served);
      ob->registry.Record(ob->h_batch, dur);
      ob->Trace(obs::EventId::kAccessBatch, obs::TraceTier::kNone, 0,
                obs::TraceEvent::kNoCodec, obs::kNoShard, idx[0], idx.size(),
                dur);
      return served;
    } catch (const Error& e) {
      ob->Error(obs::EventId::kAccessBatch, idx[0],
                static_cast<uint16_t>(e.code()));
      throw;
    }
  }

  /// AccessBatch body under the reader lock: serves the probes below
  /// SizeImpl() and returns how many there were (the rest sort last and
  /// are skipped).
  size_t AccessBatchLocked(std::span<const uint64_t> idx,
                           std::span<int64_t> out) const {
    std::vector<size_t> order(idx.size());
    for (size_t j = 0; j < order.size(); ++j) order[j] = j;
    std::sort(order.begin(), order.end(),
              [&idx](size_t a, size_t b) { return idx[a] < idx[b]; });
    std::vector<uint64_t> local;
    std::vector<int64_t> local_out;
    const uint64_t size = SizeImpl();
    size_t p = 0;
    while (p < idx.size() && idx[order[p]] < size) {
      const uint64_t k = idx[order[p]];
      if (k >= sealed_total_) {  // pending chunks + tail: raw reads
        out[order[p]] = AccessUnsealed(k);
        ++p;
        continue;
      }
      const Shard& s = HealthyShardOf(k);
      const uint64_t end = s.first + s.count;
      size_t q = p;
      local.clear();
      while (q < idx.size() && idx[order[q]] < end) {
        local.push_back(idx[order[q]] - s.first);
        ++q;
      }
      local_out.resize(local.size());
      const uint64_t bv =
          cache_ != nullptr ? s.series->BlockValues() : uint64_t{0};
      if (bv > 0) {
        // Block-structured shard: answer each touched block's probes from
        // one cached (or once-decoded) block.
        size_t a = 0;
        while (a < local.size()) {
          const uint64_t blk = local[a] / bv;
          size_t z = a;
          while (z < local.size() && local[z] / bv == blk) ++z;
          const auto values = CachedBlock(s, blk);
          for (size_t j = a; j < z; ++j) {
            local_out[j] = (*values)[local[j] % bv];
          }
          a = z;
        }
      } else {
        s.series->AccessBatch(local, local_out.data());
      }
      for (size_t j = p; j < q; ++j) out[order[j]] = local_out[j - p];
      p = q;
    }
    return p;
  }

 public:
  /// Decompresses values[from, from + len) into out, stitching across shard
  /// boundaries (per-shard scans; raw memcpy past the sealed prefix).
  void DecompressRange(uint64_t from, uint64_t len, int64_t* out) const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    store_internal::StoreObs* ob = obs_.get();
    if (ob == nullptr) {
      DecompressRangeImpl(from, len, out);
      return;
    }
    ob->registry.Count(ob->c_range_calls);
    ob->registry.Count(ob->c_range_values, len);
    try {
      const uint64_t t0 = obs::NowNs();
      DecompressRangeImpl(from, len, out);
      const uint64_t dur = obs::NowNs() - t0;
      ob->registry.Record(ob->h_range, dur);
      ob->Trace(obs::EventId::kRange, obs::TraceTier::kNone, 0,
                obs::TraceEvent::kNoCodec, obs::kNoShard, from, len, dur);
    } catch (const Error& e) {
      ob->Error(obs::EventId::kRange, from, static_cast<uint16_t>(e.code()));
      throw;
    }
  }

  /// Multi-range decompression: every range's values, concatenated into
  /// `out` (sized to the sum of the range lengths). Consecutive (sub)ranges
  /// covered by the same sealed shard are batched into one codec-level
  /// DecompressRanges call, so the codec reuses a single cursor across the
  /// group (its monotone-seek hop chain) instead of paying a fresh rank per
  /// range; each routed shard also gets a WILLNEED prefetch hint before its
  /// group is decoded.
  void DecompressRanges(std::span<const IndexRange> ranges,
                        int64_t* out) const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    store_internal::StoreObs* ob = obs_.get();
    if (ob == nullptr) {
      DecompressRangesLocked(ranges, out);
      return;
    }
    uint64_t values = 0;
    for (const IndexRange& r : ranges) values += r.len;
    ob->registry.Count(ob->c_range_calls);
    ob->registry.Count(ob->c_range_values, values);
    try {
      const uint64_t t0 = obs::NowNs();
      DecompressRangesLocked(ranges, out);
      const uint64_t dur = obs::NowNs() - t0;
      ob->registry.Record(ob->h_range, dur);
      ob->Trace(obs::EventId::kRange, obs::TraceTier::kNone, 0,
                obs::TraceEvent::kNoCodec, obs::kNoShard,
                ranges.empty() ? 0 : ranges[0].from, values, dur);
    } catch (const Error& e) {
      ob->Error(obs::EventId::kRange, ranges.empty() ? 0 : ranges[0].from,
                static_cast<uint16_t>(e.code()));
      throw;
    }
  }

 private:
  struct Shard;  // defined below, with the rest of the shard machinery

  /// One sealed shard's slice of a multi-range query: the shard-local
  /// subranges that landed on it consecutively and the output cursor where
  /// their values go. Groups are independent by construction (disjoint
  /// output spans, distinct series objects), which is what makes the
  /// fan-out below embarrassingly parallel.
  struct ShardGroup {
    const Shard* shard = nullptr;
    int64_t* out = nullptr;
    std::vector<IndexRange> local;  // shard-local coordinates
    uint64_t values = 0;
  };

  /// Runs the per-shard groups of a multi-range query, fanning out one
  /// task per group on the seal pool when the query is big enough (see
  /// NeatsStoreOptions::parallel_query_values). Quarantine was already
  /// rejected during routing (HealthyShardOf throws before any task is
  /// spawned), so body exceptions are the rare codec/I/O kind — captured
  /// and rethrown on the calling thread, because pool bodies must not
  /// throw. Sequential and parallel execution produce identical bytes;
  /// only scheduling differs.
  void ExecuteShardGroups(std::span<ShardGroup> groups) const {
    uint64_t sealed_values = 0;
    for (const ShardGroup& g : groups) sealed_values += g.values;
    const uint64_t threshold = options_.parallel_query_values;
    if (threshold == 0 || groups.size() < 2 || sealed_values < threshold ||
        pool_ == nullptr || pool_->num_threads() < 2) {
      for (const ShardGroup& g : groups) {
        g.shard->series->DecompressRanges(g.local, g.out);
      }
      return;
    }
    std::mutex err_mu;
    std::exception_ptr err;
    pool_->ParallelFor(groups.size(), [&](size_t i) {
      try {
        const ShardGroup& g = groups[i];
        g.shard->series->DecompressRanges(g.local, g.out);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    });
    if (err) std::rethrow_exception(err);
  }

  /// DecompressRanges body under the reader lock (either side: RebuildWal
  /// calls in here holding the writer lock). Builds the per-shard groups
  /// sequentially — routing errors (quarantine) surface here, before any
  /// parallel work starts — then executes them via ExecuteShardGroups.
  /// Not-yet-sealed spans decode inline during the build; they live in
  /// plain buffers and are bounded by the tail, never worth a task.
  void DecompressRangesLocked(std::span<const IndexRange> ranges,
                              int64_t* out) const {
    std::vector<ShardGroup> groups;
    std::vector<const Shard*> advised;  // one WILLNEED per shard per call
    const Shard* cur = nullptr;  // group-continuity: an unsealed span or a
                                 // shard switch ends the open group
    for (const IndexRange& r : ranges) {
      uint64_t from = r.from;
      uint64_t len = r.len;
      NEATS_DCHECK(from + len <= SizeImpl());
      while (len > 0) {
        if (from < sealed_total_) {
          const Shard& s = HealthyShardOf(from);
          const uint64_t take = std::min(len, s.first + s.count - from);
          if (cur != &s) {
            cur = &s;
            // Unsorted ranges can revisit a shard in a later group; advise
            // each routed shard once per call, not once per group.
            if (std::find(advised.begin(), advised.end(), &s) ==
                advised.end()) {
              advised.push_back(&s);
              s.map.Advise(MmapFile::Advice::kWillNeed);
            }
            groups.push_back(ShardGroup{&s, out, {}, 0});
          }
          groups.back().local.push_back({from - s.first, take});
          groups.back().values += take;
          out += take;
          from += take;
          len -= take;
          continue;
        }
        cur = nullptr;
        const uint64_t took = DecompressPrefix(from, len, out);
        from += took;
        len -= took;
        out += took;
      }
    }
    ExecuteShardGroups(groups);
  }

 public:
  /// Exact sum over values[from, from + len), combined across shards and
  /// wrapping modulo 2^64 (two's complement).
  int64_t RangeSum(uint64_t from, uint64_t len) const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    store_internal::StoreObs* ob = obs_.get();
    if (ob == nullptr) return RangeSumLocked(from, len);
    ob->registry.Count(ob->c_sum_calls);
    ob->registry.Count(ob->c_sum_values, len);
    try {
      const uint64_t t0 = obs::NowNs();
      const int64_t sum = RangeSumLocked(from, len);
      const uint64_t dur = obs::NowNs() - t0;
      ob->registry.Record(ob->h_sum, dur);
      ob->Trace(obs::EventId::kRangeSum, obs::TraceTier::kNone, 0,
                obs::TraceEvent::kNoCodec, obs::kNoShard, from, len, dur);
      return sum;
    } catch (const Error& e) {
      ob->Error(obs::EventId::kRangeSum, from,
                static_cast<uint16_t>(e.code()));
      throw;
    }
  }

 private:
  /// RangeSum body under the reader lock. A sum spanning several sealed
  /// shards fans out one partial sum per shard on the seal pool (same
  /// threshold policy as ExecuteShardGroups). Every add wraps modulo 2^64
  /// in uint64_t, which is associative, so per-shard partials give exactly
  /// the sequential answer.
  int64_t RangeSumLocked(uint64_t from, uint64_t len) const {
    NEATS_DCHECK(from + len <= SizeImpl());
    struct Segment {
      const Shard* shard;
      uint64_t local_from;
      uint64_t take;
    };
    std::vector<Segment> segments;
    uint64_t sum = 0;
    uint64_t sealed_values = 0;
    while (len > 0) {
      if (from < sealed_total_) {
        const Shard& s = HealthyShardOf(from);
        const uint64_t take = std::min(len, s.first + s.count - from);
        segments.push_back({&s, from - s.first, take});
        sealed_values += take;
        from += take;
        len -= take;
        continue;
      }
      for (uint64_t k = from; k < from + len; ++k) {
        sum += static_cast<uint64_t>(AccessUnsealed(k));
      }
      break;
    }
    const uint64_t threshold = options_.parallel_query_values;
    if (threshold == 0 || segments.size() < 2 ||
        sealed_values < threshold || pool_ == nullptr ||
        pool_->num_threads() < 2) {
      for (const Segment& g : segments) {
        sum += static_cast<uint64_t>(
            g.shard->series->RangeSum(g.local_from, g.take));
      }
      return static_cast<int64_t>(sum);
    }
    std::vector<uint64_t> partial(segments.size(), 0);
    std::mutex err_mu;
    std::exception_ptr err;
    pool_->ParallelFor(segments.size(), [&](size_t i) {
      try {
        partial[i] = static_cast<uint64_t>(segments[i].shard->series->RangeSum(
            segments[i].local_from, segments[i].take));
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    });
    if (err) std::rethrow_exception(err);
    for (uint64_t p : partial) sum += p;
    return static_cast<int64_t>(sum);
  }

 public:
  /// Approximate sum over values[from, from + len): Neats shards answer
  /// from the learned functions alone (with the error bounds added up),
  /// shards of codecs without an estimator — and not-yet-sealed values —
  /// contribute exactly.
  Neats::ApproximateAggregate ApproximateRangeSum(uint64_t from,
                                                  uint64_t len) const {
    std::shared_lock<std::shared_mutex> lock(*mu_);
    store_internal::StoreObs* ob = obs_.get();
    if (ob == nullptr) return ApproximateRangeSumLocked(from, len);
    ob->registry.Count(ob->c_approx_calls);
    try {
      const uint64_t t0 = obs::NowNs();
      const Neats::ApproximateAggregate agg =
          ApproximateRangeSumLocked(from, len);
      ob->Trace(obs::EventId::kApproxRangeSum, obs::TraceTier::kNone, 0,
                obs::TraceEvent::kNoCodec, obs::kNoShard, from, len,
                obs::NowNs() - t0);
      return agg;
    } catch (const Error& e) {
      ob->Error(obs::EventId::kApproxRangeSum, from,
                static_cast<uint16_t>(e.code()));
      throw;
    }
  }

 private:
  /// ApproximateRangeSum body under the reader lock.
  Neats::ApproximateAggregate ApproximateRangeSumLocked(uint64_t from,
                                                        uint64_t len) const {
    NEATS_DCHECK(from + len <= SizeImpl());
    Neats::ApproximateAggregate agg{0.0, 0.0};
    while (len > 0) {
      if (from < sealed_total_) {
        const Shard& s = HealthyShardOf(from);
        const uint64_t take = std::min(len, s.first + s.count - from);
        Neats::ApproximateAggregate part =
            s.series->ApproximateRangeSum(from - s.first, take);
        agg.value += part.value;
        agg.error_bound += part.error_bound;
        from += take;
        len -= take;
        continue;
      }
      for (uint64_t k = from; k < from + len; ++k) {
        agg.value += static_cast<double>(AccessUnsealed(k));
      }
      break;
    }
    return agg;
  }

 private:
  /// size() without the reader lock — for callers already holding either
  /// side of mu_.
  uint64_t SizeImpl() const {
    return sealed_total_ + pending_total_ + tail_.size();
  }

  /// degraded() without the reader lock (see SizeImpl).
  bool DegradedImpl() const {
    for (const Shard& s : shards_) {
      if (s.series == nullptr) return true;
    }
    return false;
  }

  /// DecompressRange body — shared by the public query (reader lock) and
  /// RebuildWal (writer lock). Delegates to the multi-range body so a
  /// single long range spanning several sealed shards gets the same
  /// per-shard fan-out as a multi-range query.
  void DecompressRangeImpl(uint64_t from, uint64_t len, int64_t* out) const {
    NEATS_DCHECK(from + len <= SizeImpl());
    const IndexRange one{from, len};
    DecompressRangesLocked({&one, 1}, out);
  }

  /// Access body under the reader lock. `ev` is null on the untimed fast
  /// path (identical routing to the pre-metrics store); a sampled, traced
  /// access passes an event to receive the routing outcome — which tier
  /// answered, which shard, which codec.
  int64_t AccessLocked(uint64_t i, obs::TraceEvent* ev) const {
    if (i < sealed_total_) {
      const Shard& s = HealthyShardOf(i);
      const uint64_t local = i - s.first;
      if (ev != nullptr) {
        ev->tier = obs::TraceTier::kSealed;
        ev->shard = static_cast<uint64_t>(&s - shards_.data());
        ev->codec = static_cast<uint32_t>(s.codec);
      }
      if (cache_ != nullptr) {
        const uint64_t bv = s.series->BlockValues();
        if (bv > 0) {
          if (ev == nullptr) {
            return (*CachedBlock(s, local / bv))[local % bv];
          }
          // One cache consult either way — the hit flag rides along so the
          // trace can say which tier answered without a second probe
          // (block_cache_stats() stays exactly hits+misses == probes).
          bool hit = false;
          const auto values = CachedBlock(s, local / bv, &hit);
          ev->tier = hit ? obs::TraceTier::kCacheHit
                         : obs::TraceTier::kCacheMiss;
          return (*values)[local % bv];
        }
      }
      return s.series->Access(local);
    }
    if (ev != nullptr) {
      ev->tier = i < sealed_total_ + pending_total_ ? obs::TraceTier::kPending
                                                    : obs::TraceTier::kTail;
    }
    return AccessUnsealed(i);
  }

  /// One sealed shard: its manifest row (slice of the global index space,
  /// blob size, codec, payload CRC) plus the type-erased series serving it
  /// — owned right after an in-memory seal, or borrowing `map` when the
  /// codec opened the blob zero-copy. A null `series` means the shard is
  /// quarantined (`quarantine` says why): its routing row stays so
  /// neighbors keep their slots, but queries into it throw kUnavailable.
  struct Shard : StoreManifest::Shard {
    std::unique_ptr<SealedSeries> series;  // null = quarantined
    std::string quarantine;  // why the shard is not serving
    io::MappedRegion map;  // backs `series` when served from disk
  };

  /// A chunk handed to the background sealer. The raw values keep serving
  /// queries until the seal is promoted; the seal task writes only
  /// `sealed`, `codec`, `blob_bytes`, `error` and finally `done` (the
  /// publication flag). A task must never let an exception escape into the
  /// pool (ThreadPool tasks must not throw), so a failed seal — disk full
  /// while writing the blob, a compressor precondition — lands in `error`
  /// and is rethrown on the caller's thread at the next promotion, where
  /// the facade (neats::FlushStore) converts it into a Status.
  struct PendingChunk {
    uint64_t first = 0;
    size_t ordinal = 0;  // shard number -> blob file name
    std::vector<int64_t> values;
    std::unique_ptr<SealedSeries> sealed;
    CodecId codec = CodecId::kNeats;
    uint64_t blob_bytes = 0;
    uint32_t crc = 0;  // CRC32C of the blob payload
    std::string error;  // non-empty = the seal failed with this message
    StatusCode error_code = StatusCode::kFailed;  // its failure category
    std::atomic<bool> done{false};
  };

  /// Routing lookup: the sealed shard covering global index i.
  const Shard& ShardOf(uint64_t i) const {
    NEATS_DCHECK(i < sealed_total_);
    size_t lo = 0, hi = shards_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi + 1) / 2;
      if (shards_[mid].first <= i) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return shards_[lo];
  }

  /// ShardOf, refusing to route into a quarantined shard: the query gets a
  /// typed kUnavailable error instead of any chance of a wrong value.
  const Shard& HealthyShardOf(uint64_t i) const {
    const Shard& s = ShardOf(i);
    if (s.series == nullptr) {
      throw Error("shard " + std::to_string(&s - shards_.data()) +
                      " is quarantined: " + s.quarantine,
                  StatusCode::kUnavailable);
    }
    return s;
  }

  /// The decoded block serving (shard-local) block `block` of shard `s`,
  /// from the cache when present, decoding (outside the cache lock) and
  /// inserting on a miss. Only called when cache_ is non-null and the
  /// shard's codec is block-structured (BlockValues() > 0).
  DecodedBlockCache::BlockPtr CachedBlock(const Shard& s, uint64_t block,
                                          bool* was_hit = nullptr) const {
    const uint64_t shard_index =
        static_cast<uint64_t>(&s - shards_.data());
    const uint32_t codec = static_cast<uint32_t>(s.codec);
    if (auto hit = cache_->Lookup(shard_index, codec, block)) {
      if (was_hit != nullptr) *was_hit = true;
      return hit;
    }
    if (was_hit != nullptr) *was_hit = false;
    auto values =
        std::make_shared<std::vector<int64_t>>(s.series->BlockValues());
    const uint64_t count = s.series->DecodeBlock(block, values->data());
    values->resize(count);
    cache_->Insert(shard_index, codec, block, values);
    return values;
  }

  /// Raw read past the sealed prefix (pending chunks, then the tail).
  int64_t AccessUnsealed(uint64_t i) const {
    NEATS_DCHECK(i >= sealed_total_ && i < SizeImpl());
    for (const auto& c : pending_) {
      if (i < c->first + c->values.size()) return c->values[i - c->first];
    }
    return tail_[i - sealed_total_ - pending_total_];
  }

  /// Decompresses as much of [from, from + len) as one contiguous source
  /// (shard, pending chunk, or tail) covers; returns how many values.
  uint64_t DecompressPrefix(uint64_t from, uint64_t len, int64_t* out) const {
    if (from < sealed_total_) {
      const Shard& s = HealthyShardOf(from);
      const uint64_t take = std::min(len, s.first + s.count - from);
      s.map.Advise(MmapFile::Advice::kWillNeed);
      s.series->DecompressRange(from - s.first, take, out);
      return take;
    }
    for (const auto& c : pending_) {
      if (from < c->first + c->values.size()) {
        const uint64_t at = from - c->first;
        const uint64_t take = std::min<uint64_t>(len, c->values.size() - at);
        std::copy_n(c->values.data() + at, take, out);
        return take;
      }
    }
    const uint64_t at = from - sealed_total_ - pending_total_;
    std::copy_n(tail_.data() + at, len, out);
    return len;
  }

  /// Compresses one chunk per the seal policy: kFixed uses the configured
  /// codec; kAuto tries every candidate and keeps the one with the smallest
  /// serialized blob (strictly smaller wins, ties keep the earlier
  /// candidate — deterministic for a fixed candidate order). Returns the
  /// sealed series together with its blob.
  struct SealResult {
    CodecId codec = CodecId::kNeats;
    std::unique_ptr<SealedSeries> series;
    std::vector<uint8_t> blob;
  };
  static SealResult SealValues(std::span<const int64_t> values,
                               const NeatsStoreOptions& options) {
    SealResult best;
    if (options.seal_policy == SealPolicy::kFixed) {
      best.codec = options.codec;
      best.series = CodecRegistry::Compress(options.codec, values,
                                            options.neats);
      best.series->Serialize(&best.blob);
      return best;
    }
    std::vector<CodecId> candidates = options.codec_candidates;
    if (candidates.empty()) candidates = CodecRegistry::All();
    std::vector<uint8_t> blob;
    for (CodecId id : candidates) {
      std::unique_ptr<SealedSeries> series =
          CodecRegistry::Compress(id, values, options.neats);
      series->Serialize(&blob);
      if (best.series == nullptr || blob.size() < best.blob.size()) {
        best.codec = id;
        best.series = std::move(series);
        best.blob = std::move(blob);
        blob = {};
      }
    }
    return best;
  }

  /// Wraps `values` (one chunk, non-empty) into a pending seal and submits
  /// it to the pool. The lambda captures everything it needs by value
  /// (plus the stable chunk pointer and the filesystem, which outlives the
  /// store), so it never touches `this`. Note the fault contract: a
  /// CrashFault from an injected kill-point is NOT a std::exception, so it
  /// escapes this handler like a real power cut would — the crash harness
  /// runs with seal_threads = 1 (inline seals) so it unwinds on the caller
  /// thread instead of terminating a worker.
  void SealChunk(std::vector<int64_t> values) {
    auto chunk = std::make_unique<PendingChunk>();
    chunk->first = sealed_total_ + pending_total_;
    chunk->ordinal = next_ordinal_++;
    chunk->values = std::move(values);
    pending_total_ += chunk->values.size();
    PendingChunk* raw = chunk.get();
    pending_.push_back(std::move(chunk));
    pool_->Submit([raw, opts = options_, dir = dir_, fs = fs_,
                   ob = obs_.get()] {
      // `ob` outlives the task: obs_ is destroyed after pool_ drains (and
      // a store move transfers the unique_ptr, keeping the address).
      const uint64_t t0 = ob != nullptr ? obs::NowNs() : 0;
      try {
        SealResult sealed = SealValues(raw->values, opts);
        raw->codec = sealed.codec;
        raw->sealed = std::move(sealed.series);
        raw->blob_bytes = sealed.blob.size();
        raw->crc = Crc32c({sealed.blob.data(), sealed.blob.size()});
        if (!dir.empty()) {
          // Durable before publication: payload + checksum trailer hit
          // stable storage before any manifest can name the blob.
          AppendChecksumTrailer(&sealed.blob);
          io::WriteFileDurableTo(
              *fs, dir + "/" + StoreManifest::ShardFileName(raw->ordinal),
              {sealed.blob.data(), sealed.blob.size()});
        }
        if (ob != nullptr) {
          const uint64_t dur = obs::NowNs() - t0;
          ob->registry.Count(ob->c_seals);
          ob->registry.Count(
              ob->c_seal_codec[static_cast<uint32_t>(raw->codec)]);
          ob->registry.Count(ob->c_seal_bytes, raw->blob_bytes);
          ob->registry.Record(ob->h_seal, dur);
          ob->Trace(obs::EventId::kSeal, obs::TraceTier::kNone, 0,
                    static_cast<uint32_t>(raw->codec), raw->ordinal,
                    raw->first, raw->values.size(), dur);
        }
      } catch (const Error& e) {
        raw->error = e.what();  // rethrown at promotion, caller thread
        raw->error_code = e.code();
        if (ob != nullptr) {
          ob->Error(obs::EventId::kSeal, raw->first,
                    static_cast<uint16_t>(e.code()));
        }
      } catch (const std::exception& e) {
        raw->error = e.what();
        raw->error_code = StatusCode::kFailed;
        if (ob != nullptr) {
          ob->Error(obs::EventId::kSeal, raw->first,
                    static_cast<uint16_t>(StatusCode::kFailed));
        }
      }
      raw->done.store(true, std::memory_order_release);
    });
  }

  /// Moves completed seals (in order) from the pending queue into the
  /// routing index. Directory-backed shards whose codec supports borrowing
  /// are re-opened zero-copy from the blob the seal task just wrote, so
  /// they never hold the owned representation; everything else keeps the
  /// owned object from the seal. The raw chunk memory is released here.
  void PromoteSealed() {
    while (!pending_.empty() &&
           pending_.front()->done.load(std::memory_order_acquire)) {
      PendingChunk& c = *pending_.front();
      // A failed seal surfaces here, on the caller's thread, as the same
      // neats::Error contract every loader uses (the facade turns it into
      // a Status). The chunk stays pending — its raw values keep serving
      // queries, and every later Append/Flush re-reports the failure.
      if (!c.error.empty()) {
        throw Error("background seal failed: " + c.error, c.error_code);
      }
      Shard s;
      s.first = c.first;
      s.count = c.values.size();
      s.blob_bytes = c.blob_bytes;
      s.codec = c.codec;
      s.crc = c.crc;
      if (!dir_.empty() && CodecRegistry::ZeroCopyView(c.codec)) {
        s.map = fs_->OpenRead(dir_ + "/" +
                              StoreManifest::ShardFileName(c.ordinal));
        // The trailer we just wrote; strip it so the codec sees its payload.
        const TrailerInfo trailer = CheckChecksumTrailer(s.map.bytes());
        NEATS_DCHECK(trailer.state == TrailerState::kValid);
        s.series = CodecRegistry::Open(c.codec, trailer.payload,
                                       /*allow_view=*/true);
      } else {
        s.series = std::move(c.sealed);
      }
      sealed_total_ += s.count;
      pending_total_ -= s.count;
      shards_.push_back(std::move(s));
      pending_.pop_front();
    }
  }

  /// Flush body under the writer lock (the public wrapper only adds
  /// metrics around it).
  void FlushLocked() {
    if (!tail_.empty()) {
      SealChunk(std::move(tail_));
      tail_ = {};
    }
    pool_->DrainTasks();
    PromoteSealed();
    NEATS_DCHECK(pending_.empty());
    if (!dir_.empty()) {
      WriteManifest();
      ResetWal();
    }
  }

  void WriteManifest() {
    StoreManifest manifest;
    manifest.shard_size = options_.shard_size;
    // Each Shard converts to its StoreManifest::Shard base: the row.
    manifest.shards.assign(shards_.begin(), shards_.end());
    std::vector<uint8_t> bytes;
    manifest.Serialize(&bytes);
    // Write-to-temp + rename: a process crash mid-Flush can never destroy
    // the previous manifest — until the atomic rename lands, OpenDir keeps
    // routing by the old file (which only names fully-written blobs, since
    // shards are written and fsync'd before the manifest). The temp file is
    // fsync'd before the rename and the directory after it, so a completed
    // Flush also survives power loss (ROADMAP, scale-out durability).
    const std::string path = dir_ + "/" + StoreManifest::FileName();
    const std::string tmp = path + ".tmp";
    io::WriteFileDurableTo(*fs_, tmp, {bytes.data(), bytes.size()});
    try {
      fs_->Rename(tmp, path);
    } catch (...) {
      try {
        fs_->Remove(tmp);  // no orphaned temp file after a failed rename
      } catch (...) {
        // The cleanup is best-effort; the rename failure is the error.
      }
      throw;
    }
    fs_->SyncDir(dir_);
    manifest_total_ = manifest.total();
  }

  // --- Durability helpers -------------------------------------------------

  /// The Append body shared by the ingest path and WAL replay (replay must
  /// not re-log what it reads from the WAL).
  void AppendImpl(std::span<const int64_t> values) {
    const size_t shard = static_cast<size_t>(options_.shard_size);
    size_t at = 0;
    if (!tail_.empty()) {  // invariant: tail_.size() < shard
      const size_t take = std::min(shard - tail_.size(), values.size());
      tail_.insert(tail_.end(), values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(take));
      at = take;
      if (tail_.size() < shard) return;
      SealChunk(std::move(tail_));
      tail_ = {};
    }
    while (values.size() - at >= shard) {
      SealChunk(std::vector<int64_t>(
          values.begin() + static_cast<ptrdiff_t>(at),
          values.begin() + static_cast<ptrdiff_t>(at + shard)));
      at += shard;
    }
    tail_.assign(values.begin() + static_cast<ptrdiff_t>(at), values.end());
  }

  std::string WalPath() const { return dir_ + "/" + WalFileName(); }

  /// Durably logs `values` (at global index size()) before AppendImpl sees
  /// them. A failed log write marks the WAL dirty and rethrows without
  /// mutating the store — the ack contract stays honest — and the next
  /// attempt rewrites the log wholesale from the in-memory tail.
  void LogToWal(std::span<const int64_t> values) {
    if (dir_.empty() || !options_.wal) return;
    if (wal_dirty_) RebuildWal();
    EnsureWal();
    std::vector<uint8_t> record;
    AppendWalRecord(&record, SizeImpl(), values);
    try {
      wal_->Write({record.data(), record.size()});
      wal_->Sync();
    } catch (...) {
      wal_dirty_ = true;
      throw;
    }
    if (obs_ != nullptr) {
      obs_->registry.Count(obs_->c_wal_records);
      obs_->registry.Count(obs_->c_wal_fsyncs);
    }
  }

  /// Opens (or creates, with a header) the WAL append handle.
  void EnsureWal() {
    if (wal_ != nullptr) return;
    if (!fs_->Exists(WalPath()) || fs_->FileSize(WalPath()) == 0) {
      wal_ = fs_->Create(WalPath());
      std::vector<uint8_t> header;
      AppendWalHeader(&header);
      wal_->Write({header.data(), header.size()});
    } else {
      wal_ = fs_->OpenAppend(WalPath());
    }
  }

  /// After a successful Flush the manifest covers every value, so the WAL
  /// restarts empty — unless shards are quarantined, in which case the old
  /// records are kept: they may be the only copy Scrub() can repair from.
  void ResetWal() {
    if (!options_.wal || DegradedImpl()) return;
    wal_ = fs_->Create(WalPath());
    std::vector<uint8_t> header;
    AppendWalHeader(&header);
    wal_->Write({header.data(), header.size()});
    wal_->Sync();
    wal_dirty_ = false;
  }

  /// Rewrites the WAL from the in-memory un-manifested suffix (one record
  /// covering [manifest_total_, size())), atomically via temp + rename.
  /// Recovery of last resort after a failed WAL append.
  void RebuildWal() {
    std::vector<uint8_t> bytes;
    AppendWalHeader(&bytes);
    if (SizeImpl() > manifest_total_) {
      std::vector<int64_t> values(SizeImpl() - manifest_total_);
      DecompressRangeImpl(manifest_total_, values.size(), values.data());
      AppendWalRecord(&bytes, manifest_total_,
                      {values.data(), values.size()});
    }
    const std::string tmp = WalPath() + ".tmp";
    io::WriteFileDurableTo(*fs_, tmp, {bytes.data(), bytes.size()});
    fs_->Rename(tmp, WalPath());
    fs_->SyncDir(dir_);
    wal_ = fs_->OpenAppend(WalPath());
    wal_dirty_ = false;
  }

  /// OpenDir tail: replays intact WAL records past the manifested prefix
  /// and, if the log ended torn (the expected shape of a crash), rewrites
  /// it to contain exactly the surviving records.
  void RecoverWal() {
    if (!options_.wal) return;
    if (!fs_->Exists(WalPath())) return;
    const io::MappedRegion map = fs_->OpenRead(WalPath());
    WalReplayResult replay = ReplayWal(map.bytes());
    if (!replay.warning.empty()) {
      report_.warnings.push_back(replay.warning);
      if (obs_ != nullptr) {
        obs_->Log(obs::EventId::kWalTorn, obs::Severity::kWarn,
                  obs::kNoShard, replay.warning);
      }
    }
    bool rewrite = replay.torn;
    size_t usable = replay.records.size();
    for (size_t i = 0; i < replay.records.size(); ++i) {
      const WalRecord& rec = replay.records[i];
      const uint64_t rec_end = rec.first + rec.values.size();
      if (rec_end <= SizeImpl()) continue;  // already manifested (stale)
      if (rec.first > SizeImpl()) {
        // A hole: everything past it cannot be anchored to the store.
        std::string gap = "write-ahead log has a gap at index " +
                          std::to_string(SizeImpl()) + "; discarding " +
                          std::to_string(replay.records.size() - i) +
                          " unanchored record(s)";
        if (obs_ != nullptr) {
          obs_->Log(obs::EventId::kWalGap, obs::Severity::kWarn,
                    obs::kNoShard, gap);
        }
        report_.warnings.push_back(std::move(gap));
        rewrite = true;
        usable = i;
        break;
      }
      const size_t skip = static_cast<size_t>(SizeImpl() - rec.first);
      AppendImpl({rec.values.data() + skip, rec.values.size() - skip});
      if (obs_ != nullptr) obs_->registry.Count(obs_->c_wal_replayed);
    }
    if (rewrite) {
      // Keep every intact record — including stale ones covering
      // manifested shards, which Scrub() may need for repairs.
      std::vector<uint8_t> bytes;
      AppendWalHeader(&bytes);
      for (size_t i = 0; i < usable; ++i) {
        const WalRecord& rec = replay.records[i];
        AppendWalRecord(&bytes, rec.first,
                        {rec.values.data(), rec.values.size()});
      }
      const std::string tmp = WalPath() + ".tmp";
      io::WriteFileDurableTo(*fs_, tmp, {bytes.data(), bytes.size()});
      fs_->Rename(tmp, WalPath());
      fs_->SyncDir(dir_);
    }
    wal_ = fs_->OpenAppend(WalPath());
  }

  /// Opens and fully verifies one manifest row at OpenDir; any failure is
  /// caught by the caller and quarantines the shard instead of throwing.
  Shard OpenShard(size_t index, const StoreManifest::Shard& row) {
    Shard shard;
    static_cast<StoreManifest::Shard&>(shard) = row;
    const std::string path =
        dir_ + "/" + StoreManifest::ShardFileName(index);
    try {
      io::MappedRegion map = fs_->OpenRead(path);
      shard.series = CodecRegistry::Open(
          row.codec, VerifiedPayload(map.bytes(), row), /*allow_view=*/true);
      NEATS_REQUIRE(shard.series->size() == row.count,
                    "store shard blob disagrees with manifest");
      // A codec that deserialized into owned storage no longer needs the
      // mapping; drop it so the address space mirrors what actually serves.
      if (!CodecRegistry::ZeroCopyView(row.codec)) {
        shard.map = io::MappedRegion();
      } else {
        shard.map = std::move(map);
      }
    } catch (const std::exception& e) {
      shard.series = nullptr;
      shard.map = io::MappedRegion();
      shard.quarantine = std::string(e.what()) + " (" + path + ")";
      report_.quarantined.push_back(
          {index, row.first, row.count, row.codec, shard.quarantine});
      if (obs_ != nullptr) {
        obs_->registry.Count(obs_->c_quarantine_in);
        obs_->Log(obs::EventId::kQuarantine, obs::Severity::kError, index,
                  "shard quarantined at open: " + shard.quarantine);
      }
    }
    return shard;
  }

  /// The codec payload of a shard blob file, checked against its manifest
  /// row: the file must be exactly the payload plus a valid checksum
  /// trailer carrying the CRC the row recorded. Throws on any mismatch.
  static std::span<const uint8_t> VerifiedPayload(
      std::span<const uint8_t> file, const StoreManifest::Shard& row) {
    NEATS_REQUIRE(file.size() == row.blob_bytes + kChecksumTrailerBytes,
                  "store shard blob disagrees with manifest");
    const TrailerInfo trailer = CheckChecksumTrailer(file);
    NEATS_REQUIRE(trailer.state == TrailerState::kValid,
                  "shard blob fails its checksum");
    NEATS_REQUIRE(trailer.crc == row.crc,
                  "shard blob checksum disagrees with manifest");
    return trailer.payload;
  }

  /// Re-reads shard `index`'s blob file and re-checks size + checksum —
  /// the Scrub pass that catches bit rot after open. Throws on mismatch.
  void VerifyShardBlob(size_t index) {
    const io::MappedRegion map =
        fs_->OpenRead(dir_ + "/" + StoreManifest::ShardFileName(index));
    VerifiedPayload(map.bytes(), shards_[index]);
  }

  void Quarantine(size_t index, const std::string& why) {
    Shard& s = shards_[index];
    s.series = nullptr;
    s.map = io::MappedRegion();
    s.quarantine = why;
    if (obs_ != nullptr) {
      obs_->registry.Count(obs_->c_quarantine_in);
      obs_->Log(obs::EventId::kQuarantine, obs::Severity::kError, index,
                "shard quarantined: " + why);
      // A runtime quarantine is the flight recorder's moment: ship the
      // last-N-operations context out with the incident.
      obs_->DumpTrace("shard " + std::to_string(index) + " quarantined");
    }
  }

  /// Scrub step 2: re-seal every quarantined shard whose value range is
  /// fully covered by intact WAL records, then rewrite the manifest if
  /// anything came back.
  void RepairFromWal() {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i].series == nullptr) candidates.push_back(i);
    }
    if (candidates.empty()) return;
    WalReplayResult replay;
    if (fs_->Exists(WalPath())) {
      const io::MappedRegion map = fs_->OpenRead(WalPath());
      replay = ReplayWal(map.bytes());
    }
    bool repaired_any = false;
    for (size_t index : candidates) {
      Shard& s = shards_[index];
      std::vector<int64_t> values(s.count);
      std::vector<uint8_t> covered(s.count, 0);
      for (const WalRecord& rec : replay.records) {
        const uint64_t lo = std::max(rec.first, s.first);
        const uint64_t hi = std::min(rec.first + rec.values.size(),
                                     s.first + s.count);
        for (uint64_t g = lo; g < hi; ++g) {
          values[g - s.first] = rec.values[g - rec.first];
          covered[g - s.first] = 1;
        }
      }
      if (std::find(covered.begin(), covered.end(), 0) != covered.end()) {
        continue;  // the WAL no longer covers this range; cannot repair
      }
      std::unique_ptr<SealedSeries> series = CodecRegistry::Compress(
          s.codec, {values.data(), values.size()}, options_.neats);
      std::vector<uint8_t> blob;
      series->Serialize(&blob);
      s.blob_bytes = blob.size();
      s.crc = Crc32c({blob.data(), blob.size()});
      AppendChecksumTrailer(&blob);
      io::WriteFileDurableTo(
          *fs_, dir_ + "/" + StoreManifest::ShardFileName(index),
          {blob.data(), blob.size()});
      fs_->SyncDir(dir_);
      if (CodecRegistry::ZeroCopyView(s.codec)) {
        s.map = fs_->OpenRead(dir_ + "/" +
                              StoreManifest::ShardFileName(index));
        const TrailerInfo trailer = CheckChecksumTrailer(s.map.bytes());
        NEATS_DCHECK(trailer.state == TrailerState::kValid);
        s.series = CodecRegistry::Open(s.codec, trailer.payload,
                                       /*allow_view=*/true);
      } else {
        s.series = std::move(series);
      }
      s.quarantine.clear();
      report_.repaired.push_back(index);
      repaired_any = true;
      if (obs_ != nullptr) {
        obs_->registry.Count(obs_->c_scrub_repaired);
        obs_->registry.Count(obs_->c_quarantine_out);
        obs_->Log(obs::EventId::kScrubRepair, obs::Severity::kInfo, index,
                  "shard re-sealed from WAL records and returned to "
                  "service");
      }
    }
    // The repaired blobs may differ byte-for-byte from the originals (a
    // re-compression), so the manifest rows must be republished.
    if (repaired_any) WriteManifest();
  }

  /// Refreshes report_.quarantined from the live shard states.
  void RebuildQuarantineList() {
    report_.quarantined.clear();
    for (size_t i = 0; i < shards_.size(); ++i) {
      const Shard& s = shards_[i];
      if (s.series == nullptr) {
        report_.quarantined.push_back(
            {i, s.first, s.count, s.codec, s.quarantine});
      }
    }
  }

  NeatsStoreOptions options_;
  std::string dir_;  // empty = in-memory store
  io::FileSystem* fs_ = nullptr;  // never null after construction

  std::vector<Shard> shards_;  // sealed + promoted, contiguous from index 0
  uint64_t sealed_total_ = 0;  // values covered by shards_
  uint64_t manifest_total_ = 0;  // values covered by the durable manifest
  std::deque<std::unique_ptr<PendingChunk>> pending_;  // seals in flight
  uint64_t pending_total_ = 0;                         // their value count
  std::vector<int64_t> tail_;  // write-ahead hot tail (raw)
  size_t next_ordinal_ = 0;    // next shard blob number
  std::unique_ptr<io::WritableFile> wal_;  // open WAL append handle
  bool wal_dirty_ = false;  // a WAL append failed; rebuild before reuse
  RepairReport report_;     // what OpenDir/Scrub found and did

  // The observability wiring (metrics registry, flight recorder, log
  // sink); null when options_.metrics is false. Heap-owned so background
  // seal tasks capture a pointer that stays valid across store moves; it
  // is destroyed after pool_ (declared later) drains.
  std::unique_ptr<store_internal::StoreObs> obs_;

  // Decoded-block LRU over the block-structured codecs' shards; null when
  // options_.block_cache_bytes is 0. The cache itself is mutex-guarded, so
  // const query paths may populate it concurrently.
  std::unique_ptr<DecodedBlockCache> cache_;

  // The single-writer/multi-reader lock over the store topology: queries
  // take it shared, Append/Flush/Scrub exclusive. Heap-allocated so the
  // store stays movable (moves require outside quiescence, as before);
  // the writer keeps it across a whole mutation — including a Flush's seal
  // drain — so readers observe every promotion atomically.
  mutable std::unique_ptr<std::shared_mutex> mu_ =
      std::make_unique<std::shared_mutex>();

  // Declared last so it is destroyed first: no worker can outlive the
  // chunks its tasks reference. (~NeatsStore drains explicitly anyway.)
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace neats
