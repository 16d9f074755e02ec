// The crash-recovery harness (ISSUE: crash-consistent stores).
//
// Every test runs a NeatsStore against the deterministic fault-injection
// filesystem (src/io/fault_fs.hpp) instead of the real disk. The central
// suite is the kill-point sweep: a fixed ingest workload is re-run once per
// syscall-boundary op, killed at exactly that op, power-cycled (FaultFs
// tears unsynced state with seeded randomness), reopened, and checked
// against the one durability contract that matters:
//
//   after reopen, every WAL-acked Append and every completed Flush is
//   readable, and no query EVER returns a wrong value — it either serves
//   the written value or fails with a typed Status.
//
// Around the sweep: the lying-fsync scenario (blob fsyncs that persist
// nothing — quarantine at open, repair via Scrub from the preserved WAL),
// bit-rot sweeps over blob / manifest / WAL, a transient WAL failure, and
// the disk-full path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "io/fault_fs.hpp"
#include "neats/neats.hpp"

namespace neats {
namespace {

constexpr const char* kDir = "store";

// Step levels with small ramps: compresses fine under Gorilla, and any
// lost/duplicated/misrouted value changes the payload detectably.
std::vector<int64_t> Series(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values;
  values.reserve(n);
  int64_t level = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 64 == 0) level = static_cast<int64_t>(rng() % 1000000);
    values.push_back(level + static_cast<int64_t>(i % 7));
  }
  return values;
}

NeatsStoreOptions BaseOptions(io::FaultFs* fs) {
  NeatsStoreOptions options;
  options.shard_size = 512;
  // Inline seals: a CrashFault inside the seal's blob write unwinds on the
  // calling thread, exactly like the power cut it models.
  options.seal_threads = 1;
  options.codec = CodecId::kGorilla;
  options.fs = fs;
  return options;
}

// The sweep workload: create, ragged appends, a mid-stream Flush, more
// appends, a final Flush. `acked` tracks how many values the store has
// acknowledged (Append returned) — the recovery floor after a crash.
void RunWorkload(io::FaultFs& fs, const std::vector<int64_t>& values,
                 uint64_t* acked) {
  NeatsStore store = NeatsStore::CreateDir(kDir, BaseOptions(&fs));
  const size_t slices[] = {130, 512, 700, 68, 890};
  size_t at = 0;
  for (size_t i = 0; i < 5 && at < values.size(); ++i) {
    const size_t n = std::min(slices[i], values.size() - at);
    store.Append({values.data() + at, n});
    at += n;
    *acked = at;
  }
  store.Flush();
  size_t s = 0;
  while (at < values.size()) {
    const size_t n = std::min(slices[s++ % 5], values.size() - at);
    store.Append({values.data() + at, n});
    at += n;
    *acked = at;
  }
  store.Flush();
}

// ---------------------------------------------------------------------------
// The kill-point sweep.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, KillPointSweepEveryOp) {
  const std::vector<int64_t> values = Series(2700, 5);

  // Pass 0, fault-free: counts the ops — every one of them is a kill-point.
  uint64_t total_ops = 0;
  {
    io::FaultFs fs;
    uint64_t acked = 0;
    RunWorkload(fs, values, &acked);
    ASSERT_EQ(acked, values.size());
    total_ops = fs.op_count();
    NeatsStore store = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
    ASSERT_EQ(store.size(), values.size());
    EXPECT_FALSE(store.degraded());
  }
  ASSERT_GT(total_ops, 40u);  // the workload exercises a real op surface

  for (uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("kill at op " + std::to_string(k));
    io::FaultFs fs(io::FaultFs::Options{.seed = 1000 + k});
    fs.KillAtOp(k);
    uint64_t acked = 0;
    bool crashed = false;
    try {
      RunWorkload(fs, values, &acked);
    } catch (const io::CrashFault& fault) {
      crashed = true;
      ASSERT_EQ(fault.op, k);
    }
    ASSERT_TRUE(crashed);
    fs.Crash();  // the power cut: seeded torn state, stale handles fail

    NeatsStore store;
    try {
      store = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
    } catch (const Error&) {
      // Only legal when the kill hit CreateDir itself, before its empty
      // manifest landed — nothing was ever acked, so nothing is owed.
      ASSERT_EQ(acked, 0u);
      store = NeatsStore::CreateDir(kDir, BaseOptions(&fs));
    }
    EXPECT_FALSE(store.degraded());
    ASSERT_GE(store.size(), acked);  // every acked append survived
    ASSERT_LE(store.size(), values.size());

    // Nothing the store serves may disagree with what was written.
    std::vector<int64_t> got(store.size());
    if (!got.empty()) {
      store.DecompressRange(0, got.size(), got.data());
    }
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], values[i]) << "index " << i;
    }

    // And the recovered store is fully usable: finish the ingest, flush,
    // verify end to end.
    const uint64_t have = store.size();
    store.Append({values.data() + have, values.size() - have});
    store.Flush();
    ASSERT_EQ(store.size(), values.size());
    for (size_t i = 0; i < values.size(); i += 97) {
      ASSERT_EQ(store.Access(i), values[i]) << "index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Lying fsync: the firmware-cache scenario.
// ---------------------------------------------------------------------------

// Shard 0's blob fsync reports success but persists nothing; the process
// dies after the manifest commit but before the WAL reset. The reopened
// store quarantines the torn shard, serves the rest, fails queries into the
// hole with a typed error, and Scrub() repairs the shard from the WAL
// records the reset never got to discard.
TEST(CrashRecovery, LyingFsyncQuarantineAndScrubRepair) {
  const std::vector<int64_t> values = Series(1200, 7);
  auto run = [&](io::FaultFs& fs) {
    NeatsStore store = NeatsStore::CreateDir(kDir, BaseOptions(&fs));
    store.Append({values.data(), values.size()});
    store.Flush();
  };

  // Pass 0: locate the WAL reset — the Create right after the last SyncDir
  // (the final manifest commit).
  uint64_t reset_op = 0;
  {
    io::FaultFs fs;
    run(fs);
    const std::vector<io::FaultFs::OpRecord> trace = fs.trace();
    for (const io::FaultFs::OpRecord& op : trace) {
      if (op.kind == io::FaultFs::OpKind::kSyncDir) reset_op = op.index + 1;
    }
    ASSERT_NE(reset_op, 0u);
    ASSERT_EQ(trace[reset_op - 1].kind, io::FaultFs::OpKind::kCreate);
    ASSERT_NE(trace[reset_op - 1].path.find(WalFileName()),
              std::string::npos);
  }

  io::FaultFs fs(io::FaultFs::Options{.seed = 99});
  fs.LieOnSyncPath(StoreManifest::ShardFileName(0));
  fs.KillAtOp(reset_op);
  bool crashed = false;
  try {
    run(fs);
  } catch (const io::CrashFault&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  fs.Crash();
  fs.LieOnSyncPath("");  // the firmware behaves from here on

  // The seeded tear may keep any prefix of the never-persisted blob —
  // including, rarely, all of it. Pin the scenario: shard 0 must be torn.
  const std::string shard0_path =
      std::string(kDir) + "/" + StoreManifest::ShardFileName(0);
  const StoreManifest manifest = StoreManifest::Deserialize(
      fs.ReadRaw(std::string(kDir) + "/" + StoreManifest::FileName()));
  ASSERT_EQ(manifest.total(), values.size());
  std::vector<uint8_t> torn = fs.ReadRaw(shard0_path);
  if (torn.size() == manifest.shards[0].blob_bytes + kChecksumTrailerBytes) {
    torn.resize(torn.size() / 2);
    fs.SetRaw(shard0_path, torn);
  }

  NeatsStore store = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
  EXPECT_TRUE(store.degraded());
  const NeatsStore::RepairReport& report = store.recovery_report();
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].shard, 0u);
  EXPECT_EQ(report.quarantined[0].first, 0u);
  EXPECT_EQ(report.quarantined[0].count, 512u);

  // Queries into the hole fail typed; everything else serves bit-identical.
  try {
    store.Access(10);
    FAIL() << "expected a kUnavailable error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kUnavailable);
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
  }
  for (size_t k = 512; k < values.size(); k += 41) {
    ASSERT_EQ(store.Access(k), values[k]) << k;
  }

  // Scrub re-seals the shard from the WAL records ResetWal never discarded.
  const NeatsStore::RepairReport& after = store.Scrub();
  EXPECT_TRUE(after.quarantined.empty());
  ASSERT_EQ(after.repaired.size(), 1u);
  EXPECT_EQ(after.repaired[0], 0u);
  EXPECT_FALSE(store.degraded());
  for (size_t k = 0; k < values.size(); k += 13) {
    ASSERT_EQ(store.Access(k), values[k]) << k;
  }

  // The repair is durable: a fresh open is fully healthy.
  NeatsStore again = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
  EXPECT_FALSE(again.degraded());
  ASSERT_EQ(again.size(), values.size());
  for (size_t k = 0; k < values.size(); k += 29) {
    ASSERT_EQ(again.Access(k), values[k]) << k;
  }
}

// ---------------------------------------------------------------------------
// Bit-rot sweeps: blob, manifest, WAL.
// ---------------------------------------------------------------------------

// A flipped bit in a sealed blob quarantines exactly that shard; healthy
// shards serve, the facade reports degradation as a typed Status, and with
// the WAL already reset there is nothing to repair from — Scrub says so
// instead of inventing data.
TEST(CrashRecovery, BlobBitRotQuarantinesOnlyTheHitShard) {
  const std::vector<int64_t> values = Series(1200, 9);
  io::FaultFs fs;
  {
    NeatsStore store = NeatsStore::CreateDir(kDir, BaseOptions(&fs));
    store.Append({values.data(), values.size()});
    store.Flush();
  }
  const std::string shard1_path =
      std::string(kDir) + "/" + StoreManifest::ShardFileName(1);
  const size_t blob_size = fs.ReadRaw(shard1_path).size();

  const size_t offsets[] = {0, 8, blob_size / 2,
                            blob_size - kChecksumTrailerBytes - 1,
                            blob_size - 1};
  for (size_t offset : offsets) {
    SCOPED_TRACE("flipped byte " + std::to_string(offset));
    fs.CorruptByte(shard1_path, offset, 0x40);

    NeatsStore store = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
    EXPECT_TRUE(store.degraded());
    const NeatsStore::RepairReport& report = store.recovery_report();
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0].shard, 1u);
    EXPECT_NE(report.quarantined[0].error.find("checksum"),
              std::string::npos);

    try {
      store.Access(700);  // shard 1's range
      FAIL() << "expected a kUnavailable error";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), StatusCode::kUnavailable);
    }
    for (size_t k = 0; k < 512; k += 37) {
      ASSERT_EQ(store.Access(k), values[k]) << k;
    }
    for (size_t k = 1024; k < values.size(); k += 37) {
      ASSERT_EQ(store.Access(k), values[k]) << k;
    }

    // The WAL was reset by the completed Flush: no repair material left.
    Status status = ScrubStore(store);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kDegraded);
    EXPECT_NE(status.message().find("1"), std::string::npos);

    fs.CorruptByte(shard1_path, offset, 0x40);  // flip it back
  }

  // Restored, a fresh open is healthy again.
  NeatsStore healthy = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
  EXPECT_FALSE(healthy.degraded());
  for (size_t k = 0; k < values.size(); k += 101) {
    ASSERT_EQ(healthy.Access(k), values[k]) << k;
  }
}

// A flipped bit in the manifest — the routing root — is fatal and
// diagnosable: OpenDir throws an Error naming the manifest, never opens a
// misrouted store. The same holds for a manifest of a retired version.
TEST(CrashRecovery, ManifestBitRotIsCaughtBeforeRouting) {
  const std::vector<int64_t> values = Series(800, 15);
  io::FaultFs fs;
  {
    NeatsStore store = NeatsStore::CreateDir(kDir, BaseOptions(&fs));
    store.Append({values.data(), values.size()});
    store.Flush();
  }
  const std::string manifest_path =
      std::string(kDir) + "/" + StoreManifest::FileName();
  const size_t size = fs.ReadRaw(manifest_path).size();

  const size_t offsets[] = {0, 8, 17, size / 2, size - 16, size - 1};
  for (size_t offset : offsets) {
    SCOPED_TRACE("flipped byte " + std::to_string(offset));
    fs.CorruptByte(manifest_path, offset, 0x04);
    try {
      NeatsStore store = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
      FAIL() << "a clobbered manifest must not open";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("manifest"), std::string::npos);
    }
    fs.CorruptByte(manifest_path, offset, 0x04);
  }

  // Manifests of the retired versions 1 and 2 (three and four words per
  // row, no checksums) fail the open with a Status naming the version.
  const std::vector<uint8_t> good = fs.ReadRaw(manifest_path);
  const StoreManifest manifest = StoreManifest::Deserialize(good);
  uint64_t magic;
  std::memcpy(&magic, good.data(), 8);
  for (uint64_t version : {1, 2}) {
    std::vector<uint8_t> old;
    WordWriter w(&old);
    w.Put(magic);
    w.Put(version);
    w.Put(manifest.shard_size);
    w.Put(manifest.shards.size());
    for (const StoreManifest::Shard& row : manifest.shards) {
      w.Put(row.first);
      w.Put(row.count);
      w.Put(row.blob_bytes);
      if (version == 2) w.Put(static_cast<uint64_t>(row.codec));
    }
    fs.SetRaw(manifest_path, old);
    Result<NeatsStore> opened = OpenStoreDir(kDir, BaseOptions(&fs));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kFailed);
    EXPECT_NE(opened.status().message().find("manifest version " +
                                             std::to_string(version)),
              std::string::npos)
        << opened.status().message();
  }
  fs.SetRaw(manifest_path, good);

  NeatsStore healthy = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
  ASSERT_EQ(healthy.size(), values.size());
}

// A flipped bit in the WAL costs exactly the hit record and its successors
// — never a wrong value, never an exception — and the reopened store keeps
// ingesting normally.
TEST(CrashRecovery, WalBitRotCostsOnlyTheTailRecords) {
  const std::vector<int64_t> values = Series(1500, 11);
  io::FaultFs fs;
  {
    NeatsStore store = NeatsStore::CreateDir(kDir, BaseOptions(&fs));
    store.Append({values.data(), 600});
    store.Append({values.data() + 600, 500});
    store.Append({values.data() + 1100, 400});
    // No Flush: the WAL holds the only durable copy of all 1500 values.
  }
  fs.Crash();  // power cut; every Append was acked, so everything survives

  {
    NeatsStore store = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
    ASSERT_EQ(store.size(), values.size());
    for (size_t k = 0; k < values.size(); k += 43) {
      ASSERT_EQ(store.Access(k), values[k]) << k;
    }
  }

  // Flip one byte inside the second record: replay keeps record 0 (600
  // values), discards the damaged record and the intact one after it (a
  // record is only trustworthy if everything before it is).
  const std::string wal_path = std::string(kDir) + "/" + WalFileName();
  const size_t record1_offset = 16 + (600 + 3) * 8;
  fs.CorruptByte(wal_path, record1_offset + 40, 0x10);

  NeatsStore store = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
  ASSERT_EQ(store.size(), 600u);
  bool torn_warning = false;
  for (const std::string& w : store.recovery_report().warnings) {
    if (w.find("torn") != std::string::npos) torn_warning = true;
  }
  EXPECT_TRUE(torn_warning);
  for (size_t k = 0; k < 600; k += 17) {
    ASSERT_EQ(store.Access(k), values[k]) << k;
  }

  // The store keeps working: re-ingest the lost suffix and flush.
  store.Append({values.data() + 600, values.size() - 600});
  store.Flush();
  ASSERT_EQ(store.size(), values.size());

  NeatsStore again = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
  ASSERT_EQ(again.size(), values.size());
  for (size_t k = 0; k < values.size(); k += 31) {
    ASSERT_EQ(again.Access(k), values[k]) << k;
  }
}

// ---------------------------------------------------------------------------
// Transient failures: EIO on a WAL fsync, and a full disk.
// ---------------------------------------------------------------------------

// A transient WAL fsync failure fails that Append with a typed kIo Status
// and acks nothing; the next Append rebuilds the log and succeeds.
TEST(CrashRecovery, TransientWalFailureRecoversOnRetry) {
  const std::vector<int64_t> values = Series(600, 21);
  io::FaultFs fs;
  NeatsStore store = NeatsStore::CreateDir(kDir, BaseOptions(&fs));
  store.Append({values.data(), 100});
  ASSERT_EQ(store.size(), 100u);

  // The next Append's WAL ops are one write then one sync; fail the sync.
  fs.FailAtOp(fs.op_count() + 2, "injected I/O failure");
  Status status =
      CheckedStatus([&] { store.Append({values.data() + 100, 100}); });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIo);
  EXPECT_NE(status.message().find("injected I/O failure"), std::string::npos);
  EXPECT_EQ(store.size(), 100u);  // the failed append acked nothing

  // Retry: the dirty WAL is rebuilt wholesale, then ingest proceeds.
  store.Append({values.data() + 100, values.size() - 100});
  store.Flush();
  ASSERT_EQ(store.size(), values.size());

  fs.Crash();
  NeatsStore again = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
  ASSERT_EQ(again.size(), values.size());
  for (size_t k = 0; k < values.size(); k += 7) {
    ASSERT_EQ(again.Access(k), values[k]) << k;
  }
}

// ENOSPC mid-WAL-append: the Append fails typed (kIo, "No space"), acks
// nothing, and once space is back the store ingests and flushes normally.
TEST(CrashRecovery, DiskFullFailsTypedAndRecovers) {
  const std::vector<int64_t> values = Series(1400, 23);
  io::FaultFs fs;
  NeatsStore store = NeatsStore::CreateDir(kDir, BaseOptions(&fs));

  fs.SetCapacity(2048);  // room for the tiny manifest + WAL header, no more
  Status status =
      CheckedStatus([&] { store.Append({values.data(), 600}); });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIo);
  EXPECT_NE(status.message().find("No space left"), std::string::npos);
  EXPECT_EQ(store.size(), 0u);

  fs.SetCapacity(~uint64_t{0});
  store.Append({values.data(), values.size()});
  store.Flush();
  ASSERT_EQ(store.size(), values.size());

  fs.Crash();
  NeatsStore again = NeatsStore::OpenDir(kDir, BaseOptions(&fs));
  ASSERT_EQ(again.size(), values.size());
  for (size_t k = 0; k < values.size(); k += 11) {
    ASSERT_EQ(again.Access(k), values[k]) << k;
  }
}

}  // namespace
}  // namespace neats
