// Deterministic fault-injection filesystem for the crash-recovery harness.
//
// FaultFs implements the neats::io::FileSystem interface entirely in memory
// and models what a real disk guarantees — no more. Every inode tracks two
// byte strings: the *cache* (what reads see, i.e. the page cache) and the
// *durable* content (what survives power loss). Writes land in the cache;
// only WritableFile::Sync copies cache to durable. Directory operations
// (create, rename, remove) take effect in the live namespace immediately but
// stay *pending* until SyncDir persists them — exactly the POSIX contract
// the store's blob-then-manifest ordering relies on.
//
// Faults, all seeded and reproducible:
//
//   - Kill-points: every mutating call (create, each write chunk, fsync,
//     rename, remove, syncdir) increments a global op counter; KillAtOp(k)
//     throws CrashFault at op k *before* its effect applies. The op count of
//     a fault-free pass enumerates every kill-point for the sweep.
//   - Crash(): simulates the power cut after a kill — reverts to durable
//     state, keeps only a seeded prefix of the pending directory ops (dir
//     entries hit disk in order), and tears each file not fsynced since its
//     last change: a fresh/truncated file keeps either its old content or a
//     seeded prefix of the new bytes; an append-only file keeps its durable
//     prefix plus a seeded prefix of the unsynced tail (fsynced bytes are
//     never undone). Open handles from before the crash fail with kIo.
//   - FailAtOp(k): op k throws a kIo Error (transient syscall failure).
//   - LieOnSyncPath(substr): fsync on matching paths reports success but
//     persists nothing — the lying-fsync / firmware-cache scenario.
//   - SetCapacity(bytes): total cache bytes are capped; the write that would
//     exceed it applies a short write and throws ENOSPC-style kIo.
//
// Simplification (documented, deliberate): fsync on a file also persists its
// directory entry, as ext4/xfs do in practice; SyncDir is still required for
// renames and removals.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "io/fs.hpp"

namespace neats::io {

/// Thrown at a kill-point. Deliberately NOT a std::exception: a power cut
/// does not care about catch (const std::exception&) blocks, so neither does
/// this — it unwinds through the store's error handling untouched and only
/// the harness catches it.
struct CrashFault {
  uint64_t op = 0;  // the op index that "killed the process"
};

class FaultFs final : public FileSystem {
 public:
  enum class OpKind { kCreate, kWrite, kSync, kRename, kRemove, kSyncDir };

  struct OpRecord {
    uint64_t index = 0;  // 1-based global op index (the kill-point id)
    OpKind kind = OpKind::kWrite;
    std::string path;
  };

  struct Options {
    uint64_t seed = 1;
    uint64_t capacity_bytes = ~uint64_t{0};  // total cache bytes allowed
    size_t write_chunk = 4096;  // bytes per counted write op (tear grain)
  };

  FaultFs() : FaultFs(Options{}) {}
  explicit FaultFs(Options options) : opts_(options), rng_(options.seed) {}

  // --- fault controls -----------------------------------------------------

  /// Arms a one-shot kill: op number `k` (1-based) throws CrashFault.
  void KillAtOp(uint64_t k) {
    std::lock_guard<std::mutex> lock(mu_);
    kill_at_ = k;
  }

  /// Arms a one-shot transient failure: op `k` throws a kIo Error.
  void FailAtOp(uint64_t k, std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_at_ = k;
    fail_msg_ = std::move(message);
  }

  /// fsync on paths containing `substr` succeeds without persisting
  /// anything. Empty disables.
  void LieOnSyncPath(std::string substr) {
    std::lock_guard<std::mutex> lock(mu_);
    lie_sync_substr_ = std::move(substr);
  }

  /// Caps total cache bytes; exceeding writes get ENOSPC-style kIo.
  void SetCapacity(uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    opts_.capacity_bytes = bytes;
  }

  /// The power cut: reverts to crash-consistent durable state (see file
  /// comment) and invalidates all open handles. Disarms pending faults.
  void Crash() {
    std::lock_guard<std::mutex> lock(mu_);
    kill_at_ = 0;
    fail_at_ = 0;
    // Directory entries hit disk in order: a seeded prefix of the pending
    // namespace ops survives, the rest are lost.
    const size_t survive =
        pending_.empty() ? 0 : static_cast<size_t>(NextRand() % (pending_.size() + 1));
    for (size_t i = 0; i < survive; ++i) ApplyPending(pending_[i]);
    pending_.clear();
    std::set<Inode*> torn;
    for (auto& [path, inode] : dns_) {
      if (torn.insert(inode.get()).second) TearInode(*inode);
    }
    ns_ = dns_;
    ++epoch_;
  }

  // --- introspection for the harness --------------------------------------

  uint64_t op_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return op_count_;
  }

  std::vector<OpRecord> trace() const {
    std::lock_guard<std::mutex> lock(mu_);
    return trace_;
  }

  /// XORs `mask` into the byte at `offset` of `path`, in both the cache and
  /// the durable copy — the bit-rot injection the checksum sweeps use.
  void CorruptByte(const std::string& path, size_t offset, uint8_t mask) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ns_.find(path);
    NEATS_REQUIRE(it != ns_.end(), "CorruptByte: no such file");
    Inode& ino = *it->second;
    NEATS_REQUIRE(offset < ino.cache.size(), "CorruptByte: offset past EOF");
    ino.cache[offset] ^= mask;
    if (offset < ino.durable.size()) ino.durable[offset] ^= mask;
  }

  /// Current (cache) content of `path`.
  std::vector<uint8_t> ReadRaw(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ns_.find(path);
    NEATS_REQUIRE(it != ns_.end(), "ReadRaw: no such file");
    return it->second->cache;
  }

  /// Plants `path` with `bytes`, fully durable — for handcrafting corrupt
  /// or unsupported files without going through the write path.
  void SetRaw(const std::string& path, std::vector<uint8_t> bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    auto inode = std::make_shared<Inode>();
    inode->cache = bytes;
    inode->durable = std::move(bytes);
    inode->synced_once = true;
    ns_[path] = inode;
    dns_[path] = inode;
  }

  // --- FileSystem interface -----------------------------------------------

  std::unique_ptr<WritableFile> Create(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    Op(OpKind::kCreate, path);
    auto it = ns_.find(path);
    std::shared_ptr<Inode> inode;
    if (it != ns_.end()) {
      inode = it->second;
      inode->cache.clear();
      inode->truncated_since_sync = true;
    } else {
      inode = std::make_shared<Inode>();
      inode->truncated_since_sync = true;
      ns_[path] = inode;
      pending_.push_back({OpKind::kCreate, path, {}, inode});
    }
    return std::make_unique<FaultFile>(this, std::move(inode), path, epoch_);
  }

  std::unique_ptr<WritableFile> OpenAppend(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ns_.find(path);
    std::shared_ptr<Inode> inode;
    if (it != ns_.end()) {
      inode = it->second;
    } else {
      Op(OpKind::kCreate, path);
      inode = std::make_shared<Inode>();
      ns_[path] = inode;
      pending_.push_back({OpKind::kCreate, path, {}, inode});
    }
    return std::make_unique<FaultFile>(this, std::move(inode), path, epoch_);
  }

  MappedRegion OpenRead(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ns_.find(path);
    if (it == ns_.end()) {
      throw Error("cannot open file: " + path + ": No such file or directory",
                  StatusCode::kIo);
    }
    return MappedRegion::FromBytes(
        {it->second->cache.data(), it->second->cache.size()});
  }

  bool Exists(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return ns_.count(path) != 0;
  }

  uint64_t FileSize(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ns_.find(path);
    if (it == ns_.end()) {
      throw Error("cannot stat: " + path + ": No such file or directory",
                  StatusCode::kIo);
    }
    return it->second->cache.size();
  }

  void Rename(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(mu_);
    Op(OpKind::kRename, from);
    auto it = ns_.find(from);
    if (it == ns_.end()) {
      throw Error("rename to " + to + " failed: " + from +
                      ": No such file or directory",
                  StatusCode::kIo);
    }
    std::shared_ptr<Inode> inode = it->second;
    ns_.erase(it);
    ns_[to] = inode;
    pending_.push_back({OpKind::kRename, from, to, inode});
  }

  void Remove(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    Op(OpKind::kRemove, path);
    if (ns_.erase(path) != 0) {
      pending_.push_back({OpKind::kRemove, path, {}, nullptr});
    }
  }

  void SyncDir(const std::string& dir) override {
    std::lock_guard<std::mutex> lock(mu_);
    Op(OpKind::kSyncDir, dir);
    std::vector<PendingOp> keep;
    for (PendingOp& op : pending_) {
      const bool under = ParentOf(op.a) == dir ||
                         (op.kind == OpKind::kRename && ParentOf(op.b) == dir);
      if (under) {
        ApplyPending(op);
      } else {
        keep.push_back(std::move(op));
      }
    }
    pending_ = std::move(keep);
  }

  void CreateDirs(const std::string& dir) override { (void)dir; }

 private:
  struct Inode {
    std::vector<uint8_t> cache;    // what reads (and mmaps) see
    std::vector<uint8_t> durable;  // what survives Crash()
    bool synced_once = false;
    bool truncated_since_sync = false;  // Create'd since the last fsync
  };

  struct PendingOp {
    OpKind kind;
    std::string a, b;  // path (and rename target)
    std::shared_ptr<Inode> inode;
  };

  class FaultFile final : public WritableFile {
   public:
    FaultFile(FaultFs* fs, std::shared_ptr<Inode> inode, std::string path,
              uint64_t epoch)
        : fs_(fs), inode_(std::move(inode)), path_(std::move(path)),
          epoch_(epoch) {}

    void Write(std::span<const uint8_t> bytes) override {
      fs_->DoWrite(*this, bytes);
    }
    void Sync() override { fs_->DoSync(*this); }
    void Close() override {}

   private:
    friend class FaultFs;
    FaultFs* fs_;
    std::shared_ptr<Inode> inode_;
    std::string path_;
    uint64_t epoch_;
  };

  void DoWrite(FaultFile& f, std::span<const uint8_t> bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    CheckEpoch(f);
    size_t at = 0;
    while (at < bytes.size()) {
      const size_t n = std::min(opts_.write_chunk, bytes.size() - at);
      Op(OpKind::kWrite, f.path_);
      const uint64_t used = TotalCacheBytes();
      if (used + n > opts_.capacity_bytes) {
        // Short write up to the cap, then the disk is full.
        const size_t fits =
            opts_.capacity_bytes > used
                ? static_cast<size_t>(opts_.capacity_bytes - used)
                : 0;
        auto& cache = f.inode_->cache;
        cache.insert(cache.end(), bytes.begin() + at, bytes.begin() + at + fits);
        throw Error("write failed: " + f.path_ + ": No space left on device",
                    StatusCode::kIo);
      }
      auto& cache = f.inode_->cache;
      cache.insert(cache.end(), bytes.begin() + at, bytes.begin() + at + n);
      at += n;
    }
  }

  void DoSync(FaultFile& f) {
    std::lock_guard<std::mutex> lock(mu_);
    CheckEpoch(f);
    Op(OpKind::kSync, f.path_);
    if (!lie_sync_substr_.empty() &&
        f.path_.find(lie_sync_substr_) != std::string::npos) {
      return;  // the lying fsync: report success, persist nothing
    }
    Inode& ino = *f.inode_;
    ino.durable = ino.cache;
    ino.synced_once = true;
    ino.truncated_since_sync = false;
    dns_[f.path_] = f.inode_;  // fsync persists the entry too (see top)
  }

  void CheckEpoch(const FaultFile& f) const {
    if (f.epoch_ != epoch_) {
      throw Error("stale file handle after crash: " + f.path_,
                  StatusCode::kIo);
    }
  }

  /// Counts the op, fires an armed fault *before* the op's effect applies.
  void Op(OpKind kind, const std::string& path) {
    ++op_count_;
    trace_.push_back({op_count_, kind, path});
    if (fail_at_ != 0 && op_count_ == fail_at_) {
      fail_at_ = 0;
      throw Error(fail_msg_ + ": " + path, StatusCode::kIo);
    }
    if (kill_at_ != 0 && op_count_ == kill_at_) {
      kill_at_ = 0;
      throw CrashFault{op_count_};
    }
  }

  void ApplyPending(const PendingOp& op) {
    switch (op.kind) {
      case OpKind::kCreate:
        dns_[op.a] = op.inode;
        break;
      case OpKind::kRename:
        dns_.erase(op.a);
        dns_[op.b] = op.inode;
        break;
      case OpKind::kRemove:
        dns_.erase(op.a);
        break;
      default:
        break;
    }
  }

  /// Rolls one surviving inode back to crash-consistent content.
  void TearInode(Inode& ino) {
    if (ino.truncated_since_sync) {
      // The truncate+rewrite was never fsynced: either none of it reached
      // the platter (old durable content survives) or a prefix did.
      if ((NextRand() & 1) != 0) {
        ino.cache = ino.durable;
      } else {
        const size_t len =
            ino.cache.empty()
                ? 0
                : static_cast<size_t>(NextRand() % (ino.cache.size() + 1));
        ino.cache.resize(len);
        ino.durable = ino.cache;
      }
    } else {
      // Append-only since the last fsync: the durable prefix is guaranteed,
      // a seeded prefix of the unsynced tail may have made it.
      const size_t extra = ino.cache.size() - ino.durable.size();
      const size_t keep =
          ino.durable.size() +
          (extra != 0 ? static_cast<size_t>(NextRand() % (extra + 1)) : 0);
      ino.cache.resize(keep);
      ino.durable = ino.cache;
    }
    ino.truncated_since_sync = false;
  }

  uint64_t TotalCacheBytes() const {
    std::set<const Inode*> seen;
    uint64_t total = 0;
    for (const auto& [path, inode] : ns_) {
      if (seen.insert(inode.get()).second) total += inode->cache.size();
    }
    return total;
  }

  static std::string ParentOf(const std::string& path) {
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string() : path.substr(0, slash);
  }

  uint64_t NextRand() {
    rng_ += 0x9E3779B97F4A7C15ull;  // splitmix64
    uint64_t z = rng_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  mutable std::mutex mu_;
  Options opts_;
  uint64_t rng_;
  std::map<std::string, std::shared_ptr<Inode>> ns_;   // live namespace
  std::map<std::string, std::shared_ptr<Inode>> dns_;  // durable namespace
  std::vector<PendingOp> pending_;  // namespace ops awaiting SyncDir
  uint64_t epoch_ = 0;              // bumped by Crash(); stale handles fail
  uint64_t op_count_ = 0;
  std::vector<OpRecord> trace_;
  uint64_t kill_at_ = 0;
  uint64_t fail_at_ = 0;
  std::string fail_msg_;
  std::string lie_sync_substr_;
};

}  // namespace neats::io
