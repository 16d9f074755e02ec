// Read-only memory-mapped file, the storage backend behind zero-copy opens:
//
//   neats::MmapFile map = neats::MmapFile::Open(path);  // keep alive!
//   neats::Neats view = neats::Neats::View(map.bytes());
//
// serves queries straight out of the page cache with no deserialization
// copy. The mapping must outlive every object borrowing from it — never
// pass a temporary MmapFile's bytes() to View. On platforms without POSIX
// mmap the file is read into a word-aligned heap buffer instead, so callers
// keep the same 8-byte-alignment guarantee either way.

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define NEATS_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define NEATS_HAS_MMAP 0
#include <cstdio>
#include <filesystem>
#include <system_error>
#endif

namespace neats {

/// Move-only RAII wrapper over a read-only file mapping.
class MmapFile {
 public:
  MmapFile() = default;

  /// Maps `path` read-only. Throws neats::Error (kIo) with the path and the
  /// strerror text if the file cannot be opened, so recovery failures are
  /// diagnosable from the message alone.
  static MmapFile Open(const std::string& path) {
    MmapFile f;
#if NEATS_HAS_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) ThrowErrno("cannot open file for mmap", path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      ThrowErrno("cannot stat file for mmap", path, err);
    }
    f.size_ = static_cast<size_t>(st.st_size);
    if (f.size_ > 0) {
      void* p = ::mmap(nullptr, f.size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (p == MAP_FAILED) {
        const int err = errno;
        ::close(fd);
        f.size_ = 0;
        ThrowErrno("mmap failed", path, err);
      }
      f.data_ = static_cast<const uint8_t*>(p);
    }
    ::close(fd);
#else
    std::error_code ec;
    const auto file_size = std::filesystem::file_size(path, ec);
    if (ec) {
      throw Error("cannot stat file: " + path + ": " + ec.message(),
                  StatusCode::kIo);
    }
    f.size_ = static_cast<size_t>(file_size);
    std::FILE* fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) ThrowErrno("cannot open file", path);
    f.fallback_.resize((f.size_ + 7) / 8);  // word-backed => 8-byte aligned
    if (f.size_ > 0) {
      if (std::fread(f.fallback_.data(), 1, f.size_, fp) != f.size_) {
        std::fclose(fp);
        throw Error("short read: " + path, StatusCode::kIo);
      }
      f.data_ = reinterpret_cast<const uint8_t*>(f.fallback_.data());
    }
    std::fclose(fp);
#endif
    return f;
  }

  MmapFile(MmapFile&& o) noexcept { *this = std::move(o); }
  MmapFile& operator=(MmapFile&& o) noexcept {
    if (this == &o) return *this;
    Reset();
#if !NEATS_HAS_MMAP
    fallback_ = std::move(o.fallback_);
    data_ = o.size_ > 0 ? reinterpret_cast<const uint8_t*>(fallback_.data())
                        : nullptr;
#else
    data_ = o.data_;
#endif
    size_ = o.size_;
    o.data_ = nullptr;
    o.size_ = 0;
    return *this;
  }
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile() { Reset(); }

  /// The mapped bytes; 8-byte aligned (page-aligned under real mmap).
  std::span<const uint8_t> bytes() const { return {data_, size_}; }
  size_t size() const { return size_; }

  /// Page-cache access hints for the mapping.
  enum class Advice {
    kNormal,      // default readahead
    kSequential,  // aggressive readahead, drop-behind (full scans)
    kRandom,      // disable readahead (point queries)
    kWillNeed,    // prefetch the pages now (an imminent range query)
  };

  /// Forwards `advice` to madvise over the whole mapping. Purely a hint —
  /// errors are ignored, and the heap-buffer fallback (no POSIX mmap) is a
  /// no-op. The store layer calls this to prefetch the shard(s) a batched
  /// query is about to walk (ROADMAP, scale-out).
  void Advise(Advice advice) const {
#if NEATS_HAS_MMAP
    if (data_ == nullptr) return;
    int flag = MADV_NORMAL;
    switch (advice) {
      case Advice::kNormal: flag = MADV_NORMAL; break;
      case Advice::kSequential: flag = MADV_SEQUENTIAL; break;
      case Advice::kRandom: flag = MADV_RANDOM; break;
      case Advice::kWillNeed: flag = MADV_WILLNEED; break;
    }
    (void)::madvise(const_cast<uint8_t*>(data_), size_, flag);
#else
    (void)advice;
#endif
  }

 private:
  [[noreturn]] static void ThrowErrno(const std::string& what,
                                      const std::string& path,
                                      int err = errno) {
    throw Error(what + ": " + path + ": " + std::strerror(err),
                StatusCode::kIo);
  }

  void Reset() {
#if NEATS_HAS_MMAP
    if (data_ != nullptr) ::munmap(const_cast<uint8_t*>(data_), size_);
#endif
    data_ = nullptr;
    size_ = 0;
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
#if !NEATS_HAS_MMAP
  std::vector<uint64_t> fallback_;
#endif
};

}  // namespace neats
