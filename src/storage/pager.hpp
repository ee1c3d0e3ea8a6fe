// Pager: the engine's one way to open a segment image (DESIGN.md #8).
//
// A Blob is an immutable byte range with shared ownership. Two concrete
// kinds:
//
//   * MappedBlob — POSIX mmap(PROT_READ, MAP_PRIVATE) with optional
//     madvise residency hints; pages fault in on demand, the OS page cache
//     is the buffer pool, and the dataset may exceed RAM;
//   * HeapBlob — the file read into an 8-aligned heap buffer; the
//     portability fallback (and the "heap-loaded twin" the differential
//     tests compare the mapped path against).
//
// Lifetime/pinning: blobs are handed out as shared_ptr. A borrowed segment
// (api/sequence.hpp) keeps its blob alive; engine snapshots keep segments
// alive; so a mapping is pinned for the lifetime of every snapshot that
// can reach it, and unmapped exactly when the last reference drops. On
// POSIX an unlinked-but-mapped file stays readable, so compaction may
// delete a victim segment's file while old snapshots still serve from it.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WT_STORAGE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace wt::storage {

class Blob {
 public:
  virtual ~Blob() = default;
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool mapped() const { return mapped_; }

 protected:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
};

/// Residency hint applied when a file is mapped.
enum class Advise {
  kNormal,    // default kernel readahead
  kRandom,    // point-query serving: don't over-read around faults
  kWillNeed,  // prefetch the whole file (verification passes do this anyway)
};

class HeapBlob final : public Blob {
 public:
  explicit HeapBlob(size_t size)  // for_overwrite: the caller fills it —
      : words_(std::make_unique_for_overwrite<uint64_t[]>((size + 7) / 8)) {
    data_ = reinterpret_cast<const uint8_t*>(words_.get());
    size_ = size;
  }
  uint8_t* mutable_data() {
    return reinterpret_cast<uint8_t*>(words_.get());
  }

 private:
  // uint64_t backing guarantees the 8-byte alignment borrowed arrays need.
  std::unique_ptr<uint64_t[]> words_;
};

/// Reads a whole file into a HeapBlob; null + *err on failure.
inline std::shared_ptr<const Blob> ReadFileBlob(const std::string& path,
                                                std::string* err) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) {
    if (err != nullptr) *err = "cannot open " + path;
    return nullptr;
  }
  const std::streamoff size = in.tellg();
  in.seekg(0);
  auto blob = std::make_shared<HeapBlob>(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(blob->mutable_data()), size);
  if (in.gcount() != size) {
    if (err != nullptr) *err = "short read on " + path;
    return nullptr;
  }
  return blob;
}

#if WT_STORAGE_HAS_MMAP
class MappedBlob final : public Blob {
 public:
  ~MappedBlob() override {
    if (addr_ != nullptr && len_ != 0) ::munmap(addr_, len_);
  }

  static std::shared_ptr<const Blob> Map(const std::string& path, Advise adv,
                                         std::string* err) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (err != nullptr) *err = "cannot open " + path;
      return nullptr;
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      if (err != nullptr) *err = "cannot stat " + path;
      return nullptr;
    }
    const size_t len = static_cast<size_t>(st.st_size);
    auto blob = std::make_shared<MappedBlob>();
    if (len > 0) {
      void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
      if (addr == MAP_FAILED) {
        ::close(fd);
        if (err != nullptr) *err = "mmap failed on " + path;
        return nullptr;
      }
      blob->addr_ = addr;
      blob->len_ = len;
      blob->data_ = static_cast<const uint8_t*>(addr);
      blob->size_ = len;
      blob->mapped_ = true;
      switch (adv) {
        case Advise::kNormal:
          break;
        case Advise::kRandom:
          ::madvise(addr, len, MADV_RANDOM);
          break;
        case Advise::kWillNeed:
          ::madvise(addr, len, MADV_WILLNEED);
          break;
      }
    }
    ::close(fd);  // the mapping outlives the descriptor
    return blob;
  }

 private:
  void* addr_ = nullptr;
  size_t len_ = 0;
};
#endif  // WT_STORAGE_HAS_MMAP

/// Maps a file (heap-reads where mmap is unavailable or declined).
inline std::shared_ptr<const Blob> MapFileBlob(const std::string& path,
                                               bool prefer_mmap, Advise adv,
                                               std::string* err) {
#if WT_STORAGE_HAS_MMAP
  if (prefer_mmap) return MappedBlob::Map(path, adv, err);
#else
  (void)prefer_mmap;
  (void)adv;
#endif
  return ReadFileBlob(path, err);
}

/// Where the pager gets its bytes: a VFS (io/vfs.hpp) implements this, so
/// fault injection reaches segment opens too. Lives here rather than in
/// io/ so the pager stays dependency-free; err-string style matches the
/// Blob loaders.
class BlobSource {
 public:
  virtual ~BlobSource() = default;
  virtual std::shared_ptr<const Blob> MapOrRead(const std::string& path,
                                                bool prefer_mmap, Advise adv,
                                                std::string* err) = 0;
};

/// Maps segment files through a BlobSource and instruments each mapping
/// (DESIGN.md #12): wt_pager_maps_total, wt_pager_unmaps_total and the
/// wt_pager_mapped_bytes gauge. There is no cache: the engine maps a
/// segment file once, at Open or right after its save, and snapshots share
/// the Segment (hence its mapping), never the path.
class Pager {
 public:
  /// `source` is not owned and must outlive the pager (the engine owns
  /// both). The registry is shared on purpose: unmaps are counted (and
  /// mapped bytes released) when the last snapshot pinning a blob drops
  /// it, which can be after the engine is gone.
  Pager(BlobSource& source, std::shared_ptr<wt::obs::MetricsRegistry> metrics)
      : source_(source),
        metrics_(std::move(metrics)),
        maps_(metrics_->GetCounter("wt_pager_maps_total")),
        unmaps_(metrics_->GetCounter("wt_pager_unmaps_total")),
        mapped_bytes_(metrics_->GetGauge("wt_pager_mapped_bytes")) {}

  std::shared_ptr<const Blob> Map(const std::string& path, std::string* err) {
    // End arg = mapped size.
    wt::obs::ScopedSpan map_span(wt::obs::Tracer::Get(),
                                 wt::obs::TraceName::kPagerMap);
    std::shared_ptr<const Blob> blob = source_.MapOrRead(
        path, /*prefer_mmap=*/true, Advise::kNormal, err);
    if (blob == nullptr) return nullptr;
    map_span.SetEndArg(blob->size());
    maps_->Increment();
    mapped_bytes_->Add(static_cast<int64_t>(blob->size()));
    // The wrapper counts the unmap when the last pin drops.
    return std::make_shared<TrackedBlob>(std::move(blob), metrics_, unmaps_,
                                         mapped_bytes_);
  }

 private:
  /// Forwards to an inner blob; on destruction bumps the unmap counter,
  /// releases the mapped-bytes gauge, and drops an unmap instant on the
  /// trace timeline. Holds the registry shared_ptr so the instruments stay
  /// valid even when a long-lived snapshot outlives the pager that mapped
  /// the file.
  class TrackedBlob final : public Blob {
   public:
    TrackedBlob(std::shared_ptr<const Blob> inner,
                std::shared_ptr<wt::obs::MetricsRegistry> keepalive,
                wt::obs::Counter* unmaps, wt::obs::Gauge* mapped_bytes)
        : inner_(std::move(inner)),
          keepalive_(std::move(keepalive)),
          unmaps_(unmaps),
          mapped_bytes_(mapped_bytes) {
      data_ = inner_->data();
      size_ = inner_->size();
      mapped_ = inner_->mapped();
    }
    ~TrackedBlob() override {
      unmaps_->Increment();
      mapped_bytes_->Add(-static_cast<int64_t>(size_));
      wt::obs::Tracer::Get().Instant(wt::obs::TraceName::kPagerUnmap, size_);
    }

   private:
    std::shared_ptr<const Blob> inner_;
    std::shared_ptr<wt::obs::MetricsRegistry> keepalive_;
    wt::obs::Counter* unmaps_;
    wt::obs::Gauge* mapped_bytes_;
  };

  BlobSource& source_;
  std::shared_ptr<wt::obs::MetricsRegistry> metrics_;
  wt::obs::Counter* maps_;
  wt::obs::Counter* unmaps_;
  wt::obs::Gauge* mapped_bytes_;
};

}  // namespace wt::storage
