// Virtual filesystem seam for every durability path (DESIGN.md #9).
//
// The engine promises crash-atomic batches and a store that always reopens,
// but those claims are only as good as the code's behavior under ENOSPC,
// EIO, short writes, torn pages, and power loss at *every* syscall — none
// of which a real filesystem will produce on demand. This header puts one
// minimal seam under all of it:
//
//   * `Vfs` — open/append/fsync/fsync-dir/rename/remove/read/list/map. The
//     durability layers (engine/wal.hpp, engine/manifest.hpp, the engine's
//     SaveSegment/orphan scan, storage/pager.hpp via `BlobSource`) perform
//     file I/O exclusively through it.
//   * `RealVfs` — the production implementation: the exact syscalls the
//     code made before the seam existed, plus checked fwrite/fclose
//     returns and real fsync/fsync-dir. Stateless singleton; zero overhead
//     on hot paths (reads are mapped once at open, never per-query).
//   * `FaultVfs` — a deterministic, fully in-memory filesystem for tests:
//     fail the N-th operation with an errno-style error, tear the tail of
//     a write, or simulate power loss. Every file tracks its *synced*
//     prefix (committed by Fsync) separately from its current content, and
//     the namespace (which names exist, what they point at) tracks which
//     creations/renames/removes a directory fsync has committed. At a
//     chosen operation index the "power fails": every later operation
//     returns an error, and `CrashFiles()` reconstructs the possible
//     post-crash disk states — metadata journaled eagerly or only at
//     fsync-dir, unsynced data dropped / torn / fully present — for a
//     fresh Engine::Open to recover from. tests/crash_torture_test.cpp
//     sweeps every prefix of a scripted workload through this.
//
// The model is deliberately adversarial but realistic: file data survives a
// crash only up to the last Fsync; a rename/create/remove survives either
// always (journaling filesystems commit metadata on their own schedule —
// possibly *before* the file's data) or only once the parent directory was
// fsynced. Durable code must therefore fsync file contents before
// publishing a name that refers to them, and fsync the directory before
// depending on the name itself — exactly the ordering the engine's
// SaveSegment/PersistManifest now follow.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/result.hpp"
#include "common/thread_annotations.hpp"
#include "storage/pager.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WT_IO_HAS_FSYNC 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace wt::io {

using wtrie::ErrorCode;
using wtrie::Result;
using wtrie::Status;

/// A writable file handle. Append-only or truncate-created by Vfs::OpenWrite;
/// every operation reports failure as Status (never silently, never by
/// aborting). Destroying an open handle closes it, discarding any error.
class VfsFile {
 public:
  virtual ~VfsFile() = default;
  virtual Status Append(const void* data, size_t n) = 0;
  /// Flushes and makes the file's current content crash-durable.
  virtual Status Sync() = 0;
  /// Idempotent; returns the first error the close path hit.
  virtual Status Close() = 0;
};

/// The filesystem operations every durability path goes through. Thread-safe
/// (the engine calls it from ingest and background threads concurrently).
class Vfs : public wt::storage::BlobSource {
 public:
  ~Vfs() override = default;

  /// Opens for writing; `truncate` replaces existing content, otherwise
  /// appends. Creates the file when absent either way.
  virtual Result<std::unique_ptr<VfsFile>> OpenWrite(const std::string& path,
                                                     bool truncate) = 0;
  /// Whole-file read; kNotFound when the file does not exist.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Remove(const std::string& path) = 0;
  /// Makes the directory's namespace (creations, renames, removals of
  /// entries) crash-durable.
  virtual Status SyncDir(const std::string& dir) = 0;
  virtual Status CreateDirs(const std::string& dir) = 0;
  virtual bool Exists(const std::string& path) = 0;
  /// Names (not paths) of the directory's entries.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
  // BlobSource::MapOrRead(path, prefer_mmap, advise, err) completes the
  // surface: zero-copy (or buffered) reads for segment images.
};

/// The directory component of a path ("." when there is none).
inline std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// ---------------------------------------------------------------- RealVfs

class RealVfs final : public Vfs {
 public:
  /// The production filesystem; stateless, shared by every engine that does
  /// not inject its own.
  static RealVfs& Instance() {
    static RealVfs vfs;
    return vfs;
  }

  Result<std::unique_ptr<VfsFile>> OpenWrite(const std::string& path,
                                             bool truncate) override {
    std::FILE* f = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (f == nullptr) {
      return Status::Error(ErrorCode::kIoError, "vfs: cannot open for write");
    }
    return std::unique_ptr<VfsFile>(new RealFile(f));
  }

  Result<std::string> ReadFile(const std::string& path) override {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.good()) {
      std::error_code ec;
      if (!std::filesystem::exists(path, ec)) {
        return Status::Error(ErrorCode::kNotFound, "vfs: no such file");
      }
      return Status::Error(ErrorCode::kIoError, "vfs: cannot open for read");
    }
    const std::streamoff size = in.tellg();
    in.seekg(0);
    std::string out(static_cast<size_t>(size), '\0');
    in.read(out.data(), size);
    if (in.gcount() != size) {
      return Status::Error(ErrorCode::kIoError, "vfs: short read");
    }
    return out;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    if (ec) return Status::Error(ErrorCode::kIoError, "vfs: rename failed");
    return Status::Ok();
  }

  Status Remove(const std::string& path) override {
    std::error_code ec;
    if (!std::filesystem::remove(path, ec) || ec) {
      if (ec) return Status::Error(ErrorCode::kIoError, "vfs: remove failed");
      return Status::Error(ErrorCode::kNotFound, "vfs: no such file");
    }
    return Status::Ok();
  }

  Status SyncDir(const std::string& dir) override {
#if WT_IO_HAS_FSYNC
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::Error(ErrorCode::kIoError, "vfs: cannot open directory");
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::Error(ErrorCode::kIoError, "vfs: directory fsync failed");
    }
#else
    (void)dir;
#endif
    return Status::Ok();
  }

  Status CreateDirs(const std::string& dir) override {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return Status::Error(ErrorCode::kIoError, "vfs: mkdir failed");
    return Status::Ok();
  }

  bool Exists(const std::string& path) override {
    std::error_code ec;
    return std::filesystem::exists(path, ec);
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec), end;
    if (ec) {
      return Status::Error(ErrorCode::kIoError, "vfs: cannot list directory");
    }
    std::vector<std::string> names;
    for (; !ec && it != end; it.increment(ec)) {
      names.push_back(it->path().filename().string());
    }
    if (ec) {
      return Status::Error(ErrorCode::kIoError, "vfs: directory walk failed");
    }
    return names;
  }

  std::shared_ptr<const wt::storage::Blob> MapOrRead(
      const std::string& path, bool prefer_mmap, wt::storage::Advise adv,
      std::string* err) override {
    return wt::storage::MapFileBlob(path, prefer_mmap, adv, err);
  }

 private:
  /// FILE*-backed handle with every libc return value checked: a partial
  /// fwrite, a failed fflush, or an error surfaced at fclose all become
  /// Status the caller must handle (previously the WAL dropped them).
  class RealFile final : public VfsFile {
   public:
    explicit RealFile(std::FILE* f) : file_(f) {}
    ~RealFile() override { (void)CloseImpl(); }

    Status Append(const void* data, size_t n) override {
      if (file_ == nullptr) {
        return Status::Error(ErrorCode::kIoError, "vfs: file is closed");
      }
      if (n > 0 && std::fwrite(data, 1, n, file_) != n) {
        return Status::Error(ErrorCode::kIoError, "vfs: short write");
      }
      if (std::fflush(file_) != 0) {
        return Status::Error(ErrorCode::kIoError, "vfs: flush failed");
      }
      return Status::Ok();
    }

    Status Sync() override {
      if (file_ == nullptr) {
        return Status::Error(ErrorCode::kIoError, "vfs: file is closed");
      }
      if (std::fflush(file_) != 0) {
        return Status::Error(ErrorCode::kIoError, "vfs: flush failed");
      }
#if WT_IO_HAS_FSYNC
      if (::fsync(fileno(file_)) != 0) {
        return Status::Error(ErrorCode::kIoError, "vfs: fsync failed");
      }
#endif
      return Status::Ok();
    }

    Status Close() override { return CloseImpl(); }

   private:
    Status CloseImpl() {
      if (file_ == nullptr) return Status::Ok();
      std::FILE* f = file_;
      file_ = nullptr;
      if (std::fclose(f) != 0) {
        return Status::Error(ErrorCode::kIoError, "vfs: close failed");
      }
      return Status::Ok();
    }

    std::FILE* file_;
  };
};

// --------------------------------------------------------------- FaultVfs

/// Deterministic fault-injecting in-memory filesystem (tests only; lives in
/// the library because it *is* the product's testability seam, the way
/// SQLite ships its test VFSes). Not a persistence backend: contents live
/// in process memory, mapped blobs are heap copies.
class FaultVfs final : public Vfs {
 public:
  /// Operation kinds, for traces and fault targeting. Every kind is
  /// counted by the global operation index that FailOpAt/CrashAt key on.
  enum class Op {
    kOpenWrite,
    kWrite,
    kSync,
    kSyncDir,
    kRename,
    kRemove,
    kRead,
    kMap,
    kList,
    kMkdir,
    kClose,
  };

  struct TraceEntry {
    Op op;
    std::string path;
  };

  /// What the metadata journal had committed when the power failed.
  enum class MetadataMode {
    /// Namespace changes survive only if SyncDir covered them — the
    /// conservative reading of POSIX.
    kConservative,
    /// Every namespace change survives (journaling filesystems commit
    /// metadata on their own schedule, often *before* file data) — the
    /// mode that exposes a rename published over unsynced bytes.
    kEager,
  };

  /// What happened to file bytes written after their last Fsync.
  enum class DataMode {
    kDropUnsynced,  // none of them reached the platter
    kTornTail,      // half of them did, and the last surviving byte is
                    // corrupt (a torn page)
    kKeepAll,       // all of them did (also models a process-only crash)
  };

  FaultVfs() = default;

  /// A filesystem seeded with a post-crash state (everything it contains is
  /// considered synced).
  explicit FaultVfs(std::map<std::string, std::string> files) {
    for (auto& [path, data] : files) {
      auto node = std::make_shared<Inode>();
      node->synced = data.size();
      node->data = std::move(data);
      current_[path] = node;
      durable_[path] = node;
    }
  }

  // ------------------------------------------------------- fault scripting

  /// Fails the operation with global index `index` (0-based) once, with a
  /// clean I/O error — the deterministic stand-in for ENOSPC/EIO. When
  /// `torn` and the operation is a write, the first half of the buffer is
  /// applied with its final byte bit-flipped before the error returns (a
  /// short write that also corrupted its tail).
  void FailOpAt(uint64_t index, bool torn = false) {
    wt::MutexLock lk(mu_);
    fail_at_ = index;
    fail_torn_ = torn;
    fail_armed_ = true;
  }

  /// Fails the next `op` on `path`, once, with a clean I/O error, whatever
  /// its global index: the deterministic fault for an operation that races
  /// background work (a freeze job's I/O interleaves with ingest's).
  void FailNext(Op op, const std::string& path) {
    wt::MutexLock lk(mu_);
    fail_next_.push_back({op, path});
  }

  /// Simulates power loss: operations with index >= `index` fail and change
  /// nothing; CrashFiles() then reconstructs what a disk could hold.
  void CrashAt(uint64_t index) {
    wt::MutexLock lk(mu_);
    crash_at_ = index;
  }

  /// When set, Sync/SyncDir succeed without committing anything — replays
  /// the pre-seam code (which never called them) through the same call
  /// sites, so a test can prove the fsyncs are load-bearing.
  void SetFsyncNoop(bool noop) {
    wt::MutexLock lk(mu_);
    fsync_noop_ = noop;
  }

  uint64_t OpCount() const {
    wt::MutexLock lk(mu_);
    return op_count_;
  }

  bool CrashTriggered() const {
    wt::MutexLock lk(mu_);
    return crashed_;
  }

  std::vector<TraceEntry> Trace() const {
    wt::MutexLock lk(mu_);
    return trace_;
  }

  // ------------------------------------------------------ state extraction

  /// The current (live-process) content of every file — what a clean
  /// shutdown leaves behind.
  std::map<std::string, std::string> CurrentFiles() const {
    wt::MutexLock lk(mu_);
    std::map<std::string, std::string> out;
    for (const auto& [path, node] : current_) out[path] = node->data;
    return out;
  }

  /// One possible post-crash disk state. The namespace comes from the
  /// durable view (kConservative) or the live view (kEager); each file's
  /// content is its synced prefix plus whatever DataMode says survived of
  /// the unsynced tail.
  std::map<std::string, std::string> CrashFiles(MetadataMode meta,
                                                DataMode data) const {
    wt::MutexLock lk(mu_);
    const auto& ns = meta == MetadataMode::kEager ? current_ : durable_;
    std::map<std::string, std::string> out;
    for (const auto& [path, node] : ns) {
      std::string content = node->data.substr(0, node->synced);
      const size_t unsynced = node->data.size() - node->synced;
      switch (data) {
        case DataMode::kDropUnsynced:
          break;
        case DataMode::kTornTail:
          if (unsynced > 0) {
            const size_t keep = unsynced / 2;
            content.append(node->data, node->synced, keep);
            if (keep > 0) content.back() ^= 1;  // the torn page's bit flip
          }
          break;
        case DataMode::kKeepAll:
          content.append(node->data, node->synced, unsynced);
          break;
      }
      out[path] = std::move(content);
    }
    return out;
  }

  // --------------------------------------------------------- Vfs interface

  Result<std::unique_ptr<VfsFile>> OpenWrite(const std::string& path,
                                             bool truncate) override {
    wt::MutexLock lk(mu_);
    if (Status st = Enter(Op::kOpenWrite, path); !st.ok()) return st;
    auto it = current_.find(path);
    std::shared_ptr<Inode> node;
    if (it == current_.end() || truncate) {
      // A truncate of an existing name gets a fresh inode: the durable
      // namespace may still reference the old one, which then survives a
      // crash with its old content — the worst case a journal allows.
      node = std::make_shared<Inode>();
      current_[path] = node;
    } else {
      node = it->second;
    }
    return std::unique_ptr<VfsFile>(new FaultFile(this, path, std::move(node)));
  }

  Result<std::string> ReadFile(const std::string& path) override {
    wt::MutexLock lk(mu_);
    if (Status st = Enter(Op::kRead, path); !st.ok()) return st;
    auto it = current_.find(path);
    if (it == current_.end()) {
      return Status::Error(ErrorCode::kNotFound, "faultvfs: no such file");
    }
    return it->second->data;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    wt::MutexLock lk(mu_);
    if (Status st = Enter(Op::kRename, from); !st.ok()) return st;
    auto it = current_.find(from);
    if (it == current_.end()) {
      return Status::Error(ErrorCode::kNotFound, "faultvfs: rename source");
    }
    current_[to] = std::move(it->second);
    current_.erase(from);
    return Status::Ok();
  }

  Status Remove(const std::string& path) override {
    wt::MutexLock lk(mu_);
    if (Status st = Enter(Op::kRemove, path); !st.ok()) return st;
    if (current_.erase(path) == 0) {
      return Status::Error(ErrorCode::kNotFound, "faultvfs: no such file");
    }
    return Status::Ok();
  }

  Status SyncDir(const std::string& dir) override {
    wt::MutexLock lk(mu_);
    if (Status st = Enter(Op::kSyncDir, dir); !st.ok()) return st;
    if (fsync_noop_) return Status::Ok();
    // Commit the directory's namespace: durable entries under `dir` become
    // exactly the live ones. Inodes reachable only from stale durable names
    // disappear; newly created/renamed names appear.
    for (auto it = durable_.begin(); it != durable_.end();) {
      if (ParentDir(it->first) == dir && current_.find(it->first) == current_.end()) {
        it = durable_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& [path, node] : current_) {
      if (ParentDir(path) == dir) durable_[path] = node;
    }
    return Status::Ok();
  }

  Status CreateDirs(const std::string& dir) override {
    wt::MutexLock lk(mu_);
    if (Status st = Enter(Op::kMkdir, dir); !st.ok()) return st;
    return Status::Ok();  // the namespace is flat; directories are implicit
  }

  bool Exists(const std::string& path) override {
    // A stat: free and infallible (it mutates nothing, and a dead process
    // does not stat).
    wt::MutexLock lk(mu_);
    return current_.find(path) != current_.end();
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    wt::MutexLock lk(mu_);
    if (Status st = Enter(Op::kList, dir); !st.ok()) return st;
    std::vector<std::string> names;
    for (const auto& [path, node] : current_) {
      if (ParentDir(path) == dir) {
        names.push_back(path.substr(path.find_last_of('/') + 1));
      }
    }
    return names;  // map order: deterministic
  }

  std::shared_ptr<const wt::storage::Blob> MapOrRead(
      const std::string& path, bool /*prefer_mmap*/,
      wt::storage::Advise /*adv*/, std::string* err) override {
    wt::MutexLock lk(mu_);
    if (Status st = Enter(Op::kMap, path); !st.ok()) {
      if (err != nullptr) *err = st.message();
      return nullptr;
    }
    auto it = current_.find(path);
    if (it == current_.end()) {
      if (err != nullptr) *err = "faultvfs: no such file";
      return nullptr;
    }
    auto blob = std::make_shared<wt::storage::HeapBlob>(it->second->data.size());
    std::copy(it->second->data.begin(), it->second->data.end(),
              blob->mutable_data());
    return blob;
  }

 private:
  struct Inode {
    std::string data;
    size_t synced = 0;  // prefix of `data` committed by the last Sync
  };

  /// Counts the operation, records it, and applies scripted faults. Caller
  /// holds mu_. A crashed filesystem fails everything; a scripted one-shot
  /// fault fails exactly its operation. Returns Ok when the operation may
  /// proceed (torn-write handling lives in FaultFile::Append).
  Status Enter(Op op, const std::string& path) WT_REQUIRES(mu_) {
    const uint64_t idx = op_count_++;
    trace_.push_back({op, path});
    if (crashed_ || idx >= crash_at_) {
      crashed_ = true;
      return Status::Error(ErrorCode::kIoError, "faultvfs: simulated crash");
    }
    if (fail_armed_ && idx == fail_at_) {
      fail_armed_ = false;
      pending_torn_ = fail_torn_ && op == Op::kWrite;
      if (!pending_torn_) {
        return Status::Error(ErrorCode::kIoError, "faultvfs: injected fault");
      }
    }
    for (auto it = fail_next_.begin(); it != fail_next_.end(); ++it) {
      if (it->op == op && it->path == path) {
        fail_next_.erase(it);
        return Status::Error(ErrorCode::kIoError, "faultvfs: injected fault");
      }
    }
    return Status::Ok();
  }

  class FaultFile final : public VfsFile {
   public:
    FaultFile(FaultVfs* owner, std::string path, std::shared_ptr<Inode> node)
        : owner_(owner), path_(std::move(path)), node_(std::move(node)) {}
    ~FaultFile() override = default;

    Status Append(const void* data, size_t n) override {
      wt::MutexLock lk(owner_->mu_);
      if (closed_) {
        return Status::Error(ErrorCode::kIoError, "faultvfs: file is closed");
      }
      if (Status st = owner_->Enter(Op::kWrite, path_); !st.ok()) return st;
      const char* bytes = static_cast<const char*>(data);
      if (owner_->pending_torn_) {
        // A short write whose last surviving byte is corrupt: apply half
        // the buffer, flip a bit, report the error.
        owner_->pending_torn_ = false;
        const size_t keep = n / 2;
        node_->data.append(bytes, keep);
        if (keep > 0) node_->data.back() ^= 1;
        return Status::Error(ErrorCode::kIoError, "faultvfs: torn write");
      }
      node_->data.append(bytes, n);
      return Status::Ok();
    }

    Status Sync() override {
      wt::MutexLock lk(owner_->mu_);
      if (closed_) {
        return Status::Error(ErrorCode::kIoError, "faultvfs: file is closed");
      }
      if (Status st = owner_->Enter(Op::kSync, path_); !st.ok()) return st;
      if (!owner_->fsync_noop_) node_->synced = node_->data.size();
      return Status::Ok();
    }

    Status Close() override {
      wt::MutexLock lk(owner_->mu_);
      if (closed_) return Status::Ok();
      closed_ = true;
      return owner_->Enter(Op::kClose, path_);
    }

   private:
    FaultVfs* owner_;  // outlives the handle: the engine holds the Vfs
    std::string path_;
    std::shared_ptr<Inode> node_;
    bool closed_ WT_GUARDED_BY(owner_->mu_) = false;
  };

  mutable wt::Mutex mu_;
  // Live namespace.
  std::map<std::string, std::shared_ptr<Inode>> current_ WT_GUARDED_BY(mu_);
  // fsync-dir'd view of the namespace.
  std::map<std::string, std::shared_ptr<Inode>> durable_ WT_GUARDED_BY(mu_);
  std::vector<TraceEntry> trace_ WT_GUARDED_BY(mu_);
  uint64_t op_count_ WT_GUARDED_BY(mu_) = 0;
  uint64_t crash_at_ WT_GUARDED_BY(mu_) = UINT64_MAX;
  bool crashed_ WT_GUARDED_BY(mu_) = false;
  uint64_t fail_at_ WT_GUARDED_BY(mu_) = 0;
  bool fail_armed_ WT_GUARDED_BY(mu_) = false;
  bool fail_torn_ WT_GUARDED_BY(mu_) = false;
  bool pending_torn_ WT_GUARDED_BY(mu_) = false;
  bool fsync_noop_ WT_GUARDED_BY(mu_) = false;
  std::vector<TraceEntry> fail_next_ WT_GUARDED_BY(mu_);  // see FailNext
};

// ----------------------------------------------------------------- helpers

/// The tmp-write/fsync/rename/fsync-dir recipe every atomic file
/// publication uses: content is durable *before* the name points at it, and
/// the name is durable before the caller may rely on it (a power cut at any
/// step leaves either the old state or the new one, never a name over
/// unwritten bytes). On failure the tmp file is best-effort removed; the
/// recovery orphan scan deletes anything that slips through.
inline Status AtomicWriteFileDurable(Vfs& vfs, const std::string& tmp,
                                     const std::string& final_path,
                                     std::string_view data) {
  Result<std::unique_ptr<VfsFile>> file = vfs.OpenWrite(tmp, /*truncate=*/true);
  if (!file.ok()) return file.status();
  Status st = (*file)->Append(data.data(), data.size());
  if (st.ok()) st = (*file)->Sync();
  const Status close_st = (*file)->Close();
  if (st.ok()) st = close_st;
  if (st.ok()) st = vfs.Rename(tmp, final_path);
  if (st.ok()) st = vfs.SyncDir(ParentDir(final_path));
  if (!st.ok()) (void)vfs.Remove(tmp);
  return st;
}

}  // namespace wt::io
