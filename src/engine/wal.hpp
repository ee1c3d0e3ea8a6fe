// The engine's write-ahead log (DESIGN.md #7).
//
// Durability for the engine's memtables: every engine batch is appended to
// the one log as one length-prefixed, FNV-1a-checksummed record *before*
// any of its strings reaches a memtable. The log is a run of generations,
// `wal-<gen>-<first>.log` (manifest.hpp WalFileName): the number orders
// them and `first` is the global position the generation starts at. The
// engine rolls to a fresh generation when a shard rotates its memtable, at
// Flush, and after a failed append; a generation is deleted once its
// successor starts inside the prefix every shard's saved segments hold.
//
// Record framing (little-endian):
//
//   u64 first | u64 string_count | u64 payload_len | u64 checksum | payload
//
// `first` is the global position of the batch's first string. The checksum
// is FNV-1a over the three header fields before it and then the payload,
// so a flipped position bit fails the record exactly like a flipped
// payload bit: a record can never place intact strings at wrong positions.
//
// payload: per string, u64 bit length + ceil(len/64) raw words (the
// *encoded* string — values are binarized once at ingest and round-trip
// through the log as bits, so replay needs no codec pass).
//
// A record is the whole batch, so the checksum alone makes a batch
// crash-atomic. Reading a generation stops at the first record that is
// truncated or fails its checksum; everything before it is intact because
// records are appended and flushed in order.
//
// All I/O goes through the VFS seam (io/vfs.hpp): the real filesystem in
// production, a deterministic fault injector under the crash-torture tests.
// Every write, flush, and close return value is checked and surfaced as
// Status — a partial fwrite or an error deferred to fclose can never leave
// a record silently half-written.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "common/bit_string.hpp"
#include "common/serialize.hpp"
#include "io/vfs.hpp"

namespace wtrie::engine {

/// One decoded WAL record: one engine batch, whose strings sit at global
/// positions [first, first + strings.size()).
struct WalRecord {
  uint64_t first = 0;
  std::vector<wt::BitString> strings;
};

/// On-disk framing of one WAL record, immediately followed by
/// `payload_len` payload bytes. Written and read as one POD, so the layout
/// below IS the format; common/layout_contracts.hpp pins its size and every
/// field offset, making an accidental reorder or retype a compile error.
struct WalRecordHeader {
  uint64_t first = 0;
  uint64_t string_count = 0;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;  // FNV-1a over the fields above, then the payload
};
static_assert(sizeof(WalRecordHeader) == 32);

/// Header bytes the checksum covers (every field before it).
inline constexpr size_t kWalChecksummedHeaderBytes =
    offsetof(WalRecordHeader, checksum);

/// Appender for the current WAL generation. Not thread-safe: the engine
/// writes it only under its ingest lock.
class WalWriter {
 public:
  /// The fixed staging buffer a record streams through: a batch is never
  /// copied whole, however large.
  static constexpr size_t kBufferBytes = size_t{1} << 16;

  WalWriter() = default;
  ~WalWriter() { (void)Close(); }
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  Status Open(wt::io::Vfs& vfs, const std::string& path, bool sync) {
    (void)Close();
    wtrie::Result<std::unique_ptr<wt::io::VfsFile>> f =
        vfs.OpenWrite(path, /*truncate=*/false);
    if (!f.ok()) return f.status();
    file_ = std::move(*f);
    sync_ = sync;
    if (sync_) {
      // In sync mode the acknowledgement contract covers this generation's
      // *name* too: without a parent-directory fsync, a power cut can drop
      // the freshly created file from the namespace even though every
      // record in it was fsynced — losing acknowledged batches.
      Status st = vfs.SyncDir(wt::io::ParentDir(path));
      if (!st.ok()) {
        (void)Close();
        return st;
      }
    }
    return Status::Ok();
  }

  bool is_open() const { return file_ != nullptr; }

  /// Fsyncs the generation — even when the writer runs with
  /// sync_wal=false. The engine calls this when it rolls past the
  /// generation and before every manifest write: a listed segment may
  /// reach past the prefix every shard has saved (shards freeze
  /// independently), and recovery then needs the log to cover the rest of
  /// that stretch for the other shards. No-op when the writer is closed.
  Status SyncFile() {
    if (file_ == nullptr) return Status::Ok();
    return file_->Sync();
  }

  /// Closes the handle, surfacing any error the close path reports (libc
  /// may defer a write failure to fclose). Idempotent.
  Status Close() {
    if (file_ == nullptr) return Status::Ok();
    std::unique_ptr<wt::io::VfsFile> f = std::move(file_);
    return f->Close();
  }

  /// Appends one record — the batch `strings` at global positions
  /// [first, first + strings.size()) — and flushes it to the OS (plus
  /// fsync when the engine was opened with sync_wal). The record is on
  /// disk before the caller touches a memtable. Two passes over the
  /// strings: the checksum, then the bytes through the fixed buffer. A
  /// record that fits the buffer goes down in ONE write, so a fault
  /// injector (or a real short write) tears at most that buffer, which the
  /// checksum catches. A closed writer (a previous Open failed) reports an
  /// error rather than aborting: I/O trouble must surface as Status on the
  /// ingest path.
  Status Append(uint64_t first, std::span<const wt::BitString> strings) {
    if (file_ == nullptr) {
      return Status::Error(ErrorCode::kIoError, "wal: writer is not open");
    }
    WalRecordHeader hdr;
    hdr.first = first;
    hdr.string_count = strings.size();
    for (const wt::BitString& s : strings) {
      hdr.payload_len += sizeof(uint64_t) + PayloadBytes(s);
    }
    uint64_t sum = wt::Fnv1a(&hdr, kWalChecksummedHeaderBytes);
    for (const wt::BitString& s : strings) {
      const uint64_t bits = s.size();
      sum = wt::Fnv1a(&bits, sizeof(bits), sum);
      sum = wt::Fnv1a(s.Span().words(), PayloadBytes(s), sum);
    }
    hdr.checksum = sum;

    if (buf_ == nullptr) buf_ = std::make_unique<char[]>(kBufferBytes);
    used_ = 0;
    Status st = Put(&hdr, sizeof(hdr));
    for (size_t i = 0; st.ok() && i < strings.size(); ++i) {
      const wt::BitString& s = strings[i];
      const uint64_t bits = s.size();
      st = Put(&bits, sizeof(bits));
      if (st.ok()) st = Put(s.Span().words(), PayloadBytes(s));
    }
    if (st.ok() && used_ > 0) st = file_->Append(buf_.get(), used_);
    if (st.ok() && sync_) st = file_->Sync();
    return st;
  }

 private:
  static size_t PayloadBytes(const wt::BitString& s) {
    return (s.size() + 63) / 64 * sizeof(uint64_t);
  }

  /// Copies bytes into the staging buffer, writing it out whenever full.
  Status Put(const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      const size_t take = std::min(n, kBufferBytes - used_);
      std::memcpy(buf_.get() + used_, p, take);
      used_ += take;
      p += take;
      n -= take;
      if (used_ == kBufferBytes) {
        if (Status st = file_->Append(buf_.get(), used_); !st.ok()) return st;
        used_ = 0;
      }
    }
    return Status::Ok();
  }

  std::unique_ptr<wt::io::VfsFile> file_;
  bool sync_ = false;
  std::unique_ptr<char[]> buf_;
  size_t used_ = 0;
};

/// Parses every intact record out of one WAL file's bytes, stopping
/// (without error) at the first truncated or corrupt one — by construction
/// that is the crash tail, and every complete record precedes it. Pure
/// bytes-in/records-out so the fuzzer (fuzz/fuzz_wal.cpp) can drive it
/// directly; recovery calls it through ReadWalFile below.
inline std::vector<WalRecord> ParseWalBytes(const char* p, size_t size) {
  std::vector<WalRecord> out;
  uint64_t remaining = size;

  for (;;) {
    WalRecordHeader hdr;
    if (remaining < sizeof(hdr)) return out;
    std::memcpy(&hdr, p, sizeof(hdr));
    const char* body = p + sizeof(hdr);
    remaining -= sizeof(hdr);
    const uint64_t len = hdr.payload_len;
    // The length field is untrusted until the checksum matches; bounding it
    // by the bytes actually left keeps a torn header from ballooning
    // anything (the whole file is already in memory).
    if (len > remaining) return out;
    if (wt::Fnv1a(body, len, wt::Fnv1a(p, kWalChecksummedHeaderBytes)) !=
        hdr.checksum) {
      return out;
    }
    p = body + len;
    remaining -= len;

    // The payload's inner fields are untrusted even after the checksum
    // matches (FNV-1a is not collision-resistant): every string takes at
    // least its 8-byte length, which bounds the count before anything is
    // reserved, and each per-string bit length is bounded by the bytes
    // actually left *before* computing the word count, so a huge `bits`
    // can neither wrap (bits+63)/64 into an undersized buffer read out of
    // bounds nor balloon the allocation. The strings must use up the
    // payload exactly.
    if (hdr.string_count > len / sizeof(uint64_t)) return out;
    WalRecord rec;
    rec.first = hdr.first;
    rec.strings.reserve(hdr.string_count);
    const char* q = body;
    uint64_t body_left = len;
    std::vector<uint64_t> words;
    for (uint64_t i = 0; i < hdr.string_count; ++i) {
      uint64_t bits = 0;
      if (body_left < sizeof(bits)) return out;
      std::memcpy(&bits, q, sizeof(bits));
      q += sizeof(bits);
      body_left -= sizeof(bits);
      if (bits > body_left * 8) return out;  // also rules out bits+63 wrap
      const uint64_t nbytes = (bits + 63) / 64 * sizeof(uint64_t);
      if (nbytes > body_left) return out;  // bits fit, but not whole words
      wt::BitString s;
      if (bits > 0) {
        words.assign(nbytes / sizeof(uint64_t), 0);
        std::memcpy(words.data(), q, nbytes);
        s.Append(wt::BitSpan(words.data(), 0, bits));
      }
      q += nbytes;
      body_left -= nbytes;
      rec.strings.push_back(std::move(s));
    }
    if (body_left != 0) return out;
    out.push_back(std::move(rec));
  }
}

/// Reads every intact record of one WAL file. An unreadable file is an
/// error, not an empty log: recovery must not mistake an I/O failure for
/// lost records.
inline Result<std::vector<WalRecord>> ReadWalFile(wt::io::Vfs& vfs,
                                                  const std::string& path) {
  wtrie::Result<std::string> file = vfs.ReadFile(path);
  if (!file.ok()) return file.status();
  return ParseWalBytes(file->data(), file->size());
}

}  // namespace wtrie::engine
