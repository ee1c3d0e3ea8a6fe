// Per-shard write-ahead log (DESIGN.md #7).
//
// Durability for the engine's memtables: every ingest batch is split
// round-robin across shards, and each shard's slice is appended to that
// shard's current WAL file as one length-prefixed, FNV-1a-checksummed
// record *before* the slice reaches the memtable. WAL files are
// generational: each memtable rotation opens a fresh `wal-<shard>-<gen>.log`,
// and a generation is deleted once the memtable it fed has been frozen into
// a durably-saved segment (the manifest's `wal_floor` advances first, so a
// crash between the two steps only leaves a stale file that recovery
// ignores and deletes).
//
// Record framing (little-endian):
//
//   u64 batch_id | u32 batch_shards | u32 string_count |
//   u64 payload_len | u64 fnv1a(payload) | payload
//
// payload: per string, u64 bit length + ceil(len/64) raw words (the
// *encoded* string — values are binarized once at ingest and round-trip
// through the log as bits, so replay needs no codec pass).
//
// `batch_id`/`batch_shards` make an engine batch crash-atomic: recovery
// counts the slices it can read per batch id across all shard logs and
// replays only batches whose every slice survived — a torn tail (the crash
// happened mid-batch, some shard logs written, others not) is discarded
// whole, on every shard. Reading stops at the first record that is
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
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "common/bit_string.hpp"
#include "common/serialize.hpp"
#include "io/vfs.hpp"

namespace wtrie::engine {

/// One decoded WAL record: the slice of one engine batch routed to one
/// shard, in batch order.
struct WalRecord {
  uint64_t batch_id = 0;
  uint32_t batch_shards = 0;  // shards the whole batch touched
  std::vector<wt::BitString> strings;
};

/// On-disk framing of one WAL record, immediately followed by
/// `payload_len` payload bytes. Written and read as one POD, so the layout
/// below IS the format; common/layout_contracts.hpp pins its size and every
/// field offset, making an accidental reorder or retype a compile error.
struct WalRecordHeader {
  uint64_t batch_id = 0;
  uint32_t batch_shards = 0;
  uint32_t string_count = 0;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;  // FNV-1a over the payload bytes
};
static_assert(sizeof(WalRecordHeader) == 32);

/// `batch_shards` of a revocation record: after a mid-batch append failure
/// the engine logs an empty record with this marker, so the batch's slice
/// count can never agree across records and recovery discards the batch —
/// even when the failed operation was only the fsync and the data slice
/// itself reached the disk complete. (Recovery needs no special case:
/// disagreeing slice counts already mean "never complete".)
inline constexpr uint32_t kRevokedBatchShards = UINT32_MAX;

/// Appender for one shard's current WAL generation. Not thread-safe: the
/// engine writes it only under its ingest lock.
class WalWriter {
 public:
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

  /// Fsyncs the current generation — even when the writer runs with
  /// sync_wal=false. Rotation calls this before switching generations and
  /// the engine calls it on every shard before publishing a manifest,
  /// because recovery may depend on these records as the durable
  /// complement of *another* shard's segments (the manifest's
  /// `frozen_through` forgiveness): a staggered freeze stores a batch's
  /// shard-A slice in a segment while its shard-B slice still lives only
  /// in B's log. No-op when the writer is closed.
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

  /// Appends one record and flushes it to the OS (plus fsync when the
  /// engine was opened with sync_wal). The record is on disk before the
  /// caller touches the memtable. Spans must be word-aligned (start bit 0)
  /// — the engine always logs whole encoded strings. A closed writer (a
  /// previous Open or Append failed) reports an error rather than
  /// aborting: I/O trouble must surface as Status on the ingest path.
  Status Append(uint64_t batch_id, uint32_t batch_shards,
                const std::vector<wt::BitSpan>& strings) {
    if (file_ == nullptr) {
      return Status::Error(ErrorCode::kIoError, "wal: writer is not open");
    }
    std::ostringstream payload;
    for (const wt::BitSpan& s : strings) {
      WT_DASSERT(s.start_bit() == 0);
      wt::WritePod<uint64_t>(payload, s.size());
      const size_t words = (s.size() + 63) / 64;
      payload.write(reinterpret_cast<const char*>(s.words()),
                    static_cast<std::streamsize>(words * sizeof(uint64_t)));
    }
    const std::string body = std::move(payload).str();

    // Header and body go down in ONE write: a fault injector (or a real
    // short write) then tears at most one buffer, which the checksum
    // catches, instead of leaving a valid header over missing bytes.
    WalRecordHeader hdr;
    hdr.batch_id = batch_id;
    hdr.batch_shards = batch_shards;
    hdr.string_count = static_cast<uint32_t>(strings.size());
    hdr.payload_len = body.size();
    hdr.checksum = wt::Fnv1a(body.data(), body.size());
    std::ostringstream record;
    wt::WritePod(record, hdr);
    record.write(body.data(), static_cast<std::streamsize>(body.size()));
    const std::string bytes = std::move(record).str();

    Status st = file_->Append(bytes.data(), bytes.size());
    if (st.ok() && sync_) st = file_->Sync();
    return st;
  }

 private:
  std::unique_ptr<wt::io::VfsFile> file_;
  bool sync_ = false;
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
    WalRecord rec;
    WalRecordHeader hdr;
    if (remaining < sizeof(hdr)) return out;
    std::memcpy(&hdr, p, sizeof(hdr));
    p += sizeof(hdr);
    remaining -= sizeof(hdr);
    rec.batch_id = hdr.batch_id;
    rec.batch_shards = hdr.batch_shards;
    const uint32_t count = hdr.string_count;
    const uint64_t len = hdr.payload_len;
    // The length field is untrusted until the checksum matches; bounding it
    // by the bytes actually left keeps a torn header from ballooning
    // anything (the whole file is already in memory).
    if (len > remaining) return out;
    if (wt::Fnv1a(p, len) != hdr.checksum) return out;
    const char* body = p;
    p += len;
    remaining -= len;

    // The payload's inner fields are untrusted even after the checksum
    // matches (FNV-1a is not collision-resistant): bound each per-string
    // bit length by the bytes actually left in the payload *before*
    // computing the word count, so a huge `bits` can neither wrap
    // (bits+63)/64 into an undersized buffer read out of bounds nor
    // balloon the allocation.
    const char* q = body;
    uint64_t body_left = len;
    rec.strings.reserve(count);
    std::vector<uint64_t> words;
    bool bad = false;
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t bits = 0;
      if (body_left < sizeof(bits)) {
        bad = true;
        break;
      }
      std::memcpy(&bits, q, sizeof(bits));
      q += sizeof(bits);
      body_left -= sizeof(bits);
      if (bits > body_left * 8) {  // also rules out bits+63 wrap
        bad = true;
        break;
      }
      const uint64_t nwords = (bits + 63) / 64;
      const uint64_t nbytes = nwords * sizeof(uint64_t);
      if (nbytes > body_left) {  // bits fit, but not whole words
        bad = true;
        break;
      }
      words.assign(nwords, 0);
      std::memcpy(words.data(), q, nbytes);
      q += nbytes;
      body_left -= nbytes;
      wt::BitString s;
      if (bits > 0) s.Append(wt::BitSpan(words.data(), 0, bits));
      rec.strings.push_back(std::move(s));
    }
    if (bad) return out;
    out.push_back(std::move(rec));
  }
}

/// Reads every intact record of one WAL file. A missing or unreadable file
/// is an empty log (recovery treats both the same).
inline std::vector<WalRecord> ReadWalFile(wt::io::Vfs& vfs,
                                          const std::string& path) {
  wtrie::Result<std::string> file = vfs.ReadFile(path);
  if (!file.ok()) return {};
  return ParseWalBytes(file->data(), file->size());
}

}  // namespace wtrie::engine
