// Engine manifest: the authoritative record of which files constitute a
// durable engine directory (DESIGN.md #7).
//
// One file, `MANIFEST`, wrapped in the library's versioned checksummed
// envelope (common/serialize.hpp) and replaced atomically (write
// `MANIFEST.tmp`, then rename): a crash while rewriting leaves the previous
// manifest intact. Everything else in the directory is derived state:
//
//   * segment files `seg-<shard>-<seq>.wt`  — listed per shard, in stack
//     order (seq numbers only name files; order comes from the list);
//   * WAL generations `wal-<gen>-<first>.log` — NOT listed; recovery reads
//     every generation present, in generation order (engine/wal.hpp).
//
// The manifest names no WAL position: the prefix the segments hold follows
// from the segment counts alone (recovery_invariants.hpp DurablePrefix).
// Files present on disk but not reachable from the manifest (a crash
// between writing a segment and publishing it, or between publishing a
// compaction and deleting its inputs) are garbage; recovery removes them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "common/serialize.hpp"
#include "io/vfs.hpp"

namespace wtrie::engine {

struct SegmentMeta {
  uint64_t seq = 0;    // file name component, unique per shard
  uint64_t count = 0;  // strings stored in the segment
};

struct ShardMeta {
  uint64_t next_seg_seq = 0;  // never reused, so orphan files cannot collide
  std::vector<SegmentMeta> segments;  // stack order: oldest first
};

struct Manifest {
  static constexpr uint64_t kMagic = 0x5754454E47494E31ull;  // "WTENGIN1"
  // Every envelope reader accepts exactly one version: older manifests are
  // refused as a version mismatch, with no second loader.
  static constexpr uint32_t kVersion = 3;

  uint32_t num_shards = 0;
  std::vector<ShardMeta> shards;
};

/// The strings each shard's listed segments hold.
inline std::vector<uint64_t> SegmentCounts(const Manifest& m) {
  std::vector<uint64_t> counts(m.shards.size(), 0);
  for (size_t s = 0; s < m.shards.size(); ++s) {
    for (const SegmentMeta& seg : m.shards[s].segments) {
      counts[s] += seg.count;
    }
  }
  return counts;
}

inline std::string SegmentFileName(size_t shard, uint64_t seq) {
  return "seg-" + std::to_string(shard) + "-" + std::to_string(seq) + ".wt";
}

/// Generation `gen` of the write-ahead log, whose first record starts at
/// global position `first`.
inline std::string WalFileName(uint64_t gen, uint64_t first) {
  return "wal-" + std::to_string(gen) + "-" + std::to_string(first) + ".log";
}

/// Parses `<prefix><a>-<b><suffix>` (the SegmentFileName shard and seq, or
/// the WalFileName generation and start). Strict: both components must be
/// all-digits with nothing left over. Shared by recovery's directory scan
/// and wt_inspect.
inline bool ParseEngineFileName(const std::string& name, const char* prefix,
                                const char* suffix, size_t* shard,
                                uint64_t* num) {
  const std::string pre(prefix), suf(suffix);
  if (name.size() <= pre.size() + suf.size()) return false;
  if (name.compare(0, pre.size(), pre) != 0) return false;
  if (name.compare(name.size() - suf.size(), suf.size(), suf) != 0) {
    return false;
  }
  const std::string mid =
      name.substr(pre.size(), name.size() - pre.size() - suf.size());
  const size_t dash = mid.find('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 == mid.size()) {
    return false;
  }
  const std::string a = mid.substr(0, dash), b = mid.substr(dash + 1);
  const auto all_digits = [](const std::string& s) {
    for (char c : s) {
      if (c < '0' || c > '9') return false;
    }
    return !s.empty();
  };
  if (!all_digits(a) || !all_digits(b)) return false;
  *shard = static_cast<size_t>(std::strtoull(a.c_str(), nullptr, 10));
  *num = std::strtoull(b.c_str(), nullptr, 10);
  return true;
}

/// One generation of the write-ahead log, as its file name gives it.
struct WalGeneration {
  uint64_t gen = 0;
  uint64_t first = 0;  // global position of its first record
};

inline bool ParseWalFileName(const std::string& name, WalGeneration* g) {
  size_t gen = 0;
  if (!ParseEngineFileName(name, "wal-", ".log", &gen, &g->first)) {
    return false;
  }
  g->gen = gen;
  return true;
}

/// Every WAL generation in `dir`, in generation order: the files recovery
/// replays, in the order it reads them. Shared by recovery and wt_inspect.
inline Result<std::vector<WalGeneration>> ListWalGenerations(
    wt::io::Vfs& vfs, const std::string& dir) {
  Result<std::vector<std::string>> names = vfs.ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<WalGeneration> gens;
  for (const std::string& name : *names) {
    WalGeneration g;
    if (ParseWalFileName(name, &g)) gens.push_back(g);
  }
  std::sort(gens.begin(), gens.end(),
            [](const WalGeneration& a, const WalGeneration& b) {
              return a.gen < b.gen;
            });
  return gens;
}

/// Atomically replaces MANIFEST, durably: payload fsynced before the
/// rename publishes it, directory fsynced before the caller may depend on
/// the new manifest (e.g. delete the WAL generations it supersedes). A
/// power cut at any step leaves the previous manifest intact.
inline Status WriteManifest(const std::string& dir, const Manifest& m,
                            wt::io::Vfs& vfs = wt::io::RealVfs::Instance()) {
  namespace fs = std::filesystem;
  std::ostringstream payload;
  wt::WritePod<uint32_t>(payload, m.num_shards);
  for (const ShardMeta& sh : m.shards) {
    wt::WritePod<uint64_t>(payload, sh.next_seg_seq);
    wt::WritePod<uint64_t>(payload, sh.segments.size());
    for (const SegmentMeta& seg : sh.segments) {
      wt::WritePod<uint64_t>(payload, seg.seq);
      wt::WritePod<uint64_t>(payload, seg.count);
    }
  }
  std::ostringstream file;
  wt::VersionedEnvelope::Write(file, Manifest::kMagic, Manifest::kVersion, 0,
                               std::move(payload).str());
  const std::string tmp = (fs::path(dir) / "MANIFEST.tmp").string();
  const std::string final_path = (fs::path(dir) / "MANIFEST").string();
  return wt::io::AtomicWriteFileDurable(vfs, tmp, final_path,
                                        std::move(file).str());
}

/// Loads the manifest; kNotFound when the directory has none (a fresh
/// engine directory), other errors for corrupt/unreadable manifests.
inline Result<Manifest> ReadManifest(
    const std::string& dir, wt::io::Vfs& vfs = wt::io::RealVfs::Instance()) {
  namespace fs = std::filesystem;
  const std::string path = (fs::path(dir) / "MANIFEST").string();
  wtrie::Result<std::string> bytes = vfs.ReadFile(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == ErrorCode::kNotFound) {
      return Status::Error(ErrorCode::kNotFound, "manifest: none present");
    }
    return Status::Error(ErrorCode::kIoError, "manifest: cannot open");
  }
  std::istringstream in(*bytes);
  uint32_t tag = 0;
  std::string payload;
  const Status env = StatusFromEnvelopeError(wt::VersionedEnvelope::Read(
      in, Manifest::kMagic, Manifest::kVersion, &tag, &payload));
  if (!env.ok()) return env;

  std::istringstream body(payload);
  Manifest m;
  uint64_t num_segments = 0;
  if (!wt::TryReadPod(body, &m.num_shards)) {
    return Status::Error(ErrorCode::kCorruptStream, "manifest: truncated body");
  }
  // A checksummed-but-absurd shard count is still rejected before the
  // resize below can balloon.
  if (m.num_shards == 0 || m.num_shards > (1u << 16)) {
    return Status::Error(ErrorCode::kCorruptStream,
                         "manifest: implausible shard count");
  }
  m.shards.resize(m.num_shards);
  for (ShardMeta& sh : m.shards) {
    if (!wt::TryReadPod(body, &sh.next_seg_seq) ||
        !wt::TryReadPod(body, &num_segments)) {
      return Status::Error(ErrorCode::kCorruptStream,
                           "manifest: truncated shard");
    }
    for (uint64_t i = 0; i < num_segments; ++i) {
      SegmentMeta seg;
      if (!wt::TryReadPod(body, &seg.seq) || !wt::TryReadPod(body, &seg.count)) {
        return Status::Error(ErrorCode::kCorruptStream,
                             "manifest: truncated segment list");
      }
      sh.segments.push_back(seg);
    }
  }
  return m;
}

}  // namespace wtrie::engine
