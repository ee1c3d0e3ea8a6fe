// wt_inspect — storage introspection CLI (DESIGN.md #8).
//
//   wt_inspect <engine-dir>         dump the MANIFEST (shards, segment
//                                   stacks), every referenced segment
//                                   file's format + section table, and the
//                                   write-ahead log (each generation's
//                                   number, start and intact records, and
//                                   the durable prefix G)
//   wt_inspect <file.wt|.img>       dump one segment/image file
//   wt_inspect --fsck <engine-dir>  offline consistency audit (see below)
//   wt_inspect --metrics <port>     fetch a live daemon's kMetrics snapshot
//                                   and print it as Prometheus-style text
//                                   (DESIGN.md #12; Linux only)
//
// For a v5 image it prints the header (strings, encoded bits, codec id,
// checksum state), the per-section table: tag, offset, size — the
// offset-addressed layout a mapped open borrows from — and, from the
// node-directory section's scalars, the trie's space view: n, distinct
// strings, the directory's four field widths, and bits per string of the
// directory, the labels and the beta. Any other file is reported as not an
// image.
//
// --fsck cross-checks manifest <-> segments <-> WAL without opening an
// engine, running the same replay rule recovery runs
// (engine/recovery_invariants.hpp, DESIGN.md #7): every referenced segment
// must exist, parse, hash-verify, and hold the string count the manifest
// claims; replaying the log past the segments' durable prefix must leave
// every shard with exactly its round-robin share. Exit codes:
//
//   0  clean — a reopen recovers the full surviving history (orphan
//      files, retired WAL generations, and torn log tails are benign crash
//      artifacts and are reported, not fatal);
//   2  degraded — the store opens but replay stops at a hole (a
//      generation file lost whole) and only the prefix before it is
//      salvaged;
//   1  broken — a reopen would refuse: missing/corrupt segment, count
//      mismatch, unreadable manifest or log, or shard counts that break
//      round-robin placement.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "engine/manifest.hpp"
#include "engine/recovery_invariants.hpp"
#include "engine/wal.hpp"
#include "io/vfs.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "storage/image.hpp"
#include "storage/pager.hpp"

#if defined(__linux__)
#include "net/client.hpp"
#endif

namespace fs = std::filesystem;
namespace stor = wt::storage;

namespace {

int InspectFile(const fs::path& path, const char* indent) {
  std::string err;
  auto blob = stor::ReadFileBlob(path.string(), &err);
  if (blob == nullptr) {
    std::printf("%s%s: unreadable (%s)\n", indent, path.filename().c_str(),
                err.c_str());
    return 1;
  }
  stor::ImageReader r;
  stor::ImageError verified =
      stor::ImageReader::Parse(blob->data(), blob->size(),
                               stor::VerifyMode::kFull, &r);
  const char* checksum = "ok";
  if (verified == stor::ImageError::kChecksumMismatch) {
    checksum = "MISMATCH";
    // Still dump the (bounds-checked) table so the damage is locatable.
    verified = stor::ImageReader::Parse(blob->data(), blob->size(),
                                        stor::VerifyMode::kNone, &r);
  }
  if (verified != stor::ImageError::kOk) {
    std::printf("%s%s: %zu bytes — not a valid v5 image (error %d)\n", indent,
                path.filename().c_str(), blob->size(),
                static_cast<int>(verified));
    return 1;
  }
  const stor::ImageHeader& h = r.header();
  std::printf("%s%s: v5 image, %" PRIu64
              " bytes, %" PRIu64 " strings, %" PRIu64
              " encoded bits, codec id %u, checksum %s\n",
              indent, path.filename().c_str(), h.total_bytes, h.n,
              h.encoded_bits, h.codec_id & 0xFF, checksum);
  std::printf("%s  %-14s %10s %12s\n", indent, "section", "offset", "bytes");
  uint64_t labels_bytes = 0, beta_bytes = 0, dir_bytes = 0;
  for (const stor::SectionEntry& s : r.sections()) {
    std::printf("%s  %-14s %10" PRIu64 " %12" PRIu64 "\n", indent,
                stor::SectionTagName(s.tag), s.offset, s.bytes);
    if (s.tag == stor::kSecLabels) labels_bytes = s.bytes;
    if (s.tag == stor::kSecBeta) beta_bytes = s.bytes;
    if (s.tag == stor::kSecDirectory) dir_bytes = s.bytes;
  }
  stor::DirectoryHeader dir;
  if (h.n > 0 && r.OpenSection(stor::kSecDirectory) && r.Pod(&dir)) {
    const double n = static_cast<double>(h.n);
    std::printf("%s  node-directory: n %" PRIu64 ", %" PRIu64
                " distinct, field bits label_end %u k %u beta_start %u "
                "ones_start %u; bits/string directory %.1f labels %.1f "
                "beta %.1f\n",
                indent, h.n, (dir.nodes + 1) / 2, dir.label_end_bits,
                dir.k_bits, dir.beta_start_bits, dir.ones_start_bits,
                8.0 * dir_bytes / n, 8.0 * labels_bytes / n,
                8.0 * beta_bytes / n);
  }
  return std::strcmp(checksum, "ok") == 0 ? 0 : 1;
}

int InspectDir(const fs::path& dir) {
  namespace eng = wtrie::engine;
  wtrie::Result<eng::Manifest> m = eng::ReadManifest(dir.string());
  if (!m.ok()) {
    std::printf("%s: no readable MANIFEST (%s)\n", dir.c_str(),
                m.status().message());
    return 1;
  }
  std::printf("MANIFEST: v%u, %u shards\n", eng::Manifest::kVersion,
              m->num_shards);
  int rc = 0;
  for (size_t s = 0; s < m->shards.size(); ++s) {
    const eng::ShardMeta& sm = m->shards[s];
    std::printf("shard %zu: next seg seq %" PRIu64 ", %zu segment(s)\n", s,
                sm.next_seg_seq, sm.segments.size());
    for (const eng::SegmentMeta& seg : sm.segments) {
      const fs::path p = dir / eng::SegmentFileName(s, seg.seq);
      std::printf("  seq %" PRIu64 " (%" PRIu64 " strings)\n", seg.seq,
                  seg.count);
      rc |= InspectFile(p, "    ");
    }
  }
  std::printf("wal: durable prefix G = %" PRIu64 "\n",
              eng::DurablePrefix(eng::SegmentCounts(*m)));
  wt::io::Vfs& vfs = wt::io::RealVfs::Instance();
  wtrie::Result<std::vector<eng::WalGeneration>> gens =
      eng::ListWalGenerations(vfs, dir.string());
  if (!gens.ok()) {
    std::printf("  cannot list generations (%s)\n", gens.status().message());
    return 1;
  }
  for (const eng::WalGeneration& g : *gens) {
    const std::string name = eng::WalFileName(g.gen, g.first);
    wtrie::Result<std::vector<eng::WalRecord>> recs =
        eng::ReadWalFile(vfs, (dir / name).string());
    if (recs.ok()) {
      std::printf("  generation %" PRIu64 ": starts at %" PRIu64
                  ", %zu intact record(s)\n",
                  g.gen, g.first, recs->size());
    } else {
      std::printf("  generation %" PRIu64 ": starts at %" PRIu64
                  ", unreadable (%s)\n",
                  g.gen, g.first, recs.status().message());
    }
  }
  return rc;
}

// ------------------------------------------------------------------- fsck

// Verifies one manifest-referenced segment file: it must exist, parse as a
// v5 image, hash-verify, and hold exactly the string count the manifest
// records. Returns true when the segment would load.
bool FsckSegment(const fs::path& path, uint64_t expected_count) {
  std::string err;
  auto blob = stor::ReadFileBlob(path.string(), &err);
  if (blob == nullptr) {
    std::printf("BROKEN: %s unreadable (%s)\n", path.filename().c_str(),
                err.c_str());
    return false;
  }
  stor::ImageReader r;
  const stor::ImageError verified = stor::ImageReader::Parse(
      blob->data(), blob->size(), stor::VerifyMode::kFull, &r);
  if (verified != stor::ImageError::kOk) {
    std::printf("BROKEN: %s fails verification (error %d)\n",
                path.filename().c_str(), static_cast<int>(verified));
    return false;
  }
  if (r.header().n != expected_count) {
    std::printf("BROKEN: %s holds %" PRIu64
                " strings, manifest says %" PRIu64 "\n",
                path.filename().c_str(), r.header().n, expected_count);
    return false;
  }
  std::printf("  %s: v5 image, %" PRIu64 " strings, checksum ok\n",
              path.filename().c_str(), r.header().n);
  return true;
}

// Offline store audit: the same evidence and the same decision logic
// Engine::Recover uses, read-only. Exit 0 clean, 2 degraded/salvageable,
// 1 broken.
int FsckDir(const fs::path& dir) {
  namespace eng = wtrie::engine;
  wt::io::Vfs& vfs = wt::io::RealVfs::Instance();

  bool broken = false;
  eng::Manifest m;
  bool have_manifest = false;
  {
    wtrie::Result<eng::Manifest> r = eng::ReadManifest(dir.string());
    if (r.ok()) {
      m = std::move(r).value();
      have_manifest = true;
    } else if (r.status().code() == wtrie::ErrorCode::kNotFound) {
      std::printf("no MANIFEST (store never published one)\n");
    } else {
      std::printf("BROKEN: MANIFEST unreadable (%s)\n", r.status().message());
      broken = true;
    }
  }

  // Directory census: the benign leftovers recovery would delete.
  std::map<std::string, bool> referenced;  // segment name -> seen on disk
  std::error_code ec;
  fs::directory_iterator it(dir, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    size_t shard = 0;
    uint64_t num = 0;
    eng::WalGeneration gen;
    if (eng::ParseWalFileName(name, &gen)) continue;
    if (eng::ParseEngineFileName(name, "seg-", ".wt", &shard, &num)) {
      referenced[name] = false;  // orphan until the manifest claims it
    } else if (name != "MANIFEST") {
      std::printf("benign: stale leftover %s (recovery deletes it)\n",
                  name.c_str());
    }
  }
  if (have_manifest && !broken) {
    for (size_t s = 0; s < m.shards.size(); ++s) {
      for (const eng::SegmentMeta& seg : m.shards[s].segments) {
        const std::string name = eng::SegmentFileName(s, seg.seq);
        auto found = referenced.find(name);
        if (found == referenced.end()) {
          std::printf("BROKEN: manifest references missing %s\n", name.c_str());
          broken = true;
        } else {
          found->second = true;
          if (!FsckSegment(dir / name, seg.count)) broken = true;
        }
      }
    }
  }
  for (const auto& [name, claimed] : referenced) {
    if (!claimed) {
      std::printf("benign: orphan segment %s (recovery deletes it)\n",
                  name.c_str());
    }
  }
  if (broken) return 1;

  // The recovery decision, re-run read-only. Without a manifest the shard
  // count is unknown, but nothing is frozen either: every shard's share of
  // the replayed tail lines up for any count, so one shard stands in.
  const std::vector<uint64_t> counts =
      have_manifest ? eng::SegmentCounts(m) : std::vector<uint64_t>(1, 0);
  wtrie::Result<std::vector<eng::WalGeneration>> listed =
      eng::ListWalGenerations(vfs, dir.string());
  if (!listed.ok()) {
    std::printf("BROKEN: cannot list WAL generations (%s)\n",
                listed.status().message());
    return 1;
  }
  const std::vector<eng::WalGeneration>& gens = *listed;
  wtrie::Result<eng::WalReplay> replay = eng::ReplayWal(
      counts, gens, [&](const eng::WalGeneration& g) {
        const std::string name = eng::WalFileName(g.gen, g.first);
        auto recs = eng::ReadWalFile(vfs, (dir / name).string());
        if (recs.ok()) {
          std::printf("  %s: %zu intact record(s)\n", name.c_str(),
                      recs->size());
        }
        return recs;
      });
  if (!replay.ok()) {
    std::printf("BROKEN: %s — a reopen would refuse this store\n",
                replay.status().message());
    return 1;
  }
  std::printf("  durable prefix G = %" PRIu64 ", log tail ends at %" PRIu64
              "\n",
              replay->durable, replay->end);
  for (size_t s = 0; have_manifest && s < replay->routed.size(); ++s) {
    std::printf("  shard %zu: %" PRIu64 " in segments, %zu replayed\n", s,
                counts[s], replay->routed[s].size());
  }
  for (size_t i = 0; i + 1 < gens.size(); ++i) {
    if (gens[i + 1].first <= replay->durable) {
      std::printf("benign: %s is retired, its successor starts inside G "
                  "(recovery deletes it)\n",
                  eng::WalFileName(gens[i].gen, gens[i].first).c_str());
    }
  }
  if (replay->hole) {
    std::printf("DEGRADED: the log has a hole at position %" PRIu64
                "; a reopen salvages %" PRIu64
                " string(s) and drops the rest\n",
                replay->end, replay->total);
    return 2;
  }
  std::printf("clean: a reopen recovers %" PRIu64 " string(s)\n",
              replay->total);
  return 0;
}

// --------------------------------------------------------------- metrics

// Scrape mode: one kMetrics round trip, rendered as the text exposition.
// Pipe it to a file and diff two scrapes, or feed an actual scraper.
int DumpMetrics(uint16_t port) {
#if defined(__linux__)
  wtrie::Result<wt::net::Client> c = wt::net::Client::Connect(port);
  if (!c.ok()) {
    std::fprintf(stderr, "cannot connect to port %u: %s\n", port,
                 c.status().message());
    return 1;
  }
  wtrie::Result<wt::net::Frame> f =
      c->Call(wt::net::MsgType::kMetrics, /*request_id=*/1, /*deadline_ms=*/0,
              "");
  if (!f.ok()) {
    std::fprintf(stderr, "kMetrics call failed: %s\n", f.status().message());
    return 1;
  }
  wt::net::WireStatus st{};
  wt::net::PayloadReader r("", 0);
  std::string bytes;
  if (!wt::net::Client::DecodeStatus(*f, &st, &r) ||
      st != wt::net::WireStatus::kOk || !r.Str(&bytes)) {
    std::fprintf(stderr, "malformed kMetrics reply\n");
    return 1;
  }
  wt::obs::MetricsSnapshot snap;
  if (!wt::obs::ParseMetricsSnapshot(bytes.data(), bytes.size(), &snap)) {
    std::fprintf(stderr, "metrics snapshot failed to parse\n");
    return 1;
  }
  std::fputs(wt::obs::RenderPromText(snap).c_str(), stdout);
  return 0;
#else
  (void)port;
  std::fprintf(stderr, "--metrics needs the Linux serving layer\n");
  return 2;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--metrics") == 0) {
    return DumpMetrics(static_cast<uint16_t>(std::strtoul(argv[2], nullptr,
                                                          10)));
  }
  if (argc == 3 && std::strcmp(argv[1], "--fsck") == 0) {
    const fs::path target(argv[2]);
    std::error_code ec;
    if (!fs::is_directory(target, ec)) {
      std::fprintf(stderr, "%s: not a directory\n", argv[2]);
      return 1;
    }
    return FsckDir(target);
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: %s <engine-dir | segment-file>\n"
                 "       %s --fsck <engine-dir>\n"
                 "       %s --metrics <port>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  const fs::path target(argv[1]);
  std::error_code ec;
  if (fs::is_directory(target, ec)) return InspectDir(target);
  if (fs::is_regular_file(target, ec)) return InspectFile(target, "");
  std::fprintf(stderr, "%s: not a file or directory\n", argv[1]);
  return 2;
}
