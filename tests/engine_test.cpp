// Tests for the concurrent segmented engine (src/engine/, DESIGN.md #7):
//   * differential tests of Engine (several shard counts / memtable limits,
//     so freeze boundaries and compactions land mid-workload) against a
//     single Sequence<Static> oracle for Access/Rank/Select, their batch
//     forms, prefix operations, and the Section 5 analytics;
//   * snapshot semantics: consistent-prefix visibility, pinning across
//     concurrent freezes/compactions, ephemeral vs flushed reads;
//   * a multi-threaded stress test (one writer + N readers) asserting every
//     snapshot observes exactly a prefix of the append history;
//   * WAL crash recovery, one case per replay rule on hand-written
//     generations: a torn tail drops only the last batch, a hole salvages
//     the prefix before it, a later generation's start retires a failed
//     batch's record, a staggered freeze replays only what the other
//     shards lack, and a flipped position bit fails the checksum; and,
//     across a power cut, a generation whose roll fsync failed (or that
//     recovery read after a process crash) is fsynced before a manifest
//     write or SyncWal relies on it;
//   * the capacity satellite: the RRR 2^32-1-bit cap surfaces as a clean
//     abort at the core boundary and as kCapacityExceeded Status on the
//     facade, with the boundary arithmetic unit-tested exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/sequence.hpp"
#include "engine/engine.hpp"
#include "util/workloads.hpp"

namespace wtrie {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> UrlWorkload(size_t n, uint64_t seed) {
  wt::UrlLogOptions opt;
  opt.num_domains = 24;
  opt.paths_per_domain = 12;
  opt.seed = seed;
  wt::UrlLogGenerator gen(opt);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

/// A scratch directory removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name) {
    path = fs::temp_directory_path() / ("wtrie_engine_test_" + name + "_" +
                                        std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

using StrEngine = Engine<wt::ByteCodec>;
using StrSequence = Sequence<Static, wt::ByteCodec>;

/// Asserts one snapshot answers exactly like the oracle built from the
/// first snapshot.size() values.
void ExpectMatchesOracle(const StrEngine::SnapshotT& snap,
                         const std::vector<std::string>& values,
                         uint64_t seed) {
  const size_t n = snap.size();
  ASSERT_LE(n, values.size());
  const StrSequence oracle(
      std::vector<std::string>(values.begin(), values.begin() + n));
  std::mt19937_64 rng(seed);

  // Point queries + batch forms over a probe set.
  std::vector<uint64_t> access_pos;
  std::vector<std::string> probe_vals;
  std::vector<uint64_t> rank_pos, select_idx;
  for (size_t i = 0; i < 300 && n > 0; ++i) {
    access_pos.push_back(rng() % n);
    probe_vals.push_back(i % 5 == 4 ? "absent/" + std::to_string(i)
                                    : values[rng() % n]);
    rank_pos.push_back(rng() % (n + 1));
    select_idx.push_back(rng() % 40);
  }
  for (size_t i = 0; i < access_pos.size(); ++i) {
    EXPECT_EQ(snap.Access(access_pos[i]).value(),
              oracle.Access(access_pos[i]).value());
    EXPECT_EQ(snap.Rank(probe_vals[i], rank_pos[i]).value(),
              oracle.Rank(probe_vals[i], rank_pos[i]).value());
    const auto es = snap.Select(probe_vals[i], select_idx[i]);
    const auto os = oracle.Select(probe_vals[i], select_idx[i]);
    EXPECT_EQ(es.ok(), os.ok());
    if (es.ok()) EXPECT_EQ(es.value(), os.value());
    EXPECT_EQ(snap.Count(probe_vals[i]), oracle.Count(probe_vals[i]));
  }
  if (n > 0) {
    const auto ab = snap.AccessBatch(access_pos).value();
    const auto rb = snap.RankBatch(probe_vals, rank_pos).value();
    const auto sb = snap.SelectBatch(probe_vals, select_idx).value();
    for (size_t i = 0; i < access_pos.size(); ++i) {
      EXPECT_EQ(ab[i], oracle.Access(access_pos[i]).value());
      EXPECT_EQ(rb[i], oracle.Rank(probe_vals[i], rank_pos[i]).value());
      const auto os = oracle.Select(probe_vals[i], select_idx[i]);
      EXPECT_EQ(sb[i].has_value(), os.ok());
      if (os.ok()) EXPECT_EQ(*sb[i], os.value());
    }
  }

  // Prefix operations.
  for (const std::string& p : {std::string("www.domain0.example/"),
                               std::string("www."), std::string("zzz")}) {
    EXPECT_EQ(snap.CountPrefix(p), oracle.CountPrefix(p));
    const uint64_t mid = n / 2;
    EXPECT_EQ(snap.RankPrefix(p, mid).value(), oracle.RankPrefix(p, mid).value());
    const auto es = snap.SelectPrefix(p, 3);
    const auto os = oracle.SelectPrefix(p, 3);
    EXPECT_EQ(es.ok(), os.ok());
    if (es.ok()) EXPECT_EQ(es.value(), os.value());
  }

  // Section 5 analytics over a few ranges (entry order differs by design:
  // the snapshot merges per-segment results by decoded value — compare as
  // maps).
  for (int t = 0; t < 4 && n > 0; ++t) {
    uint64_t l = rng() % n, r = rng() % (n + 1);
    if (l > r) std::swap(l, r);
    std::map<std::string, size_t> got, want;
    auto gd = snap.Distinct(l, r).value();
    while (gd.Next()) got[gd.value()] = gd.count();
    auto wd = oracle.Distinct(l, r).value();
    while (wd.Next()) want[wd.value()] = wd.count();
    EXPECT_EQ(got, want) << "Distinct [" << l << ", " << r << ")";

    const auto gm = snap.Majority(l, r);
    const auto wm = oracle.Majority(l, r);
    EXPECT_EQ(gm.ok(), wm.ok());
    if (gm.ok()) {
      EXPECT_EQ(gm->first, wm->first);
      EXPECT_EQ(gm->second, wm->second);
    }

    const size_t threshold = std::max<size_t>(1, (r - l) / 8);
    got.clear();
    want.clear();
    auto gf = snap.Frequent(l, r, threshold).value();
    while (gf.Next()) got[gf.value()] = gf.count();
    auto wf = oracle.Frequent(l, r, threshold).value();
    while (wf.Next()) want[wf.value()] = wf.count();
    EXPECT_EQ(got, want) << "Frequent [" << l << ", " << r << ") t=" << threshold;

    const auto scan = snap.Scan(l, std::min<uint64_t>(r, l + 64)).value();
    for (size_t i = 0; i < scan.size(); ++i) {
      EXPECT_EQ(scan[i], values[l + i]);
    }
  }
}

// ------------------------------------------------------------ differential

TEST(EngineDifferential, MatchesSequenceOracleAcrossFreezeBoundaries) {
  const auto values = UrlWorkload(20000, 11);
  // Shard/limit combinations chosen so the workload crosses many freeze
  // boundaries and triggers tail compactions (limit 512: 39 freezes/shard).
  struct Config {
    size_t shards, limit;
  };
  for (const Config c : {Config{1, 4096}, Config{3, 512}, Config{4, 1024}}) {
    StrEngine::Options opt;
    opt.num_shards = c.shards;
    opt.memtable_limit = c.limit;
    auto eng = StrEngine::Open(opt).value();
    // Mixed batch sizes, including singletons.
    std::mt19937_64 rng(c.shards * 1000 + c.limit);
    size_t i = 0;
    while (i < values.size()) {
      const size_t k = 1 + rng() % 700;
      const size_t end = std::min(values.size(), i + k);
      ASSERT_TRUE(
          eng->AppendBatch({values.begin() + i, values.begin() + end}).ok());
      i = end;
    }
    EXPECT_EQ(eng->size(), values.size());
    // Before the flush the snapshot sees a consistent prefix only.
    const auto early = eng->GetSnapshot();
    EXPECT_LE(early.size(), values.size());
    ASSERT_TRUE(eng->Flush().ok());
    const auto snap = eng->GetSnapshot();
    EXPECT_EQ(snap.size(), values.size());
    ExpectMatchesOracle(snap, values, 997 * c.shards);
    ExpectMatchesOracle(early, values, 991 * c.shards);
    // Compaction to one segment per shard must not change any answer.
    ASSERT_TRUE(eng->Compact().ok());
    const auto compacted = eng->GetSnapshot();
    EXPECT_EQ(compacted.size(), values.size());
    EXPECT_LE(compacted.NumSegments(), c.shards);
    ExpectMatchesOracle(compacted, values, 983 * c.shards);
  }
}

TEST(EngineDifferential, FixedIntCodecEngine) {
  // A non-default, stateful codec exercises codec plumbing through WAL-less
  // ingest, freeze, and snapshot decode.
  Engine<wt::FixedIntCodec>::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 256;
  auto eng = Engine<wt::FixedIntCodec>::Open(opt, wt::FixedIntCodec(24)).value();
  std::mt19937_64 rng(5);
  std::vector<uint64_t> values;
  for (size_t i = 0; i < 4000; ++i) values.push_back(rng() % 1000);
  ASSERT_TRUE(eng->AppendBatch(values).ok());
  ASSERT_TRUE(eng->Flush().ok());
  const auto snap = eng->GetSnapshot();
  ASSERT_EQ(snap.size(), values.size());
  const Sequence<Static, wt::FixedIntCodec> oracle(values, wt::FixedIntCodec(24));
  for (size_t i = 0; i < values.size(); i += 37) {
    EXPECT_EQ(snap.Access(i).value(), values[i]);
    EXPECT_EQ(snap.Rank(values[i], i).value(), oracle.Rank(values[i], i).value());
  }
}

// The observability seam (DESIGN.md #12): the registry is the one read
// path for the engine's numbers. After a Flush every appended string is
// frozen and no memtable holds any, and the counters and histograms the
// ingest and freeze paths maintain agree with each other.
TEST(EngineObservability, RegistryAccountsForEveryAppendedString) {
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 256;
  auto eng = StrEngine::Open(opt).value();
  const auto values = UrlWorkload(1000, 13);
  ASSERT_TRUE(eng->AppendBatch(values).ok());
  // Quiesce first: strings riding the async freeze queue are transiently
  // in neither the memtable gauge nor a published view, so the totals
  // identity below only holds with no freeze in flight.
  ASSERT_TRUE(eng->Flush().ok());

  eng->RefreshMetrics();
  const wt::obs::MetricsSnapshot snap = eng->metrics()->Snapshot();
  int64_t mem = 0, shard_segments = 0;
  for (int s = 0; s < 2; ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    const int64_t* m = snap.FindGauge("wt_engine_memtable_strings" + label);
    const int64_t* g = snap.FindGauge("wt_engine_segments" + label);
    ASSERT_NE(m, nullptr) << s;
    ASSERT_NE(g, nullptr) << s;
    mem += *m;
    shard_segments += *g;
  }
  EXPECT_EQ(mem, 0);  // flush froze every memtable
  const int64_t* frozen = snap.FindGauge("wt_engine_frozen_strings");
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(*frozen), values.size());
  const int64_t* segments = snap.FindGauge("wt_engine_segments");
  ASSERT_NE(segments, nullptr);
  EXPECT_EQ(*segments, shard_segments);
  const uint64_t* appends = snap.FindCounter("wt_engine_appends_total");
  ASSERT_NE(appends, nullptr);
  EXPECT_EQ(*appends, values.size());
  const uint64_t* freezes = snap.FindCounter("wt_engine_freezes_total");
  ASSERT_NE(freezes, nullptr);
  EXPECT_GE(*freezes, 1u);
  const wt::obs::HistogramSnapshot* fh =
      snap.FindHistogram("wt_engine_freeze_ms");
  ASSERT_NE(fh, nullptr);
  EXPECT_EQ(fh->count, *freezes);
}

// --------------------------------------------------------------- snapshots

TEST(EngineSnapshot, VisibleSizeIsConsistentPrefixAndPinned) {
  StrEngine::Options opt;
  opt.num_shards = 4;
  opt.memtable_limit = 100;
  auto eng = StrEngine::Open(opt).value();
  const auto values = UrlWorkload(5000, 3);
  ASSERT_TRUE(eng->AppendBatch(values).ok());
  ASSERT_TRUE(eng->Flush().ok());
  const auto pinned = eng->GetSnapshot();
  const uint64_t pinned_size = pinned.size();
  EXPECT_EQ(pinned_size, values.size());

  // More ingest + compaction must not disturb the pinned snapshot.
  ASSERT_TRUE(eng->AppendBatch(UrlWorkload(3000, 4)).ok());
  ASSERT_TRUE(eng->Flush().ok());
  ASSERT_TRUE(eng->Compact().ok());
  EXPECT_EQ(pinned.size(), pinned_size);
  ExpectMatchesOracle(pinned, values, 71);

  const auto later = eng->GetSnapshot();
  EXPECT_EQ(later.size(), 8000u);
}

TEST(EngineSnapshot, BoundsAndErrors) {
  StrEngine::Options opt;
  opt.num_shards = 2;
  auto eng = StrEngine::Open(opt).value();
  ASSERT_TRUE(eng->AppendBatch(UrlWorkload(100, 9)).ok());
  ASSERT_TRUE(eng->Flush().ok());
  const auto snap = eng->GetSnapshot();
  EXPECT_EQ(snap.Access(100).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(snap.Rank("x", 101).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(snap.Select("definitely-absent", 0).code(), ErrorCode::kNotFound);
  EXPECT_EQ(snap.Distinct(5, 3).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(snap.Frequent(0, 10, 0).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(snap.RankBatch({"a"}, {1, 2}).code(), ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------------------ stress

TEST(EngineStress, WriterAndReadersSeeConsistentPrefixes) {
  StrEngine::Options opt;
  opt.num_shards = 3;
  opt.memtable_limit = 200;
  auto eng = StrEngine::Open(opt).value();
  const auto values = UrlWorkload(12000, 21);

  std::atomic<bool> done{false};
  std::atomic<size_t> snapshots_checked{0};
  auto reader = [&] {
    std::mt19937_64 rng(std::hash<std::thread::id>{}(std::this_thread::get_id()));
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = eng->GetSnapshot();
      const uint64_t n = snap.size();
      if (n == 0) continue;
      // Spot-check: every visible position holds exactly the appended
      // value — i.e. the snapshot is a prefix of the append history.
      for (int i = 0; i < 16; ++i) {
        const uint64_t pos = rng() % n;
        ASSERT_EQ(snap.Access(pos).value(), values[pos]);
      }
      // And size never exceeds what has been appended.
      ASSERT_LE(n, values.size());
      snapshots_checked.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) readers.emplace_back(reader);

  std::mt19937_64 rng(77);
  size_t i = 0;
  while (i < values.size()) {
    const size_t end = std::min(values.size(), i + 1 + rng() % 300);
    ASSERT_TRUE(
        eng->AppendBatch({values.begin() + i, values.begin() + end}).ok());
    i = end;
  }
  ASSERT_TRUE(eng->Flush().ok());
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(snapshots_checked.load(), 0u);
  EXPECT_EQ(eng->GetSnapshot().size(), values.size());
}

// ---------------------------------------------------------------- recovery

TEST(EngineRecovery, ReopenReplaysWalTail) {
  TempDir dir("replay");
  const auto values = UrlWorkload(5000, 31);
  StrEngine::Options opt;
  opt.num_shards = 3;
  opt.memtable_limit = 600;
  opt.dir = dir.path.string();
  {
    auto eng = StrEngine::Open(opt).value();
    ASSERT_TRUE(eng->AppendBatch(values).ok());
    EXPECT_EQ(eng->size(), values.size());
    // No Flush: part of the data exists only in memtables + WAL when the
    // engine object dies (the crash-equivalent shutdown).
  }
  auto eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), values.size());
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 55);
}

TEST(EngineRecovery, ReopenAfterFlushAndCompactLoadsSegments) {
  TempDir dir("segments");
  const auto values = UrlWorkload(4000, 41);
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 300;
  opt.dir = dir.path.string();
  {
    auto eng = StrEngine::Open(opt).value();
    ASSERT_TRUE(eng->AppendBatch(values).ok());
    ASSERT_TRUE(eng->Flush().ok());
    ASSERT_TRUE(eng->Compact().ok());
  }
  // Re-opening with a different shard count adopts the on-disk layout.
  StrEngine::Options opt2 = opt;
  opt2.num_shards = 7;
  auto eng = StrEngine::Open(opt2).value();
  EXPECT_EQ(eng->options().num_shards, 2u);
  EXPECT_EQ(eng->size(), values.size());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 66);
}

TEST(EngineRecovery, TornTailRecordIsDiscardedWhole) {
  TempDir dir("torn");
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 1 << 20;  // keep everything in WAL + memtable
  opt.dir = dir.path.string();
  const auto values = UrlWorkload(900, 51);
  {
    auto eng = StrEngine::Open(opt).value();
    // Three batches of 300 in the first generation; the last will be torn.
    for (size_t b = 0; b < 3; ++b) {
      ASSERT_TRUE(eng->AppendBatch({values.begin() + 300 * b,
                                    values.begin() + 300 * (b + 1)}).ok());
    }
  }
  // Simulate a crash mid-record: truncate the log by a few bytes,
  // invalidating its final record (the checksum cannot match).
  const fs::path wal = dir.path / engine::WalFileName(0, 0);
  ASSERT_TRUE(fs::exists(wal));
  fs::resize_file(wal, fs::file_size(wal) - 5);

  auto eng = StrEngine::Open(opt).value();
  // One record is one batch, on every shard: the torn record drops exactly
  // the last batch, and the first two survive whole.
  EXPECT_EQ(eng->size(), 600u);
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 77);

  // The engine keeps working after recovery: the discarded suffix can be
  // re-appended and everything lines up again.
  ASSERT_TRUE(eng->AppendBatch({values.begin() + 600, values.end()}).ok());
  ASSERT_TRUE(eng->Flush().ok());
  EXPECT_EQ(eng->GetSnapshot().size(), 900u);
  ExpectMatchesOracle(eng->GetSnapshot(), values, 78);
}

TEST(EngineRecovery, RepeatedCrashAndRecoverCycles) {
  TempDir dir("cycles");
  StrEngine::Options opt;
  opt.num_shards = 3;
  opt.memtable_limit = 150;
  opt.dir = dir.path.string();
  const auto values = UrlWorkload(3000, 71);
  size_t appended = 0;
  std::mt19937_64 rng(4242);
  while (appended < values.size()) {
    auto eng = StrEngine::Open(opt).value();
    ASSERT_EQ(eng->size(), appended);
    const size_t end = std::min(values.size(), appended + 200 + rng() % 500);
    ASSERT_TRUE(eng->AppendBatch(
                       {values.begin() + appended, values.begin() + end})
                    .ok());
    appended = end;
    if (rng() % 2 == 0) ASSERT_TRUE(eng->Flush().ok());
    // ~half the cycles end without a flush: recovery must restore the
    // memtable tail from the WAL every time.
  }
  auto eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), values.size());
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 99);
}

TEST(EngineRecovery, UnsavedSegmentStaysOutOfManifestAndWalFloor) {
  TempDir dir("unsaved");
  StrEngine::Options opt;
  opt.num_shards = 1;
  opt.memtable_limit = 1 << 20;  // rotate only via Flush, so sizes are ours
  opt.dir = dir.path.string();
  const auto values = UrlWorkload(1000, 81);
  {
    auto eng = StrEngine::Open(opt).value();
    // Block the first segment file (after Open — recovery's orphan scan
    // would remove it): SaveSegment's rename onto an existing directory
    // fails, so the frozen segment stays memory-only while its data lives
    // solely in the WAL.
    fs::create_directories(dir.path / "seg-0-0.wt");
    ASSERT_TRUE(eng->AppendBatch({values.begin(), values.begin() + 900}).ok());
    EXPECT_FALSE(eng->Flush().ok());  // the freeze ran, its save failed
    // A later, smaller freeze saves fine (and is too small for the
    // size-tiered policy to merge the blocked segment away: 900 > 3*100).
    ASSERT_TRUE(
        eng->AppendBatch({values.begin() + 900, values.begin() + 1000}).ok());
    EXPECT_FALSE(eng->Flush().ok());  // the background error is sticky;
                                      // the freeze itself succeeds
    EXPECT_EQ(eng->size(), 1000u);
    // The failed save is counted where operators read it.
    const wt::obs::MetricsSnapshot ms = eng->metrics()->Snapshot();
    const uint64_t* errors =
        ms.FindCounter("wt_engine_background_errors_total");
    ASSERT_NE(errors, nullptr);
    EXPECT_GE(*errors, 1u);
    // The manifest lists no segment, so its durable prefix stays 0 and the
    // generation holding the unsaved segment's data must have survived the
    // second (successful) freeze's manifest write and cleaning pass.
    EXPECT_TRUE(fs::exists(dir.path / engine::WalFileName(0, 0)));
    const Result<engine::Manifest> m = engine::ReadManifest(opt.dir);
    ASSERT_TRUE(m.ok());
    EXPECT_TRUE(m->shards[0].segments.empty());
  }
  // The manifest must reference neither the unsaved segment nor anything
  // stacked after it, so reopening recovers every string from the log
  // instead of failing on a missing segment file.
  auto reopened = StrEngine::Open(opt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  auto eng = std::move(reopened).value();
  EXPECT_EQ(eng->size(), 1000u);
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 101);
}

TEST(EngineRecovery, FailedSegmentSaveIsRetriedByLaterFreezes) {
  TempDir dir("retry");
  StrEngine::Options opt;
  opt.num_shards = 1;
  opt.memtable_limit = 1 << 20;
  opt.dir = dir.path.string();
  const auto values = UrlWorkload(1000, 83);
  auto eng = StrEngine::Open(opt).value();
  fs::create_directories(dir.path / "seg-0-0.wt");  // block the first save
  ASSERT_TRUE(eng->AppendBatch({values.begin(), values.begin() + 900}).ok());
  EXPECT_FALSE(eng->Flush().ok());
  // Clear the blocker: the next freeze retries the failed save, after
  // which the manifest covers both segments, its durable prefix reaches
  // 1000, and every generation before the one starting there is cleaned.
  fs::remove(dir.path / "seg-0-0.wt");
  ASSERT_TRUE(
      eng->AppendBatch({values.begin() + 900, values.begin() + 1000}).ok());
  // The first failure is sticky in BackgroundError, so assert the retry's
  // success through the filesystem instead of the Flush status.
  EXPECT_FALSE(eng->Flush().ok());
  EXPECT_TRUE(fs::exists(dir.path / "seg-0-0.wt"));
  EXPECT_FALSE(fs::exists(dir.path / engine::WalFileName(0, 0)));
  EXPECT_FALSE(fs::exists(dir.path / engine::WalFileName(1, 900)));
  EXPECT_TRUE(fs::exists(dir.path / engine::WalFileName(2, 1000)));
  eng.reset();
  // With the log's data gone the segments are the only copy: reopening
  // from them proves the retried save (and the manifest entry) is real.
  eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), 1000u);
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 103);
}

/// One hand-written record: a batch whose strings start at global
/// position `first`.
struct HandRecord {
  uint64_t first;
  std::vector<std::string> values;
};

/// Writes WAL generation `gen`, starting at global position `first`, with
/// the engine's own record writer.
void WriteGeneration(const fs::path& dir, uint64_t gen, uint64_t first,
                     const std::vector<HandRecord>& records) {
  engine::WalWriter w;
  ASSERT_TRUE(w.Open(wt::io::RealVfs::Instance(),
                     (dir / engine::WalFileName(gen, first)).string(),
                     /*sync=*/false)
                  .ok());
  for (const HandRecord& r : records) {
    std::vector<wt::BitString> enc;
    for (const std::string& v : r.values) enc.push_back(wt::ByteCodec::Encode(v));
    ASSERT_TRUE(w.Append(r.first, enc).ok());
  }
  ASSERT_TRUE(w.Close().ok());
}

/// The values a snapshot holds, position by position.
std::vector<std::string> Contents(const StrEngine::SnapshotT& snap) {
  std::vector<uint64_t> pos(snap.size());
  for (uint64_t i = 0; i < pos.size(); ++i) pos[i] = i;
  return snap.AccessBatch(pos).value();
}

uint64_t SalvageCount(const StrEngine& eng) {
  const wt::obs::MetricsSnapshot ms = eng.metrics()->Snapshot();
  const uint64_t* salvages = ms.FindCounter("wt_engine_wal_salvages_total");
  return salvages == nullptr ? 0 : *salvages;
}

TEST(WalRobustness, OversizedBitLengthFieldIsRejected) {
  TempDir dir("walbits");
  const fs::path path = dir.path / engine::WalFileName(0, 0);
  // A record whose checksum matches but whose per-string bit length lies:
  // near UINT64_MAX the word count (bits+63)/64 would wrap to a tiny
  // buffer read far out of bounds; merely-huge values would balloon the
  // allocation. Both must drop the record cleanly.
  for (const uint64_t bits :
       {UINT64_MAX, UINT64_MAX - 63, uint64_t(1) << 40}) {
    std::ostringstream p;
    wt::WritePod<uint64_t>(p, bits);
    const std::string payload = std::move(p).str();
    engine::WalRecordHeader hdr;
    hdr.first = 0;
    hdr.string_count = 1;
    hdr.payload_len = payload.size();
    hdr.checksum =
        wt::Fnv1a(payload.data(), payload.size(),
                  wt::Fnv1a(&hdr, engine::kWalChecksummedHeaderBytes));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    wt::WritePod(out, hdr);
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    out.close();
    const auto records =
        engine::ReadWalFile(wt::io::RealVfs::Instance(), path.string());
    ASSERT_TRUE(records.ok());
    EXPECT_TRUE(records->empty()) << bits;
  }
}

TEST(WalRobustness, FlippedPositionBitFailsTheChecksum) {
  TempDir dir("walflip");
  WriteGeneration(dir.path, 0, 0, {{0, {"a", "b"}}, {2, {"c"}}});
  const fs::path path = dir.path / engine::WalFileName(0, 0);
  wt::io::Vfs& vfs = wt::io::RealVfs::Instance();
  ASSERT_EQ(engine::ReadWalFile(vfs, path.string())->size(), 2u);
  // Move the second record from position 2 to position 3: its payload is
  // intact, but the checksum covers the header's fields too.
  std::string bytes = vfs.ReadFile(path.string()).value();
  engine::WalRecordHeader hdr;
  std::memcpy(&hdr, bytes.data(), sizeof(hdr));
  const size_t second = sizeof(hdr) + hdr.payload_len;
  std::memcpy(&hdr, bytes.data() + second, sizeof(hdr));
  ASSERT_EQ(hdr.first, 2u);
  bytes[second + offsetof(engine::WalRecordHeader, first)] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto records = engine::ReadWalFile(vfs, path.string());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);  // the first record only
  EXPECT_EQ((*records)[0].first, 0u);
}

TEST(EngineRecovery, IncompleteMiddleBatchSalvagesLongestPrefix) {
  TempDir dir("salvage");
  // Generation 1 (positions [2, 5)) went missing whole — possible with
  // sync_wal=false when its name never reached the disk — while the later
  // generation 2 survived. Its start, position 5, lies past the end of
  // what replay has (2): a hole. Recovery must salvage the prefix before
  // it instead of refusing to open, and stop reading there.
  const auto values = UrlWorkload(6, 91);
  WriteGeneration(dir.path, 0, 0, {{0, {values[0], values[1]}}});
  WriteGeneration(dir.path, 2, 5, {{5, {values[5]}}});
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.dir = dir.path.string();
  auto opened = StrEngine::Open(opt);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto eng = std::move(opened).value();
  EXPECT_EQ(eng->size(), 2u);  // positions 0 and 1; the hole cuts the rest
  EXPECT_EQ(SalvageCount(*eng), 1u);  // counted where operators read it
  ASSERT_TRUE(eng->Flush().ok());
  EXPECT_EQ(Contents(eng->GetSnapshot()),
            std::vector<std::string>(values.begin(), values.begin() + 2));
  ASSERT_TRUE(eng->AppendBatch({values.begin() + 2, values.end()}).ok());
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 105);
}

TEST(EngineRecovery, SalvageRetiresDamagedGenerationsOnEveryShard) {
  TempDir dir("retire");
  // After a salvage every generation read is deleted before Open returns —
  // the ones past the hole too. Left behind, generation 3's start (5)
  // would stop the next recovery at the same hole and drop the writes
  // acknowledged after this open.
  const auto values = UrlWorkload(9, 95);
  WriteGeneration(dir.path, 0, 0, {{0, {values[0], values[1]}}});
  WriteGeneration(dir.path, 2, 4, {{4, {values[4]}}});
  WriteGeneration(dir.path, 3, 5, {{5, {values[5]}}});
  StrEngine::Options opt;
  opt.num_shards = 3;
  opt.dir = dir.path.string();
  auto opened = StrEngine::Open(opt);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto eng = std::move(opened).value();
  EXPECT_EQ(eng->size(), 2u);
  EXPECT_EQ(SalvageCount(*eng), 1u);
  EXPECT_FALSE(fs::exists(dir.path / engine::WalFileName(0, 0)));
  EXPECT_FALSE(fs::exists(dir.path / engine::WalFileName(2, 4)));
  EXPECT_FALSE(fs::exists(dir.path / engine::WalFileName(3, 5)));
  // Writes acknowledged after the salvage survive the next crash+reopen,
  // which is a clean one.
  ASSERT_TRUE(eng->AppendBatch({values.begin() + 2, values.end()}).ok());
  eng.reset();
  eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), values.size());
  EXPECT_EQ(SalvageCount(*eng), 0u);
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 107);
}

TEST(EngineRecovery, LaterGenerationStartRetiresAFailedBatch) {
  TempDir dir("retired");
  // Generation 0 holds two complete records: [0, 2), then a batch at
  // [2, 5) whose append failed after its bytes reached the disk (the
  // fsync failed). The engine rolled to generation 1 at the failed
  // batch's position, so its start cuts that record off, and a later
  // batch took positions 2 and 3.
  const auto values = UrlWorkload(4, 97);
  WriteGeneration(dir.path, 0, 0,
                  {{0, {values[0], values[1]}},
                   {2, {"failed-2", "failed-3", "failed-4"}}});
  WriteGeneration(dir.path, 1, 2, {{2, {values[2], values[3]}}});
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.dir = dir.path.string();
  auto eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), 4u);
  EXPECT_EQ(SalvageCount(*eng), 0u);
  ASSERT_TRUE(eng->Flush().ok());
  EXPECT_EQ(Contents(eng->GetSnapshot()), values);
}

TEST(EngineRecovery, FailedAppendStaysRetiredWhenReopenedBeforeCleaning) {
  // The engine-driven form of the case above: fail each operation of a
  // short sync_wal script once (alternating clean and torn errors) and
  // reopen before any Flush, so every generation the script wrote is
  // still on disk. A batch refused to a live caller — also one whose
  // record reached the disk whole because only its fsync failed — must
  // not come back, and every acknowledged batch must.
  const std::vector<std::vector<std::string>> batches = {
      {"a0", "a1", "a2"}, {"b0"}, {"c0", "c1"}, {"d0", "d1", "d2", "d3"}};
  const auto options = [](std::shared_ptr<wt::io::Vfs> vfs) {
    StrEngine::Options opt;
    opt.num_shards = 2;
    opt.memtable_limit = 1 << 20;  // no rotation: the log keeps everything
    opt.dir = "store";
    opt.sync_wal = true;
    opt.vfs = std::move(vfs);
    return opt;
  };
  const auto run = [&](const std::shared_ptr<wt::io::FaultVfs>& vfs) {
    std::vector<std::string> acked;
    auto opened = StrEngine::Open(options(vfs));
    if (!opened.ok()) return acked;
    for (const auto& b : batches) {
      if ((*opened)->AppendBatch(b).ok()) {
        acked.insert(acked.end(), b.begin(), b.end());
      }
    }
    return acked;
  };
  auto rec = std::make_shared<wt::io::FaultVfs>();
  ASSERT_EQ(run(rec).size(), 10u);
  const uint64_t trace_len = rec->OpCount();
  for (uint64_t op = 0; op < trace_len; ++op) {
    auto vfs = std::make_shared<wt::io::FaultVfs>();
    vfs->FailOpAt(op, /*torn=*/op % 2 == 1);
    const std::vector<std::string> acked = run(vfs);
    auto eng = StrEngine::Open(options(vfs));
    ASSERT_TRUE(eng.ok()) << "fault at op " << op;
    ASSERT_TRUE((*eng)->Flush().ok()) << "fault at op " << op;
    EXPECT_EQ(Contents((*eng)->GetSnapshot()), acked) << "fault at op " << op;
  }
}

TEST(EngineRecovery, StaggeredFreezeReplaysOnlyWhatOtherShardsLack) {
  TempDir dir("staggered");
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 3;
  opt.dir = dir.path.string();
  const auto values = UrlWorkload(5, 99);
  {
    auto eng = StrEngine::Open(opt).value();
    // Positions 0..4: shard 0 takes 0, 2, 4 and reaches the limit, shard 1
    // takes 1 and 3 and does not. Only shard 0 freezes; its saved segment
    // reaches past the durable prefix G = min(3*2 + 0, 0*2 + 1) = 1.
    ASSERT_TRUE(eng->AppendBatch(values).ok());
  }  // the destructor lets the freeze and its manifest write land
  const Result<engine::Manifest> m = engine::ReadManifest(opt.dir);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->shards[0].segments.size(), 1u);
  EXPECT_EQ(m->shards[0].segments[0].count, 3u);
  EXPECT_TRUE(m->shards[1].segments.empty());
  // The one record still holds all five strings, so replay meets positions
  // 2 and 4 again: they must go nowhere, while 1 and 3 refill shard 1.
  const auto gen0 = engine::ReadWalFile(
      wt::io::RealVfs::Instance(),
      (dir.path / engine::WalFileName(0, 0)).string());
  ASSERT_TRUE(gen0.ok());
  ASSERT_EQ(gen0->size(), 1u);
  auto eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), 5u);
  // A second copy of 2 and 4 would sit past the visible prefix, so append
  // more and read every position: the copies would shift shard 0's share.
  const auto more = UrlWorkload(12, 100);
  ASSERT_TRUE(eng->AppendBatch(more).ok());
  ASSERT_TRUE(eng->Flush().ok());
  std::vector<std::string> want = values;
  want.insert(want.end(), more.begin(), more.end());
  EXPECT_EQ(Contents(eng->GetSnapshot()), want);
  eng->RefreshMetrics();
  const wt::obs::MetricsSnapshot ms = eng->metrics()->Snapshot();
  const int64_t* frozen = ms.FindGauge("wt_engine_frozen_strings");
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(*frozen, static_cast<int64_t>(want.size()));
}

/// Options for a FaultVfs-backed store in directory "store" that logs
/// without per-record fsyncs.
StrEngine::Options UnsyncedStore(std::shared_ptr<wt::io::Vfs> vfs,
                                 size_t memtable_limit) {
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = memtable_limit;
  opt.dir = "store";
  opt.vfs = std::move(vfs);
  return opt;
}

/// Cuts the power on `vfs` (dropping every unsynced byte), reopens the
/// surviving disk under each metadata mode and expects exactly `want`.
void ExpectPowerCutKeeps(const wt::io::FaultVfs& vfs, size_t memtable_limit,
                         const std::vector<std::string>& want) {
  using wt::io::FaultVfs;
  for (const auto meta : {FaultVfs::MetadataMode::kConservative,
                          FaultVfs::MetadataMode::kEager}) {
    const bool eager = meta == FaultVfs::MetadataMode::kEager;
    auto disk = std::make_shared<FaultVfs>(
        vfs.CrashFiles(meta, FaultVfs::DataMode::kDropUnsynced));
    auto opened = StrEngine::Open(UnsyncedStore(disk, memtable_limit));
    ASSERT_TRUE(opened.ok()) << "eager " << eager << ": "
                             << opened.status().message();
    EXPECT_EQ(SalvageCount(**opened), 0u) << "eager " << eager;
    ASSERT_TRUE((*opened)->Flush().ok()) << "eager " << eager;
    EXPECT_EQ(Contents((*opened)->GetSnapshot()), want) << "eager " << eager;
  }
}

TEST(EngineRecovery, FailedRollFsyncIsRetriedBeforeTheManifestWrite) {
  // The staggered freeze again, with the fsync of the generation the
  // batch's rotation rolls past failing. That generation holds shard 1's
  // part (positions 1 and 3) of the stretch shard 0's segment reaches
  // past G = 1, so the freeze's manifest write must fsync it first: listed
  // over a log that a power cut can shorten, the segment would leave
  // shard 0 above its round-robin share and the store refused.
  auto vfs = std::make_shared<wt::io::FaultVfs>();
  const auto values = UrlWorkload(5, 109);
  {
    auto eng = StrEngine::Open(UnsyncedStore(vfs, 3)).value();
    vfs->FailNext(wt::io::FaultVfs::Op::kSync,
                  "store/" + engine::WalFileName(0, 0));
    ASSERT_TRUE(eng->AppendBatch(values).ok());
    EXPECT_FALSE(eng->BackgroundError().ok());  // the roll's fsync failed
  }  // the destructor lets the freeze and its manifest write land
  const Result<engine::Manifest> m = engine::ReadManifest("store", *vfs);
  ASSERT_TRUE(m.ok()) << m.status().message();
  ASSERT_EQ(m->shards[0].segments.size(), 1u);
  EXPECT_TRUE(m->shards[1].segments.empty());
  ExpectPowerCutKeeps(*vfs, 3, values);
}

TEST(EngineRecovery, GenerationsReadAfterAProcessCrashAreFsyncedForAManifest) {
  // The same stretch, with the records left unsynced by a process crash
  // instead: the first engine dies with positions 0 and 1 in the page
  // cache only, the second reads them back from there, and its staggered
  // freeze (shard 0 reaches 3 strings at positions 0, 2, 4) lists a
  // segment that needs position 1 from the generation it recovered.
  auto vfs = std::make_shared<wt::io::FaultVfs>();
  const auto values = UrlWorkload(5, 111);
  {
    auto eng = StrEngine::Open(UnsyncedStore(vfs, 3)).value();
    ASSERT_TRUE(eng->AppendBatch({values[0], values[1]}).ok());
  }
  {
    auto eng = StrEngine::Open(UnsyncedStore(vfs, 3)).value();
    ASSERT_EQ(eng->size(), 2u);
    ASSERT_TRUE(eng->AppendBatch({values.begin() + 2, values.end()}).ok());
  }  // the destructor lets the freeze and its manifest write land
  const Result<engine::Manifest> m = engine::ReadManifest("store", *vfs);
  ASSERT_TRUE(m.ok()) << m.status().message();
  ASSERT_EQ(m->shards[0].segments.size(), 1u);
  EXPECT_TRUE(m->shards[1].segments.empty());
  ExpectPowerCutKeeps(*vfs, 3, values);
}

TEST(EngineRecovery, SyncWalFsyncsAGenerationWhoseRollFsyncFailed) {
  // A failed append rolls to a fresh generation, and that roll's fsync
  // fails too. SyncWal, the serving layer's shutdown barrier, must still
  // make every acknowledged batch survive a power cut: the one before the
  // failed batch lives only in the generation rolled past.
  auto vfs = std::make_shared<wt::io::FaultVfs>();
  const std::string gen0 = "store/" + engine::WalFileName(0, 0);
  auto eng = StrEngine::Open(UnsyncedStore(vfs, 1 << 20)).value();
  ASSERT_TRUE(eng->AppendBatch({"a0", "a1", "a2"}).ok());
  vfs->FailNext(wt::io::FaultVfs::Op::kWrite, gen0);
  vfs->FailNext(wt::io::FaultVfs::Op::kSync, gen0);
  EXPECT_FALSE(eng->AppendBatch({"b0"}).ok());
  ASSERT_TRUE(eng->AppendBatch({"c0", "c1"}).ok());
  ASSERT_TRUE(eng->SyncWal().ok());
  ExpectPowerCutKeeps(*vfs, 1 << 20, {"a0", "a1", "a2", "c0", "c1"});
}

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, DrainWaitsForTheFinishedJobToBeDestroyed) {
  // A freeze's closure holds the last reference to the rotated memtable, so
  // destroying the closure frees the memtable. Drain() (behind Flush())
  // must not return before that, or the destructor runs on the worker
  // while the caller's next jobs (Compact()'s) wait behind it.
  struct SlowToDestroy {
    explicit SlowToDestroy(std::atomic<bool>* d) : destroyed(d) {}
    ~SlowToDestroy() {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      destroyed->store(true);
    }
    std::atomic<bool>* destroyed;
  };
  std::atomic<bool> destroyed{false};
  engine::ThreadPool pool(1);
  pool.Submit(0, [held = std::make_shared<SlowToDestroy>(&destroyed)] {});
  pool.Drain();
  EXPECT_TRUE(destroyed.load());
}

// ---------------------------------------------------------------- capacity

TEST(Capacity, BoundaryArithmetic) {
  constexpr uint64_t kMax = wt::WaveletTrie::kMaxBetaBits;
  static_assert(kMax == (uint64_t(1) << 32) - 1);
  static_assert(kMax == wt::Rrr::kMaxBits);
  static_assert(StrSequence::kMaxEncodedBits == kMax);
  // Exactly at the limit: fine. One past: rejected. Overflow-wrapping
  // sums: rejected.
  EXPECT_FALSE(internal::CapacityWouldOverflow(0, kMax, kMax));
  EXPECT_FALSE(internal::CapacityWouldOverflow(kMax, 0, kMax));
  EXPECT_FALSE(internal::CapacityWouldOverflow(kMax - 1, 1, kMax));
  EXPECT_TRUE(internal::CapacityWouldOverflow(kMax, 1, kMax));
  EXPECT_TRUE(internal::CapacityWouldOverflow(1, kMax, kMax));
  EXPECT_TRUE(internal::CapacityWouldOverflow(kMax + 1, 0, kMax));
  EXPECT_TRUE(
      internal::CapacityWouldOverflow(UINT64_MAX, UINT64_MAX, kMax));
}

TEST(CapacityDeathTest, RrrAbortsCleanlyAtTheBitCap) {
  // The capacity check fires before any input word is read, so a lying
  // length over a tiny buffer exercises the exact boundary cheaply.
  uint64_t word = 0;
  EXPECT_DEATH(wt::Rrr(&word, (uint64_t(1) << 32)), "capped at 2\\^32-1 bits");
}

TEST(Capacity, SequenceAppendSurfacesStatusAtTheBudget) {
  // Appending huge identical strings crosses the encoded-bit budget while
  // the trie itself stays tiny (one distinct value = no beta bits), so the
  // facade's conservative guard is what must fire — all-or-nothing, with
  // the sequence untouched by the rejected batch.
  Sequence<AppendOnly, wt::RawByteCodec> seq;
  const std::string big(1 << 19, 'x');  // 2^22 + 8 encoded bits each
  const wt::BitString enc = wt::RawByteCodec::Encode(big);
  const std::vector<wt::BitString> batch(512, enc);  // just over 2^31 bits
  // First batch fits; the second would push the running total past
  // 2^32-1 and must be rejected whole, leaving the sequence untouched.
  ASSERT_TRUE(seq.AppendEncodedBatch(batch).ok());
  EXPECT_EQ(seq.size(), 512u);
  const Status st = seq.AppendEncodedBatch(batch);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kCapacityExceeded);
  EXPECT_EQ(seq.size(), 512u);
  // Drain the remaining budget one string at a time: the guard must admit
  // exactly while the running encoded total stays <= 2^32-1, then refuse.
  size_t extra = 0;
  Status single = Status::Ok();
  while ((single = seq.AppendEncodedBatch({enc})).ok()) ++extra;
  EXPECT_EQ(single.code(), ErrorCode::kCapacityExceeded);
  EXPECT_EQ(seq.size(), 512u + extra);
  EXPECT_LE((512u + extra) * uint64_t(enc.size()),
            StrSequence::kMaxEncodedBits);
  EXPECT_GT((513u + extra) * uint64_t(enc.size()),
            StrSequence::kMaxEncodedBits);
  // The Value-level Append path is guarded by the same budget.
  EXPECT_EQ(seq.Append(big).code(), ErrorCode::kCapacityExceeded);
  // The accepted prefix still freezes fine (it is under the real cap).
  EXPECT_EQ(seq.Freeze().size(), 512u + extra);
}

}  // namespace
}  // namespace wtrie
