// Tests for the concurrent segmented engine (src/engine/, DESIGN.md #7):
//   * differential tests of Engine (several shard counts / memtable limits,
//     so freeze boundaries and compactions land mid-workload) against a
//     single Sequence<Static> oracle for Access/Rank/Select, their batch
//     forms, prefix operations, and the Section 5 analytics;
//   * snapshot semantics: consistent-prefix visibility, pinning across
//     concurrent freezes/compactions, ephemeral vs flushed reads;
//   * a multi-threaded stress test (one writer + N readers) asserting every
//     snapshot observes exactly a prefix of the append history;
//   * WAL crash recovery: reopen after an unflushed close replays the tail;
//     a torn final record and a missing batch slice (the two mid-batch
//     crash shapes) are discarded whole, complete batches survive;
//   * the capacity satellite: the RRR 2^32-1-bit cap surfaces as a clean
//     abort at the core boundary and as kCapacityExceeded Status on the
//     facade, with the boundary arithmetic unit-tested exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
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
    // Three batches of 300; the last will be torn below.
    for (size_t b = 0; b < 3; ++b) {
      ASSERT_TRUE(eng->AppendBatch({values.begin() + 300 * b,
                                    values.begin() + 300 * (b + 1)}).ok());
    }
  }
  // Simulate a crash mid-record: truncate the tail of shard 0's WAL by a
  // few bytes, invalidating its final record (the checksum cannot match).
  const fs::path wal0 = dir.path / "wal-0-0.log";
  ASSERT_TRUE(fs::exists(wal0));
  const auto sz = fs::file_size(wal0);
  fs::resize_file(wal0, sz - 5);

  auto eng = StrEngine::Open(opt).value();
  // The torn slice kills batch 3 on BOTH shards (batch atomicity), leaving
  // exactly the first two batches.
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

TEST(EngineRecovery, MissingShardSliceDiscardsWholeBatch) {
  TempDir dir("slice");
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 1 << 20;
  opt.dir = dir.path.string();
  const auto values = UrlWorkload(400, 61);
  {
    auto eng = StrEngine::Open(opt).value();
    ASSERT_TRUE(
        eng->AppendBatch({values.begin(), values.begin() + 200}).ok());
    ASSERT_TRUE(eng->AppendBatch({values.begin() + 200, values.end()}).ok());
  }
  // Crash shape 2: batch 2's slice reached shard 0's WAL but never shard
  // 1's. Deleting shard 1's entire second slice means truncating its WAL
  // back to the end of batch 1 — emulate by removing every record after
  // the first from wal-1-0.log.
  const fs::path wal1 = dir.path / "wal-1-0.log";
  ASSERT_TRUE(fs::exists(wal1));
  // Parse minimally: records are self-delimiting (header + payload_len).
  std::ifstream in(wal1, std::ios::binary);
  uint64_t id;
  uint32_t shards32, count;
  uint64_t len, sum;
  ASSERT_TRUE(wt::TryReadPod(in, &id));
  ASSERT_TRUE(wt::TryReadPod(in, &shards32));
  ASSERT_TRUE(wt::TryReadPod(in, &count));
  ASSERT_TRUE(wt::TryReadPod(in, &len));
  ASSERT_TRUE(wt::TryReadPod(in, &sum));
  const uint64_t first_record_end = 8 + 4 + 4 + 8 + 8 + len;
  in.close();
  fs::resize_file(wal1, first_record_end);

  auto eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), 200u);  // batch 2 discarded on shard 0 as well
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 88);
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
    // The WAL generations feeding the unsaved segment must have survived
    // the second (successful) freeze's floor advance and cleaning pass.
    EXPECT_TRUE(fs::exists(dir.path / "wal-0-0.log"));
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
  // which the manifest covers both segments and the floor advance lets
  // the subsumed WAL generations be cleaned.
  fs::remove(dir.path / "seg-0-0.wt");
  ASSERT_TRUE(
      eng->AppendBatch({values.begin() + 900, values.begin() + 1000}).ok());
  // The first failure is sticky in BackgroundError, so assert the retry's
  // success through the filesystem instead of the Flush status.
  EXPECT_FALSE(eng->Flush().ok());
  EXPECT_TRUE(fs::exists(dir.path / "seg-0-0.wt"));
  EXPECT_FALSE(fs::exists(dir.path / "wal-0-0.log"));
  EXPECT_FALSE(fs::exists(dir.path / "wal-0-1.log"));
  eng.reset();
  // With the WAL gone the segments are the only copy: reopening from them
  // proves the retried save (and the manifest entry) is real.
  eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), 1000u);
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 103);
}

TEST(WalRobustness, OversizedBitLengthFieldIsRejected) {
  TempDir dir("walbits");
  const fs::path path = dir.path / "wal-0-0.log";
  // A record whose checksum matches but whose per-string bit length lies:
  // near UINT64_MAX the word count (bits+63)/64 would wrap to a tiny
  // buffer read far out of bounds; merely-huge values would balloon the
  // allocation. Both must drop the record cleanly.
  for (const uint64_t bits :
       {UINT64_MAX, UINT64_MAX - 63, uint64_t(1) << 40}) {
    std::ostringstream p;
    wt::WritePod<uint64_t>(p, bits);
    const std::string payload = std::move(p).str();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    wt::WritePod<uint64_t>(out, /*batch_id=*/0);
    wt::WritePod<uint32_t>(out, /*batch_shards=*/1);
    wt::WritePod<uint32_t>(out, /*string_count=*/1);
    wt::WritePod<uint64_t>(out, payload.size());
    wt::WritePod<uint64_t>(out, wt::Fnv1a(payload.data(), payload.size()));
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    out.close();
    EXPECT_TRUE(
        engine::ReadWalFile(wt::io::RealVfs::Instance(), path.string())
            .empty())
        << bits;
  }
}

TEST(EngineRecovery, IncompleteMiddleBatchSalvagesLongestPrefix) {
  TempDir dir("salvage");
  // Hand-craft the sync_wal=false crash shape the replay rule alone cannot
  // absorb: the OS persisted WAL pages out of order, so batch 1 lost its
  // shard-1 slice while the *later* batch 2 is complete. Dropping batch 1
  // whole leaves batch 2's placement inconsistent with the round-robin
  // cursor; recovery must degrade to the longest consistent prefix
  // (batch 0) instead of refusing to open.
  const wt::ByteCodec codec;
  const auto values = UrlWorkload(6, 91);
  std::vector<wt::BitString> encs;
  for (const std::string& v : values) encs.push_back(codec.Encode(v));
  {
    wt::io::Vfs& vfs = wt::io::RealVfs::Instance();
    engine::WalWriter w0, w1;
    ASSERT_TRUE(w0.Open(vfs, (dir.path / "wal-0-0.log").string(), false).ok());
    ASSERT_TRUE(w1.Open(vfs, (dir.path / "wal-1-0.log").string(), false).ok());
    // batch 0: strings 0,1 from cursor 0 -> shard0 {0}, shard1 {1}.
    ASSERT_TRUE(w0.Append(0, 2, {encs[0].Span()}).ok());
    ASSERT_TRUE(w1.Append(0, 2, {encs[1].Span()}).ok());
    // batch 1: strings 2,3,4 from cursor 0 -> shard0 {2,4}, shard1 {3};
    // shard 1's slice is the one the crash lost (never written here).
    ASSERT_TRUE(w0.Append(1, 2, {encs[2].Span(), encs[4].Span()}).ok());
    // batch 2: string 5 from cursor 1 -> shard1 only, and complete.
    ASSERT_TRUE(w1.Append(2, 1, {encs[5].Span()}).ok());
  }
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.dir = dir.path.string();
  auto opened = StrEngine::Open(opt);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto eng = std::move(opened).value();
  EXPECT_EQ(eng->size(), 2u);  // batch 0 survives; batches 1 and 2 do not
  {
    // The degraded open is counted where operators read it.
    const wt::obs::MetricsSnapshot ms = eng->metrics()->Snapshot();
    const uint64_t* salvages = ms.FindCounter("wt_engine_wal_salvages_total");
    ASSERT_NE(salvages, nullptr);
    EXPECT_EQ(*salvages, 1u);
  }
  ASSERT_TRUE(eng->Flush().ok());
  const auto snap = eng->GetSnapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.Access(0).value(), values[0]);
  EXPECT_EQ(snap.Access(1).value(), values[1]);
  // The salvage freezes the recovered memtables right away, so the
  // damaged generation is retired and cannot shadow later writes on the
  // next recovery.
  EXPECT_FALSE(fs::exists(dir.path / "wal-0-0.log"));
  EXPECT_FALSE(fs::exists(dir.path / "wal-1-0.log"));
  ASSERT_TRUE(eng->AppendBatch({values.begin() + 2, values.end()}).ok());
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 105);
}

TEST(EngineRecovery, WhollyLostMiddleBatchSalvagesViaIdGap) {
  TempDir dir("gap");
  // A middle batch can lose ALL of its slices to out-of-order page
  // persistence; it then never appears in the decoded records and is
  // visible only as a gap in the batch-id sequence. The cut search must
  // consider that gap, not just incomplete ids.
  const wt::ByteCodec codec;
  const auto values = UrlWorkload(4, 93);
  std::vector<wt::BitString> encs;
  for (const std::string& v : values) encs.push_back(codec.Encode(v));
  {
    wt::io::Vfs& vfs = wt::io::RealVfs::Instance();
    engine::WalWriter w0, w1;
    ASSERT_TRUE(w0.Open(vfs, (dir.path / "wal-0-0.log").string(), false).ok());
    ASSERT_TRUE(w1.Open(vfs, (dir.path / "wal-1-0.log").string(), false).ok());
    // batch 0: strings 0,1 from cursor 0 -> shard0 {0}, shard1 {1}.
    ASSERT_TRUE(w0.Append(0, 2, {encs[0].Span()}).ok());
    ASSERT_TRUE(w1.Append(0, 2, {encs[1].Span()}).ok());
    // batch 1 (string 2 -> shard0 only) was wholly lost — nothing logged.
    // batch 2: string 3 from cursor 1 -> shard1 only, complete.
    ASSERT_TRUE(w1.Append(2, 1, {encs[3].Span()}).ok());
  }
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.dir = dir.path.string();
  auto opened = StrEngine::Open(opt);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto eng = std::move(opened).value();
  EXPECT_EQ(eng->size(), 2u);  // batch 0 survives, the gap cuts the rest
  ASSERT_TRUE(eng->Flush().ok());
  const auto snap = eng->GetSnapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.Access(0).value(), values[0]);
  EXPECT_EQ(snap.Access(1).value(), values[1]);
}

TEST(EngineRecovery, SalvageRetiresDamagedGenerationsOnEveryShard) {
  TempDir dir("retire");
  // After a salvage, a shard whose memtable came back empty still held a
  // WAL file with a dropped-but-complete batch; left behind, that batch
  // would resurface on the next recovery and shadow — or render
  // unsalvageable — batches acknowledged after this open.
  const wt::ByteCodec codec;
  const auto values = UrlWorkload(9, 95);
  std::vector<wt::BitString> encs;
  for (const std::string& v : values) encs.push_back(codec.Encode(v));
  {
    wt::io::Vfs& vfs = wt::io::RealVfs::Instance();
    engine::WalWriter w0, w1, w2;
    ASSERT_TRUE(w0.Open(vfs, (dir.path / "wal-0-0.log").string(), false).ok());
    ASSERT_TRUE(w1.Open(vfs, (dir.path / "wal-1-0.log").string(), false).ok());
    ASSERT_TRUE(w2.Open(vfs, (dir.path / "wal-2-0.log").string(), false).ok());
    // batch 0: strings 0,1 from cursor 0 -> shard0 {0}, shard1 {1}.
    ASSERT_TRUE(w0.Append(0, 2, {encs[0].Span()}).ok());
    ASSERT_TRUE(w1.Append(0, 2, {encs[1].Span()}).ok());
    // batch 1: strings 2,3 from cursor 2 -> shard2 {2} (slice lost),
    // shard0 {3} — incomplete.
    ASSERT_TRUE(w0.Append(1, 2, {encs[3].Span()}).ok());
    // batches 2 and 3: singletons beyond the damage, both complete.
    ASSERT_TRUE(w1.Append(2, 1, {encs[4].Span()}).ok());
    ASSERT_TRUE(w2.Append(3, 1, {encs[5].Span()}).ok());
  }
  StrEngine::Options opt;
  opt.num_shards = 3;
  opt.dir = dir.path.string();
  auto opened = StrEngine::Open(opt);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto eng = std::move(opened).value();
  EXPECT_EQ(eng->size(), 2u);  // batch 0 only
  // The salvage settles before Open returns: shard 2 salvaged nothing,
  // yet its generation (holding only the dropped batch 3) must be gone
  // along with everyone else's.
  EXPECT_FALSE(fs::exists(dir.path / "wal-0-0.log"));
  EXPECT_FALSE(fs::exists(dir.path / "wal-1-0.log"));
  EXPECT_FALSE(fs::exists(dir.path / "wal-2-0.log"));
  // Writes acknowledged after the salvage survive the next crash+reopen.
  ASSERT_TRUE(eng->AppendBatch({values.begin() + 2, values.end()}).ok());
  eng.reset();
  eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), values.size());
  ASSERT_TRUE(eng->Flush().ok());
  ExpectMatchesOracle(eng->GetSnapshot(), values, 107);
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
