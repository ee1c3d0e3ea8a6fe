// Deterministic crash-simulation torture tests for every durability path
// (DESIGN.md #9).
//
// A scripted workload (appends of unique strings + flushes + compactions +
// manifest rewrites) runs on a FaultVfs (io/vfs.hpp). One clean run records
// the filesystem-operation trace; then for EVERY prefix of that trace the
// power "fails" — operations from the cut onward error out and change
// nothing — and the possible post-crash disks (metadata journaled eagerly
// or only at fsync-dir; unsynced data dropped, torn, or kept) are handed to
// a fresh Engine::Open. Two invariants, at every cut, in every mode:
//
//   1. Open always succeeds — never aborts, never leaves the store
//      unopenable.
//   2. The recovered contents are a batch-aligned prefix of the attempted
//      history that (a) includes every batch acknowledged under
//      sync_wal=true (an ack follows a synced WAL append, so it must
//      survive any power cut), and (b) never includes a batch the engine
//      reported as failed to a live caller.
//
// A second sweep injects a single clean-or-torn I/O failure at every
// operation of the trace (the deterministic ENOSPC/EIO stand-in) with the
// engine left alive: every batch must either ack or fail with a clean
// Status, and a reopen — once before the final Flush, while the log still
// holds every generation no manifest write has retired, and once after
// it — must recover exactly the acknowledged batches. A dropped batch must
// not resurface: the engine starts a new WAL generation at the refused
// batch's position, and recovery cuts the log back at each generation
// start. No tmp files may leak, and a later retry must succeed. A third
// sweep follows each such fault with a power cut (unsynced data dropped,
// under both metadata modes): the store must reopen with every batch
// acknowledged under sync_wal=true and nothing a live caller was refused.
//
// Finally, FsyncOrderingHole replays the pre-seam code (fsync calls inert)
// through the same workload and shows a cut where the manifest names a
// segment whose bytes never hit the platter — the store does not reopen.
// The same cut with the fsyncs active recovers everything: the
// fsync-before-rename + directory-fsync fix is load-bearing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "io/vfs.hpp"

namespace wtrie {
namespace {

using wt::io::FaultVfs;
using DataMode = FaultVfs::DataMode;
using MetadataMode = FaultVfs::MetadataMode;

using StrEngine = Engine<wt::ByteCodec>;

constexpr char kDir[] = "store";

StrEngine::Options BaseOptions(std::shared_ptr<wt::io::Vfs> vfs, bool sync) {
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 16;  // rotations + freezes land mid-workload
  opt.background_threads = 1;
  opt.dir = kDir;
  opt.sync_wal = sync;
  opt.vfs = std::move(vfs);
  return opt;
}

/// The scripted batches: globally unique values, so any resurrected or
/// misplaced string is caught by plain content equality.
std::vector<std::vector<std::string>> ScriptBatches() {
  const size_t sizes[] = {1, 7, 2, 16, 3, 1, 24, 5, 9, 1, 18, 4, 11, 2, 6, 31};
  std::vector<std::vector<std::string>> batches;
  size_t g = 0;
  for (size_t i = 0; i < std::size(sizes); ++i) {
    std::vector<std::string> b;
    for (size_t j = 0; j < sizes[i]; ++j) {
      b.push_back("key-" + std::to_string(i) + "-" + std::to_string(j) + "-" +
                  std::to_string(g++));
    }
    batches.push_back(std::move(b));
  }
  return batches;  // 141 strings
}

/// Per-batch outcome of one workload run.
enum class BatchOutcome {
  kUnattempted,  // the engine was already dead (or Open failed)
  kAcked,        // AppendBatch returned Ok
  kDropped,      // AppendBatch returned an error to a live caller
  kLimbo,        // the crash hit during (or before) this append — the
                 // caller never learned the outcome, both are legal
};

/// How a scripted run ends once its batches are in.
enum class ScriptEnd {
  kFlush,            // a final Flush()
  kReopenThenFlush,  // close, reopen (recovery replays the live log), Flush
  kStop,             // close without a final Flush
};

/// Runs the scripted workload. Flush()/Compact() are scripted between
/// specific batches so freezes, tail compactions, manifest rewrites, and
/// WAL cleaning all appear in the trace; their Statuses are ignored (their
/// failures surface through BackgroundError and the recovery invariants).
/// When the vfs's crash latch fires, the first failed append is kLimbo and
/// the run stops — a dead process issues no further operations.
std::vector<BatchOutcome> RunScripted(
    const std::shared_ptr<FaultVfs>& vfs, bool sync,
    const std::vector<std::vector<std::string>>& batches,
    ScriptEnd end = ScriptEnd::kFlush) {
  std::vector<BatchOutcome> out(batches.size(), BatchOutcome::kUnattempted);
  auto opened = StrEngine::Open(BaseOptions(vfs, sync));
  if (!opened.ok()) return out;
  auto eng = std::move(opened).value();
  for (size_t i = 0; i < batches.size(); ++i) {
    const Status st = eng->AppendBatch(batches[i]);
    if (st.ok()) {
      out[i] = BatchOutcome::kAcked;
    } else if (vfs->CrashTriggered()) {
      out[i] = BatchOutcome::kLimbo;
      break;
    } else {
      out[i] = BatchOutcome::kDropped;
    }
    if (i == 5 || i == 11) (void)eng->Flush();
    if (i == 13) (void)eng->Compact();
  }
  if (vfs->CrashTriggered() || end == ScriptEnd::kStop) return out;
  if (end == ScriptEnd::kReopenThenFlush) {
    eng.reset();
    auto reopened = StrEngine::Open(BaseOptions(vfs, sync));
    if (!reopened.ok()) return out;
    eng = std::move(reopened).value();
  }
  (void)eng->Flush();
  return out;
}

/// What recovery is allowed to produce, derived from the outcomes: the
/// stream of acked batches (in order) optionally extended by the limbo
/// batch, with legal sizes at batch boundaries only.
struct Expectation {
  std::vector<std::string> stream;   // acked values, then limbo values
  std::set<uint64_t> boundaries;     // legal recovered sizes
  uint64_t acked_total = 0;          // values in acked batches
};

Expectation ExpectationFrom(const std::vector<std::vector<std::string>>& batches,
                            const std::vector<BatchOutcome>& outcomes) {
  Expectation e;
  e.boundaries.insert(0);
  for (size_t i = 0; i < batches.size(); ++i) {
    if (outcomes[i] == BatchOutcome::kAcked) {
      e.stream.insert(e.stream.end(), batches[i].begin(), batches[i].end());
      e.boundaries.insert(e.stream.size());
      e.acked_total = e.stream.size();
    } else if (outcomes[i] == BatchOutcome::kLimbo) {
      e.stream.insert(e.stream.end(), batches[i].begin(), batches[i].end());
      e.boundaries.insert(e.stream.size());
    }
    // kDropped batches are excluded: the engine refused them to a live
    // caller, so recovery must never resurrect them. kUnattempted batches
    // never reached the engine at all.
  }
  return e;
}

/// Opens a store from `vfs` and verifies the recovery invariants against
/// the expectation. `min_size` is the durability floor (acked_total when
/// every acknowledged batch must have survived, 0 when loss is allowed).
/// Returns the engine for follow-up assertions; null after a failure.
std::unique_ptr<StrEngine> CheckRecoveredStore(std::shared_ptr<wt::io::Vfs> vfs,
                                               bool sync, const Expectation& e,
                                               uint64_t min_size,
                                               const std::string& ctx) {
  auto opened = StrEngine::Open(BaseOptions(std::move(vfs), sync));
  EXPECT_TRUE(opened.ok()) << ctx << ": open failed: "
                           << opened.status().message();
  if (!opened.ok()) return nullptr;
  auto eng = std::move(opened).value();
  const uint64_t size = eng->size();
  EXPECT_TRUE(e.boundaries.count(size) != 0)
      << ctx << ": size " << size << " is not a batch boundary";
  EXPECT_GE(size, min_size) << ctx << ": acknowledged data lost";
  const Status flushed = eng->Flush();
  EXPECT_TRUE(flushed.ok()) << ctx << ": " << flushed.message();
  const auto snap = eng->GetSnapshot();
  EXPECT_EQ(snap.size(), size) << ctx;
  if (size > 0 && e.boundaries.count(size) != 0) {
    std::vector<uint64_t> pos(size);
    std::iota(pos.begin(), pos.end(), 0);
    const auto got = snap.AccessBatch(pos);
    EXPECT_TRUE(got.ok()) << ctx;
    if (got.ok()) {
      for (size_t i = 0; i < size; ++i) {
        if ((*got)[i] != e.stream[i]) {
          ADD_FAILURE() << ctx << ": position " << i << " holds \""
                        << (*got)[i] << "\", expected \"" << e.stream[i]
                        << "\"";
          break;
        }
      }
    }
  }
  return eng;
}

// ------------------------------------------------------------ FaultVfs model

TEST(FaultVfsModel, SyncedPrefixAndNamespaceSemantics) {
  FaultVfs vfs;
  auto f = vfs.OpenWrite("d/a", true).value();
  ASSERT_TRUE(f->Append("hello", 5).ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("world", 5).ok());
  ASSERT_TRUE(f->Close().ok());

  // Data: only the synced prefix survives kDropUnsynced; the torn mode
  // keeps half the unsynced tail and corrupts its last byte; kKeepAll
  // keeps everything.
  auto eager_drop = vfs.CrashFiles(MetadataMode::kEager, DataMode::kDropUnsynced);
  EXPECT_EQ(eager_drop.at("d/a"), "hello");
  auto eager_torn = vfs.CrashFiles(MetadataMode::kEager, DataMode::kTornTail);
  EXPECT_EQ(eager_torn.at("d/a").size(), 7u);
  EXPECT_EQ(eager_torn.at("d/a").substr(0, 6), "hellow");
  EXPECT_NE(eager_torn.at("d/a")[6], 'o');
  auto keep = vfs.CrashFiles(MetadataMode::kEager, DataMode::kKeepAll);
  EXPECT_EQ(keep.at("d/a"), "helloworld");

  // Namespace: the file was never published by a directory fsync, so the
  // conservative crash loses the name entirely.
  auto conservative =
      vfs.CrashFiles(MetadataMode::kConservative, DataMode::kKeepAll);
  EXPECT_EQ(conservative.count("d/a"), 0u);
  ASSERT_TRUE(vfs.SyncDir("d").ok());
  conservative = vfs.CrashFiles(MetadataMode::kConservative, DataMode::kKeepAll);
  EXPECT_EQ(conservative.at("d/a"), "helloworld");

  // A rename moves the live name immediately but the durable namespace
  // only at the next directory fsync — and the durable entry keeps
  // tracking the inode's synced prefix.
  ASSERT_TRUE(vfs.Rename("d/a", "d/b").ok());
  conservative = vfs.CrashFiles(MetadataMode::kConservative, DataMode::kKeepAll);
  EXPECT_EQ(conservative.count("d/b"), 0u);
  EXPECT_EQ(conservative.at("d/a"), "helloworld");
  auto eager = vfs.CrashFiles(MetadataMode::kEager, DataMode::kDropUnsynced);
  EXPECT_EQ(eager.count("d/a"), 0u);
  EXPECT_EQ(eager.at("d/b"), "hello");
  ASSERT_TRUE(vfs.SyncDir("d").ok());
  conservative =
      vfs.CrashFiles(MetadataMode::kConservative, DataMode::kDropUnsynced);
  EXPECT_EQ(conservative.count("d/a"), 0u);
  EXPECT_EQ(conservative.at("d/b"), "hello");

  // Truncating an existing name makes a fresh inode: until the directory
  // fsync, the durable namespace still reaches the old bytes.
  auto g = vfs.OpenWrite("d/b", true).value();
  ASSERT_TRUE(g->Append("new", 3).ok());
  ASSERT_TRUE(g->Sync().ok());
  ASSERT_TRUE(g->Close().ok());
  conservative =
      vfs.CrashFiles(MetadataMode::kConservative, DataMode::kDropUnsynced);
  EXPECT_EQ(conservative.at("d/b"), "hello");
  auto current = vfs.CurrentFiles();
  EXPECT_EQ(current.at("d/b"), "new");
}

TEST(FaultVfsModel, CrashLatchAndOneShotFaults) {
  FaultVfs vfs;
  {
    auto f = vfs.OpenWrite("x", true).value();  // op 0
    ASSERT_TRUE(f->Append("abc", 3).ok());      // op 1
    vfs.CrashAt(3);
    EXPECT_TRUE(f->Sync().ok());            // op 2: before the cut
    EXPECT_FALSE(f->Append("d", 1).ok());   // op 3: the power is gone
  }  // the close fails too, silently
  EXPECT_TRUE(vfs.CrashTriggered());
  EXPECT_FALSE(vfs.OpenWrite("y", true).ok());
  EXPECT_FALSE(vfs.ReadFile("x").ok());
  // Nothing after the cut changed the disk.
  EXPECT_EQ(vfs.CurrentFiles().at("x"), "abc");

  FaultVfs vfs2;
  vfs2.FailOpAt(1, /*torn=*/true);
  auto f = vfs2.OpenWrite("x", true).value();     // op 0
  EXPECT_FALSE(f->Append("ABCDEFGH", 8).ok());    // op 1: torn
  EXPECT_TRUE(f->Append("ijkl", 4).ok());         // one-shot: now fine
  auto files = vfs2.CurrentFiles();
  ASSERT_EQ(files.at("x").size(), 8u);  // 4 torn bytes + 4 clean
  EXPECT_EQ(files.at("x").substr(0, 3), "ABC");
  EXPECT_NE(files.at("x")[3], 'D');  // the flipped tail byte
  EXPECT_EQ(files.at("x").substr(4), "ijkl");
}

// -------------------------------------------------------- crash simulation

void SweepEveryPrefix(bool sync) {
  const auto batches = ScriptBatches();

  // Recording run: a clean pass over the workload, counting operations.
  auto rec = std::make_shared<FaultVfs>();
  const auto rec_outcomes = RunScripted(rec, sync, batches);
  for (const BatchOutcome o : rec_outcomes) {
    ASSERT_EQ(o, BatchOutcome::kAcked);  // no faults: everything acks
  }
  const uint64_t trace_len = rec->OpCount();
  ASSERT_GT(trace_len, 100u);  // the workload really exercises the disk

  const std::pair<MetadataMode, DataMode> matrix[] = {
      {MetadataMode::kConservative, DataMode::kDropUnsynced},
      {MetadataMode::kConservative, DataMode::kTornTail},
      {MetadataMode::kConservative, DataMode::kKeepAll},
      {MetadataMode::kEager, DataMode::kDropUnsynced},
      {MetadataMode::kEager, DataMode::kTornTail},
      {MetadataMode::kEager, DataMode::kKeepAll},
  };

  for (uint64_t cut = 0; cut < trace_len; ++cut) {
    auto vfs = std::make_shared<FaultVfs>();
    vfs->CrashAt(cut);
    const auto outcomes = RunScripted(vfs, sync, batches);
    const Expectation e = ExpectationFrom(batches, outcomes);
    for (const auto& [meta, data] : matrix) {
      // An ack implies a *synced* WAL append only under sync_wal=true;
      // without it an ack is durable only when the crash kept every
      // written byte and every name (process-kill semantics).
      const bool acked_must_survive =
          sync || (meta == MetadataMode::kEager && data == DataMode::kKeepAll);
      const std::string ctx =
          std::string(sync ? "sync" : "nosync") + " cut " +
          std::to_string(cut) + " meta " +
          (meta == MetadataMode::kEager ? "eager" : "conservative") + " data " +
          std::to_string(static_cast<int>(data));
      CheckRecoveredStore(std::make_shared<FaultVfs>(vfs->CrashFiles(meta, data)),
                          sync, e, acked_must_survive ? e.acked_total : 0, ctx);
      if (::testing::Test::HasFailure()) {
        FAIL() << "first failing cut: " << ctx;
      }
    }
  }
}

TEST(CrashTorture, EveryTracePrefixWithSyncWal) { SweepEveryPrefix(true); }

TEST(CrashTorture, EveryTracePrefixWithoutSyncWal) { SweepEveryPrefix(false); }

// Replays the pre-fix durability code — SaveSegment/PersistManifest calling
// no fsync before rename — through the same call sites by making
// Sync/SyncDir inert, and shows the crash the fix exists for: a journaling
// filesystem commits the renames (eager metadata) while the file bytes
// never leave the page cache, so the manifest names an empty segment and
// the store does not reopen. With the fsyncs live, the same power cut
// recovers every value: the harness is red exactly without the fix.
TEST(CrashTorture, FsyncBeforeRenameIsLoadBearing) {
  const auto batches = ScriptBatches();
  Expectation full;
  for (const auto& b : batches) {
    full.stream.insert(full.stream.end(), b.begin(), b.end());
    full.boundaries.insert(full.stream.size());
  }
  full.acked_total = full.stream.size();

  for (const bool fsync_noop : {true, false}) {
    auto vfs = std::make_shared<FaultVfs>();
    vfs->SetFsyncNoop(fsync_noop);
    const auto outcomes = RunScripted(vfs, /*sync=*/false, batches);
    for (const BatchOutcome o : outcomes) ASSERT_EQ(o, BatchOutcome::kAcked);
    // Power fails after the final flush: all renames visible, unsynced
    // bytes gone.
    const auto disk =
        vfs->CrashFiles(MetadataMode::kEager, DataMode::kDropUnsynced);
    auto opened = StrEngine::Open(
        BaseOptions(std::make_shared<FaultVfs>(disk), false));
    if (fsync_noop) {
      // Pre-fix behavior: the store is gone — either unopenable (manifest
      // bytes never synced) or opened having lost flushed data. It must
      // not come back intact.
      const bool intact = opened.ok() && (*opened)->size() == full.stream.size();
      EXPECT_FALSE(intact)
          << "the fsync-before-rename fix no longer changes anything";
    } else {
      ASSERT_TRUE(opened.ok()) << opened.status().message();
      EXPECT_EQ((*opened)->size(), full.stream.size());
    }
  }
}

// --------------------------------------------------------- ENOSPC/EIO sweep

// The scripted run reopens the store once before its final Flush (the
// fault may also land in that reopen's recovery), so recovery reads every
// generation the last manifest write left — among them a refused batch's
// record, whenever no later manifest write retired it.
void SweepEveryOpFailure(bool sync) {
  const auto batches = ScriptBatches();
  auto rec = std::make_shared<FaultVfs>();
  (void)RunScripted(rec, sync, batches, ScriptEnd::kReopenThenFlush);
  const uint64_t trace_len = rec->OpCount();
  ASSERT_GT(trace_len, 100u);

  const std::vector<std::string> retry = {"retry-0", "retry-1", "retry-2"};
  for (uint64_t op = 0; op < trace_len; ++op) {
    auto vfs = std::make_shared<FaultVfs>();
    vfs->FailOpAt(op, /*torn=*/(op % 2) == 1);  // alternate clean/torn errors
    const auto outcomes =
        RunScripted(vfs, sync, batches, ScriptEnd::kReopenThenFlush);
    const std::string ctx = std::string(sync ? "sync" : "nosync") +
                            " fault at op " + std::to_string(op);
    ASSERT_FALSE(vfs->CrashTriggered()) << ctx;

    // No tmp file may outlive the engine: every failed atomic write must
    // have cleaned up after itself (recovery's orphan scan is the backstop
    // for crashes, not for live failures).
    for (const auto& [path, data] : vfs->CurrentFiles()) {
      (void)data;
      EXPECT_EQ(path.find(".tmp"), std::string::npos)
          << ctx << ": leaked " << path;
    }

    // Reopening the surviving filesystem recovers exactly the acknowledged
    // batches: nothing lost (the process exited cleanly, so even unsynced
    // bytes are intact) and nothing resurrected (a batch dropped with an
    // error Status stays dropped even if its WAL record reached the disk —
    // the next generation starts at its position, and recovery cuts the
    // log back there).
    Expectation e = ExpectationFrom(batches, outcomes);
    e.boundaries = {e.acked_total};
    auto eng = CheckRecoveredStore(vfs, sync, e, e.acked_total, ctx);
    if (eng == nullptr || ::testing::Test::HasFailure()) {
      FAIL() << "first failing fault: " << ctx;
    }

    // The fault was transient: the engine must take new writes and flush
    // them durably.
    ASSERT_TRUE(eng->AppendBatch(retry).ok()) << ctx;
    const Status flushed = eng->Flush();
    ASSERT_TRUE(flushed.ok()) << ctx << ": " << flushed.message();
    EXPECT_EQ(eng->size(), e.acked_total + retry.size()) << ctx;
  }
}

TEST(FaultSweep, EveryOpFailsOnceWithSyncWal) { SweepEveryOpFailure(true); }

TEST(FaultSweep, EveryOpFailsOnceWithoutSyncWal) { SweepEveryOpFailure(false); }

// Each single fault of the sweep above, then the power fails where the
// script stops (before any final Flush, so a refused last batch leaves its
// record and the generation after it in the log) and unsynced bytes are
// dropped. A failed fsync leaves its bytes in the page cache, where a
// later fsync of the same file or a manifest write's sync of the unsynced
// generations can make them durable, so a refused batch's record may
// survive the cut; recovery must still leave it out.
void SweepFaultThenPowerCut(bool sync) {
  const auto batches = ScriptBatches();
  auto rec = std::make_shared<FaultVfs>();
  (void)RunScripted(rec, sync, batches, ScriptEnd::kStop);
  const uint64_t trace_len = rec->OpCount();
  ASSERT_GT(trace_len, 100u);

  for (uint64_t op = 0; op < trace_len; ++op) {
    auto vfs = std::make_shared<FaultVfs>();
    vfs->FailOpAt(op, /*torn=*/(op % 2) == 1);
    const auto outcomes = RunScripted(vfs, sync, batches, ScriptEnd::kStop);
    const std::string fault = std::string(sync ? "sync" : "nosync") +
                              " fault at op " + std::to_string(op);
    ASSERT_FALSE(vfs->CrashTriggered()) << fault;
    const Expectation e = ExpectationFrom(batches, outcomes);
    for (const MetadataMode meta :
         {MetadataMode::kConservative, MetadataMode::kEager}) {
      const std::string ctx =
          fault + " then power cut, meta " +
          (meta == MetadataMode::kEager ? "eager" : "conservative");
      // Only a sync_wal ack promises survival of a power cut.
      CheckRecoveredStore(std::make_shared<FaultVfs>(
                              vfs->CrashFiles(meta, DataMode::kDropUnsynced)),
                          sync, e, sync ? e.acked_total : 0, ctx);
      if (::testing::Test::HasFailure()) {
        FAIL() << "first failing fault: " << ctx;
      }
    }
  }
}

TEST(FaultSweep, EveryOpFailsOnceThenPowerCutWithSyncWal) {
  SweepFaultThenPowerCut(true);
}

TEST(FaultSweep, EveryOpFailsOnceThenPowerCutWithoutSyncWal) {
  SweepFaultThenPowerCut(false);
}

// ------------------------------------------------------- fsck smoke store

// Materializes a genuine post-crash store onto the real filesystem so CI
// can point `wt_inspect --fsck` at it: the scripted workload is killed
// two-thirds into its operation trace (mid-freeze, with staggered shard
// states) under the harshest legal disk (conservative metadata, unsynced
// data dropped), and the surviving files are copied out of the FaultVfs.
// Skipped unless WT_CRASH_STORE_DIR is set.
TEST(CrashTorture, BuildCrashedStoreForFsck) {
  const char* dest = std::getenv("WT_CRASH_STORE_DIR");
  if (dest == nullptr) GTEST_SKIP() << "set WT_CRASH_STORE_DIR to build";
  namespace fs = std::filesystem;
  const auto batches = ScriptBatches();

  auto rec = std::make_shared<FaultVfs>();
  (void)RunScripted(rec, /*sync=*/true, batches);
  const uint64_t cut = rec->OpCount() * 2 / 3;

  auto vfs = std::make_shared<FaultVfs>();
  vfs->CrashAt(cut);
  const auto outcomes = RunScripted(vfs, /*sync=*/true, batches);
  const Expectation e = ExpectationFrom(batches, outcomes);
  const auto disk =
      vfs->CrashFiles(MetadataMode::kConservative, DataMode::kDropUnsynced);

  fs::remove_all(dest);
  ASSERT_TRUE(fs::create_directories(dest));
  const std::string prefix = std::string(kDir) + "/";
  for (const auto& [path, data] : disk) {
    ASSERT_EQ(path.rfind(prefix, 0), 0u) << path;
    std::ofstream out(fs::path(dest) / path.substr(prefix.size()),
                      std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(out.good()) << path;
  }

  // The same disk must pass recovery (verified on an in-memory copy —
  // reopening the materialized directory would mutate the crash state CI
  // is about to audit): acked batches survive (sync_wal acks are
  // durable), nothing else sneaks in.
  CheckRecoveredStore(std::make_shared<FaultVfs>(disk), /*sync=*/true, e,
                      e.acked_total, "fsck smoke store");
}

}  // namespace
}  // namespace wtrie
