// wtrie::Engine — the concurrent, segmented serving layer (DESIGN.md #7).
//
// The paper's structures are single-threaded; the engine turns them into a
// write-heavy service following the mutable-front/compact-back split its
// motivation describes (versioned stores, append-heavy logs): strings are
// distributed round-robin across N shards, each an LSM-style pair of
//
//   * a memtable — `Sequence<AppendOnly>` (Theorem 4.3) absorbing batched
//     appends through the word-parallel ingest path, and
//   * a stack of frozen segments — `Sequence<Static>` (Theorem 3.7) built
//     by background Freeze() when the memtable crosses a size threshold,
//     with adjacent small segments merged by Sequence::Concat compaction
//     (both rebuild from the tries' leaf dictionaries, never from
//     per-string copies; size-tiered: a merge runs while the penultimate
//     segment is at most kCompactionSizeRatio = 3 times the last, so stacks
//     stay logarithmic in shard size).
//
// Reads never lock: GetSnapshot() pins the published immutable views
// (engine/snapshot.hpp) and answers Access/Rank/Select, their batch forms,
// and the Section 5 analytics over a consistent prefix of the append
// history while ingest and freezing proceed. Snapshots do not see the
// memtable; call Flush() for read-your-writes.
//
// Durability (optional, `Options::dir`): every batch is logged as one
// record of the write-ahead log, in global position order, before touching
// a memtable (engine/wal.hpp; the record's checksum makes the batch
// crash-atomic). Segments and the manifest are persisted with
// tmp-file+rename, and a WAL generation is deleted only after a successful
// manifest write shows that every shard's saved segments hold everything
// before its successor's start. A segment whose save fails is served from
// memory but never referenced by the manifest (nor is anything stacked
// after it), so the prefix the manifest shows stays below its data and the
// log keeps the durable copy until a later freeze retries the save or a
// compaction subsumes it. Open() replays the log past that prefix into
// fresh memtables (engine/recovery_invariants.hpp), so a crashed engine
// resumes exactly at its last complete batch; if a generation file went
// missing, recovery salvages the prefix before the hole instead of
// refusing to open.
//
// Threading model (see also engine/shard.hpp):
//   * any number of writer threads — serialized by one ingest mutex;
//   * background work — a striped pool (engine/thread_pool.hpp) keyed by
//     shard id: freezes/compactions of one shard run FIFO on one worker,
//     different shards in parallel;
//   * any number of reader threads — snapshot acquisition copies each
//     shard's published view pointer (engine/shard.hpp, PublishedPtr: one
//     micro critical section per shard); the queries themselves run on the
//     pinned immutable views with no synchronization at all.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/result.hpp"
#include "api/sequence.hpp"
#include "common/layout_contracts.hpp"  // compile the format contracts in
#include "common/thread_annotations.hpp"
#include "engine/manifest.hpp"
#include "engine/recovery_invariants.hpp"
#include "engine/segment_stack.hpp"
#include "engine/shard.hpp"
#include "engine/snapshot.hpp"
#include "engine/thread_pool.hpp"
#include "engine/wal.hpp"
#include "io/vfs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/image.hpp"
#include "storage/pager.hpp"

namespace wtrie {

template <typename Codec = wt::ByteCodec>
class Engine {
 public:
  using Value = typename Codec::Value;
  using SnapshotT = engine::Snapshot<Codec>;
  using Memtable = Sequence<AppendOnly, Codec>;
  using Segment = Sequence<Static, Codec>;

  struct Options {
    /// Shards strings are distributed over (round-robin by position). For
    /// a durable directory the count is baked in at creation: reopening
    /// adopts the on-disk value.
    size_t num_shards = 4;
    /// Strings a shard memtable absorbs before it is rotated out and
    /// frozen in the background.
    size_t memtable_limit = 1 << 16;
    /// Background workers (0 = one per shard, capped at hardware threads).
    size_t background_threads = 0;
    /// Durable directory; empty runs the engine in memory (no WAL, no
    /// segment files — contents die with the object).
    std::string dir;
    /// fsync each WAL record (durability against OS crashes, not just
    /// process crashes). Off by default: a research-bench default.
    bool sync_wal = false;
    /// Serve frozen segments from memory-mapped v5 images (DESIGN.md #8):
    /// Open() borrows straight into the mapped manifest segments instead
    /// of deserializing them, and a freshly saved freeze/compaction output
    /// is remapped so steady-state serving reads the page cache, not a
    /// heap copy. Off heap-loads the same images; answers are identical
    /// either way (differential-tested).
    bool map_segments = true;
    /// Hash-verify each segment image at open (one streaming pass that
    /// faults the whole file in). Off by default: instant open is the
    /// point of the mapped format — the engine is reading files it wrote
    /// under its checksummed manifest/WAL protocol, every image is still
    /// structurally bounds-checked, and `wt_inspect` (or an open with this
    /// flag on) performs the full integrity pass when disk corruption is
    /// suspected. Loading images from *untrusted* sources goes through
    /// Sequence::LoadImage, whose default stays VerifyMode::kFull.
    bool verify_segment_checksums = false;
    /// Filesystem seam every durability path goes through (io/vfs.hpp).
    /// Null uses the real filesystem; tests inject a FaultVfs to script
    /// I/O errors, torn writes, and power loss deterministically.
    std::shared_ptr<wt::io::Vfs> vfs;
    /// Metrics registry the engine records into (DESIGN.md #12). Null
    /// creates a private one; the serving layer passes the engine's own
    /// registry around so the daemon exposes one unified snapshot.
    std::shared_ptr<wt::obs::MetricsRegistry> metrics;
  };

  /// Creates or reopens an engine. With a durable directory, loads the
  /// manifest's segments and replays the WAL tail into fresh memtables
  /// before returning.
  static Result<std::unique_ptr<Engine>> Open(Options opt, Codec codec = {}) {
    if (opt.num_shards == 0) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "Engine: num_shards must be >= 1");
    }
    wt::io::Vfs& vfs =
        opt.vfs != nullptr ? *opt.vfs : wt::io::RealVfs::Instance();
    engine::Manifest manifest;
    bool have_manifest = false;
    if (!opt.dir.empty()) {
      if (Status st = vfs.CreateDirs(opt.dir); !st.ok()) {
        return Status::Error(ErrorCode::kIoError,
                             "Engine: cannot create directory");
      }
      Result<engine::Manifest> m = engine::ReadManifest(opt.dir, vfs);
      if (m.ok()) {
        manifest = std::move(m).value();
        have_manifest = true;
        opt.num_shards = manifest.num_shards;  // sharding is baked on disk
      } else if (m.code() != ErrorCode::kNotFound) {
        return m.status();
      }
    }
    std::unique_ptr<Engine> eng(new Engine(std::move(opt), std::move(codec)));
    if (Status st = eng->Recover(have_manifest ? &manifest : nullptr);
        !st.ok()) {
      return st;
    }
    return eng;
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Finishes queued background work and stops. The memtables are NOT
  /// flushed: a durable engine recovers them from the WAL on the next
  /// Open; an in-memory engine loses them with everything else.
  ~Engine() { pool_.reset(); }

  // ---------------------------------------------------------------- ingest

  Status Append(const Value& v) {
    std::vector<wt::BitString> enc;
    enc.push_back(codec_.Encode(v));
    return AppendEncodedBatch(enc);
  }

  Status AppendBatch(const std::vector<Value>& values) {
    std::vector<wt::BitString> enc;
    enc.reserve(values.size());
    for (const Value& v : values) enc.push_back(codec_.Encode(v));
    return AppendEncodedBatch(enc);
  }

  /// The memtable path proper: strings already encoded by (an equal
  /// instantiation of) this engine's codec. One WAL record for the batch and
  /// one word-parallel AppendBatch per touched shard; the batch is atomic
  /// under crashes (all visible after recovery, or none). The strings are
  /// only borrowed — everything downstream works on spans over them.
  Status AppendEncodedBatch(const std::vector<wt::BitString>& enc) {
    if (enc.empty()) return Status::Ok();
    wt::MutexLock lk(ingest_mu_);
    const size_t n = shards_.size();
    const uint64_t base = total_.load(std::memory_order_relaxed);
    // Round-robin split as zero-copy spans over the caller's strings,
    // summing each slice's bits on the way for the capacity pre-check.
    std::vector<std::vector<wt::BitSpan>> slice(n);
    std::vector<uint64_t> slice_bits(n, 0);
    for (auto& v : slice) v.reserve(enc.size() / n + 1);
    size_t cursor = base % n;
    for (size_t i = 0; i < enc.size(); ++i) {
      slice[cursor].push_back(enc[i].Span());
      slice_bits[cursor] += enc[i].size();
      cursor = cursor + 1 == n ? 0 : cursor + 1;  // no per-item division
    }
    // Capacity pre-check on every touched memtable before any state
    // (durable or in-memory) changes, so a refusal cannot desync shards.
    uint64_t batch_bits = 0;
    for (size_t s = 0; s < n; ++s) {
      if (internal::CapacityWouldOverflow(shards_[s].memtable.EncodedBits(),
                                          slice_bits[s],
                                          Memtable::kMaxEncodedBits)) {
        return Status::Error(
            ErrorCode::kCapacityExceeded,
            "Engine: batch would overflow a shard memtable; lower "
            "memtable_limit or split the batch");
      }
      batch_bits += slice_bits[s];
    }
    if (durable()) {
      // A previous failure may have left the writer closed (opening the
      // current generation failed). One transient error must not wedge
      // ingest until reopen: retry the open before giving up.
      if (!wal_.is_open()) (void)OpenWalLocked();
      const uint64_t t0 = wt::obs::TimerStart();
      Status append_st = wal_.Append(base, enc);
      h_wal_append_us_->Record(wt::obs::ElapsedUs(t0));
      h_wal_bytes_->Record(batch_bits / 8);
      c_wal_appends_->Increment();
      if (Status st = std::move(append_st); !st.ok()) {
        // No memtable was touched. The failed record may be torn, or on
        // disk whole (a write that landed whose fsync failed). A fresh
        // generation starting at this batch's position retires it either
        // way — recovery lets the later start win — and keeps later
        // records clear of a torn tail. (A closed writer wrote nothing.)
        if (wal_.is_open()) (void)RollWalLocked(base);
        return st;
      }
    }
    for (size_t sh = 0; sh < n; ++sh) {
      if (slice[sh].empty()) continue;
      const Status st =
          shards_[sh].memtable.AppendEncodedSpans(slice[sh], slice_bits[sh]);
      WT_ASSERT_MSG(st.ok(), "Engine: memtable append failed after pre-check");
    }
    total_.store(base + enc.size(), std::memory_order_relaxed);
    bool rotated = false;
    for (size_t s = 0; s < n; ++s) {
      if (shards_[s].memtable.size() >= opt_.memtable_limit) {
        RotateShardLocked(s);
        rotated = true;
      }
    }
    // The rotated memtables' saves will let cleaning retire the log up to
    // here, once every shard has saved that far: give it a generation
    // boundary to retire up to.
    if (rotated && durable()) (void)RollWalLocked(base + enc.size());
    c_appends_->Add(enc.size());
    for (size_t s = 0; s < n; ++s) {
      if (!slice[s].empty()) UpdateMemtableGaugesLocked(s);
    }
    return Status::Ok();
  }

  // ----------------------------------------------------------------- reads

  /// Monotone counter bumped every time any shard publishes a new view
  /// (freeze, compaction, recovery). Cheap staleness probe for snapshot
  /// caches: the serving layer re-pins its snapshot only when this moves,
  /// so steady-state request coalescing pays one relaxed load instead of
  /// one shared_ptr copy per shard per dispatch.
  uint64_t PublishEpoch() const {
    return publish_epoch_.load(std::memory_order_acquire);
  }

  /// Pins a consistent immutable view: the largest global prefix every
  /// shard has frozen. Wait-free with respect to writers and background
  /// work; the snapshot stays valid (and pinned) for its whole lifetime.
  SnapshotT GetSnapshot() const {
    auto view = std::make_shared<engine::EngineView<Codec>>();
    const size_t n = shards_.size();
    view->codec = codec_;
    view->shards.reserve(n);
    for (const auto& sh : shards_) {
      view->shards.push_back(sh.view.Load());
    }
    view->visible = engine::DurablePrefix(
        n, [&](size_t s) { return view->shards[s]->total(); });
    return SnapshotT(std::move(view));
  }

  // ------------------------------------------------------------- lifecycle

  /// Freezes every non-empty memtable and waits for all queued background
  /// work (freezes and cascaded compactions) to finish — the
  /// read-your-writes barrier: afterwards GetSnapshot() covers everything
  /// appended before the call.
  Status Flush() {
    {
      wt::MutexLock lk(ingest_mu_);
      for (size_t s = 0; s < shards_.size(); ++s) RotateShardLocked(s);
      // Start a generation where the flushed data ends, so the freezes'
      // manifest writes retire every generation before it.
      const uint64_t total = total_.load(std::memory_order_relaxed);
      if (durable() && wal_gens_.back().first < total) {
        (void)RollWalLocked(total);
      }
    }
    pool_->Drain();
    return BackgroundError();
  }

  /// Fsyncs the write-ahead log and the directory naming its generations
  /// — the serving layer's shutdown barrier: after a graceful drain, every
  /// acknowledged append is durable against OS crashes too, even when the
  /// engine runs with sync_wal=false. (Against process crashes the records
  /// are already safe: Append flushes them to the OS before the memtable is
  /// touched.) Fails while any generation's fsync fails.
  Status SyncWal() {
    wt::MutexLock lk(ingest_mu_);
    wt::obs::ScopedSpan span(wt::obs::Tracer::Get(),
                             wt::obs::TraceName::kWalFsync,
                             total_.load(std::memory_order_relaxed));
    const uint64_t t0 = wt::obs::TimerStart();
    Status st = SyncLogLocked();
    // A generation opened since the last directory fsync (sync_wal=false
    // skips it) needs its name made durable too.
    if (st.ok() && durable()) st = vfs().SyncDir(opt_.dir);
    h_wal_fsync_us_->Record(wt::obs::ElapsedUs(t0));
    c_wal_fsyncs_->Increment();
    return st;
  }

  /// Merges every shard's stack down to one segment (after finishing
  /// pending freezes). Mostly a testing/maintenance hook — the size-tiered
  /// policy already bounds stack depth during normal operation.
  Status Compact() {
    pool_->Drain();  // let queued freezes land first
    // The coordinator span is the parent every per-shard merge links to
    // (explicitly, across the pool boundary — the workers' own span
    // stacks are empty).
    wt::obs::ScopedSpan tier_span(wt::obs::Tracer::Get(),
                                  wt::obs::TraceName::kTierMerge,
                                  shards_.size());
    const uint64_t tier_id = tier_span.id();
    for (size_t s = 0; s < shards_.size(); ++s) {
      pool_->Submit(s, [this, s, tier_id] {
        size_t count;
        {
          wt::MutexLock lk(shards_[s].publish_mu);
          count = shards_[s].entries.size();
        }
        if (count >= 2) MergeTail(s, count, tier_id);
      });
    }
    pool_->Drain();
    return BackgroundError();
  }

  // ----------------------------------------------------------------- admin

  /// Strings appended so far (including those not yet visible to
  /// snapshots).
  uint64_t size() const { return total_.load(std::memory_order_relaxed); }

  /// Strings the current snapshot would observe.
  uint64_t visible_size() const { return GetSnapshot().size(); }

  /// First error any background job hit (freeze/compaction/persistence);
  /// Ok when everything has succeeded so far.
  Status BackgroundError() const {
    wt::MutexLock lk(bg_error_mu_);
    return bg_error_;
  }

  /// The registry every engine/WAL/pager instrument lives in: the one
  /// read path for the engine's own numbers (RefreshMetrics() first for
  /// the derived gauges).
  const std::shared_ptr<wt::obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }

  /// Recomputes the derived gauges (segment counts, frozen strings,
  /// snapshot-epoch age) that are cheaper to compute on demand than to
  /// maintain per operation. Exposition paths call this right before
  /// MetricsRegistry::Snapshot().
  void RefreshMetrics() const {
    uint64_t frozen = 0;
    int64_t segments = 0;
    int64_t debt = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      auto view = shards_[s].view.Load();
      frozen += view->total();
      const int64_t n = static_cast<int64_t>(view->segments.size());
      segments += n;
      // Debt: segments beyond one per shard are pending merge work the
      // tail-compaction loop still owes (DESIGN.md #13).
      debt += std::max<int64_t>(0, n - 1);
      g_shard_segments_[s]->Set(n);
    }
    g_frozen_strings_->Set(static_cast<int64_t>(frozen));
    g_segments_->Set(segments);
    g_compaction_debt_->Set(debt);
    g_publish_epoch_->Set(
        static_cast<int64_t>(publish_epoch_.load(std::memory_order_acquire)));
    const uint64_t last = last_publish_ns_.load(std::memory_order_relaxed);
    g_epoch_age_ms_->Set(
        last == 0 ? 0
                  : static_cast<int64_t>((wt::obs::NowNanos() - last) /
                                         1000000));
  }

  const Options& options() const { return opt_; }
  const Codec& codec() const { return codec_; }

 private:
  static wt::storage::Pager::Options PagerOptionsFor(
      const Options& opt, std::shared_ptr<wt::obs::MetricsRegistry> metrics) {
    wt::storage::Pager::Options po;
    // An injected VFS intercepts segment opens too (it implements
    // BlobSource); the default pager maps straight from the filesystem.
    po.source = opt.vfs.get();
    po.metrics = std::move(metrics);
    return po;
  }

  Engine(Options opt, Codec codec)
      : opt_(std::move(opt)),
        codec_(std::move(codec)),
        metrics_(opt_.metrics != nullptr
                     ? opt_.metrics
                     : std::make_shared<wt::obs::MetricsRegistry>()),
        pager_(PagerOptionsFor(opt_, metrics_)),
        shards_(opt_.num_shards) {
    for (auto& sh : shards_) {
      sh.memtable = Memtable(codec_);
      wt::MutexLock lk(sh.publish_mu);
      sh.PublishLocked();
    }
    RegisterInstruments();
    size_t threads = opt_.background_threads;
    if (threads == 0) {
      const size_t hw = std::max(1u, std::thread::hardware_concurrency());
      threads = std::min(opt_.num_shards, hw);
    }
    pool_ = std::make_unique<engine::ThreadPool>(threads);
  }

  /// Resolves every engine instrument once; hot paths use the cached
  /// pointers (one relaxed RMW each, no registry lookup).
  void RegisterInstruments() {
    wt::obs::MetricsRegistry& reg = *metrics_;
    c_appends_ = reg.GetCounter("wt_engine_appends_total");
    c_freezes_ = reg.GetCounter("wt_engine_freezes_total");
    c_compactions_ = reg.GetCounter("wt_engine_compactions_total");
    c_wal_appends_ = reg.GetCounter("wt_wal_appends_total");
    c_wal_fsyncs_ = reg.GetCounter("wt_wal_fsyncs_total");
    c_wal_salvages_ = reg.GetCounter("wt_engine_wal_salvages_total");
    c_background_errors_ = reg.GetCounter("wt_engine_background_errors_total");
    h_freeze_ms_ = reg.GetHistogram("wt_engine_freeze_ms");
    h_compaction_ms_ = reg.GetHistogram("wt_engine_compaction_ms");
    h_wal_append_us_ = reg.GetHistogram("wt_wal_append_us");
    h_wal_fsync_us_ = reg.GetHistogram("wt_wal_fsync_us");
    h_wal_bytes_ = reg.GetHistogram("wt_wal_append_bytes");
    g_freeze_queue_ = reg.GetGauge("wt_engine_freeze_queue_depth");
    g_segments_ = reg.GetGauge("wt_engine_segments");
    g_compaction_debt_ = reg.GetGauge("wt_engine_compaction_debt");
    g_frozen_strings_ = reg.GetGauge("wt_engine_frozen_strings");
    g_epoch_age_ms_ = reg.GetGauge("wt_engine_snapshot_epoch_age_ms");
    g_publish_epoch_ = reg.GetGauge("wt_engine_publish_epoch");
    g_mem_strings_.reserve(shards_.size());
    g_mem_bytes_.reserve(shards_.size());
    g_shard_segments_.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
      g_mem_strings_.push_back(
          reg.GetGauge("wt_engine_memtable_strings" + label));
      g_mem_bytes_.push_back(reg.GetGauge("wt_engine_memtable_bytes" + label));
      g_shard_segments_.push_back(
          reg.GetGauge("wt_engine_segments" + label));
    }
  }

  /// Updates shard s's memtable gauges from its current memtable. Caller
  /// holds ingest_mu_ (the memtable's guard).
  void UpdateMemtableGaugesLocked(size_t s) WT_REQUIRES(ingest_mu_) {
    g_mem_strings_[s]->Set(
        static_cast<int64_t>(shards_[s].memtable.size()));
    g_mem_bytes_[s]->Set(
        static_cast<int64_t>(shards_[s].memtable.EncodedBits() / 8));
  }

  bool durable() const { return !opt_.dir.empty(); }

  wt::io::Vfs& vfs() const {
    return opt_.vfs != nullptr ? *opt_.vfs : wt::io::RealVfs::Instance();
  }

  std::filesystem::path PathOf(const std::string& name) const {
    return std::filesystem::path(opt_.dir) / name;
  }

  // ------------------------------------------------------------- rotation

  /// Closes the current WAL generation, fsynced first, and opens the next,
  /// starting at global position `first`. Caller holds ingest_mu_. A failed
  /// fsync does not stop the roll: the generation goes on the unsynced
  /// list, which the next manifest write or SyncWal must fsync first. The
  /// new generation joins the live list even when its open fails — the
  /// file may exist, and cleaning deletes it like any other — and the next
  /// append retries the open. Returns the open's status.
  Status RollWalLocked(uint64_t first) WT_REQUIRES(ingest_mu_) {
    wt::obs::ScopedSpan rotate_span(wt::obs::Tracer::Get(),
                                    wt::obs::TraceName::kWalRotate, first);
    {
      wt::obs::ScopedSpan fsync_span(wt::obs::Tracer::Get(),
                                     wt::obs::TraceName::kWalFsync, first);
      if (Status st = wal_.SyncFile(); !st.ok()) {
        RecordBackgroundError(st);
        unsynced_gens_.push_back(wal_gens_.back());
      }
    }
    wal_gens_.push_back(
        {wal_gens_.empty() ? 0 : wal_gens_.back().gen + 1, first});
    return OpenWalLocked();
  }

  /// Opens the current (last) generation for appending, recording a
  /// failure as a background error. After a failed open nothing has been
  /// appended since the roll, so the generation's file is absent or empty
  /// and still starts where the log ends.
  Status OpenWalLocked() WT_REQUIRES(ingest_mu_) {
    Status st = wal_.Open(vfs(), WalPath(wal_gens_.back()), opt_.sync_wal);
    if (!st.ok()) RecordBackgroundError(st);
    return st;
  }

  std::string WalPath(const engine::WalGeneration& g) const {
    return PathOf(engine::WalFileName(g.gen, g.first)).string();
  }

  /// Fsyncs every record appended so far: each generation on the unsynced
  /// list, reopened for the purpose, then the current one. A generation
  /// leaves the list only once its fsync succeeds. Caller holds ingest_mu_.
  Status SyncLogLocked() WT_REQUIRES(ingest_mu_) {
    while (!unsynced_gens_.empty()) {
      Result<std::unique_ptr<wt::io::VfsFile>> f = vfs().OpenWrite(
          WalPath(unsynced_gens_.back()), /*truncate=*/false);
      if (!f.ok()) return f.status();
      Status st = (*f)->Sync();
      if (Status closed = (*f)->Close(); st.ok()) st = closed;
      if (!st.ok()) return st;
      unsynced_gens_.pop_back();
    }
    return wal_.SyncFile();
  }

  /// Moves the memtable out to a background freeze job and installs a
  /// fresh one. Caller holds ingest_mu_.
  void RotateShardLocked(size_t s) WT_REQUIRES(ingest_mu_) {
    engine::Shard<Codec>& sh = shards_[s];
    if (sh.memtable.size() == 0) return;
    auto mem = std::make_shared<Memtable>(std::move(sh.memtable));
    sh.memtable = Memtable(codec_);
    UpdateMemtableGaugesLocked(s);  // fresh (empty) memtable installed
    g_freeze_queue_->Add(1);
    // The freeze job nests under whatever span scheduled it (a serving
    // engine-batch span when ingest triggered the rotation) — captured
    // here, carried through the closure across the pool boundary.
    const uint64_t parent_span = wt::obs::Tracer::Get().CurrentSpan();
    pool_->Submit(s, [this, s, mem, parent_span] {
      FreezeJob(s, mem, parent_span);
      g_freeze_queue_->Add(-1);
    });
  }

  // ------------------------------------------------------ background jobs

  /// Freezes one rotated-out memtable into a static segment, persists it,
  /// publishes the new stack and the manifest, and lets the size-tiered
  /// policy compact the tail. Jobs of one shard run FIFO on
  /// one pool stripe, so stack mutations here need no cross-job ordering.
  void FreezeJob(size_t s, std::shared_ptr<Memtable> mem,
                 uint64_t parent_span = 0) {
    // The freeze span stays open across the tail-compaction loop below,
    // so those MergeTail runs nest under it implicitly (same thread) —
    // the parentage `wt_trace --validate` asserts.
    wt::obs::ScopedSpan freeze_span(wt::obs::Tracer::Get(),
                                    wt::obs::TraceName::kFreeze, parent_span,
                                    s);
    const uint64_t t0 = wt::obs::TimerStart();
    engine::Shard<Codec>& sh = shards_[s];
    if (durable()) RetryUnsavedSegments(s);
    auto seg = std::make_shared<const Segment>(mem->Freeze());
    uint64_t seq;
    {
      wt::MutexLock lk(sh.publish_mu);
      seq = sh.next_seg_seq++;
    }
    bool saved = true;
    if (durable()) {
      if (Status st = SaveSegment(s, seq, *seg); !st.ok()) {
        // Keep serving the segment from memory, but remember it is not on
        // disk: the manifest lists only the all-saved prefix of the stack,
        // so the durable prefix stays below this segment's data and
        // cleaning keeps the generations that hold it until a later freeze
        // retries the save or a compaction durably subsumes it.
        RecordBackgroundError(st);
        saved = false;
      } else if (auto mapped = RemapSavedSegment(s, seq, *seg)) {
        // Serve the saved image zero-copy; the heap copy is released once
        // every snapshot still holding it drops.
        seg = std::move(mapped);
      }
    }
    {
      wt::MutexLock lk(sh.publish_mu);
      sh.entries.push_back({seq, seg, saved});
      sh.PublishLocked();
    }
    publish_epoch_.fetch_add(1, std::memory_order_release);
    last_publish_ns_.store(wt::obs::TimerStart(), std::memory_order_relaxed);
    if (durable()) (void)PersistManifest();
    h_freeze_ms_->Record(wt::obs::ElapsedMs(t0));
    c_freezes_->Increment();
    // Size-tiered tail compaction: merge while the penultimate segment is
    // within kCompactionSizeRatio of the last, so segment sizes decay
    // geometrically and per-shard stacks stay logarithmic.
    constexpr uint64_t kCompactionSizeRatio = 3;
    for (;;) {
      size_t n;
      uint64_t prev, last;
      {
        wt::MutexLock lk(sh.publish_mu);
        n = sh.entries.size();
        if (n < 2) return;
        prev = sh.entries[n - 2].segment->size();
        last = sh.entries[n - 1].segment->size();
      }
      if (prev > last * kCompactionSizeRatio) return;
      if (!MergeTail(s, 2)) return;
    }
  }

  /// Re-attempts SaveSegment for stack entries whose earlier save failed.
  /// Runs on the shard's pool stripe — the only mutator of the stack — so
  /// the entries copied here cannot be removed between the unlocked I/O
  /// and the marking; matching by seq keeps it robust regardless.
  void RetryUnsavedSegments(size_t s) {
    engine::Shard<Codec>& sh = shards_[s];
    std::vector<typename engine::Shard<Codec>::Entry> pending;
    {
      wt::MutexLock lk(sh.publish_mu);
      for (const auto& e : sh.entries) {
        if (!e.saved) pending.push_back(e);
      }
    }
    if (pending.empty()) return;
    std::vector<uint64_t> now_saved;
    for (const auto& e : pending) {
      if (SaveSegment(s, e.seq, *e.segment).ok()) now_saved.push_back(e.seq);
    }
    if (now_saved.empty()) return;
    wt::MutexLock lk(sh.publish_mu);
    for (auto& e : sh.entries) {
      for (uint64_t seq : now_saved) {
        if (e.seq == seq) e.saved = true;
      }
    }
  }

  /// Merges the last `k` (>= 2) segments of shard s into one, preserving
  /// order: Segment::Concat reads each segment's leaf dictionary, dedups
  /// only their leaf strings, and builds once. Runs on the shard's pool
  /// stripe; the publish lock is held only to swap stacks, not during the
  /// build.
  /// `parent_span` links a pool-worker merge to the Compact() coordinator
  /// span; 0 (the FreezeJob path) nests under the caller's open freeze
  /// span via the thread-local stack.
  bool MergeTail(size_t s, size_t k, uint64_t parent_span = 0) {
    wt::obs::Tracer& tracer = wt::obs::Tracer::Get();
    wt::obs::ScopedSpan compaction_span(
        tracer, wt::obs::TraceName::kCompaction,
        parent_span != 0 ? parent_span : tracer.CurrentSpan(), s);
    const uint64_t t0 = wt::obs::TimerStart();
    engine::Shard<Codec>& sh = shards_[s];
    std::vector<typename engine::Shard<Codec>::Entry> victims;
    {
      wt::MutexLock lk(sh.publish_mu);
      WT_ASSERT(k >= 2 && k <= sh.entries.size());
      victims.assign(sh.entries.end() - static_cast<ptrdiff_t>(k),
                     sh.entries.end());
    }
    // One static image caps at kMaxEncodedBits: a merge that would exceed
    // it is skipped (the stack just stays deeper) rather than hitting the
    // core builder's abort on a background thread. Not an error — serving
    // is unaffected.
    uint64_t merged_bits = 0;
    for (const auto& v : victims) {
      if (internal::CapacityWouldOverflow(merged_bits,
                                          v.segment->EncodedBits(),
                                          Segment::kMaxEncodedBits)) {
        return false;
      }
      merged_bits += v.segment->EncodedBits();
    }
    std::vector<const Segment*> parts;
    for (const auto& v : victims) parts.push_back(v.segment.get());
    auto merged =
        std::make_shared<const Segment>(Segment::Concat(parts, codec_));
    uint64_t seq;
    {
      wt::MutexLock lk(sh.publish_mu);
      seq = sh.next_seg_seq++;
    }
    if (durable()) {
      if (Status st = SaveSegment(s, seq, *merged); !st.ok()) {
        RecordBackgroundError(st);
        return false;  // keep the unmerged stack; nothing was swapped
      }
      if (auto mapped = RemapSavedSegment(s, seq, *merged)) {
        merged = std::move(mapped);
      }
    }
    {
      wt::MutexLock lk(sh.publish_mu);
      sh.entries.resize(sh.entries.size() - k);
      // The merged segment durably subsumes its victims — including any
      // whose own save had failed — so the manifest may list it and the
      // durable prefix may move past them.
      sh.entries.push_back({seq, merged, /*saved=*/true});
      sh.PublishLocked();
    }
    publish_epoch_.fetch_add(1, std::memory_order_release);
    last_publish_ns_.store(wt::obs::TimerStart(), std::memory_order_relaxed);
    h_compaction_ms_->Record(wt::obs::ElapsedMs(t0));
    c_compactions_->Increment();
    if (durable() && PersistManifest().ok()) {
      // Victim files are deleted only once the manifest no longer
      // references them; a crash before the rename replays from the
      // previous manifest, which still has every file it needs.
      for (const auto& v : victims) {
        const std::string p = PathOf(engine::SegmentFileName(s, v.seq)).string();
        (void)vfs().Remove(p);  // best-effort: an orphan is re-deleted later
        // Snapshots still holding the victim keep its mapping alive (an
        // unlinked mapped file stays readable); the pager just forgets
        // the dead path.
        pager_.Drop(p);
      }
    }
    return true;
  }

  // ---------------------------------------------------------- persistence

  /// Writes the segment as a v5 flat image, durably: tmp write, file
  /// fsync, rename, directory fsync — a power cut at any step leaves
  /// either no segment (recovery replays the WAL) or a complete one;
  /// without the fsyncs a journaling filesystem could commit the rename
  /// before the bytes, leaving the manifest naming an empty or torn file.
  /// The image persists all derived state, so the next Open maps it and
  /// serves without any per-element deserialization (DESIGN.md #8). Known
  /// limitation: the image is materialized in memory before the write — a
  /// transient of roughly the segment's footprint, bounded by the
  /// 2^32-bit segment cap that MergeTail already enforces.
  Status SaveSegment(size_t s, uint64_t seq, const Segment& seg) {
    const std::string final_path =
        PathOf(engine::SegmentFileName(s, seq)).string();
    return wt::io::AtomicWriteFileDurable(vfs(), final_path + ".tmp",
                                          final_path, seg.SerializeImage());
  }

  /// Loads a segment file: the v5 image is borrowed in place from a mapped
  /// (or heap) blob. Anything that is not an image fails cleanly with
  /// kCorruptStream.
  Result<Segment> LoadSegmentFile(const std::string& path) {
    namespace stor = wt::storage;
    std::string err;
    std::shared_ptr<const stor::Blob> blob =
        opt_.map_segments
            ? pager_.Map(path, &err)
            : vfs().MapOrRead(path, /*prefer_mmap=*/false,
                              stor::Advise::kNormal, &err);
    if (blob == nullptr) {
      if (!vfs().Exists(path)) {
        return Status::Error(ErrorCode::kCorruptStream,
                             "Engine: manifest references missing segment");
      }
      // The file exists: this is a map/read resource failure (EMFILE,
      // ENOMEM, EACCES...), not a missing segment — report it as such.
      return Status::Error(ErrorCode::kIoError,
                           "Engine: cannot map/read segment image");
    }
    return Segment::LoadImage(std::move(blob), codec_,
                              opt_.verify_segment_checksums
                                  ? stor::VerifyMode::kFull
                                  : stor::VerifyMode::kNone);
  }

  /// After a successful SaveSegment: reopen the image mapped so serving is
  /// zero-copy. Best-effort — any failure keeps the heap-built segment
  /// (which is equivalent), it never degrades correctness. The remapped
  /// segment must describe the same sequence; a mismatch (concurrent
  /// tampering with the file) is discarded.
  std::shared_ptr<const Segment> RemapSavedSegment(size_t s, uint64_t seq,
                                                   const Segment& built) {
    if (!opt_.map_segments) return nullptr;
    Result<Segment> mapped =
        LoadSegmentFile(PathOf(engine::SegmentFileName(s, seq)).string());
    if (!mapped.ok() || mapped->size() != built.size() ||
        mapped->EncodedBits() != built.EncodedBits()) {
      return nullptr;
    }
    return std::make_shared<const Segment>(std::move(mapped).value());
  }

  /// Snapshots every shard's publish-side state into a Manifest, rewrites
  /// MANIFEST atomically, and then deletes the WAL generations the new
  /// manifest retires. manifest_mu_ orders concurrent writers; it is always
  /// taken before (never inside) a shard publish lock or ingest_mu_. The
  /// returned Status gates cleanup: callers may delete files the new
  /// manifest no longer needs only when the write succeeded — on failure
  /// the previous manifest stays authoritative and still references them.
  Status PersistManifest() {
    wt::obs::ScopedSpan span(wt::obs::Tracer::Get(),
                             wt::obs::TraceName::kManifestPersist,
                             shards_.size());
    wt::MutexLock mlk(manifest_mu_);
    const size_t n = shards_.size();
    engine::Manifest m;
    m.num_shards = static_cast<uint32_t>(n);
    m.shards.resize(n);
    for (size_t s = 0; s < n; ++s) {
      engine::ShardMeta& sm = m.shards[s];
      wt::MutexLock lk(shards_[s].publish_mu);
      sm.next_seg_seq = shards_[s].next_seg_seq;
      sm.segments.reserve(shards_[s].entries.size());
      for (const auto& e : shards_[s].entries) {
        // Only the all-saved prefix of the stack: an unsaved segment has
        // no file, and entries stacked after it must stay out too so the
        // listed segments remain a contiguous prefix of the shard's
        // history — recovery re-reads everything past it from the log,
        // which cleaning keeps.
        if (!e.saved) break;
        sm.segments.push_back({e.seq, e.segment->size()});
      }
    }
    // A listed segment may reach past the durable prefix (shards freeze
    // independently), and recovery then fills in the other shards' part of
    // that stretch from the log — so those records must be durable before
    // this manifest may list the segment. Each was appended before the
    // segment's rotation, hence before the snapshot above: generations the
    // engine rolled past were fsynced then or sit on the unsynced list, and
    // both the list and the current generation are fsynced here. A failed
    // sync vetoes the manifest — the previous one stays authoritative and
    // promises nothing new.
    {
      wt::MutexLock ilk(ingest_mu_);
      wt::obs::ScopedSpan fsync_span(wt::obs::Tracer::Get(),
                                     wt::obs::TraceName::kWalFsync, n);
      if (Status st = SyncLogLocked(); !st.ok()) {
        RecordBackgroundError(st);
        return st;
      }
    }
    if (Status st = engine::WriteManifest(opt_.dir, m, vfs()); !st.ok()) {
      RecordBackgroundError(st);
      return st;
    }
    CleanWal(engine::DurablePrefix(engine::SegmentCounts(m)));
    return Status::Ok();
  }

  /// Deletes the WAL generations that a durable manifest showing every
  /// shard's segments to hold [0, durable) retires: each whose successor
  /// starts at or below `durable`. Such a generation's records all lie
  /// below its successor's start (later ones were retired by it), hence
  /// inside the segments. Best-effort, with no directory fsync: a deletion
  /// that un-happens after a crash leaves a generation below the durable
  /// prefix, which replay passes over and cleaning deletes again.
  void CleanWal(uint64_t durable) {
    std::vector<engine::WalGeneration> retired;
    {
      wt::MutexLock lk(ingest_mu_);
      retired = TakeRetiredGenerationsLocked(durable);
    }
    wt::obs::ScopedSpan span(wt::obs::Tracer::Get(),
                             wt::obs::TraceName::kWalClean, retired.size());
    for (const engine::WalGeneration& g : retired) {
      (void)vfs().Remove(WalPath(g));
    }
  }

  /// Unlinks from the live list the generations whose successor starts at
  /// or below `durable`, and from the unsynced list too: no record of
  /// theirs is needed any more. The current generation (the last) always
  /// stays.
  std::vector<engine::WalGeneration> TakeRetiredGenerationsLocked(
      uint64_t durable) WT_REQUIRES(ingest_mu_) {
    size_t k = 0;
    while (k + 1 < wal_gens_.size() && wal_gens_[k + 1].first <= durable) ++k;
    std::vector<engine::WalGeneration> retired(wal_gens_.begin(),
                                               wal_gens_.begin() + k);
    wal_gens_.erase(wal_gens_.begin(), wal_gens_.begin() + k);
    std::erase_if(unsynced_gens_, [&](const engine::WalGeneration& g) {
      return g.gen < wal_gens_.front().gen;
    });
    return retired;
  }

  // -------------------------------------------------------------- recovery

  Status Recover(const engine::Manifest* manifest) {
    if (!durable()) return Status::Ok();
    const size_t n = shards_.size();

    // 1. Load the manifest's segments, in stack order.
    const std::vector<uint64_t> counts =
        manifest != nullptr ? engine::SegmentCounts(*manifest)
                            : std::vector<uint64_t>(n, 0);
    if (manifest != nullptr) {
      for (size_t s = 0; s < n; ++s) {
        const engine::ShardMeta& sm = manifest->shards[s];
        engine::Shard<Codec>& sh = shards_[s];
        // Recovery is single-threaded (the pool has no jobs yet), but the
        // publish-side fields are guarded and the discipline is uniform:
        // hold the lock here like everywhere else.
        wt::MutexLock lk(sh.publish_mu);
        sh.next_seg_seq = sm.next_seg_seq;
        for (const engine::SegmentMeta& seg : sm.segments) {
          // Images are mapped and borrowed (no per-element work: Open
          // cost is O(#segments) plus the optional verification pass).
          Result<Segment> loaded =
              LoadSegmentFile(PathOf(engine::SegmentFileName(s, seg.seq)).string());
          if (!loaded.ok()) return loaded.status();
          if (loaded->size() != seg.count) {
            return Status::Error(ErrorCode::kCorruptStream,
                                 "Engine: segment size disagrees with manifest");
          }
          sh.entries.push_back(
              {seg.seq,
               std::make_shared<const Segment>(std::move(loaded).value()),
               /*saved=*/true});
        }
      }
    }

    // 2. Scan the directory: delete orphans (segments the manifest does not
    // reference, stale tmp files), then catalog the WAL generations. All
    // through the VFS, so the torture harness sees (and can fault) every
    // step.
    Result<std::vector<std::string>> listing = vfs().ListDir(opt_.dir);
    if (!listing.ok()) return listing.status();
    for (const std::string& name : *listing) {
      const std::string path = PathOf(name).string();
      size_t shard = 0;
      uint64_t num = 0;
      engine::WalGeneration gen;
      // Deletions best-effort (status discarded): an undeletable orphan
      // must not abort recovery — seg seqs are never reused, so a leftover
      // cannot collide with future files.
      if (engine::ParseEngineFileName(name, "seg-", ".wt", &shard, &num) &&
          shard < n) {
        bool live = false;
        {
          wt::MutexLock lk(shards_[shard].publish_mu);
          for (const auto& e : shards_[shard].entries) live |= (e.seq == num);
        }
        if (!live) (void)vfs().Remove(path);
      } else if (!engine::ParseWalFileName(name, &gen) && name != "MANIFEST") {
        (void)vfs().Remove(path);  // MANIFEST.tmp and other leftovers
      }
    }
    Result<std::vector<engine::WalGeneration>> gens =
        engine::ListWalGenerations(vfs(), opt_.dir);
    if (!gens.ok()) return gens.status();

    // 3. Replay the log past the durable prefix (engine/
    // recovery_invariants.hpp): later starts cut the tail back, a start
    // past its end is a hole, and each string goes to its round-robin
    // shard unless that shard's segments already hold it. Foreign or
    // tampered files fail here because the shards' counts cannot line up.
    Result<engine::WalReplay> replay = engine::ReplayWal(
        counts, *gens, [&](const engine::WalGeneration& g) {
          return engine::ReadWalFile(vfs(), WalPath(g));
        });
    if (!replay.ok()) return replay.status();
    const uint64_t durable = replay->durable;
    const bool salvaged = replay->hole;
    for (size_t s = 0; s < n; ++s) {
      std::vector<wt::BitString>& routed = replay->routed[s];
      if (routed.empty()) continue;
      if (Status st = shards_[s].memtable.AppendEncodedBatch(routed);
          !st.ok()) {
        return st;
      }
      routed = {};  // release each shard's copy once its memtable holds it
    }
    total_.store(replay->total, std::memory_order_relaxed);

    // 4. Open a fresh generation at the recovered end (never append to a
    // possibly torn file) and publish the recovered views. The generations
    // read go on the unsynced list: after a process crash their last
    // records may sit in the page cache only, and a staggered freeze may
    // come to need them.
    {
      wt::MutexLock lk(ingest_mu_);
      wal_gens_ = *gens;
      unsynced_gens_ = *gens;
      if (Status st = RollWalLocked(replay->total); !st.ok()) return st;
    }
    for (size_t s = 0; s < n; ++s) {
      wt::MutexLock lk(shards_[s].publish_mu);
      shards_[s].PublishLocked();
    }
    publish_epoch_.fetch_add(1, std::memory_order_release);
    last_publish_ns_.store(wt::obs::TimerStart(), std::memory_order_relaxed);

    // 5. Oversized recovered memtables go straight to the freeze queue.
    // A salvaged replay instead settles synchronously before Open
    // returns: every non-empty memtable is frozen, then every generation
    // present before this open is deleted. Were one left behind, its start
    // past the hole would cut the next recovery short of the writes
    // acknowledged after this open.
    std::optional<wt::obs::ScopedSpan> salvage_span;
    if (salvaged) {
      // The settle below (freezes + WAL generation deletion) runs under a
      // salvage span so a trace of a degraded open shows the repair work;
      // the counter tells an operator that data past the hole was dropped.
      salvage_span.emplace(wt::obs::Tracer::Get(),
                           wt::obs::TraceName::kSalvage, replay->total);
      c_wal_salvages_->Increment();
    }
    {
      wt::MutexLock lk(ingest_mu_);
      const uint64_t rotate_at = salvaged ? 1 : opt_.memtable_limit;
      for (size_t s = 0; s < n; ++s) {
        if (shards_[s].memtable.size() >= rotate_at) {
          RotateShardLocked(s);
        }
        UpdateMemtableGaugesLocked(s);  // replayed tails count too
      }
    }
    if (!salvaged) {
      CleanWal(durable);  // generations the loaded manifest already retires
      return Status::Ok();
    }
    pool_->Drain();
    if (Status st = BackgroundError(); !st.ok()) return st;
    std::vector<engine::WalGeneration> present;
    {
      wt::MutexLock lk(ingest_mu_);
      present = TakeRetiredGenerationsLocked(UINT64_MAX);
    }
    for (const engine::WalGeneration& gen : present) {
      (void)vfs().Remove(WalPath(gen));
    }
    // The deletions must outlast a crash too, or a resurrected generation
    // past the hole would do the damage this settle prevents.
    return vfs().SyncDir(opt_.dir);
  }

  void RecordBackgroundError(const Status& st) {
    c_background_errors_->Increment();
    wt::MutexLock lk(bg_error_mu_);
    if (bg_error_.ok()) bg_error_ = st;
  }

  Options opt_;
  Codec codec_;
  // Declared before the pager (which shares it) and destroyed after every
  // member that caches instrument pointers into it.
  std::shared_ptr<wt::obs::MetricsRegistry> metrics_;
  // Cached instrument pointers (owned by metrics_; see DESIGN.md #12 for
  // the inventory). Raw pointers are safe: the shared_ptr above outlives
  // this object.
  wt::obs::Counter* c_appends_ = nullptr;
  wt::obs::Counter* c_freezes_ = nullptr;
  wt::obs::Counter* c_compactions_ = nullptr;
  wt::obs::Counter* c_wal_appends_ = nullptr;
  wt::obs::Counter* c_wal_fsyncs_ = nullptr;
  wt::obs::Counter* c_wal_salvages_ = nullptr;
  wt::obs::Counter* c_background_errors_ = nullptr;
  wt::obs::Histogram* h_freeze_ms_ = nullptr;
  wt::obs::Histogram* h_compaction_ms_ = nullptr;
  wt::obs::Histogram* h_wal_append_us_ = nullptr;
  wt::obs::Histogram* h_wal_fsync_us_ = nullptr;
  wt::obs::Histogram* h_wal_bytes_ = nullptr;
  wt::obs::Gauge* g_freeze_queue_ = nullptr;
  wt::obs::Gauge* g_segments_ = nullptr;
  wt::obs::Gauge* g_compaction_debt_ = nullptr;
  wt::obs::Gauge* g_frozen_strings_ = nullptr;
  wt::obs::Gauge* g_epoch_age_ms_ = nullptr;
  wt::obs::Gauge* g_publish_epoch_ = nullptr;
  std::vector<wt::obs::Gauge*> g_mem_strings_;
  std::vector<wt::obs::Gauge*> g_mem_bytes_;
  std::vector<wt::obs::Gauge*> g_shard_segments_;
  // Segment blob cache: one live mapping per file however many snapshots
  // pin it; weak entries, so the pager never delays an unmap.
  wt::storage::Pager pager_;
  // Serializes writers. Also guards every shard's memtable — a field of
  // Shard, where this mutex cannot be named by a WT_GUARDED_BY, so the
  // discipline is enforced one level up: the *Locked helpers that touch it
  // are WT_REQUIRES(ingest_mu_).
  mutable wt::Mutex ingest_mu_;
  // The write-ahead log: the current generation's writer, every live
  // generation in order (the current one last), and the live generations
  // before it that may hold unsynced records (a failed fsync at the roll,
  // or read by recovery). Pool workers reach the lists only to clean them
  // and, before a manifest write, to fsync them, under the lock.
  engine::WalWriter wal_ WT_GUARDED_BY(ingest_mu_);
  std::vector<engine::WalGeneration> wal_gens_ WT_GUARDED_BY(ingest_mu_);
  std::vector<engine::WalGeneration> unsynced_gens_ WT_GUARDED_BY(ingest_mu_);
  // Sequencing state, not telemetry: these atomics order ingest and
  // snapshot publication, so they stay bespoke rather than registry
  // counters (RefreshMetrics mirrors what exposition needs).
  std::atomic<uint64_t> total_{0};  // wt-lint: allow(bare-atomic-counter)
  std::atomic<uint64_t> publish_epoch_{0};  // wt-lint: allow(bare-atomic-counter)
  // Steady-clock stamp of the last view publication, feeding the
  // snapshot-epoch-age gauge. 0 until the first publish.
  std::atomic<uint64_t> last_publish_ns_{0};  // wt-lint: allow(bare-atomic-counter)
  std::vector<engine::Shard<Codec>> shards_;
  // Orders concurrent manifest writers; always taken before (never inside)
  // a shard publish lock or ingest_mu_.
  wt::Mutex manifest_mu_;
  mutable wt::Mutex bg_error_mu_;
  Status bg_error_ WT_GUARDED_BY(bg_error_mu_);
  // Destroyed first (declared last): drains queued jobs, which may touch
  // every member above.
  std::unique_ptr<engine::ThreadPool> pool_;
};

}  // namespace wtrie
