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
// Durability (optional, `Options::dir`): every batch is logged to per-shard
// WALs before touching a memtable (engine/wal.hpp; complete-batches-only
// replay makes batches crash-atomic), segments and the manifest are
// persisted with tmp-file+rename, and WAL generations are deleted only
// after a successful manifest write records them as subsumed. A segment
// whose save fails is served from memory but never referenced by the
// manifest (nor is anything stacked after it), and the WAL floor stays
// below its generations until a later freeze retries the save or a
// compaction subsumes it — the log remains the durable copy throughout.
// Open() replays the WAL tail into fresh memtables, so a crashed engine
// resumes exactly at its last complete batch; if out-of-order page
// persistence (possible with sync_wal=false) left a mid-history batch
// incomplete, recovery degrades to the longest consistent prefix instead
// of refusing to open.
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

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
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
  /// manifest's segments and replays the WAL tail (complete batches only)
  /// into fresh memtables before returning.
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
  /// instantiation of) this engine's codec. One WAL record and one
  /// word-parallel AppendBatch per touched shard; the batch is atomic
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
    for (size_t s = 0; s < n; ++s) {
      if (internal::CapacityWouldOverflow(shards_[s].memtable.EncodedBits(),
                                          slice_bits[s],
                                          Memtable::kMaxEncodedBits)) {
        return Status::Error(
            ErrorCode::kCapacityExceeded,
            "Engine: batch would overflow a shard memtable; lower "
            "memtable_limit or split the batch");
      }
    }
    uint32_t touched = 0;
    for (const auto& v : slice) touched += v.empty() ? 0 : 1;
    const uint64_t batch_id =
        next_batch_id_.fetch_add(1, std::memory_order_relaxed);
    if (durable()) {
      for (size_t s = 0; s < n; ++s) {
        if (slice[s].empty()) continue;
        // A previous failure may have left this writer closed (even
        // opening the replacement generation failed). One transient error
        // must not wedge the shard until reopen: try a fresh generation
        // before giving up on the batch.
        if (!shards_[s].wal.is_open()) AbandonWalGenerationLocked(s);
        const uint64_t t0 = wt::obs::TimerStart();
        Status append_st = shards_[s].wal.Append(batch_id, touched, slice[s]);
        h_wal_append_us_->Record(wt::obs::ElapsedUs(t0));
        h_wal_bytes_->Record(slice_bits[s] / 8);
        c_wal_appends_->Increment();
        if (Status st = std::move(append_st); !st.ok()) {
          // No memtable was touched yet; the partially-logged batch is
          // incomplete on disk and recovery discards it whole. The failed
          // generation may end in torn bytes, and recovery stops reading a
          // file at its first corrupt record — so records appended after
          // the tear would be silently unreachable. Abandon the
          // generation: later batches go to a fresh file (separate files
          // replay independently, in generation order).
          AbandonWalGenerationLocked(s);
          // The failed slice may nonetheless be durable and complete — a
          // write that landed whose *fsync* failed. Without a revocation,
          // recovery would replay this dropped batch; stacked after later
          // acknowledged batches it breaks round-robin placement and can
          // cost them their salvage. Log the revocation so the batch can
          // never be complete.
          RevokeBatchLocked(s, batch_id);
          return st;
        }
      }
    }
    for (size_t sh = 0; sh < n; ++sh) {
      if (slice[sh].empty()) continue;
      const Status st =
          shards_[sh].memtable.AppendEncodedSpans(slice[sh], slice_bits[sh]);
      WT_ASSERT_MSG(st.ok(), "Engine: memtable append failed after pre-check");
    }
    total_.store(base + enc.size(), std::memory_order_relaxed);
    for (size_t s = 0; s < n; ++s) {
      if (shards_[s].memtable.size() >= opt_.memtable_limit) {
        RotateShardLocked(s);
      }
    }
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
    uint64_t g = view->shards[0]->total() * n;
    for (size_t s = 1; s < n; ++s) {
      g = std::min(g, view->shards[s]->total() * n + s);
    }
    view->visible = g;
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
    }
    pool_->Drain();
    return BackgroundError();
  }

  /// Fsyncs every shard's current WAL generation — the serving layer's
  /// shutdown barrier: after a graceful drain, every acknowledged append
  /// is durable against OS crashes too, even when the engine runs with
  /// sync_wal=false. (Against process crashes the records are already
  /// safe: Append flushes them to the OS before the memtable is touched.)
  Status SyncWal() {
    wt::MutexLock lk(ingest_mu_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      wt::obs::ScopedSpan span(wt::obs::Tracer::Get(),
                               wt::obs::TraceName::kWalFsync, s);
      const uint64_t t0 = wt::obs::TimerStart();
      Status st = shards_[s].wal.SyncFile();
      h_wal_fsync_us_->Record(wt::obs::ElapsedUs(t0));
      c_wal_fsyncs_->Increment();
      if (!st.ok()) return st;
    }
    return Status::Ok();
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

  /// Switches a shard to a fresh WAL generation after an append failure
  /// (caller holds ingest_mu_). The memtable keeps accumulating across the
  /// switch — rotation's floor bookkeeping already covers every generation
  /// the memtable drew from. If even the fresh file cannot be opened the
  /// writer stays closed and subsequent appends fail with a clean Status.
  void AbandonWalGenerationLocked(size_t s) WT_REQUIRES(ingest_mu_) {
    engine::Shard<Codec>& sh = shards_[s];
    // The closing generation's intact records may be the durable complement
    // of another shard's segments once a manifest publishes a watermark
    // over them (frozen_through forgiveness) — fsync before walking away.
    // Best-effort: this path already runs under an I/O failure.
    (void)sh.wal.SyncFile();
    sh.wal_gen += 1;
    if (Status st =
            sh.wal.Open(vfs(), PathOf(engine::WalFileName(s, sh.wal_gen)).string(),
                        opt_.sync_wal);
        !st.ok()) {
      RecordBackgroundError(st);
    }
  }

  /// Marks a batch undead in the log: an empty record with the
  /// kRevokedBatchShards marker makes its slice counts permanently
  /// disagree, so recovery can never consider the batch complete even if
  /// the slice whose append failed actually reached the disk. Best effort
  /// on the freshly opened generation; if even the revocation write fails
  /// the generation is abandoned again (its tear must not hide later
  /// records) and the residual risk — the dropped batch resurfacing on a
  /// disk that kept the failed slice — is accepted: nothing can be logged
  /// on a device that fails every write. Caller holds ingest_mu_.
  void RevokeBatchLocked(size_t s, uint64_t batch_id) WT_REQUIRES(ingest_mu_) {
    if (!shards_[s].wal.is_open()) return;
    if (Status st =
            shards_[s].wal.Append(batch_id, engine::kRevokedBatchShards, {});
        !st.ok()) {
      AbandonWalGenerationLocked(s);
    }
  }

  /// Moves the memtable out to a background freeze job and installs a
  /// fresh one (plus a fresh WAL generation). Caller holds ingest_mu_.
  void RotateShardLocked(size_t s) WT_REQUIRES(ingest_mu_) {
    engine::Shard<Codec>& sh = shards_[s];
    if (sh.memtable.size() == 0) return;
    auto mem = std::make_shared<Memtable>(std::move(sh.memtable));
    sh.memtable = Memtable(codec_);
    uint64_t floor_after = sh.wal_gen;
    uint64_t frozen_upto = 0;
    if (durable()) {
      wt::obs::ScopedSpan rotate_span(wt::obs::Tracer::Get(),
                                      wt::obs::TraceName::kWalRotate, s);
      // Everything this shard holds of batches below the current id is in
      // the departing memtable or older entries; once this entry is
      // durably saved, the manifest may publish the bound as
      // `frozen_through` and recovery may lean on it (see shard.hpp).
      frozen_upto = next_batch_id_.load(std::memory_order_relaxed);
      // The generation being closed feeds that same forgiveness on sibling
      // shards: its records must be durable before any manifest publishes
      // a watermark over them. Sync failure is recorded, not fatal —
      // the manifest writer re-syncs the current generation and vetoes on
      // failure, and this closed file's records are additionally covered
      // by sync_wal when the caller asked for OS-crash durability.
      {
        wt::obs::ScopedSpan fsync_span(wt::obs::Tracer::Get(),
                                       wt::obs::TraceName::kWalFsync, s);
        if (Status st = sh.wal.SyncFile(); !st.ok()) {
          RecordBackgroundError(st);
        }
      }
      sh.wal_gen += 1;
      floor_after = sh.wal_gen;
      if (Status st =
              sh.wal.Open(vfs(), PathOf(engine::WalFileName(s, sh.wal_gen)).string(),
                          opt_.sync_wal);
          !st.ok()) {
        RecordBackgroundError(st);
      }
    }
    UpdateMemtableGaugesLocked(s);  // fresh (empty) memtable installed
    g_freeze_queue_->Add(1);
    // The freeze job nests under whatever span scheduled it (a serving
    // engine-batch span when ingest triggered the rotation) — captured
    // here, carried through the closure across the pool boundary.
    const uint64_t parent_span = wt::obs::Tracer::Get().CurrentSpan();
    pool_->Submit(s, [this, s, mem, floor_after, frozen_upto, parent_span] {
      FreezeJob(s, mem, floor_after, frozen_upto, parent_span);
      g_freeze_queue_->Add(-1);
    });
  }

  // ------------------------------------------------------ background jobs

  /// Freezes one rotated-out memtable into a static segment, persists it,
  /// publishes the new stack, advances the WAL floor, and lets the
  /// size-tiered policy compact the tail. Jobs of one shard run FIFO on
  /// one pool stripe, so stack mutations here need no cross-job ordering.
  void FreezeJob(size_t s, std::shared_ptr<Memtable> mem, uint64_t floor_after,
                 uint64_t frozen_upto, uint64_t parent_span = 0) {
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
        // disk: the manifest lists only the all-saved prefix of the stack
        // and RecomputeWalFloorLocked keeps the floor below this
        // segment's generations, so the data stays recoverable from the
        // log until a later freeze retries the save or a compaction
        // durably subsumes it.
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
      sh.entries.push_back({seq, seg, saved, floor_after, frozen_upto});
      sh.RecomputeWalFloorLocked();
      sh.PublishLocked();
    }
    publish_epoch_.fetch_add(1, std::memory_order_release);
    last_publish_ns_.store(wt::obs::TimerStart(), std::memory_order_relaxed);
    if (durable() && PersistManifest().ok()) CleanWal(s);
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
    sh.RecomputeWalFloorLocked();
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
      // whose own save had failed — so it carries the newest victim's
      // floor and may unblock a clamped WAL floor.
      // (`frozen_upto` is monotone along the stack, so the newest victim's
      // bound covers them all.)
      sh.entries.push_back({seq, merged, true, victims.back().floor_after,
                            victims.back().frozen_upto});
      sh.RecomputeWalFloorLocked();
      sh.PublishLocked();
    }
    publish_epoch_.fetch_add(1, std::memory_order_release);
    last_publish_ns_.store(wt::obs::TimerStart(), std::memory_order_relaxed);
    h_compaction_ms_->Record(wt::obs::ElapsedMs(t0));
    c_compactions_->Increment();
    if (durable() && PersistManifest().ok()) {
      // Victim files (and newly-subsumed WAL generations) are deleted
      // only once the manifest no longer references the victims; a crash
      // before the rename replays from the previous manifest, which still
      // has every file it needs.
      for (const auto& v : victims) {
        const std::string p = PathOf(engine::SegmentFileName(s, v.seq)).string();
        (void)vfs().Remove(p);  // best-effort: an orphan is re-deleted later
        // Snapshots still holding the victim keep its mapping alive (an
        // unlinked mapped file stays readable); the pager just forgets
        // the dead path.
        pager_.Drop(p);
      }
      CleanWal(s);
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

  /// Snapshots every shard's publish-side state into a Manifest and
  /// rewrites MANIFEST atomically. manifest_mu_ orders concurrent writers;
  /// it is always taken before (never inside) a shard publish lock. The
  /// returned Status gates cleanup: callers may delete files the new
  /// manifest no longer needs only when the write succeeded — on failure
  /// the previous manifest stays authoritative and still references them.
  Status PersistManifest() {
    wt::obs::ScopedSpan span(wt::obs::Tracer::Get(),
                             wt::obs::TraceName::kManifestPersist,
                             shards_.size());
    wt::MutexLock mlk(manifest_mu_);
    engine::Manifest m;
    m.num_shards = static_cast<uint32_t>(shards_.size());
    m.next_batch_id = next_batch_id_.load(std::memory_order_relaxed);
    m.shards.resize(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      engine::ShardMeta& sm = m.shards[s];
      wt::MutexLock lk(shards_[s].publish_mu);
      sm.wal_floor = shards_[s].wal_floor;
      sm.next_seg_seq = shards_[s].next_seg_seq;
      sm.segments.reserve(shards_[s].entries.size());
      for (const auto& e : shards_[s].entries) {
        // Only the all-saved prefix of the stack: an unsaved segment has
        // no file, and entries stacked after it must stay out too so the
        // listed segments remain a contiguous prefix of the shard's
        // history — recovery re-reads everything past the prefix from the
        // WAL, whose floor RecomputeWalFloorLocked clamps below it. The
        // shard's frozen_through watermark covers exactly that prefix.
        if (!e.saved) break;
        sm.segments.push_back({e.seq, e.segment->size()});
        sm.frozen_through = std::max(sm.frozen_through, e.frozen_upto);
      }
    }
    // The watermarks just snapshotted let recovery treat sibling shards'
    // surviving WAL records as the only copy of a staggered-freeze batch
    // (frozen_through forgiveness) — so those records must be durable
    // before this manifest can legally name the watermarks. Fsync every
    // current writer; closed generations were synced at rotation/abandon.
    // The order matters: any record a snapshotted watermark depends on was
    // appended before that entry's rotation, hence before the snapshot
    // above, hence before this sync. A failed sync vetoes the manifest —
    // the previous one stays authoritative and promises nothing new.
    {
      wt::MutexLock ilk(ingest_mu_);
      for (size_t s = 0; s < shards_.size(); ++s) {
        wt::obs::ScopedSpan fsync_span(wt::obs::Tracer::Get(),
                                       wt::obs::TraceName::kWalFsync, s);
        if (Status st = shards_[s].wal.SyncFile(); !st.ok()) {
          RecordBackgroundError(st);
          return st;
        }
      }
    }
    Status st = engine::WriteManifest(opt_.dir, m, vfs());
    if (!st.ok()) RecordBackgroundError(st);
    return st;
  }

  /// Deletes WAL generations below the shard's floor (their contents are
  /// in durably-saved segments the manifest already lists). `wal_cleaned`
  /// remembers how far previous passes got, so each freeze deletes only
  /// the newly-subsumed generations instead of re-scanning from zero.
  void CleanWal(size_t s) {
    uint64_t from, to;
    {
      wt::MutexLock lk(shards_[s].publish_mu);
      from = shards_[s].wal_cleaned;
      to = shards_[s].wal_floor;
    }
    wt::obs::ScopedSpan span(wt::obs::Tracer::Get(),
                             wt::obs::TraceName::kWalClean,
                             to > from ? to - from : 0);
    for (uint64_t gen = from; gen < to; ++gen) {
      // Best-effort, no directory fsync: a deletion that un-happens after
      // a crash only leaves a stale generation below the floor, which
      // recovery ignores and re-deletes.
      (void)vfs().Remove(PathOf(engine::WalFileName(s, gen)).string());
    }
    if (to > from) {
      wt::MutexLock lk(shards_[s].publish_mu);
      shards_[s].wal_cleaned = std::max(shards_[s].wal_cleaned, to);
    }
  }

  // -------------------------------------------------------------- recovery

  Status Recover(const engine::Manifest* manifest) {
    if (!durable()) return Status::Ok();
    const size_t n = shards_.size();

    // 1. Load the manifest's segments, in stack order.
    if (manifest != nullptr) {
      next_batch_id_.store(manifest->next_batch_id, std::memory_order_relaxed);
      for (size_t s = 0; s < n; ++s) {
        const engine::ShardMeta& sm = manifest->shards[s];
        engine::Shard<Codec>& sh = shards_[s];
        sh.wal_gen = sm.wal_floor;
        // Recovery is single-threaded (the pool has no jobs yet), but the
        // publish-side fields are guarded and the discipline is uniform:
        // hold the lock here like everywhere else.
        wt::MutexLock lk(sh.publish_mu);
        sh.wal_floor = sm.wal_floor;
        sh.wal_cleaned = sm.wal_floor;  // the scan below deletes the rest
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
          // Loaded entries inherit the shard watermark, so the next
          // manifest this process writes never regresses frozen_through.
          sh.entries.push_back(
              {seg.seq,
               std::make_shared<const Segment>(std::move(loaded).value()),
               /*saved=*/true, /*floor_after=*/0,
               /*frozen_upto=*/sm.frozen_through});
        }
      }
    }

    // 2. Scan the directory: delete orphans (segments the manifest does not
    // reference, WAL generations below the floor, stale tmp files), and
    // catalog live WAL files per shard in generation order. All through
    // the VFS, so the torture harness sees (and can fault) every step.
    std::vector<std::map<uint64_t, std::string>> wal_files(n);
    Result<std::vector<std::string>> listing = vfs().ListDir(opt_.dir);
    if (!listing.ok()) return listing.status();
    for (const std::string& name : *listing) {
      const std::string path = PathOf(name).string();
      size_t shard = 0;
      uint64_t num = 0;
      // Deletions best-effort (status discarded): an undeletable orphan
      // must not abort recovery — seg seqs and WAL generations are never
      // reused, so a leftover cannot collide with future files.
      if (engine::ParseEngineFileName(name, "seg-", ".wt", &shard, &num) &&
          shard < n) {
        bool live = false;
        {
          wt::MutexLock lk(shards_[shard].publish_mu);
          for (const auto& e : shards_[shard].entries) live |= (e.seq == num);
        }
        if (!live) (void)vfs().Remove(path);
      } else if (engine::ParseEngineFileName(name, "wal-", ".log", &shard,
                                             &num) &&
                 shard < n) {
        uint64_t floor;
        {
          wt::MutexLock lk(shards_[shard].publish_mu);
          floor = shards_[shard].wal_floor;
        }
        if (num < floor) {
          (void)vfs().Remove(path);
        } else {
          wal_files[shard][num] = path;
        }
      } else if (name != "MANIFEST") {
        (void)vfs().Remove(path);  // MANIFEST.tmp and other leftovers
      }
    }

    // 3. Read the WAL tails and tabulate batch completeness: a batch is
    // replayable iff every one of its `batch_shards` slices is accounted
    // for — surviving in a log, or forgiven because the slice-lacking
    // shard's manifest watermark (frozen_through) proves its part is
    // already inside the segments loaded above (the staggered-freeze
    // staircase; see engine/recovery_invariants.hpp). Torn tails and
    // zombie slices of previously-discarded batches stay incomplete
    // forever (batch ids are never reused), so this one rule covers first
    // and repeated crashes alike.
    std::vector<std::vector<engine::WalRecord>> records(n);
    std::vector<uint64_t> max_gen(n, 0);
    for (size_t s = 0; s < n; ++s) {
      for (const auto& [gen, path] : wal_files[s]) {
        std::vector<engine::WalRecord> recs = engine::ReadWalFile(vfs(), path);
        for (auto& r : recs) records[s].push_back(std::move(r));
        max_gen[s] = std::max(max_gen[s], gen);
      }
    }
    const engine::BatchTable batches = engine::BuildBatchTable(records);
    uint64_t max_seen_id = 0;
    for (const auto& [id, b] : batches) {
      (void)b;
      max_seen_id = std::max(max_seen_id, id);
    }

    // 4. Decide which batches to replay (engine/recovery_invariants.hpp):
    // normally every complete batch. With sync_wal=false an OS crash can
    // persist WAL pages out of order across shard files, leaving a
    // mid-history batch incomplete — or wholly absent — while later
    // batches are complete; replaying those later batches breaks the
    // round-robin placement, so PlanReplay salvages the longest id-prefix
    // that satisfies it. Data past the chosen cut is lost — the
    // documented sync_wal=false tradeoff; genuinely foreign or tampered
    // files still fail because no prefix lines up.
    std::vector<uint64_t> base_counts(n, 0);
    std::vector<uint64_t> frozen_through(n, 0);
    for (size_t s = 0; s < n; ++s) {
      {
        wt::MutexLock lk(shards_[s].publish_mu);
        for (const auto& e : shards_[s].entries) {
          base_counts[s] += e.segment->size();
        }
      }
      if (manifest != nullptr) {
        frozen_through[s] = manifest->shards[s].frozen_through;
      }
    }
    const std::optional<engine::ReplayPlan> plan =
        engine::PlanReplay(base_counts, frozen_through, records, batches);
    if (!plan.has_value()) {
      return Status::Error(ErrorCode::kCorruptStream,
                           "Engine: shard counts break the round-robin "
                           "placement invariant");
    }
    const uint64_t cut = plan->cut;
    const bool salvaged = plan->salvaged();

    // 5. Replay once, per shard, in log order (batch ids are assigned and
    // logged monotonically, so "id below the cut" is a per-shard log
    // prefix), moving the strings out of the decoded records.
    for (size_t s = 0; s < n; ++s) {
      std::vector<wt::BitString> replay;
      for (auto& r : records[s]) {
        if (r.batch_id >= cut ||
            !engine::BatchReplayable(batches, frozen_through, r.batch_id)) {
          continue;
        }
        for (auto& str : r.strings) replay.push_back(std::move(str));
      }
      if (replay.empty()) continue;
      if (Status st = shards_[s].memtable.AppendEncodedBatch(replay);
          !st.ok()) {
        return st;
      }
    }
    total_.store(plan->total, std::memory_order_relaxed);
    if (!batches.empty()) {
      next_batch_id_.store(
          std::max(next_batch_id_.load(std::memory_order_relaxed),
                   max_seen_id + 1),
          std::memory_order_relaxed);
    }

    // 6. Open a fresh WAL generation per shard (never append to a possibly
    // torn file) and publish the recovered views.
    for (size_t s = 0; s < n; ++s) {
      engine::Shard<Codec>& sh = shards_[s];
      uint64_t floor;
      {
        wt::MutexLock lk(sh.publish_mu);
        floor = sh.wal_floor;
      }
      sh.wal_gen =
          std::max(floor, max_gen[s] + (wal_files[s].empty() ? 0 : 1));
      if (Status st = sh.wal.Open(
              vfs(), PathOf(engine::WalFileName(s, sh.wal_gen)).string(),
              opt_.sync_wal);
          !st.ok()) {
        return st;
      }
      wt::MutexLock lk(sh.publish_mu);
      sh.PublishLocked();
    }
    publish_epoch_.fetch_add(1, std::memory_order_release);
    last_publish_ns_.store(wt::obs::TimerStart(), std::memory_order_relaxed);

    // 7. Oversized recovered memtables go straight to the freeze queue.
    // A salvaged replay instead settles synchronously before Open
    // returns: every non-empty memtable is frozen (the floor advance
    // cleans the generations it drew from), then every generation read
    // above is deleted on every shard — on shards with nothing salvaged
    // the files hold only dropped batches, since their surviving data is
    // already in segments. Were a dropped batch left behind, it would
    // resurface complete on the next recovery and shadow — or render
    // unsalvageable — batches acknowledged after this open.
    std::optional<wt::obs::ScopedSpan> salvage_span;
    if (salvaged) {
      // The settle below (freezes + WAL generation deletion) runs under a
      // salvage span so a trace of a degraded open shows the repair work;
      // the counter tells an operator that data past the cut was dropped.
      salvage_span.emplace(wt::obs::Tracer::Get(),
                           wt::obs::TraceName::kSalvage, cut);
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
    if (salvaged) {
      pool_->Drain();
      if (Status st = BackgroundError(); !st.ok()) return st;
      for (size_t s = 0; s < n; ++s) {
        for (const auto& [gen, path] : wal_files[s]) {
          (void)vfs().Remove(path);
        }
      }
    }
    return Status::Ok();
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
  // Serializes writers. Also guards every shard's ingest side (memtable,
  // wal, wal_gen) — those fields live in Shard, where this mutex cannot be
  // named by a WT_GUARDED_BY, so the discipline is enforced one level up:
  // the *Locked helpers that touch them are WT_REQUIRES(ingest_mu_).
  mutable wt::Mutex ingest_mu_;
  // Sequencing state, not telemetry: these atomics order ingest and
  // snapshot publication, so they stay bespoke rather than registry
  // counters (RefreshMetrics mirrors what exposition needs).
  std::atomic<uint64_t> total_{0};  // wt-lint: allow(bare-atomic-counter)
  std::atomic<uint64_t> publish_epoch_{0};  // wt-lint: allow(bare-atomic-counter)
  std::atomic<uint64_t> next_batch_id_{0};  // wt-lint: allow(bare-atomic-counter)
  // Steady-clock stamp of the last view publication, feeding the
  // snapshot-epoch-age gauge. 0 until the first publish.
  std::atomic<uint64_t> last_publish_ns_{0};  // wt-lint: allow(bare-atomic-counter)
  std::vector<engine::Shard<Codec>> shards_;
  // Orders concurrent manifest writers; always taken before (never inside)
  // a shard publish lock.
  wt::Mutex manifest_mu_;
  mutable wt::Mutex bg_error_mu_;
  Status bg_error_ WT_GUARDED_BY(bg_error_mu_);
  // Destroyed first (declared last): drains queued jobs, which may touch
  // every member above.
  std::unique_ptr<engine::ThreadPool> pool_;
};

}  // namespace wtrie
