// One engine shard: a mutable memtable absorbing appends plus the
// published stack of frozen segments (DESIGN.md #7).
//
// Concurrency contract (enforced by Engine, documented here):
//
//   * ingest side — `memtable`: touched only while the engine's ingest
//     mutex is held. Rotation moves the memtable out
//     (handing exclusive ownership to the freeze job via shared_ptr) and
//     installs a fresh one, so background freezing never shares a mutable
//     structure with ingest.
//   * publish side — `entries`, `next_seg_seq`: guarded by
//     `publish_mu`. Only this shard's pool stripe mutates them (freeze and
//     compaction jobs for one shard are serialized by the striped pool);
//     the manifest writer on other stripes takes the lock to read.
//   * `view`: the read-side publication point — a PublishedPtr to an
//     immutable ShardView rebuilt after every stack change. Snapshot
//     acquisition copies the shared_ptr under a micro critical section;
//     the queries themselves then run on the pinned immutable view with no
//     synchronization at all.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/sequence.hpp"
#include "common/thread_annotations.hpp"
#include "engine/segment_stack.hpp"

namespace wtrie::engine {

/// Publication cell for an immutable view: a shared_ptr slot whose load and
/// store are a mutex-guarded pointer copy. std::atomic<shared_ptr> would be
/// the obvious tool, but libstdc++ 12's implementation releases its
/// spinlock for readers with a relaxed RMW, leaving the embedded raw
/// pointer without a formal happens-before edge — ThreadSanitizer reports
/// it (correctly, per the C++ memory model). A plain mutex held for one
/// refcount bump costs a few nanoseconds at snapshot *acquisition* only —
/// queries never touch it — and verifies cleanly.
///
/// The locking rule ("never touch ptr_ without mu_") is not a comment: the
/// slot is WT_GUARDED_BY its mutex, so any new accessor that skips the
/// lock fails the clang -Wthread-safety build.
template <typename T>
class PublishedPtr {
 public:
  std::shared_ptr<T> Load() const {
    wt::MutexLock lk(mu_);
    return ptr_;
  }

  void Store(std::shared_ptr<T> p) {
    {
      wt::MutexLock lk(mu_);
      ptr_.swap(p);
    }
    // `p` (the previous view) is released after the lock, so a cascade of
    // segment destructions never runs inside the critical section.
  }

 private:
  mutable wt::Mutex mu_;
  std::shared_ptr<T> ptr_ WT_GUARDED_BY(mu_);
};

template <typename Codec>
struct Shard {
  using Memtable = Sequence<AppendOnly, Codec>;
  using Segment = Sequence<Static, Codec>;

  struct Entry {
    uint64_t seq = 0;  // segment file name component
    std::shared_ptr<const Segment> segment;
    // False when SaveSegment failed: the segment is served from memory, the
    // manifest lists neither it nor anything stacked after it, and its data
    // stays durable only in the WAL until a retry or a compaction saves it.
    bool saved = true;
  };

  // --- ingest side (engine ingest mutex) ---------------------------------
  Memtable memtable;

  // --- publish side (publish_mu) -----------------------------------------
  wt::Mutex publish_mu;
  // Stack order: oldest first.
  std::vector<Entry> entries WT_GUARDED_BY(publish_mu);
  uint64_t next_seg_seq WT_GUARDED_BY(publish_mu) = 0;

  // --- read side ----------------------------------------------------------
  PublishedPtr<const ShardView<Codec>> view;

  /// Rebuilds and publishes the ShardView from `entries`. Caller holds
  /// publish_mu.
  void PublishLocked() WT_REQUIRES(publish_mu) {
    std::vector<std::shared_ptr<const Segment>> segs;
    segs.reserve(entries.size());
    for (const Entry& e : entries) segs.push_back(e.segment);
    view.Store(std::make_shared<const ShardView<Codec>>(std::move(segs)));
  }
};

}  // namespace wtrie::engine
