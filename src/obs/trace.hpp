// Span tracing for background work (DESIGN.md #13).
//
// The metrics layer (DESIGN.md #12) answers "what does p99 look like";
// spans answer "what was the engine DOING during that stall". Every
// traced thread owns a fixed-size ring of 64-byte slots; begin/end/
// instant events are written with plain owner-thread arithmetic plus a
// per-slot seqlock — no allocation, no lock, and NO shared read-modify-
// write on the hot path (the same discipline that keeps HistogramBatch
// cheap). Overflow is drop-counted, never blocking: the ring always
// holds the most recent events and the drop counter says exactly how
// many older ones it shed.
//
// Concurrency contract, per slot (all fields std::atomic, so TSan sees
// no race and torn reads are impossible at the field level):
//
//   writer (ring owner only):   seq = q+1 (odd)          [relaxed]
//                               release fence
//                               payload fields           [relaxed]
//                               seq = q+2 (even)         [release]
//   reader (Snapshot, any):     q1 = seq                 [acquire]
//                               skip if q1 odd or 0
//                               payload fields           [relaxed]
//                               acquire fence
//                               accept iff seq == q1     [relaxed]
//
// A slot overwritten mid-read fails the recheck and counts as dropped —
// a snapshot never contains a torn span, only fewer spans.
//
// Publication is slack-aware like the serving histograms: the owner
// republishes its write position every kTracePublishSlack events or when
// a root span ends, so snapshot visibility costs one release store per
// batch of events, not one per event.
//
// Nesting: each ring keeps a thread-local span stack (owner-only, plain
// array). SpanBegin parents under the stack top; cross-thread jobs pass
// the submitting span's id explicitly (SpanBeginWithParent), which is how
// a compaction running on a pool worker nests under the freeze or
// tier-merge span that scheduled it.
//
// Wire format, same contract style as obs/snapshot.hpp (header pinned in
// common/layout_contracts.hpp):
//
//   TraceSnapshotHeader { magic "WTTRACE1", version, event_count,
//                         dropped, body_checksum }
//   body := event_count * TraceWireEvent (40-byte POD, no padding)
//
// ParseTraceSnapshot is non-aborting and rejects anything a serializer
// cannot produce (bad kind/name, nonzero reserved bytes), so accepted
// inputs round-trip byte-identically — fuzz/fuzz_trace.cpp pins that.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace wt::obs {

enum class TraceKind : uint8_t {
  kBegin = 1,
  kEnd = 2,
  kInstant = 3,
};

/// Every traced operation in the process, one byte on the wire. Names are
/// an enum (not strings) so an event is fixed-size and the hot path never
/// touches a string.
enum class TraceName : uint8_t {
  kFreeze = 0,          // memtable freeze job (engine pool)
  kCompaction = 1,      // one MergeTail run on a shard
  kTierMerge = 2,       // explicit Compact() coordinator
  kWalRotate = 3,       // WAL segment rotation
  kWalClean = 4,        // WAL garbage collection
  kWalFsync = 5,        // WAL fsync (SyncWal / rotate sync)
  kManifestPersist = 6, // manifest + segment-file persistence
  kSalvage = 7,         // WAL salvage during Recover
  kPagerMap = 8,        // segment image map (mmap or buffered read)
  kPagerUnmap = 9,      // tracked blob release
  kPagerAdvise = 10,    // madvise hint applied
  kEngineBatch = 11,    // one coalesced dispatch batch (server)
};
inline constexpr uint8_t kTraceNameCount = 12;

/// Dotted `category.op` names; wt_trace splits at the dot for Perfetto's
/// `cat` field.
inline const char* TraceNameString(TraceName n) {
  switch (n) {
    case TraceName::kFreeze: return "engine.freeze";
    case TraceName::kCompaction: return "engine.compaction";
    case TraceName::kTierMerge: return "engine.tier_merge";
    case TraceName::kWalRotate: return "wal.rotate";
    case TraceName::kWalClean: return "wal.clean";
    case TraceName::kWalFsync: return "wal.fsync";
    case TraceName::kManifestPersist: return "engine.manifest_persist";
    case TraceName::kSalvage: return "wal.salvage";
    case TraceName::kPagerMap: return "pager.map";
    case TraceName::kPagerUnmap: return "pager.unmap";
    case TraceName::kPagerAdvise: return "pager.advise";
    case TraceName::kEngineBatch: return "serving.engine_batch";
  }
  return "unknown";
}

/// One trace event, exactly as it travels the wire. 40 bytes, no padding
/// (layout pinned in common/layout_contracts.hpp). `arg` is one
/// name-specific payload word (shard id, byte count, batch size).
struct TraceWireEvent {
  uint64_t ts_ns = 0;
  uint64_t span_id = 0;    // 0 only for instants outside any span
  uint64_t parent_id = 0;  // 0 = root
  uint64_t arg = 0;
  uint32_t tid = 0;  // small per-thread ordinal, not the OS tid
  uint8_t kind = 0;  // TraceKind
  uint8_t name = 0;  // TraceName
  uint16_t reserved = 0;
};
static_assert(sizeof(TraceWireEvent) == 40);

/// Point-in-time event collection, sorted by timestamp. `dropped` counts
/// ring overflow plus slots that were mid-rewrite during collection.
struct TraceSnapshot {
  std::vector<TraceWireEvent> events;
  uint64_t dropped = 0;
};

/// Ring slots per traced thread. 4096 * 64B = 256KiB per thread that
/// actually emits events (rings are created lazily on first emit).
inline constexpr size_t kDefaultTraceRingSlots = 4096;
/// Owner republishes its write position at least every this many events.
inline constexpr size_t kTracePublishSlack = 32;
/// Deepest tracked nesting; deeper begins still emit but do not become
/// implicit parents.
inline constexpr size_t kMaxSpanDepth = 16;

namespace detail {
/// Small dense per-thread ordinal for the wire `tid` field (stable for
/// the thread's lifetime, unrelated to the OS tid).
inline uint32_t TraceThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}
}  // namespace detail

/// The span collector. Instantiable for tests; production code shares the
/// process singleton (Tracer::Get()) so engine, pager and server spans
/// land on one timeline and ids link across subsystems.
class Tracer {
 public:
  explicit Tracer(size_t ring_slots = kDefaultTraceRingSlots)
      : ring_slots_(RoundUpPow2(ring_slots)) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// One timeline for the whole process.
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  /// Opens a span nested under the calling thread's current span (0 =
  /// root). Returns the span id to pass to SpanEnd.
  uint64_t SpanBegin(TraceName name, uint64_t arg = 0) {
    ThreadRing& r = RingForThread();
    return BeginInRing(r, name, CurrentParent(r), arg);
  }

  /// Opens a span under an explicit parent — the cross-thread form: a
  /// pool job nests under the span that submitted it by carrying the id
  /// through the closure.
  uint64_t SpanBeginWithParent(TraceName name, uint64_t parent,
                               uint64_t arg = 0) {
    return BeginInRing(RingForThread(), name, parent, arg);
  }

  /// Closes a span begun on THIS thread. Tolerates misnesting by
  /// unwinding the stack to the span (children left open are abandoned).
  void SpanEnd(uint64_t span_id, TraceName name, uint64_t arg = 0) {
    if (span_id == 0) return;
    ThreadRing& r = RingForThread();
    for (size_t i = r.depth; i > 0; --i) {
      if (r.stack[i - 1] == span_id) {
        r.depth = i - 1;
        break;
      }
    }
    Emit(r, TraceKind::kEnd, name, span_id, CurrentParent(r), arg);
  }

  /// Zero-duration marker under the current span.
  void Instant(TraceName name, uint64_t arg = 0) {
    ThreadRing& r = RingForThread();
    Emit(r, TraceKind::kInstant, name, /*span_id=*/0, CurrentParent(r), arg);
  }

  /// The calling thread's innermost open span id, 0 when none. The engine
  /// parents work it hands to its thread pool on it.
  uint64_t CurrentSpan() {
    ThreadRing* r = MaybeRing();
    return r == nullptr ? 0 : CurrentParent(*r);
  }

  /// Force-publishes the calling thread's ring so a following Snapshot
  /// observes every event emitted so far (tests; also useful before
  /// handing work to another thread).
  void FlushThisThread() {
    ThreadRing* r = MaybeRing();
    if (r != nullptr) PublishRing(*r);
  }

  /// Collects every ring's published events, newest ~ring_slots per
  /// thread, sorted by timestamp. Safe to call while writers are active.
  TraceSnapshot Snapshot() const WT_EXCLUDES(mu_) {
    TraceSnapshot snap;
    wt::MutexLock lock(mu_);
    for (const ThreadRing& r : rings_) {
      const uint64_t pub = r.pub_wpos.load(std::memory_order_acquire);
      snap.dropped += r.pub_drops.load(std::memory_order_relaxed);
      const uint64_t cap = r.mask + 1;
      const uint64_t start = pub > cap ? pub - cap : 0;
      for (uint64_t i = start; i < pub; ++i) {
        TraceWireEvent ev;
        if (ReadSlot(r.slots[i & r.mask], &ev)) {
          snap.events.push_back(ev);
        } else {
          snap.dropped++;  // overwritten mid-read: shed, never torn
        }
      }
    }
    std::stable_sort(snap.events.begin(), snap.events.end(),
                     [](const TraceWireEvent& a, const TraceWireEvent& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    return snap;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};  // 0 = never written; odd = in progress
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_id{0};
    std::atomic<uint64_t> packed{0};  // tid << 16 | kind << 8 | name
    std::atomic<uint64_t> arg{0};
  };
  static_assert(sizeof(Slot) == 64);

  struct ThreadRing {
    ThreadRing(size_t cap, uint32_t index, uint32_t thread_id)
        : slots(new Slot[cap]), mask(cap - 1), ring_index(index),
          tid(thread_id) {}
    const std::unique_ptr<Slot[]> slots;
    const uint64_t mask;
    const uint32_t ring_index;
    const uint32_t tid;
    // Owner-thread-only state: plain integers, never read elsewhere.
    uint64_t wpos = 0;
    uint64_t drops = 0;
    uint64_t span_counter = 0;
    size_t unpublished = 0;
    size_t depth = 0;
    std::array<uint64_t, kMaxSpanDepth> stack{};
    // Reader-visible watermarks, release-published at slack boundaries.
    std::atomic<uint64_t> pub_wpos{0};
    std::atomic<uint64_t> pub_drops{0};
  };

  static size_t RoundUpPow2(size_t v) {
    size_t p = 8;
    while (p < v) p <<= 1;
    return p;
  }

  static uint64_t CurrentParent(const ThreadRing& r) {
    return r.depth > 0 ? r.stack[r.depth - 1] : 0;
  }

  uint64_t BeginInRing(ThreadRing& r, TraceName name, uint64_t parent,
                       uint64_t arg) {
    // Ring-index prefix keeps ids unique across threads without any
    // shared counter.
    r.span_counter = (r.span_counter + 1) & ((uint64_t{1} << 40) - 1);
    const uint64_t id =
        (uint64_t{r.ring_index + 1} << 40) | r.span_counter;
    if (r.depth < kMaxSpanDepth) r.stack[r.depth++] = id;
    Emit(r, TraceKind::kBegin, name, id, parent, arg);
    return id;
  }

  void Emit(ThreadRing& r, TraceKind kind, TraceName name, uint64_t span_id,
            uint64_t parent_id, uint64_t arg) {
    Slot& s = r.slots[r.wpos & r.mask];
    if (r.wpos > r.mask) r.drops++;  // overwriting a live event
    const uint64_t q = s.seq.load(std::memory_order_relaxed);
    s.seq.store(q + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    s.ts_ns.store(NowNanos(), std::memory_order_relaxed);
    s.span_id.store(span_id, std::memory_order_relaxed);
    s.parent_id.store(parent_id, std::memory_order_relaxed);
    s.packed.store((uint64_t{r.tid} << 16) |
                       (uint64_t{static_cast<uint8_t>(kind)} << 8) |
                       uint64_t{static_cast<uint8_t>(name)},
                   std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.seq.store(q + 2, std::memory_order_release);
    r.wpos++;
    // Slack-aware publication: one release store per batch of events, or
    // immediately when a root span closes (a complete story just ended).
    if (++r.unpublished >= kTracePublishSlack ||
        (kind == TraceKind::kEnd && r.depth == 0)) {
      PublishRing(r);
    }
  }

  static void PublishRing(ThreadRing& r) {
    r.unpublished = 0;
    r.pub_drops.store(r.drops, std::memory_order_relaxed);
    r.pub_wpos.store(r.wpos, std::memory_order_release);
  }

  static bool ReadSlot(const Slot& s, TraceWireEvent* out) {
    const uint64_t q1 = s.seq.load(std::memory_order_acquire);
    if (q1 == 0 || (q1 & 1) != 0) return false;
    out->ts_ns = s.ts_ns.load(std::memory_order_relaxed);
    out->span_id = s.span_id.load(std::memory_order_relaxed);
    out->parent_id = s.parent_id.load(std::memory_order_relaxed);
    const uint64_t packed = s.packed.load(std::memory_order_relaxed);
    out->arg = s.arg.load(std::memory_order_relaxed);
    out->tid = static_cast<uint32_t>(packed >> 16);
    out->kind = static_cast<uint8_t>((packed >> 8) & 0xFF);
    out->name = static_cast<uint8_t>(packed & 0xFF);
    out->reserved = 0;
    std::atomic_thread_fence(std::memory_order_acquire);
    return s.seq.load(std::memory_order_relaxed) == q1;
  }

  /// The calling thread's ring in THIS tracer, created on first use.
  /// Cache entries key on a process-unique tracer id, so a destroyed
  /// tracer's entry can never false-hit a successor at the same address.
  ThreadRing& RingForThread() WT_EXCLUDES(mu_) {
    ThreadRing* cached = MaybeRing();
    if (cached != nullptr) return *cached;
    wt::MutexLock lock(mu_);
    rings_.emplace_back(ring_slots_, static_cast<uint32_t>(rings_.size()),
                        detail::TraceThreadId());
    ThreadRing* r = &rings_.back();
    Cache().emplace_back(id_, r);
    return *r;
  }

  ThreadRing* MaybeRing() const {
    for (const auto& [tid, ring] : Cache()) {
      if (tid == id_) return ring;
    }
    return nullptr;
  }

  static std::vector<std::pair<uint64_t, ThreadRing*>>& Cache() {
    thread_local std::vector<std::pair<uint64_t, ThreadRing*>> cache;
    return cache;
  }

  static uint64_t NextTracerId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const size_t ring_slots_;
  const uint64_t id_ = NextTracerId();
  mutable wt::Mutex mu_;
  // Deque for address stability; rings outlive their threads so a worker
  // exiting never invalidates a snapshot.
  std::deque<ThreadRing> rings_ WT_GUARDED_BY(mu_);
};

/// RAII span. `arg` at construction lands on the Begin event; SetEndArg
/// puts a result word (bytes merged, rows walked) on the End event.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, TraceName name, uint64_t arg = 0)
      : tracer_(&t), name_(name), id_(t.SpanBegin(name, arg)) {}
  ScopedSpan(Tracer& t, TraceName name, uint64_t parent, uint64_t arg)
      : tracer_(&t), name_(name),
        id_(t.SpanBeginWithParent(name, parent, arg)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_->SpanEnd(id_, name_, end_arg_); }

  uint64_t id() const { return id_; }
  void SetEndArg(uint64_t arg) { end_arg_ = arg; }

 private:
  Tracer* const tracer_;
  const TraceName name_;
  const uint64_t id_;
  uint64_t end_arg_ = 0;
};

// ----------------------------------------------------------- wire format

inline constexpr uint64_t kTraceSnapshotMagic =
    0x3145434152545457ull;  // "WTTRACE1" little-endian
inline constexpr uint32_t kTraceSnapshotVersion = 1;
/// Parser allocation ceiling; the serializer keeps only the newest this
/// many events (shedding counts into `dropped`).
inline constexpr uint32_t kMaxTraceEvents = 1u << 20;

struct TraceSnapshotHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t event_count = 0;
  uint64_t dropped = 0;
  uint64_t body_checksum = 0;  // FNV-1a over the event bytes
};
static_assert(sizeof(TraceSnapshotHeader) == 32);

inline std::string SerializeTraceSnapshot(const TraceSnapshot& s) {
  size_t first = 0;
  uint64_t shed = 0;
  if (s.events.size() > kMaxTraceEvents) {
    first = s.events.size() - kMaxTraceEvents;  // keep the newest
    shed = first;
  }
  std::string body;
  body.reserve((s.events.size() - first) * sizeof(TraceWireEvent));
  for (size_t i = first; i < s.events.size(); ++i) {
    body.append(reinterpret_cast<const char*>(&s.events[i]),
                sizeof(TraceWireEvent));
  }
  TraceSnapshotHeader hdr;
  hdr.magic = kTraceSnapshotMagic;
  hdr.version = kTraceSnapshotVersion;
  hdr.event_count = static_cast<uint32_t>(s.events.size() - first);
  hdr.dropped = s.dropped + shed;
  hdr.body_checksum = wt::Fnv1a(body.data(), body.size());
  std::string out;
  out.reserve(sizeof(hdr) + body.size());
  out.append(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  out.append(body);
  return out;
}

/// Non-aborting parse, ParseWalBytes rules: short buffer, bad magic/
/// version, checksum mismatch, size lies, out-of-range kind/name or
/// nonzero reserved bytes all return false. Accepted input re-serializes
/// byte-identically (fuzz-pinned).
inline bool ParseTraceSnapshot(const char* data, size_t size,
                               TraceSnapshot* out) {
  out->events.clear();
  out->dropped = 0;
  TraceSnapshotHeader hdr;
  if (size < sizeof(hdr)) return false;
  std::memcpy(&hdr, data, sizeof(hdr));
  if (hdr.magic != kTraceSnapshotMagic) return false;
  if (hdr.version != kTraceSnapshotVersion) return false;
  if (hdr.event_count > kMaxTraceEvents) return false;
  const char* p = data + sizeof(hdr);
  const size_t left = size - sizeof(hdr);
  if (left != size_t{hdr.event_count} * sizeof(TraceWireEvent)) return false;
  if (wt::Fnv1a(p, left) != hdr.body_checksum) return false;
  out->events.reserve(hdr.event_count);
  for (uint32_t i = 0; i < hdr.event_count; ++i) {
    TraceWireEvent ev;
    std::memcpy(&ev, p + size_t{i} * sizeof(ev), sizeof(ev));
    if (ev.kind < static_cast<uint8_t>(TraceKind::kBegin) ||
        ev.kind > static_cast<uint8_t>(TraceKind::kInstant)) {
      return false;
    }
    if (ev.name >= kTraceNameCount) return false;
    if (ev.reserved != 0) return false;
    out->events.push_back(ev);
  }
  out->dropped = hdr.dropped;
  return true;
}

/// Structural validation shared by `wt_trace --validate`, wtbench's
/// traced runs and the tests. Rules are eviction-tolerant: a ring that
/// wrapped (dropped > 0) may have shed a Begin whose End survived, so the
/// strict pairing rules only bind when nothing was dropped.
///
///   * timestamps non-decreasing (Snapshot sorts; the wire must stay so)
///   * no span id begins or ends twice
///   * when both halves are present: same name, same thread, end >= begin
///   * every compaction span has a parent, and a surviving parent Begin
///     must be a freeze or tier-merge span
inline bool ValidateTraceSnapshot(const TraceSnapshot& s, std::string* err) {
  auto fail = [err](const char* m) {
    if (err != nullptr) *err = m;
    return false;
  };
  std::unordered_map<uint64_t, const TraceWireEvent*> begins, ends;
  uint64_t prev_ts = 0;
  for (const TraceWireEvent& ev : s.events) {
    if (ev.ts_ns < prev_ts) return fail("timestamps not monotone");
    prev_ts = ev.ts_ns;
    if (ev.kind < static_cast<uint8_t>(TraceKind::kBegin) ||
        ev.kind > static_cast<uint8_t>(TraceKind::kInstant)) {
      return fail("event kind out of range");
    }
    if (ev.name >= kTraceNameCount) return fail("event name out of range");
    if (ev.kind == static_cast<uint8_t>(TraceKind::kBegin)) {
      if (ev.span_id == 0) return fail("begin event with zero span id");
      if (!begins.emplace(ev.span_id, &ev).second) {
        return fail("span begun twice");
      }
    } else if (ev.kind == static_cast<uint8_t>(TraceKind::kEnd)) {
      if (ev.span_id == 0) return fail("end event with zero span id");
      if (!ends.emplace(ev.span_id, &ev).second) {
        return fail("span ended twice");
      }
    }
  }
  for (const auto& [id, end] : ends) {
    auto it = begins.find(id);
    if (it == begins.end()) {
      if (s.dropped == 0) return fail("end without begin and nothing dropped");
      continue;  // the begin was evicted; tolerated
    }
    const TraceWireEvent* begin = it->second;
    if (begin->name != end->name) return fail("begin/end name mismatch");
    if (begin->tid != end->tid) return fail("begin/end thread mismatch");
    if (end->ts_ns < begin->ts_ns) return fail("span ends before it begins");
  }
  for (const auto& [id, begin] : begins) {
    if (begin->name != static_cast<uint8_t>(TraceName::kCompaction)) continue;
    if (begin->parent_id == 0) return fail("compaction span without parent");
    auto it = begins.find(begin->parent_id);
    if (it == begins.end()) {
      if (s.dropped == 0) return fail("compaction parent span missing");
      continue;
    }
    const uint8_t pn = it->second->name;
    if (pn != static_cast<uint8_t>(TraceName::kFreeze) &&
        pn != static_cast<uint8_t>(TraceName::kTierMerge)) {
      return fail("compaction parent is neither freeze nor tier-merge");
    }
  }
  if (err != nullptr) err->clear();
  return true;
}

}  // namespace wt::obs
