// Tests for the span-tracing subsystem (src/obs/trace.hpp, DESIGN.md #13):
//   * ring overflow: the drop counter is exact and no surviving event is
//     torn (every slot either reads whole or is shed into `dropped`);
//   * slack-aware publication: events become reader-visible at the slack
//     boundary, a root-span close, or an explicit FlushThisThread;
//   * span nesting: implicit (thread-local stack) on one thread, explicit
//     parent ids across thread-pool job boundaries, misnesting unwinds;
//   * wire format: byte-identical round trip, corruption/truncation
//     rejected, eviction-tolerant validation rules;
//   * concurrent begin/end/instant under load while snapshotting (the
//     TSan job runs this binary);
//   * integration: a durable engine's background work lands freeze /
//     compaction / WAL-fsync / manifest / pager-map spans on the process
//     timeline with the nesting the validator demands.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "obs/trace.hpp"

namespace wt::obs {
namespace {

namespace fs = std::filesystem;

using K = TraceKind;
using N = TraceName;

/// A scratch directory removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name) {
    path = fs::temp_directory_path() / ("wtrie_trace_test_" + name + "_" +
                                        std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

const TraceWireEvent* FindEvent(const TraceSnapshot& s, K kind, N name) {
  for (const auto& e : s.events) {
    if (e.kind == static_cast<uint8_t>(kind) &&
        e.name == static_cast<uint8_t>(name)) {
      return &e;
    }
  }
  return nullptr;
}

size_t CountEvents(const TraceSnapshot& s, K kind, N name) {
  size_t n = 0;
  for (const auto& e : s.events) {
    n += e.kind == static_cast<uint8_t>(kind) &&
         e.name == static_cast<uint8_t>(name);
  }
  return n;
}

// ---------------------------------------------------------------- rings

TEST(TraceRing, OverflowDropCountExactNoTornEvents) {
  Tracer t(/*ring_slots=*/64);
  for (uint64_t i = 0; i < 100; ++i) t.Instant(N::kPagerUnmap, i);
  t.FlushThisThread();
  const TraceSnapshot snap = t.Snapshot();
  // 100 emits into 64 slots: exactly 36 overwritten, the newest 64 live.
  EXPECT_EQ(snap.events.size(), 64u);
  EXPECT_EQ(snap.dropped, 36u);
  // Survivors are the args [36, 100) in order — an overwrite never tears.
  uint64_t expect = 36;
  for (const auto& e : snap.events) {
    EXPECT_EQ(e.kind, static_cast<uint8_t>(K::kInstant));
    EXPECT_EQ(e.name, static_cast<uint8_t>(N::kPagerUnmap));
    EXPECT_EQ(e.arg, expect++);
  }
}

TEST(TraceRing, SlackAwarePublication) {
  Tracer t(/*ring_slots=*/256);
  for (int i = 0; i < 5; ++i) t.Instant(N::kPagerAdvise);
  // Below the slack threshold with no root-span close: nothing published.
  EXPECT_TRUE(t.Snapshot().events.empty());
  t.FlushThisThread();
  EXPECT_EQ(t.Snapshot().events.size(), 5u);
  // A root span closing publishes immediately (a complete story ended).
  const uint64_t id = t.SpanBegin(N::kFreeze);
  t.SpanEnd(id, N::kFreeze);
  EXPECT_EQ(t.Snapshot().events.size(), 7u);
  // The slack boundary itself publishes without any span close.
  Tracer t2(/*ring_slots=*/256);
  for (size_t i = 0; i < kTracePublishSlack; ++i) t2.Instant(N::kPagerMap);
  EXPECT_EQ(t2.Snapshot().events.size(), kTracePublishSlack);
}

// ---------------------------------------------------------------- spans

TEST(TraceSpans, ImplicitNestingOnOneThread) {
  Tracer t;
  const uint64_t freeze = t.SpanBegin(N::kFreeze, /*arg=*/7);
  EXPECT_NE(freeze, 0u);
  EXPECT_EQ(t.CurrentSpan(), freeze);
  const uint64_t comp = t.SpanBegin(N::kCompaction);
  EXPECT_EQ(t.CurrentSpan(), comp);
  t.Instant(N::kPagerMap);
  t.SpanEnd(comp, N::kCompaction);
  EXPECT_EQ(t.CurrentSpan(), freeze);
  t.SpanEnd(freeze, N::kFreeze, /*arg=*/99);
  EXPECT_EQ(t.CurrentSpan(), 0u);
  t.FlushThisThread();

  const TraceSnapshot snap = t.Snapshot();
  ASSERT_EQ(snap.events.size(), 5u);
  const TraceWireEvent* cb = FindEvent(snap, K::kBegin, N::kCompaction);
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(cb->parent_id, freeze);  // stack top at begin time
  const TraceWireEvent* inst = FindEvent(snap, K::kInstant, N::kPagerMap);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->parent_id, comp);
  const TraceWireEvent* fe = FindEvent(snap, K::kEnd, N::kFreeze);
  ASSERT_NE(fe, nullptr);
  EXPECT_EQ(fe->arg, 99u);
  std::string err;
  EXPECT_TRUE(ValidateTraceSnapshot(snap, &err)) << err;
}

TEST(TraceSpans, ExplicitParentAcrossThreadPoolJobs) {
  Tracer t;
  const uint64_t tier = t.SpanBegin(N::kTierMerge);
  {
    wtrie::engine::ThreadPool pool(2);
    for (size_t s = 0; s < 2; ++s) {
      pool.Submit(s, [&t, tier, s] {
        ScopedSpan span(t, N::kCompaction, tier, s);
        t.FlushThisThread();
      });
    }
    pool.Drain();
  }
  t.SpanEnd(tier, N::kTierMerge);
  t.FlushThisThread();

  const TraceSnapshot snap = t.Snapshot();
  EXPECT_EQ(CountEvents(snap, K::kBegin, N::kCompaction), 2u);
  const TraceWireEvent* tb = FindEvent(snap, K::kBegin, N::kTierMerge);
  ASSERT_NE(tb, nullptr);
  for (const auto& e : snap.events) {
    if (e.name != static_cast<uint8_t>(N::kCompaction) ||
        e.kind != static_cast<uint8_t>(K::kBegin)) {
      continue;
    }
    EXPECT_EQ(e.parent_id, tier);     // carried through the closure
    EXPECT_NE(e.tid, tb->tid);        // emitted on a pool worker's ring
  }
  std::string err;
  EXPECT_TRUE(ValidateTraceSnapshot(snap, &err)) << err;
}

TEST(TraceSpans, MisnestedEndUnwindsStack) {
  Tracer t;
  const uint64_t outer = t.SpanBegin(N::kFreeze);
  const uint64_t inner = t.SpanBegin(N::kCompaction);
  (void)inner;
  // Ending the outer span abandons the inner one rather than corrupting
  // the stack.
  t.SpanEnd(outer, N::kFreeze);
  EXPECT_EQ(t.CurrentSpan(), 0u);
}

// ----------------------------------------------------------- wire format

TEST(TraceWire, RoundTripByteIdentity) {
  Tracer t;
  const uint64_t f = t.SpanBegin(N::kFreeze, 1);
  const uint64_t c = t.SpanBegin(N::kCompaction, 2);
  t.SpanEnd(c, N::kCompaction);
  t.SpanEnd(f, N::kFreeze);
  t.FlushThisThread();
  const TraceSnapshot snap = t.Snapshot();
  ASSERT_EQ(snap.events.size(), 4u);

  const std::string bytes = SerializeTraceSnapshot(snap);
  TraceSnapshot back;
  ASSERT_TRUE(ParseTraceSnapshot(bytes.data(), bytes.size(), &back));
  EXPECT_EQ(back.events.size(), snap.events.size());
  EXPECT_EQ(back.dropped, snap.dropped);
  EXPECT_EQ(SerializeTraceSnapshot(back), bytes);
}

TEST(TraceWire, RejectsCorruptionTruncationAndSkew) {
  TraceSnapshot s;
  TraceWireEvent e;
  e.ts_ns = 10;
  e.span_id = 1;
  e.tid = 1;
  e.kind = static_cast<uint8_t>(K::kBegin);
  e.name = static_cast<uint8_t>(N::kFreeze);
  s.events.push_back(e);
  const std::string good = SerializeTraceSnapshot(s);
  TraceSnapshot out;
  ASSERT_TRUE(ParseTraceSnapshot(good.data(), good.size(), &out));

  for (size_t pos : {size_t{0}, size_t{8}, good.size() - 1}) {
    std::string bad = good;
    bad[pos] ^= 0x5A;  // magic / version / body: all checksum-or-field fail
    EXPECT_FALSE(ParseTraceSnapshot(bad.data(), bad.size(), &out)) << pos;
  }
  EXPECT_FALSE(ParseTraceSnapshot(good.data(), good.size() - 1, &out));
  EXPECT_FALSE(ParseTraceSnapshot(good.data(), 7, &out));
  // Non-canonical events: unknown kind/name, nonzero reserved pad. Each
  // rebuilt with a correct checksum so only the field check can reject.
  for (auto mutate : {+[](TraceWireEvent* ev) { ev->kind = 9; },
                      +[](TraceWireEvent* ev) { ev->name = 0xEE; },
                      +[](TraceWireEvent* ev) { ev->reserved = 1; }}) {
    TraceSnapshot bad_snap = s;
    mutate(&bad_snap.events[0]);
    const std::string bad = SerializeTraceSnapshot(bad_snap);
    EXPECT_FALSE(ParseTraceSnapshot(bad.data(), bad.size(), &out));
  }
}

TEST(TraceValidate, EvictionToleranceRules) {
  auto make = [](K kind, N name, uint64_t ts, uint64_t span, uint64_t parent,
                 uint32_t tid) {
    TraceWireEvent e;
    e.ts_ns = ts;
    e.span_id = span;
    e.parent_id = parent;
    e.tid = tid;
    e.kind = static_cast<uint8_t>(kind);
    e.name = static_cast<uint8_t>(name);
    return e;
  };
  std::string err;

  // An end whose begin was evicted: invalid with dropped == 0, tolerated
  // once the ring admits it shed events.
  TraceSnapshot orphan;
  orphan.events.push_back(make(K::kEnd, N::kFreeze, 5, 0x200, 0, 1));
  EXPECT_FALSE(ValidateTraceSnapshot(orphan, &err));
  orphan.dropped = 1;
  EXPECT_TRUE(ValidateTraceSnapshot(orphan, &err)) << err;

  // A compaction must hang off a freeze or tier-merge parent. A zero
  // parent id is instrumentation failure — never excused by eviction.
  TraceSnapshot rootless;
  rootless.events.push_back(make(K::kBegin, N::kCompaction, 1, 0x300, 0, 1));
  rootless.events.push_back(make(K::kEnd, N::kCompaction, 2, 0x300, 0, 1));
  EXPECT_FALSE(ValidateTraceSnapshot(rootless, &err));
  rootless.dropped = 1;
  EXPECT_FALSE(ValidateTraceSnapshot(rootless, &err));
  // A nonzero parent whose Begin was evicted is tolerated once the ring
  // admits it shed events.
  TraceSnapshot evicted_parent;
  evicted_parent.events.push_back(
      make(K::kBegin, N::kCompaction, 1, 0x301, 0x2FF, 1));
  EXPECT_FALSE(ValidateTraceSnapshot(evicted_parent, &err));
  evicted_parent.dropped = 1;
  EXPECT_TRUE(ValidateTraceSnapshot(evicted_parent, &err)) << err;

  TraceSnapshot wrong_parent;
  wrong_parent.events.push_back(make(K::kBegin, N::kWalClean, 1, 0x400, 0, 1));
  wrong_parent.events.push_back(
      make(K::kBegin, N::kCompaction, 2, 0x401, 0x400, 1));
  EXPECT_FALSE(ValidateTraceSnapshot(wrong_parent, &err));

  // Out-of-order timestamps and double begins are structural breaks.
  TraceSnapshot unsorted;
  unsorted.events.push_back(make(K::kBegin, N::kFreeze, 9, 0x500, 0, 1));
  unsorted.events.push_back(make(K::kEnd, N::kFreeze, 3, 0x500, 0, 1));
  EXPECT_FALSE(ValidateTraceSnapshot(unsorted, &err));
  TraceSnapshot twice;
  twice.events.push_back(make(K::kBegin, N::kFreeze, 1, 0x600, 0, 1));
  twice.events.push_back(make(K::kBegin, N::kFreeze, 2, 0x600, 0, 1));
  EXPECT_FALSE(ValidateTraceSnapshot(twice, &err));
}

// ----------------------------------------------------------- concurrency

// Hammered by the TSan CI job: concurrent begin/end/instant on four
// threads while two snapshotters read. Every surviving event must be
// whole (valid kind/name) and the collection must round-trip.
TEST(TraceConcurrency, ConcurrentSpansAndSnapshotsStayWhole) {
  Tracer t(/*ring_slots=*/128);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&t, w] {
      for (uint64_t i = 0; i < 2000; ++i) {
        ScopedSpan outer(t, N::kFreeze, i);
        {
          ScopedSpan inner(t, N::kCompaction, i);
          t.Instant(N::kPagerMap, static_cast<uint64_t>(w));
        }
      }
      t.FlushThisThread();
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&t, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        const TraceSnapshot snap = t.Snapshot();
        for (const auto& e : snap.events) {
          ASSERT_GE(e.kind, static_cast<uint8_t>(K::kBegin));
          ASSERT_LE(e.kind, static_cast<uint8_t>(K::kInstant));
          ASSERT_LT(e.name, kTraceNameCount);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  const TraceSnapshot snap = t.Snapshot();
  EXPECT_FALSE(snap.events.empty());
  EXPECT_GT(snap.dropped, 0u);  // 4 * 6000 emits into 4 * 128 slots
  const std::string bytes = SerializeTraceSnapshot(snap);
  TraceSnapshot back;
  EXPECT_TRUE(ParseTraceSnapshot(bytes.data(), bytes.size(), &back));
}

// ------------------------------------------------------------ integration

// A durable engine under real freeze/compaction load must land its
// background spans on the process timeline (Tracer::Get()) with the
// nesting ValidateTraceSnapshot demands — the same gate the CI trace
// smoke applies to a live daemon.
TEST(TraceIntegration, EngineBackgroundWorkAppearsOnProcessTimeline) {
  using StrEngine = wtrie::Engine<wt::ByteCodec>;
  TempDir dir("engine_spans");
  {
    StrEngine::Options opt;
    opt.num_shards = 2;
    opt.memtable_limit = 64;
    opt.dir = dir.path.string();
    auto eng = StrEngine::Open(opt).value();
    std::vector<std::string> batch;
    for (int i = 0; i < 1500; ++i) {
      batch.push_back("string-" + std::to_string(i));
      if (batch.size() == 100) {
        ASSERT_TRUE(eng->AppendBatch(batch).ok());
        batch.clear();
      }
    }
    ASSERT_TRUE(eng->Flush().ok());
    ASSERT_TRUE(eng->Compact().ok());
    eng->RefreshMetrics();
    // The new background instruments are live alongside the spans.
    const auto& reg = *eng->metrics();
    const auto ms = reg.Snapshot();
    ASSERT_NE(ms.FindGauge("wt_engine_compaction_debt"), nullptr);
    ASSERT_NE(ms.FindGauge("wt_engine_segments{shard=\"0\"}"), nullptr);
    const auto* wal_bytes = ms.FindHistogram("wt_wal_append_bytes");
    ASSERT_NE(wal_bytes, nullptr);
    EXPECT_GT(wal_bytes->count, 0u);
  }

  const TraceSnapshot snap = Tracer::Get().Snapshot();
  EXPECT_GT(CountEvents(snap, K::kBegin, N::kFreeze), 0u);
  EXPECT_GT(CountEvents(snap, K::kBegin, N::kTierMerge), 0u);
  EXPECT_GT(CountEvents(snap, K::kBegin, N::kCompaction), 0u);
  EXPECT_GT(CountEvents(snap, K::kBegin, N::kWalFsync), 0u);
  EXPECT_GT(CountEvents(snap, K::kBegin, N::kManifestPersist), 0u);
  EXPECT_GT(CountEvents(snap, K::kBegin, N::kWalRotate), 0u);
  // The durable engine remaps every segment it saves.
  EXPECT_GT(CountEvents(snap, K::kBegin, N::kPagerMap), 0u);
  std::string err;
  EXPECT_TRUE(ValidateTraceSnapshot(snap, &err)) << err;
  // The export pipeline accepts what the engine produced.
  const std::string bytes = SerializeTraceSnapshot(snap);
  TraceSnapshot back;
  ASSERT_TRUE(ParseTraceSnapshot(bytes.data(), bytes.size(), &back));
  EXPECT_EQ(back.events.size(), snap.events.size());
}

}  // namespace
}  // namespace wt::obs
