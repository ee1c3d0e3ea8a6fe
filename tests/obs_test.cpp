// Tests for the observability core (src/obs/, DESIGN.md #12):
//   * bucket map: monotone, bounds self-consistent, <=25% relative error;
//   * histogram quantiles differentially against a sorted-vector oracle —
//     the selected bucket must be EXACTLY the bucket holding the oracle's
//     rank element, including the empty / single-sample / overflow
//     edges — and every reported quantile is monotone in q, never above
//     the recorded max, and never below its bucket when max lags it;
//   * counters and the registry under concurrency (runs under TSan in
//     CI): values exact after join, monotone across live snapshots;
//   * snapshot wire format: round trip, then an exhaustive one-byte
//     corruption sweep — every flip must be rejected (checksum or header
//     validation), and truncations never over-read;
//   * text exposition name splicing (suffix + label merge).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace wt::obs {
namespace {

TEST(HistogramBuckets, BoundsAreConsistentAndMonotone) {
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(HistogramBucketOf(HistogramBucketLowerBound(i)), i) << i;
    if (i + 1 < kHistogramBuckets) {
      EXPECT_EQ(HistogramBucketOf(HistogramBucketUpperBound(i)), i) << i;
      EXPECT_EQ(HistogramBucketUpperBound(i) + 1,
                HistogramBucketLowerBound(i + 1))
          << i;
    }
  }
  EXPECT_EQ(HistogramBucketOf(UINT64_MAX), kHistogramBuckets - 1);
  size_t prev = 0;
  for (uint64_t v = 0; v < 300000; v += 11) {
    const size_t b = HistogramBucketOf(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
  // The advertised accuracy: below the overflow bucket, a bucket's width
  // is at most a quarter of its lower bound.
  for (size_t i = 16; i + 1 < kHistogramBuckets; ++i) {
    const uint64_t lo = HistogramBucketLowerBound(i);
    const uint64_t hi = HistogramBucketUpperBound(i);
    EXPECT_LE(hi - lo + 1, lo / 4 + 1) << i;
  }
}

// The oracle contract: for any recorded multiset and any q, the histogram
// must select exactly the bucket the sorted vector's rank-ceil(q*n)
// element was recorded into. Bucketing is monotone in the value, so this
// is achievable — and any off-by-one in the cumulative walk breaks it.
// The reported value must also lie in [oracle, max] and be monotone in q.
// Small multisets drawn from one range put the max inside a bounded
// bucket, where an unclamped upper bound would overshoot it.
TEST(Histogram, QuantilesMatchSortedOracle) {
  std::mt19937_64 rng(12345);
  const uint64_t kRanges[] = {16, 1024, 300000, uint64_t{1} << 40};
  for (int trial = 0; trial < 200; ++trial) {
    // Trial 0: 5000 samples mixing every range; later trials: 1..64
    // samples from one range.
    const size_t n = trial == 0 ? 5000 : 1 + rng() % 64;
    const uint64_t one_range = kRanges[rng() % 4];
    std::vector<uint64_t> vals;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t range = trial == 0 ? kRanges[rng() % 4] : one_range;
      vals.push_back(rng() % range);
    }
    Histogram h;
    for (uint64_t v : vals) h.Record(v);
    const HistogramSnapshot s = h.Snap();
    ASSERT_EQ(s.count, vals.size());

    std::vector<uint64_t> sorted = vals;
    std::sort(sorted.begin(), sorted.end());
    uint64_t prev = 0;
    for (double q : {0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      uint64_t rank = static_cast<uint64_t>(
          std::ceil(q * static_cast<double>(sorted.size())));
      rank = std::min<uint64_t>(std::max<uint64_t>(rank, 1), sorted.size());
      const uint64_t oracle = sorted[rank - 1];
      const size_t b = s.QuantileBucket(q);
      ASSERT_EQ(b, HistogramBucketOf(oracle)) << "trial=" << trial
                                              << " q=" << q;
      // And the reported value brackets the oracle within the bucket's
      // advertised error.
      EXPECT_GE(oracle, HistogramBucketLowerBound(b)) << "q=" << q;
      EXPECT_LE(oracle, HistogramBucketUpperBound(b)) << "q=" << q;
      const uint64_t got = s.Quantile(q);
      if (b < 16) EXPECT_EQ(got, oracle);  // unit buckets are exact
      EXPECT_GE(got, oracle) << "trial=" << trial << " q=" << q;
      EXPECT_LE(got, s.max) << "trial=" << trial << " q=" << q;
      EXPECT_GE(got, prev) << "trial=" << trial << " q=" << q;  // monotone
      prev = got;
    }
  }
}

TEST(Histogram, EmptySingleAndOverflowEdges) {
  Histogram h;
  const HistogramSnapshot empty = h.Snap();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.QuantileBucket(0.5), kHistogramBuckets);
  EXPECT_EQ(empty.Quantile(0.99), 0u);
  EXPECT_EQ(empty.Mean(), 0u);

  h.Record(7);
  const HistogramSnapshot one = h.Snap();
  EXPECT_EQ(one.count, 1u);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(one.Quantile(q), 7u);  // a unit bucket reports exactly
  }
  EXPECT_EQ(one.max, 7u);
  EXPECT_EQ(one.Mean(), 7u);

  // A single sample in a bounded bucket: 512 lands in [512, 639], and the
  // reported quantile is clamped to the recorded max, not the bucket's
  // upper bound (a value never seen).
  Histogram b;
  b.Record(512);
  const HistogramSnapshot bs = b.Snap();
  for (double q : {0.5, 0.99, 1.0}) EXPECT_EQ(bs.Quantile(q), 512u) << q;

  // Overflow bucket: every sample >= 57344 shares bucket 63, and the
  // reported quantile there is the recorded max (the honest upper bound).
  Histogram of;
  of.Record(1000000);
  of.Record(2000000);
  const HistogramSnapshot o = of.Snap();
  EXPECT_EQ(o.QuantileBucket(0.5), kHistogramBuckets - 1);
  EXPECT_EQ(o.Quantile(0.5), 2000000u);
  EXPECT_EQ(o.Quantile(1.0), 2000000u);

  // Stale max: Snap() reads max before the buckets and Record() bumps the
  // bucket before raising max, so a live snapshot can hold a top sample
  // whose max it has not seen yet. The clamp must not pull the answer
  // below the bucket that sample landed in.
  HistogramSnapshot s;
  s.count = 2;
  s.buckets[HistogramBucketOf(20)] = 1;
  s.buckets[HistogramBucketOf(600)] = 1;  // [512, 639]
  s.max = 20;                             // before the 600 raised it
  EXPECT_EQ(s.Quantile(0.5), 20u);
  EXPECT_EQ(s.Quantile(0.99), 512u);

  s.buckets[HistogramBucketOf(600)] = 0;
  s.buckets[kHistogramBuckets - 1] = 1;  // an overflow sample, same race
  EXPECT_EQ(s.Quantile(0.99),
            HistogramBucketLowerBound(kHistogramBuckets - 1));
}

TEST(Histogram, MergeEqualsRecordingTheUnion) {
  std::mt19937_64 rng(7);
  Histogram a, b, all;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng() % 100000;
    ((i % 2) == 0 ? a : b).Record(v);
    all.Record(v);
  }
  HistogramSnapshot merged = a.Snap();
  merged.Merge(b.Snap());
  const HistogramSnapshot want = all.Snap();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.sum, want.sum);
  EXPECT_EQ(merged.max, want.max);
  EXPECT_EQ(merged.buckets, want.buckets);
}

TEST(Counter, ExactUnderConcurrentWriters) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : ts) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(Registry, GetOrCreateIsPointerStable) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("wt_x_total");
  // Force storage growth, then re-look-up: same instrument.
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("wt_churn_" + std::to_string(i) + "_total");
  }
  EXPECT_EQ(reg.GetCounter("wt_x_total"), a);
  a->Add(3);
  const MetricsSnapshot s = reg.Snapshot();
  const uint64_t* v = s.FindCounter("wt_x_total");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 3u);
  EXPECT_TRUE(std::is_sorted(
      s.counters.begin(), s.counters.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
}

// The TSan contract: writers hammer all three instrument kinds while a
// reader snapshots — no data race, and a counter observed across
// successive snapshots never regresses (striped relaxed loads are
// monotone per reader).
TEST(Registry, SnapshotsAreMonotoneUnderConcurrentWrites) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("wt_test_ops_total");
  Gauge* g = reg.GetGauge("wt_test_depth");
  Histogram* h = reg.GetHistogram("wt_test_lat_us");
  constexpr int kWriters = 4;
  constexpr uint64_t kOps = 50000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kWriters; ++t) {
    ts.emplace_back([&, t] {
      for (uint64_t i = 0; i < kOps; ++i) {
        c->Increment();
        g->Set(static_cast<int64_t>(i));
        h->Record((i * 37 + static_cast<uint64_t>(t)) % 100000);
      }
    });
  }
  uint64_t prev_count = 0, prev_hist = 0;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot s = reg.Snapshot();
    const uint64_t* cv = s.FindCounter("wt_test_ops_total");
    const HistogramSnapshot* hv = s.FindHistogram("wt_test_lat_us");
    ASSERT_NE(cv, nullptr);
    ASSERT_NE(hv, nullptr);
    EXPECT_GE(*cv, prev_count);
    EXPECT_GE(hv->count, prev_hist);
    prev_count = *cv;
    prev_hist = hv->count;
  }
  for (std::thread& t : ts) t.join();
  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(*s.FindCounter("wt_test_ops_total"), kWriters * kOps);
  EXPECT_EQ(s.FindHistogram("wt_test_lat_us")->count, kWriters * kOps);
}

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry reg;
  reg.GetCounter("wt_a_total")->Add(42);
  reg.GetCounter("wt_engine_memtable_strings{shard=\"0\"}")->Add(7);
  reg.GetGauge("wt_depth")->Set(-13);
  Histogram* h = reg.GetHistogram("wt_lat_us");
  for (uint64_t v : {0ull, 3ull, 900ull, 70000ull}) h->Record(v);
  reg.GetHistogram("wt_shard_lat_us{shard=\"1\"}")->Record(5);
  return reg.Snapshot();
}

TEST(SnapshotWire, RoundTripsExactly) {
  const MetricsSnapshot s = SampleSnapshot();
  const std::string bytes = SerializeMetricsSnapshot(s);
  MetricsSnapshot back;
  ASSERT_TRUE(ParseMetricsSnapshot(bytes.data(), bytes.size(), &back));
  EXPECT_EQ(back.counters, s.counters);
  EXPECT_EQ(back.gauges, s.gauges);
  ASSERT_EQ(back.histograms.size(), s.histograms.size());
  for (size_t i = 0; i < s.histograms.size(); ++i) {
    EXPECT_EQ(back.histograms[i].first, s.histograms[i].first);
    EXPECT_EQ(back.histograms[i].second.buckets,
              s.histograms[i].second.buckets);
    EXPECT_EQ(back.histograms[i].second.count, s.histograms[i].second.count);
    EXPECT_EQ(back.histograms[i].second.sum, s.histograms[i].second.sum);
    EXPECT_EQ(back.histograms[i].second.max, s.histograms[i].second.max);
  }
  // Re-serialization is byte-identical: the parse preserved order.
  EXPECT_EQ(SerializeMetricsSnapshot(back), bytes);
}

TEST(SnapshotWire, EveryByteFlipIsRejected) {
  const std::string bytes = SerializeMetricsSnapshot(SampleSnapshot());
  MetricsSnapshot sink;
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    EXPECT_FALSE(ParseMetricsSnapshot(bad.data(), bad.size(), &sink))
        << "flip at byte " << i << " was accepted";
  }
  // Truncations: torn bytes must fail cleanly, never over-read.
  for (size_t len = 0; len < bytes.size(); len += 13) {
    EXPECT_FALSE(ParseMetricsSnapshot(bytes.data(), len, &sink)) << len;
  }
  // Trailing garbage is a format violation, not padding.
  const std::string padded = bytes + std::string(4, '\0');
  EXPECT_FALSE(ParseMetricsSnapshot(padded.data(), padded.size(), &sink));
}

TEST(SnapshotText, NameSplicingAndRendering) {
  EXPECT_EQ(MetricNameWith("wt_lat_us", "_count"), "wt_lat_us_count");
  EXPECT_EQ(MetricNameWith("wt_m{shard=\"0\"}", "_sum"),
            "wt_m_sum{shard=\"0\"}");
  EXPECT_EQ(MetricNameWith("wt_m{shard=\"0\"}", "", "quantile=\"0.5\""),
            "wt_m{shard=\"0\",quantile=\"0.5\"}");
  EXPECT_EQ(MetricNameWith("wt_m", "", "quantile=\"0.99\""),
            "wt_m{quantile=\"0.99\"}");
  const std::string text = RenderPromText(SampleSnapshot());
  EXPECT_NE(text.find("wt_a_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("wt_depth -13\n"), std::string::npos);
  EXPECT_NE(text.find("wt_lat_us_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("wt_lat_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("wt_engine_memtable_strings{shard=\"0\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("wt_shard_lat_us_count{shard=\"1\"} 1\n"),
            std::string::npos)
      << "labeled histogram names must splice suffixes before the brace";
}

}  // namespace
}  // namespace wt::obs
