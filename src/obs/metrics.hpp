// Metrics core for the observability layer (DESIGN.md #12).
//
// Three instrument kinds, all safe to hammer from any thread:
//
//   * Counter   — monotone u64, striped over cache-line-padded relaxed
//                 atomics so concurrent writers on different cores do not
//                 bounce one line. Reads sum the stripes; each stripe is
//                 monotone under read-read coherence, so repeated Value()
//                 calls from one reader never regress.
//   * Gauge     — a single relaxed-atomic i64 (set/add), for
//                 last-writer-wins quantities like queue depth.
//   * Histogram — HDR-style fixed 64-bucket layout: values 0..15 land in
//                 exact unit buckets, everything above in pow-2 octaves
//                 split into 4 sub-buckets (relative error <= 25%), with
//                 bucket 63 as the unbounded overflow. Buckets, count and
//                 sum are relaxed atomics; snapshots are mergeable by
//                 addition and quantile extraction walks the cumulative
//                 rank — tests/obs_test.cpp proves the selected bucket is
//                 exactly the one holding the sorted-vector oracle value.
//
// Everything funnels through a MetricsRegistry: get-or-create by full
// name (labels are embedded in the name string, e.g.
// `wt_engine_memtable_strings{shard="0"}`), pointer-stable for the
// registry's lifetime, so call sites hold raw instrument pointers and the
// hot path is one relaxed RMW — no lookup, no lock. The naming
// convention is `wt_<subsystem>_<metric>_<unit>` (counters end in
// `_total`, durations carry `_us`/`_ms`).
//
// Metrics are telemetry only: no control-plane decision (admission
// bounds, EWMA backoff) may read them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace wt::obs {

/// Steady-clock timestamp for instrumentation sites that have no injected
/// MonotonicClock (engine, WAL, pager). Serving-path stages use the
/// server's injected clock instead so ManualClock tests stay deterministic.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Timing pair for duration histograms: `t0 = TimerStart();` ... and
/// later `hist->Record(ElapsedUs(t0))`.
inline uint64_t TimerStart() { return NowNanos(); }
inline uint64_t ElapsedUs(uint64_t t0) { return (NowNanos() - t0) / 1000; }
inline uint64_t ElapsedMs(uint64_t t0) { return (NowNanos() - t0) / 1000000; }

namespace detail {
/// Stripe index for the calling thread: threads round-robin onto stripes
/// at first use, so any fixed set of hot threads spreads evenly without
/// hashing a thread::id per operation.
inline size_t ThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}
}  // namespace detail

/// Monotone counter, striped to keep concurrent increments off one cache
/// line. Value() is a sum of relaxed loads: not a linearizable snapshot,
/// but monotone per reader, which is the contract exposition needs.
class Counter {
 public:
  static constexpr size_t kStripes = 8;

  void Add(uint64_t n) {
    stripes_[detail::ThreadStripe() & (kStripes - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  std::array<Stripe, kStripes> stripes_{};
};

/// Last-writer-wins signed gauge (queue depths, byte totals, ages).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

inline constexpr size_t kHistogramBuckets = 64;

/// Bucket index for a recorded value. 0..15 are exact unit buckets; above
/// that, octave e = floor(log2 v) >= 4 contributes 4 sub-buckets keyed by
/// the two bits below the leading one, so bucket widths scale with the
/// value (<= 25% relative error). Everything >= 57344 shares overflow
/// bucket 63.
constexpr size_t HistogramBucketOf(uint64_t v) {
  if (v < 16) return static_cast<size_t>(v);
  const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
  if (e > 15) return kHistogramBuckets - 1;
  const size_t sub = static_cast<size_t>((v >> (e - 2)) & 3);
  const size_t idx = 16 + static_cast<size_t>(e - 4) * 4 + sub;
  return idx < kHistogramBuckets ? idx : kHistogramBuckets - 1;
}

/// Inclusive lower bound of bucket i.
constexpr uint64_t HistogramBucketLowerBound(size_t i) {
  if (i < 16) return static_cast<uint64_t>(i);
  const unsigned e = static_cast<unsigned>((i - 16) / 4) + 4;
  const uint64_t sub = static_cast<uint64_t>((i - 16) % 4);
  return (uint64_t{1} << e) + sub * (uint64_t{1} << (e - 2));
}

/// Inclusive upper bound of bucket i; the overflow bucket is unbounded.
constexpr uint64_t HistogramBucketUpperBound(size_t i) {
  if (i < 16) return static_cast<uint64_t>(i);
  if (i >= kHistogramBuckets - 1) return UINT64_MAX;
  return HistogramBucketLowerBound(i + 1) - 1;
}

/// Point-in-time copy of one histogram: plain integers, mergeable by
/// addition, and the unit the snapshot wire format carries.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  void Merge(const HistogramSnapshot& o) {
    count += o.count;
    sum += o.sum;
    max = std::max(max, o.max);
    for (size_t i = 0; i < kHistogramBuckets; ++i) buckets[i] += o.buckets[i];
  }

  /// Index of the bucket holding the rank-ceil(q*count) sample — exactly
  /// the bucket a sorted vector's quantile element was recorded into,
  /// because bucketing is monotone in the value. kHistogramBuckets when
  /// empty.
  size_t QuantileBucket(double q) const {
    if (count == 0) return kHistogramBuckets;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank < 1) rank = 1;
    if (rank > count) rank = count;
    uint64_t cum = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      cum += buckets[i];
      if (cum >= rank) return i;
    }
    return kHistogramBuckets - 1;
  }

  /// Reported quantile value: exact for unit buckets, otherwise the
  /// bucket's upper bound (a <= 25% over-estimate) clamped to the recorded
  /// max, so no quantile exceeds a value that was actually seen. The
  /// result never drops below the bucket's lower bound: a live snapshot
  /// can count a new top sample before it sees the max that sample
  /// raised. 0 when empty.
  uint64_t Quantile(double q) const {
    const size_t b = QuantileBucket(q);
    if (b >= kHistogramBuckets) return 0;
    if (b < 16) return static_cast<uint64_t>(b);
    return std::max(HistogramBucketLowerBound(b),
                    std::min(HistogramBucketUpperBound(b), max));
  }

  uint64_t Mean() const { return count == 0 ? 0 : sum / count; }
};

/// Stack-local accumulator for hot loops: gather a dispatch batch's
/// samples with plain integer arithmetic, then publish them with ONE
/// atomic merge per touched bucket (Histogram::Record(batch)) instead of
/// three shared RMWs per sample. The serving dispatcher uses this for the
/// per-request stage samples — the difference between per-request and
/// per-batch atomics is most of the observability overhead budget.
class HistogramBatch {
 public:
  void Add(uint64_t v) {
    counts_[HistogramBucketOf(v)]++;
    ++n_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  bool Empty() const { return n_ == 0; }

 private:
  friend class Histogram;
  std::array<uint32_t, kHistogramBuckets> counts_{};
  uint64_t n_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

/// Concurrent latency/size histogram. Record() is three relaxed RMWs plus
/// a racy max update; Snap() reads are not mutually consistent across
/// fields (count may lead sum by an in-flight Record), which exposition
/// tolerates and the TSan test pins as the contract.
class Histogram {
 public:
  void Record(uint64_t v) {
    buckets_[HistogramBucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Merges a whole accumulated batch. Same relaxed-atomic contract as
  /// the per-sample Record, amortized across the batch.
  void Record(const HistogramBatch& b) {
    if (b.n_ == 0) return;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      if (b.counts_[i] != 0) {
        buckets_[i].fetch_add(b.counts_[i], std::memory_order_relaxed);
      }
    }
    count_.fetch_add(b.n_, std::memory_order_relaxed);
    sum_.fetch_add(b.sum_, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (b.max_ > cur && !max_.compare_exchange_weak(
                               cur, b.max_, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snap() const {
    HistogramSnapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Everything a registry knows at one instant, sorted by name per kind.
/// This is the in-memory form of the snapshot wire format (snapshot.hpp)
/// and what the text exposition renders.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  size_t MetricCount() const {
    return counters.size() + gauges.size() + histograms.size();
  }

  const uint64_t* FindCounter(std::string_view name) const {
    for (const auto& [n, v] : counters) {
      if (n == name) return &v;
    }
    return nullptr;
  }
  const int64_t* FindGauge(std::string_view name) const {
    for (const auto& [n, v] : gauges) {
      if (n == name) return &v;
    }
    return nullptr;
  }
  const HistogramSnapshot* FindHistogram(std::string_view name) const {
    for (const auto& [n, v] : histograms) {
      if (n == name) return &v;
    }
    return nullptr;
  }
};

/// Get-or-create instrument registry. Registration takes the lock (it
/// happens at construction time, not per operation); the returned
/// pointers are stable for the registry's lifetime, so hot paths cache
/// them and never touch the registry again.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name) WT_EXCLUDES(mu_) {
    wt::MutexLock lock(mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return it->second;
    counter_storage_.emplace_back();
    Named<Counter>& slot = counter_storage_.back();
    slot.name = name;
    counters_.emplace(name, &slot.instrument);
    return &slot.instrument;
  }

  Gauge* GetGauge(const std::string& name) WT_EXCLUDES(mu_) {
    wt::MutexLock lock(mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return it->second;
    gauge_storage_.emplace_back();
    Named<Gauge>& slot = gauge_storage_.back();
    slot.name = name;
    gauges_.emplace(name, &slot.instrument);
    return &slot.instrument;
  }

  Histogram* GetHistogram(const std::string& name) WT_EXCLUDES(mu_) {
    wt::MutexLock lock(mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
    histogram_storage_.emplace_back();
    Named<Histogram>& slot = histogram_storage_.back();
    slot.name = name;
    histograms_.emplace(name, &slot.instrument);
    return &slot.instrument;
  }

  MetricsSnapshot Snapshot() const WT_EXCLUDES(mu_) {
    MetricsSnapshot s;
    {
      wt::MutexLock lock(mu_);
      s.counters.reserve(counter_storage_.size());
      for (const Named<Counter>& n : counter_storage_) {
        s.counters.emplace_back(n.name, n.instrument.Value());
      }
      s.gauges.reserve(gauge_storage_.size());
      for (const Named<Gauge>& n : gauge_storage_) {
        s.gauges.emplace_back(n.name, n.instrument.Value());
      }
      s.histograms.reserve(histogram_storage_.size());
      for (const Named<Histogram>& n : histogram_storage_) {
        s.histograms.emplace_back(n.name, n.instrument.Snap());
      }
    }
    auto by_name = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    std::sort(s.counters.begin(), s.counters.end(), by_name);
    std::sort(s.gauges.begin(), s.gauges.end(), by_name);
    std::sort(s.histograms.begin(), s.histograms.end(), by_name);
    return s;
  }

 private:
  template <typename T>
  struct Named {
    std::string name;
    T instrument;
  };

  mutable wt::Mutex mu_;
  // Deques for pointer stability across growth; the maps are just the
  // get-or-create index.
  std::deque<Named<Counter>> counter_storage_ WT_GUARDED_BY(mu_);
  std::deque<Named<Gauge>> gauge_storage_ WT_GUARDED_BY(mu_);
  std::deque<Named<Histogram>> histogram_storage_ WT_GUARDED_BY(mu_);
  std::unordered_map<std::string, Counter*> counters_ WT_GUARDED_BY(mu_);
  std::unordered_map<std::string, Gauge*> gauges_ WT_GUARDED_BY(mu_);
  std::unordered_map<std::string, Histogram*> histograms_ WT_GUARDED_BY(mu_);
};

}  // namespace wt::obs
