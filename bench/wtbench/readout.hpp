// Reading the daemon's own instruments: kMetrics snapshots taken at phase
// boundaries and turned into per-phase numbers.
//
// Three rules keep the derived numbers honest:
//   * a counter's delta between two snapshots never goes negative — a
//     counter that moved backwards (a restarted registry) reads as 0, not
//     as a 2^64 wrap;
//   * a histogram's mean is sum/count of the delta, never a bucket
//     midpoint estimate;
//   * a quantile is clamped to the recorded max. HistogramSnapshot::
//     Quantile reports the holding bucket's upper bound, which can exceed
//     every value recorded (512 recorded, 639 reported). A phase delta
//     cannot subtract maxima, so the later snapshot's max — an upper bound
//     on the phase's — is the clamp.
// SelfTest() checks all three on synthetic snapshots (`wtbench --selftest`).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace wtbench {

using wt::obs::HistogramSnapshot;
using wt::obs::MetricsSnapshot;

inline uint64_t CounterDelta(const MetricsSnapshot& before,
                             const MetricsSnapshot& after,
                             std::string_view name) {
  const uint64_t* a = before.FindCounter(name);
  const uint64_t* b = after.FindCounter(name);
  const uint64_t va = a == nullptr ? 0 : *a;
  const uint64_t vb = b == nullptr ? 0 : *b;
  return vb > va ? vb - va : 0;
}

inline int64_t GaugeValue(const MetricsSnapshot& s, std::string_view name) {
  const int64_t* g = s.FindGauge(name);
  return g == nullptr ? 0 : *g;
}

inline HistogramSnapshot HistogramDelta(const MetricsSnapshot& before,
                                        const MetricsSnapshot& after,
                                        std::string_view name) {
  HistogramSnapshot out;
  const HistogramSnapshot* b = after.FindHistogram(name);
  if (b == nullptr) return out;
  out = *b;
  const HistogramSnapshot* a = before.FindHistogram(name);
  if (a == nullptr) return out;
  auto sub = [](uint64_t x, uint64_t y) { return x > y ? x - y : 0; };
  out.count = sub(out.count, a->count);
  out.sum = sub(out.sum, a->sum);
  for (size_t i = 0; i < out.buckets.size(); ++i) {
    out.buckets[i] = sub(out.buckets[i], a->buckets[i]);
  }
  return out;
}

/// Adds the counter and histogram deltas between two snapshots into *sum,
/// so several separate phases read as one (gauges are not additive and
/// are left out).
inline void AccumulateDelta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after,
                            MetricsSnapshot* sum) {
  for (const auto& [name, value] : after.counters) {
    const uint64_t d = CounterDelta(before, after, name);
    auto it = std::find_if(sum->counters.begin(), sum->counters.end(),
                           [&](const auto& c) { return c.first == name; });
    if (it == sum->counters.end()) {
      sum->counters.emplace_back(name, d);
    } else {
      it->second += d;
    }
  }
  for (const auto& [name, h] : after.histograms) {
    const HistogramSnapshot d = HistogramDelta(before, after, name);
    auto it = std::find_if(sum->histograms.begin(), sum->histograms.end(),
                           [&](const auto& e) { return e.first == name; });
    if (it == sum->histograms.end()) {
      sum->histograms.emplace_back(name, d);
    } else {
      it->second.Merge(d);
    }
  }
}

inline double Mean(const HistogramSnapshot& h) {
  return h.count == 0 ? 0.0 : double(h.sum) / double(h.count);
}

inline uint64_t ClampedQuantile(const HistogramSnapshot& h, double q) {
  return std::min(h.Quantile(q), h.max);
}

inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

/// Round-trips registry snapshots through the kMetrics wire format and
/// checks the three readout rules. Returns false with *why set on failure.
inline bool SelfTest(std::string* why) {
  auto wire = [](const wt::obs::MetricsRegistry& r) {
    const std::string bytes = wt::obs::SerializeMetricsSnapshot(r.Snapshot());
    MetricsSnapshot s;
    const bool ok =
        wt::obs::ParseMetricsSnapshot(bytes.data(), bytes.size(), &s);
    return std::make_pair(ok, s);
  };
  wt::obs::MetricsRegistry reg;
  wt::obs::Counter* c = reg.GetCounter("c_total");
  wt::obs::Histogram* h = reg.GetHistogram("h_us");
  c->Add(10);
  h->Record(100);
  const auto [ok0, s0] = wire(reg);
  c->Add(15);
  h->Record(200);
  h->Record(300);
  const auto [ok1, s1] = wire(reg);
  if (!ok0 || !ok1) {
    *why = "kMetrics wire round trip failed";
    return false;
  }
  if (CounterDelta(s0, s1, "c_total") != 15) {
    *why = "counter delta is not the difference";
    return false;
  }
  // A counter seen going backwards (a fresh registry) must not wrap.
  if (CounterDelta(s1, s0, "c_total") != 0 ||
      CounterDelta(s1, MetricsSnapshot{}, "c_total") != 0) {
    *why = "counter delta went negative";
    return false;
  }
  if (CounterDelta(MetricsSnapshot{}, s1, "c_total") != 25) {
    *why = "counter delta from an empty snapshot is not the value";
    return false;
  }
  const HistogramSnapshot d = HistogramDelta(s0, s1, "h_us");
  // 200 and 300 land in buckets whose bounds are not 250: only sum/count
  // gives the exact mean.
  if (d.count != 2 || d.sum != 500 || Mean(d) != 250.0) {
    *why = "histogram delta mean is not sum/count";
    return false;
  }
  // Two phases summed read as the span covering both.
  MetricsSnapshot sum;
  AccumulateDelta(MetricsSnapshot{}, s0, &sum);
  AccumulateDelta(s0, s1, &sum);
  if (CounterDelta({}, sum, "c_total") != 25 ||
      HistogramDelta({}, sum, "h_us").sum != 600) {
    *why = "accumulated phase deltas do not add up";
    return false;
  }
  wt::obs::MetricsRegistry clamp_reg;
  wt::obs::Histogram* q = clamp_reg.GetHistogram("q");
  for (int i = 0; i < 100; ++i) q->Record(512);
  const HistogramSnapshot qs = clamp_reg.Snapshot().histograms.at(0).second;
  if (qs.Quantile(0.99) <= qs.max) {
    *why = "fixture no longer shows a quantile above the max";
    return false;
  }
  if (ClampedQuantile(qs, 0.99) != 512 || ClampedQuantile(qs, 0.5) != 512) {
    *why = "quantile not clamped to the recorded max";
    return false;
  }
  if (ClampedQuantile(HistogramSnapshot{}, 0.99) != 0 || Mean({}) != 0) {
    *why = "empty histogram does not read as 0";
    return false;
  }
  return true;
}

}  // namespace wtbench
