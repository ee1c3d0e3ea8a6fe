// The traced run's per-layer readout by replay: the public calls of each
// layer under the daemon — engine snapshot, the monolithic api
// Sequence<Static> (the floor the sharded engine could reach), the core
// WaveletTrie walk, the codec, and RRR bitvectors — timed on the
// workload's own op stream at the batch size the server was observed to
// coalesce. Each kind of call runs once to warm (up to a time budget,
// which fixes how many calls the kind gets), once timed with no spans,
// then its first kSpannedCalls calls run again with one bench span around
// each, so spans never inflate the timed numbers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bitvector/rrr.hpp"
#include "engine/engine.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "util/entropy.hpp"
#include "workload.hpp"

namespace wtbench {

using Engine = wtrie::Engine<wt::ByteCodec>;

inline constexpr size_t kSpannedCalls = 256;
inline constexpr uint64_t kWarmBudgetNs = 100'000'000;

/// Runs call(i) for i < calls — warm (stopping early once the budget is
/// spent), timed over the calls the warm pass reached, then spanned.
/// Returns ns per item, each call covering `items_per_call` items.
template <typename Call>
double TimeCalls(SpanLog& spans, const char* span_name, uint64_t parent,
                 size_t calls, size_t items_per_call, Call&& call) {
  const uint64_t warm0 = wt::obs::NowNanos();
  size_t n = 0;
  while (n < calls && (n < 8 || wt::obs::NowNanos() - warm0 < kWarmBudgetNs)) {
    call(n++);
  }
  const uint64_t t0 = wt::obs::NowNanos();
  for (size_t i = 0; i < n; ++i) call(i);
  const double ns =
      double(wt::obs::NowNanos() - t0) / double(n * items_per_call);
  for (size_t i = 0; i < std::min(n, kSpannedCalls); ++i) {
    ScopedBenchSpan span(spans, span_name, parent);
    call(i);
  }
  return ns;
}

/// A 2^24-bit RRR vector with ones at the given density.
inline wt::Rrr RandomRrr(double density, uint64_t seed) {
  constexpr size_t kBits = size_t{1} << 24;
  std::vector<uint64_t> words(kBits / 64, 0);
  std::mt19937_64 rng(seed);
  if (density == 0.5) {
    for (uint64_t& w : words) w = rng();
  } else {
    std::geometric_distribution<size_t> gap(density);
    for (size_t pos = gap(rng); pos < kBits; pos += gap(rng) + 1) {
      words[pos / 64] |= uint64_t{1} << (pos % 64);
    }
  }
  return wt::Rrr(words.data(), kBits);
}

/// Volatile sink so timed calls are not optimized away.
inline volatile uint64_t g_sink = 0;

inline void ReplayLayers(const Workload& w, const Oracle& oracle,
                         const Engine& engine, size_t batch, uint64_t seed,
                         SpanLog& spans, uint64_t parent, Report* out) {
  const ReplayStream& rs = w.replay;
  batch = std::clamp<size_t>(batch, 1, 1024);
  const size_t calls = rs.positions.size() / batch;
  std::vector<std::vector<size_t>> pos(calls), rank_pos(calls), sel_k(calls);
  std::vector<std::vector<std::string>> rank_val(calls), sel_val(calls);
  for (size_t c = 0; c < calls; ++c) {
    for (size_t i = c * batch; i < (c + 1) * batch; ++i) {
      pos[c].push_back(rs.positions[i]);
      rank_val[c].push_back(w.values[rs.rank_value[i % rs.rank_value.size()]]);
      rank_pos[c].push_back(rs.rank_pos[i % rs.rank_pos.size()]);
      sel_val[c].push_back(
          w.values[rs.select_value[i % rs.select_value.size()]]);
      sel_k[c].push_back(rs.select_k[i % rs.select_k.size()]);
    }
  }
  const Engine::SnapshotT snap = engine.GetSnapshot();
  uint64_t sink = 0;

  // engine: the daemon's read path minus the network.
  out->Add("engine.access_ns_per_item",
           TimeCalls(spans, "engine.access_batch", parent, calls, batch,
                     [&](size_t c) {
                       sink += snap.AccessBatch(pos[c])->size();
                     }),
           "ns");
  constexpr size_t kPins = 20000;
  out->Add("engine.snapshot_pin_ns",
           TimeCalls(spans, "engine.get_snapshot", parent, kPins, 1,
                     [&](size_t) { sink += engine.GetSnapshot().size(); }),
           "ns");
  const double engine_rank = TimeCalls(
      spans, "engine.rank_batch", parent, calls, batch, [&](size_t c) {
        sink += snap.RankBatch(rank_val[c], rank_pos[c])->size();
      });
  out->Add("engine.rank_ns_per_item", engine_rank, "ns");
  const double engine_select = TimeCalls(
      spans, "engine.select_batch", parent, calls, batch, [&](size_t c) {
        sink += snap.SelectBatch(sel_val[c], sel_k[c])->size();
      });
  out->Add("engine.select_ns_per_item", engine_select, "ns");
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> domains(4096);
  for (uint32_t& d : domains) {
    d = std::uniform_int_distribution<uint32_t>(
        0, static_cast<uint32_t>(w.prefixes.size() - 1))(rng);
  }
  out->Add("engine.count_prefix_ns",
           TimeCalls(spans, "engine.count_prefix", parent, domains.size(), 1,
                     [&](size_t i) {
                       sink += snap.CountPrefix(w.prefixes[domains[i]]);
                     }),
           "ns");
  std::vector<uint64_t> ranges(64);
  for (uint64_t& l : ranges) {
    l = std::uniform_int_distribution<uint64_t>(
        0, w.values.size() - kFrequentRange)(rng);
  }
  out->Add("engine.frequent_us",
           TimeCalls(spans, "engine.frequent", parent, ranges.size(), 1,
                     [&](size_t i) {
                       sink += snap.Frequent(ranges[i],
                                             ranges[i] + kFrequentRange,
                                             kFrequentThreshold)
                                   ->size();
                     }) /
               1e3,
           "us");

  // api: one monolithic Sequence<Static> over the same store.
  out->Add("api.access_ns_per_item",
           TimeCalls(spans, "api.access_batch", parent, calls, batch,
                     [&](size_t c) {
                       sink += oracle.AccessBatch(pos[c])->size();
                     }),
           "ns");
  out->Add("api.rank_ns_per_item",
           TimeCalls(spans, "api.rank_batch", parent, calls, batch,
                     [&](size_t c) {
                       sink +=
                           oracle.RankBatch(rank_val[c], rank_pos[c])->size();
                     }),
           "ns");
  const double api_select = TimeCalls(
      spans, "api.select_batch", parent, calls, batch, [&](size_t c) {
        sink += oracle.SelectBatch(sel_val[c], sel_k[c])->size();
      });
  out->Add("api.select_ns_per_item", api_select, "ns");
  out->Add("engine.select_over_api", engine_select / api_select, "ratio");

  // core and codec: the trie walk producing encoded strings, then decode.
  std::vector<wt::BitString> walked;
  out->Add("core.walk_ns_per_item",
           TimeCalls(spans, "core.access_batch", parent, calls, batch,
                     [&](size_t c) {
                       sink += oracle.trie()
                                   .AccessBatch(std::span<const size_t>(pos[c]))
                                   .size();
                     }),
           "ns");
  for (size_t c = 0; c < calls && walked.size() < (size_t{1} << 14); ++c) {
    for (wt::BitString& s :
         oracle.trie().AccessBatch(std::span<const size_t>(pos[c]))) {
      walked.push_back(std::move(s));
    }
  }
  out->Add("codec.decode_ns_per_item",
           TimeCalls(spans, "codec.decode", parent, walked.size(), 1,
                     [&](size_t i) {
                       sink += wt::ByteCodec::Decode(walked[i].Span()).size();
                     }),
           "ns");

  // bitvector: the RRR primitive every trie level ranks into.
  constexpr size_t kProbes = size_t{1} << 16;
  for (const auto& [label, density] :
       {std::pair<const char*, double>{"dense", 0.5}, {"sparse", 0.05}}) {
    const wt::Rrr rrr = RandomRrr(density, seed ^ 0xB17);
    std::vector<size_t> at(kProbes), ks(kProbes);
    for (size_t i = 0; i < kProbes; ++i) {
      at[i] = std::uniform_int_distribution<size_t>(0, rrr.size())(rng);
      ks[i] = std::uniform_int_distribution<size_t>(0, rrr.num_ones() - 1)(rng);
    }
    out->Add(std::string("bitvector.rrr_rank_ns.") + label,
             TimeCalls(spans, "bitvector.rrr_rank", parent, kProbes, 1,
                       [&](size_t i) { sink += rrr.Rank1(at[i]); }),
             "ns");
    out->Add(std::string("bitvector.rrr_select_ns.") + label,
             TimeCalls(spans, "bitvector.rrr_select", parent, kProbes, 1,
                       [&](size_t i) { sink += rrr.Select1(ks[i]); }),
             "ns");
  }
  g_sink = sink;
}

/// Space of the monolithic structure against the paper's bound
/// LB = LT(Sset) + nH0(S) (util/entropy.hpp's SequenceLowerBoundBits,
/// computed from its two terms so the 1M-string sequence is not copied
/// into an ordered map).
inline void ReplaySpace(const Workload& w, const Oracle& oracle,
                        SpanLog& spans, uint64_t parent, Report* out) {
  ScopedBenchSpan span(spans, "api.space", parent);
  const double n = double(w.values.size());
  std::unordered_map<std::string_view, uint64_t> counts;
  for (const std::string& v : w.values) counts[v]++;
  double nh0 = 0;
  std::vector<wt::BitString> distinct;
  distinct.reserve(counts.size());
  for (const auto& [v, c] : counts) {
    nh0 -= double(c) * std::log2(double(c) / n);
    distinct.push_back(wt::ByteCodec::Encode(v));
  }
  const double lb = wt::TrieLowerBoundBits(distinct).total_bits + nh0;
  const double space = double(oracle.SizeInBits());
  out->Add("api.space_bits_per_string", space / n, "bits");
  out->Add("api.lb_bits_per_string", lb / n, "bits");
  out->Add("api.space_over_lb", space / lb, "ratio");
}

/// engine.AppendBatch at the ingest frame size, after answers have been
/// verified (it grows the store).
inline void ReplayAppends(const Workload& w, Engine* engine, SpanLog& spans,
                          uint64_t parent, Report* out) {
  const std::vector<std::string>& src = w.replay.appends;
  constexpr size_t kCalls = 1024;
  std::vector<std::vector<std::string>> batches(kCalls);
  for (size_t c = 0; c < kCalls; ++c) {
    for (size_t i = 0; i < kAppendStrings; ++i) {
      batches[c].push_back(src[(c * kAppendStrings + i) % src.size()]);
    }
  }
  size_t next = 0;
  const double ns = TimeCalls(
      spans, "engine.append_batch", parent, kCalls / 2, kAppendStrings,
      [&](size_t) { (void)engine->AppendBatch(batches[next++ % kCalls]); });
  out->Add("engine.append_ns_per_string", ns, "ns");
}

}  // namespace wtbench
