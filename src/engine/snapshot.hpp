// Engine snapshots: consistent, lock-free reads over the sharded segment
// stacks (DESIGN.md #7).
//
// GetSnapshot() grabs each shard's published ShardView (one shared_ptr
// copy per shard) and derives the largest *consistent global prefix* those
// views cover. Strings are placed round-robin — global
// position g lives at local position g / N of shard g % N — so a shard
// holding f_s frozen strings covers globals s, s+N, ..., s+(f_s-1)·N, and
// the visible prefix is
//
//   G = min over shards of (f_s · N + s),
//
// the first global position some shard has not yet frozen. Queries clamp
// to G: every read observes exactly the first G appended strings, however
// far individual shards have raced ahead, and the snapshot stays pinned to
// that prefix for its lifetime (the shared_ptrs keep the segments alive
// across concurrent freezes and compactions).
//
// Memtable contents are intentionally *not* readable: a snapshot only sees
// frozen segments, so readers never synchronize with the ingest path at
// all. Engine::Flush() freezes the memtables when read-your-writes is
// needed (tests and the bench gate do exactly that).
//
// Cross-shard stitching:
//   * Access(g)     — one shard, one segment;
//   * Rank(v, p)    — sum of per-shard ranks at per-shard prefix lengths;
//   * Select(v, k)  — binary search on the global position whose rank
//     reaches k+1 (each probe is one cross-shard rank);
//   * Section 5 analytics — the global range decomposes into per-segment
//     parts; candidates found per part (majority / frequent prune) are
//     verified with exact cross-shard counts, and distinct-value counts
//     merge additively.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "api/cursor.hpp"
#include "api/result.hpp"
#include "api/sequence.hpp"
#include "engine/recovery_invariants.hpp"
#include "engine/segment_stack.hpp"

namespace wtrie::engine {
// RoundRobinCount lives in engine/recovery_invariants.hpp: the placement
// rule is shared between query decomposition here and recovery's
// consistency check.

/// The immutable state one snapshot pins: shard views plus the visible
/// prefix derived from them.
template <typename Codec>
struct EngineView {
  std::vector<std::shared_ptr<const ShardView<Codec>>> shards;
  uint64_t visible = 0;  // G: queries answer over global positions [0, G)
  Codec codec;
};

template <typename Codec>
class Snapshot {
 public:
  using Value = typename Codec::Value;

  static constexpr bool kHasPrefixCodec =
      Sequence<Static, Codec>::kHasPrefixCodec;

  explicit Snapshot(std::shared_ptr<const EngineView<Codec>> view)
      : view_(std::move(view)) {}

  /// Strings this snapshot observes (the consistent prefix G).
  uint64_t size() const { return view_->visible; }
  bool empty() const { return view_->visible == 0; }

  /// Frozen segments across all shards (diagnostics).
  size_t NumSegments() const {
    size_t n = 0;
    for (const auto& sh : view_->shards) n += sh->segments.size();
    return n;
  }

  // --------------------------------------------------------- point queries

  /// The value at global position pos (paper: Access).
  Result<Value> Access(uint64_t pos) const {
    if (pos >= size()) {
      return Status::Error(ErrorCode::kOutOfRange, "Access: pos >= size()");
    }
    const size_t s = ShardOf(pos);
    return view_->codec.Decode(
        view_->shards[s]->AccessEncoded(pos / NumShards()).Span());
  }

  /// Occurrences of v in global positions [0, pos) (paper: Rank).
  Result<uint64_t> Rank(const Value& v, uint64_t pos) const {
    if (pos > size()) {
      return Status::Error(ErrorCode::kOutOfRange, "Rank: pos > size()");
    }
    return RankEncoded(view_->codec.Encode(v).Span(), pos);
  }

  /// Global position of the (idx+1)-th occurrence of v (paper: Select).
  Result<uint64_t> Select(const Value& v, uint64_t idx) const {
    const wt::BitString enc = view_->codec.Encode(v);
    const auto pos = SelectEncoded(enc.Span(), idx);
    if (!pos) {
      return Status::Error(ErrorCode::kNotFound,
                           "Select: fewer than idx+1 occurrences");
    }
    return *pos;
  }

  /// Total occurrences of v in the snapshot.
  uint64_t Count(const Value& v) const {
    return RankEncoded(view_->codec.Encode(v).Span(), size());
  }

  /// Occurrences of v in [l, r).
  Result<uint64_t> RangeCount(const Value& v, uint64_t l, uint64_t r) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    const wt::BitString enc = view_->codec.Encode(v);
    return RankEncoded(enc.Span(), r) - RankEncoded(enc.Span(), l);
  }

  // -------------------------------------------------------- batched queries
  // Positions are routed to their shards, and each shard groups its
  // sub-batch per segment, so every touched segment runs its node-grouped
  // batch traversal (DESIGN.md #6) once per call.

  /// out[i] == Access(positions[i]); any order, duplicates fine.
  Result<std::vector<Value>> AccessBatch(
      const std::vector<uint64_t>& positions) const {
    for (const uint64_t p : positions) {
      if (p >= size()) {
        return Status::Error(ErrorCode::kOutOfRange,
                             "AccessBatch: pos >= size()");
      }
    }
    const size_t num_shards = NumShards();
    std::vector<std::vector<uint64_t>> local(num_shards);
    std::vector<std::vector<size_t>> origin(num_shards);
    for (size_t i = 0; i < positions.size(); ++i) {
      const size_t s = ShardOf(positions[i]);
      local[s].push_back(positions[i] / num_shards);
      origin[s].push_back(i);
    }
    std::vector<Value> out(positions.size());
    for (size_t s = 0; s < num_shards; ++s) {
      if (local[s].empty()) continue;
      std::vector<wt::BitString> part =
          view_->shards[s]->AccessEncodedBatch(local[s]);
      for (size_t j = 0; j < part.size(); ++j) {
        out[origin[s][j]] = view_->codec.Decode(part[j].Span());
      }
    }
    return out;
  }

  /// out[i] == Rank(values[i], positions[i]).
  Result<std::vector<uint64_t>> RankBatch(
      const std::vector<Value>& values,
      const std::vector<uint64_t>& positions) const {
    if (values.size() != positions.size()) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "RankBatch: values/positions length mismatch");
    }
    for (const uint64_t p : positions) {
      if (p > size()) {
        return Status::Error(ErrorCode::kOutOfRange, "RankBatch: pos > size()");
      }
    }
    std::vector<wt::BitString> enc;
    enc.reserve(values.size());
    for (const Value& v : values) enc.push_back(view_->codec.Encode(v));
    std::vector<wt::BitSpan> spans;
    spans.reserve(enc.size());
    for (const auto& e : enc) spans.push_back(e.Span());
    return RankBatchEncoded(
        spans, positions,
        wt::internal::DedupBatch(std::span<const wt::BitSpan>(spans)));
  }

  /// out[i] == Select(values[i], indices[i]), nullopt where the value
  /// occurs fewer than indices[i]+1 times.
  ///
  /// Cross-shard select is a binary search on the global position whose
  /// rank reaches the target; the batch form runs all searches in
  /// *lockstep*, so each of the O(log n) iterations is one cross-shard
  /// RankBatch — every touched segment amortizes its node-grouped
  /// traversal over the whole select batch instead of paying a full
  /// directory walk per query per probe.
  Result<std::vector<std::optional<uint64_t>>> SelectBatch(
      const std::vector<Value>& values,
      const std::vector<uint64_t>& indices) const {
    if (values.size() != indices.size()) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "SelectBatch: values/indices length mismatch");
    }
    const size_t m = values.size();
    std::vector<wt::BitString> enc;
    enc.reserve(m);
    for (const Value& v : values) enc.push_back(view_->codec.Encode(v));
    std::vector<wt::BitSpan> spans;
    spans.reserve(m);
    for (const auto& e : enc) spans.push_back(e.Span());

    std::vector<std::optional<uint64_t>> out(m);
    // One dedup dictionary for the whole search: every lockstep iteration
    // probes with the same strings.
    const wt::internal::BatchDict dict =
        wt::internal::DedupBatch(std::span<const wt::BitSpan>(spans));
    // Totals first: queries asking past the last occurrence drop out.
    std::vector<uint64_t> probe(m, size());
    std::vector<uint64_t> ranks = RankBatchEncoded(spans, probe, dict);
    std::vector<uint64_t> lo(m, 0), hi(m, 0);
    bool any_active = false;
    for (size_t i = 0; i < m; ++i) {
      if (ranks[i] > indices[i]) {
        hi[i] = size() - 1;
        any_active = true;
      } else {
        lo[i] = 1;  // lo > hi marks "not found"
      }
    }
    while (any_active) {
      any_active = false;
      for (size_t i = 0; i < m; ++i) {
        probe[i] = lo[i] < hi[i] ? lo[i] + (hi[i] - lo[i]) / 2 + 1 : 0;
      }
      // One batched cross-shard rank per lockstep iteration. Queries whose
      // search has converged probe position 0 (free: every rank is 0).
      ranks = RankBatchEncoded(spans, probe, dict);
      for (size_t i = 0; i < m; ++i) {
        if (lo[i] >= hi[i]) continue;
        const uint64_t mid = probe[i] - 1;
        if (ranks[i] >= indices[i] + 1) {
          hi[i] = mid;
        } else {
          lo[i] = mid + 1;
        }
        any_active = any_active || lo[i] < hi[i];
      }
    }
    for (size_t i = 0; i < m; ++i) {
      if (lo[i] <= hi[i]) out[i] = lo[i];
    }
    return out;
  }

  // ------------------------------------------------------ prefix operations

  /// Values with prefix p in [0, pos) (paper: RankPrefix).
  Result<uint64_t> RankPrefix(const Value& p, uint64_t pos) const
    requires kHasPrefixCodec
  {
    if (pos > size()) {
      return Status::Error(ErrorCode::kOutOfRange, "RankPrefix: pos > size()");
    }
    return RankPrefixEncoded(view_->codec.EncodePrefix(p).Span(), pos);
  }

  /// Total values with prefix p.
  uint64_t CountPrefix(const Value& p) const
    requires kHasPrefixCodec
  {
    return RankPrefixEncoded(view_->codec.EncodePrefix(p).Span(), size());
  }

  /// Values with prefix p in [l, r).
  Result<uint64_t> RangeCountPrefix(const Value& p, uint64_t l,
                                    uint64_t r) const
    requires kHasPrefixCodec
  {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    const wt::BitString enc = view_->codec.EncodePrefix(p);
    return RankPrefixEncoded(enc.Span(), r) - RankPrefixEncoded(enc.Span(), l);
  }

  /// Global position of the (idx+1)-th value with prefix p.
  Result<uint64_t> SelectPrefix(const Value& p, uint64_t idx) const
    requires kHasPrefixCodec
  {
    const wt::BitString enc = view_->codec.EncodePrefix(p);
    const uint64_t total = RankPrefixEncoded(enc.Span(), size());
    if (idx >= total) {
      return Status::Error(ErrorCode::kNotFound,
                           "SelectPrefix: fewer than idx+1 matches");
    }
    return SelectByRank(
        [this, &enc](uint64_t g) { return RankPrefixEncoded(enc.Span(), g); },
        idx);
  }

  // -------------------------------------------------- Section 5 analytics

  /// The values at global positions [l, r), in order.
  Result<std::vector<Value>> Scan(uint64_t l, uint64_t r) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    std::vector<uint64_t> positions;
    positions.reserve(r - l);
    for (uint64_t g = l; g < r; ++g) positions.push_back(g);
    return AccessBatch(positions);
  }

  /// Distinct values in [l, r) with multiplicities. Entries are ordered by
  /// decoded value (per-segment results merge additively in a map), unlike
  /// Sequence::Distinct's encoded-lexicographic order — same multiset.
  Result<DistinctCursor<Value>> Distinct(uint64_t l, uint64_t r) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    std::map<Value, size_t> merged;
    ForEachShardRange(l, r, [&](const ShardView<Codec>& shard, uint64_t a,
                                uint64_t b) {
      shard.ForEachPart(a, b, [&](size_t, const wt::WaveletTrie& trie,
                                  uint64_t lo, uint64_t hi) {
        trie.DistinctInRange(lo, hi, [&](const wt::BitString& s, size_t c) {
          merged[view_->codec.Decode(s.Span())] += c;
        });
      });
    });
    std::vector<typename DistinctCursor<Value>::Entry> entries;
    entries.reserve(merged.size());
    for (auto& [v, c] : merged) entries.push_back({v, c});
    return DistinctCursor<Value>(std::move(entries));
  }

  /// The value occurring more than (r-l)/2 times in [l, r); kNotFound when
  /// none does. A global majority must be a majority of at least one
  /// segment part (if it held at most half of every part it would hold at
  /// most half of the union), so the parts' majorities are the only
  /// candidates; each is verified with an exact cross-shard count.
  Result<std::pair<Value, uint64_t>> Majority(uint64_t l, uint64_t r) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    std::optional<std::pair<Value, uint64_t>> best;
    ForEachShardRange(l, r, [&](const ShardView<Codec>& shard, uint64_t a,
                                uint64_t b) {
      shard.ForEachPart(a, b, [&](size_t, const wt::WaveletTrie& trie,
                                  uint64_t lo, uint64_t hi) {
        if (best) return;  // already verified a global majority
        auto m = trie.RangeMajority(lo, hi);
        if (!m) return;
        const uint64_t count =
            RankEncoded(m->first.Span(), r) - RankEncoded(m->first.Span(), l);
        if (2 * count > r - l) {
          best = {view_->codec.Decode(m->first.Span()), count};
        }
      });
    });
    if (!best) {
      return Status::Error(ErrorCode::kNotFound, "Majority: no majority");
    }
    return *best;
  }

  /// Values occurring at least `threshold` times in [l, r). A value with t
  /// total occurrences across m parts has >= ceil(t/m) in some part, so
  /// candidates are gathered per part at the reduced threshold and verified
  /// exactly. Entries ordered by decoded value.
  Result<DistinctCursor<Value>> Frequent(uint64_t l, uint64_t r,
                                         uint64_t threshold) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    if (threshold == 0) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "Frequent: threshold must be >= 1");
    }
    size_t num_parts = 0;
    ForEachShardRange(l, r, [&](const ShardView<Codec>& shard, uint64_t a,
                                uint64_t b) {
      shard.ForEachPart(a, b,
                        [&](size_t, const wt::WaveletTrie&, uint64_t,
                            uint64_t) { ++num_parts; });
    });
    const uint64_t part_threshold =
        num_parts == 0 ? threshold
                       : std::max<uint64_t>(
                             1, (threshold + num_parts - 1) / num_parts);
    std::map<Value, uint64_t> candidates;  // value -> verified global count
    ForEachShardRange(l, r, [&](const ShardView<Codec>& shard, uint64_t a,
                                uint64_t b) {
      shard.ForEachPart(a, b, [&](size_t, const wt::WaveletTrie& trie,
                                  uint64_t lo, uint64_t hi) {
        trie.RangeFrequent(
            lo, hi, part_threshold, [&](const wt::BitString& s, size_t) {
              Value v = view_->codec.Decode(s.Span());
              if (candidates.count(v)) return;  // verified once already
              const uint64_t count =
                  RankEncoded(s.Span(), r) - RankEncoded(s.Span(), l);
              if (count >= threshold) candidates[std::move(v)] = count;
            });
      });
    });
    std::vector<typename DistinctCursor<Value>::Entry> entries;
    entries.reserve(candidates.size());
    for (auto& [v, c] : candidates) entries.push_back({v, c});
    return DistinctCursor<Value>(std::move(entries));
  }

  const std::shared_ptr<const EngineView<Codec>>& view() const { return view_; }

 private:
  size_t NumShards() const { return view_->shards.size(); }
  size_t ShardOf(uint64_t g) const { return g % NumShards(); }

  Status CheckRange(uint64_t l, uint64_t r) const {
    if (l > r) {
      return Status::Error(ErrorCode::kInvalidArgument, "range: l > r");
    }
    if (r > size()) {
      return Status::Error(ErrorCode::kOutOfRange, "range: r > size()");
    }
    return Status::Ok();
  }

  /// out[i] = global rank of spans[i] at global prefix pos[i] — one shard
  /// RankBatch per shard, summed per query. The dedup dictionary
  /// (DedupBatch(spans)) is built once by the caller — SelectBatch probes
  /// repeatedly with the same strings — and shared by every shard and
  /// segment.
  std::vector<uint64_t> RankBatchEncoded(
      const std::vector<wt::BitSpan>& spans, const std::vector<uint64_t>& pos,
      const wt::internal::BatchDict& dict) const {
    const size_t num_shards = NumShards();
    std::vector<uint64_t> out(spans.size(), 0);
    std::vector<uint64_t> prefix(spans.size());
    for (size_t s = 0; s < num_shards; ++s) {
      for (size_t i = 0; i < pos.size(); ++i) {
        prefix[i] = RoundRobinCount(pos[i], s, num_shards);
      }
      const std::vector<uint64_t> part =
          view_->shards[s]->RankBatch(spans, prefix, dict);
      for (size_t i = 0; i < part.size(); ++i) out[i] += part[i];
    }
    return out;
  }

  uint64_t RankEncoded(wt::BitSpan enc, uint64_t pos) const {
    uint64_t ones = 0;
    for (size_t s = 0; s < NumShards(); ++s) {
      ones += view_->shards[s]->Rank(enc,
                                     RoundRobinCount(pos, s, NumShards()));
    }
    return ones;
  }

  uint64_t RankPrefixEncoded(wt::BitSpan enc, uint64_t pos) const {
    uint64_t ones = 0;
    for (size_t s = 0; s < NumShards(); ++s) {
      ones += view_->shards[s]->RankPrefix(
          enc, RoundRobinCount(pos, s, NumShards()));
    }
    return ones;
  }

  std::optional<uint64_t> SelectEncoded(wt::BitSpan enc, uint64_t k) const {
    if (RankEncoded(enc, size()) <= k) return std::nullopt;
    return SelectByRank([this, enc](uint64_t g) { return RankEncoded(enc, g); },
                        k);
  }

  /// Smallest global g with rank_fn(g + 1) == k + 1 — the generic select
  /// over any monotone cross-shard rank (exact and prefix alike). The
  /// caller has verified k occurrences exist.
  template <typename RankFn>
  uint64_t SelectByRank(RankFn&& rank_fn, uint64_t k) const {
    uint64_t lo = 0, hi = size() - 1;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (rank_fn(mid + 1) >= k + 1) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  /// Decomposes global range [l, r) into per-shard local ranges and calls
  /// fn(shard_view, local_lo, local_hi) for each non-empty one.
  template <typename Fn>
  void ForEachShardRange(uint64_t l, uint64_t r, Fn&& fn) const {
    for (size_t s = 0; s < NumShards(); ++s) {
      const uint64_t a = RoundRobinCount(l, s, NumShards());
      const uint64_t b = RoundRobinCount(r, s, NumShards());
      if (a < b) fn(*view_->shards[s], a, b);
    }
  }

  std::shared_ptr<const EngineView<Codec>> view_;
};

}  // namespace wtrie::engine
