// ShardView: one shard's immutable stack of frozen segments, with reads
// stitched across segment boundaries (DESIGN.md #7).
//
// A shard's history is a concatenation of `Sequence<Static>` segments in
// freeze order; `cum` is the prefix-sum offset table over their sizes.
// Every operation here takes *local* (per-shard) positions and answers as
// if the stack were one sequence:
//
//   * Access locates the segment by binary search on `cum`;
//   * Rank(p) and RankPrefix(p) sum full-segment counts below the
//     containing segment plus a partial rank inside it (global rank = sum
//     of per-segment ranks);
//   * ForEachPart splits a range into segment-local parts for the Section 5
//     analytics.
//
// There is no Select here: the snapshot answers Select by binary search on
// the global position whose cross-shard rank reaches k+1 (engine/
// snapshot.hpp), so it is stitched across shards, not segments.
//
// Batched forms group queries per segment so each segment's trie runs its
// one-traversal-per-batch fast path (DESIGN.md #6) once per batch.
//
// A ShardView is immutable after construction and published through the
// shard's PublishedPtr; queries on it never synchronize. All methods are
// const and thread-safe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "api/sequence.hpp"
#include "common/assert.hpp"
#include "common/bit_string.hpp"

namespace wtrie::engine {

template <typename Codec>
struct ShardView {
  using Segment = Sequence<Static, Codec>;

  std::vector<std::shared_ptr<const Segment>> segments;
  std::vector<uint64_t> cum;  // cum[i] = strings before segment i; size+1 long

  ShardView() : cum{0} {}

  explicit ShardView(std::vector<std::shared_ptr<const Segment>> segs)
      : segments(std::move(segs)) {
    cum.reserve(segments.size() + 1);
    cum.push_back(0);
    for (const auto& s : segments) cum.push_back(cum.back() + s->size());
  }

  uint64_t total() const { return cum.back(); }

  /// Index of the segment containing local position pos (< total()).
  size_t SegmentOf(uint64_t pos) const {
    WT_DASSERT(pos < total());
    return static_cast<size_t>(
        std::upper_bound(cum.begin(), cum.end(), pos) - cum.begin() - 1);
  }

  /// The encoded string at local position pos (< total()).
  wt::BitString AccessEncoded(uint64_t pos) const {
    const size_t i = SegmentOf(pos);
    return segments[i]->trie().Access(pos - cum[i]);
  }

  /// Occurrences of `enc` in local positions [0, p); p <= total().
  uint64_t Rank(wt::BitSpan enc, uint64_t p) const {
    WT_DASSERT(p <= total());
    uint64_t ones = 0;
    for (size_t i = 0; i < segments.size() && cum[i] < p; ++i) {
      ones += segments[i]->trie().Rank(enc, std::min(p, cum[i + 1]) - cum[i]);
    }
    return ones;
  }

  /// Occurrences with encoded prefix `encp` in local positions [0, p).
  uint64_t RankPrefix(wt::BitSpan encp, uint64_t p) const {
    WT_DASSERT(p <= total());
    uint64_t ones = 0;
    for (size_t i = 0; i < segments.size() && cum[i] < p; ++i) {
      ones +=
          segments[i]->trie().RankPrefix(encp, std::min(p, cum[i + 1]) - cum[i]);
    }
    return ones;
  }

  /// out[j] == AccessEncoded(pos[j]); any order, duplicates fine. Queries
  /// are grouped per segment so each segment's batched traversal runs once.
  std::vector<wt::BitString> AccessEncodedBatch(
      const std::vector<uint64_t>& pos) const {
    std::vector<wt::BitString> out(pos.size());
    std::vector<std::vector<size_t>> local(segments.size());
    std::vector<std::vector<size_t>> origin(segments.size());
    for (size_t j = 0; j < pos.size(); ++j) {
      const size_t i = SegmentOf(pos[j]);
      local[i].push_back(static_cast<size_t>(pos[j] - cum[i]));
      origin[i].push_back(j);
    }
    for (size_t i = 0; i < segments.size(); ++i) {
      if (local[i].empty()) continue;
      std::vector<wt::BitString> part = segments[i]->trie().AccessBatch(
          std::span<const size_t>(local[i]));
      for (size_t j = 0; j < part.size(); ++j) {
        out[origin[i][j]] = std::move(part[j]);
      }
    }
    return out;
  }

  /// out[j] == Rank(enc[j], p[j]), with dict == DedupBatch(enc). Every
  /// segment takes the whole batch (clamped positions; a position of 0 is a
  /// free rank), so the one dictionary serves all segments of all shards;
  /// per-query results sum across segments.
  std::vector<uint64_t> RankBatch(const std::vector<wt::BitSpan>& enc,
                                  const std::vector<uint64_t>& p,
                                  const wt::internal::BatchDict& dict) const {
    WT_DASSERT(enc.size() == p.size());
    std::vector<uint64_t> out(p.size(), 0);
    std::vector<size_t> pos(p.size());
    for (size_t i = 0; i < segments.size(); ++i) {
      bool any = false;
      for (size_t j = 0; j < p.size(); ++j) {
        pos[j] = p[j] <= cum[i]
                     ? 0
                     : static_cast<size_t>(std::min(p[j], cum[i + 1]) -
                                           cum[i]);
        any = any || pos[j] > 0;
      }
      if (!any) continue;
      const std::vector<size_t> part = segments[i]->trie().RankBatch(
          std::span<const wt::BitSpan>(enc), std::span<const size_t>(pos),
          dict);
      for (size_t j = 0; j < part.size(); ++j) out[j] += part[j];
    }
    return out;
  }

  /// Calls fn(segment_index, segment_trie, lo, hi) for each maximal
  /// segment-local subrange covering local range [l, r) — the decomposition
  /// the engine's Section 5 analytics run over.
  template <typename Fn>
  void ForEachPart(uint64_t l, uint64_t r, Fn&& fn) const {
    WT_DASSERT(l <= r && r <= total());
    for (size_t i = 0; i < segments.size() && cum[i] < r; ++i) {
      if (cum[i + 1] <= l) continue;
      const uint64_t lo = std::max(l, cum[i]) - cum[i];
      const uint64_t hi = std::min(r, cum[i + 1]) - cum[i];
      if (lo < hi) fn(i, segments[i]->trie(), lo, hi);
    }
  }
};

}  // namespace wtrie::engine
