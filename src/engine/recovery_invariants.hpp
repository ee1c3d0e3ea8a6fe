// The engine's recovery rule, as standalone checkable logic (DESIGN.md #7,
// #9).
//
// Recovery has two inputs: the manifest's per-shard segment counts and the
// surviving WAL generations. Strings are placed round-robin, so shard s of
// N holds global position q*N + s as its local position q; with c_s
// strings in its listed segments it holds every one of its positions below
// c_s*N + s.
//
//   * The durable prefix G is the minimum over s of c_s*N + s: every
//     shard's segments hold [0, G). (GetSnapshot derives its visible prefix
//     the same way from the published views.)
//   * The replay tail covers [G, end). Generations are read in generation
//     order. A generation's start, and each record's first position, cut
//     the tail back to that position: the later write wins. A generation
//     opened after a failed append starts at the failed batch's position,
//     so it retires that batch's record even when its bytes reached the
//     disk whole.
//   * A start past the tail's end is a hole (a generation lost whole);
//     replay stops there and the caller salvages what it has.
//   * A string at position g >= G goes to shard g mod N, unless that
//     shard's segments already hold its local position g div N. Shards
//     freeze independently, so one shard's saved segments may reach past G
//     (a staggered freeze); the log then fills in only what the others
//     lack.
//   * The recovered size is what the shards then hold. A shard holding
//     more than its round-robin share of it means foreign or tampered
//     files, and the store is refused.
//
// Engine<>::Recover appends what ReplayWal routes to each shard;
// `wt_inspect --fsck` runs the same call read-only to audit a store without
// opening it. Keeping the whole rule here (the generations it reads come
// from manifest.hpp ListWalGenerations), free of the Engine template,
// guarantees the auditor and the recoverer cannot drift apart.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "api/result.hpp"
#include "engine/manifest.hpp"
#include "engine/wal.hpp"

namespace wtrie::engine {

/// Strings of the first `prefix` global positions that land on shard s of
/// N: locals q with q*N + s < prefix.
inline uint64_t RoundRobinCount(uint64_t prefix, size_t s, size_t num_shards) {
  return prefix > s ? (prefix - s + num_shards - 1) / num_shards : 0;
}

/// The first global position some shard lacks when shard s of n holds its
/// first `count(s)` strings: the minimum over s of count(s)*n + s.
template <typename CountFn>
uint64_t DurablePrefix(size_t n, CountFn&& count) {
  uint64_t g = UINT64_MAX;
  for (size_t s = 0; s < n; ++s) {
    g = std::min<uint64_t>(g, static_cast<uint64_t>(count(s)) * n + s);
  }
  return g;
}

inline uint64_t DurablePrefix(const std::vector<uint64_t>& counts) {
  return DurablePrefix(counts.size(), [&](size_t s) { return counts[s]; });
}

/// The replay tail: the strings the log holds at positions [durable, end),
/// cut back and extended in log order.
class ReplayTail {
 public:
  explicit ReplayTail(uint64_t durable) : durable_(durable), end_(durable) {}

  uint64_t durable() const { return durable_; }
  uint64_t end() const { return end_; }
  std::vector<wt::BitString>& strings() { return strings_; }

  /// Cuts the tail back to `first`, a generation's start or a record's
  /// first position. False, changing nothing, when `first` lies past the
  /// end: a hole.
  bool CutTo(uint64_t first) {
    if (first > end_) return false;
    end_ = std::max(first, durable_);
    strings_.resize(end_ - durable_);
    return true;
  }

  /// Cuts the tail back to the record's first position, then appends the
  /// record's strings. False at a hole.
  bool Add(WalRecord&& r) {
    if (!CutTo(r.first)) return false;
    uint64_t g = r.first;
    for (wt::BitString& s : r.strings) {
      if (g++ >= durable_) strings_.push_back(std::move(s));
    }
    end_ = std::max(end_, g);
    return true;
  }

 private:
  uint64_t durable_;
  uint64_t end_;
  std::vector<wt::BitString> strings_;  // position durable_ + i at [i]
};

/// What recovery replays, and what it recovers.
struct WalReplay {
  uint64_t durable = 0;  // G: every shard's segments hold [0, G)
  uint64_t end = 0;      // where the replayed log ends
  bool hole = false;     // replay stopped at a hole: the store is salvaged
  uint64_t total = 0;    // the recovered engine size
  // Per shard, the strings its segments lack, in local order: they
  // continue the shard's listed segments.
  std::vector<std::vector<wt::BitString>> routed;
};

/// Runs the replay rule over `gens` (ascending generation numbers) on top
/// of shards whose segments hold `counts` strings, and routes the tail to
/// the shards. `read(gen)` returns the generation's intact records, or an
/// error that stops recovery (an unreadable file must not pass for lost
/// records). kCorruptStream when the recovered size leaves some shard
/// holding more than its round-robin share.
template <typename ReadFn>
Result<WalReplay> ReplayWal(const std::vector<uint64_t>& counts,
                            const std::vector<WalGeneration>& gens,
                            ReadFn&& read) {
  const size_t n = counts.size();
  WalReplay r;
  ReplayTail tail(DurablePrefix(counts));
  for (const WalGeneration& g : gens) {
    if (!tail.CutTo(g.first)) {
      r.hole = true;
      break;
    }
    Result<std::vector<WalRecord>> records = read(g);
    if (!records.ok()) return records.status();
    for (WalRecord& rec : *records) {
      if (!tail.Add(std::move(rec))) {
        r.hole = true;
        break;
      }
    }
    if (r.hole) break;
  }
  r.durable = tail.durable();
  r.end = tail.end();
  // Position g goes to shard g mod N unless that shard's segments already
  // hold its local position g div N (a staggered freeze).
  r.routed.resize(n);
  uint64_t g = r.durable;
  for (wt::BitString& str : tail.strings()) {
    if (g / n >= counts[g % n]) r.routed[g % n].push_back(std::move(str));
    ++g;
  }
  for (size_t s = 0; s < n; ++s) r.total += counts[s] + r.routed[s].size();
  for (size_t s = 0; s < n; ++s) {
    if (counts[s] + r.routed[s].size() != RoundRobinCount(r.total, s, n)) {
      return Status::Error(ErrorCode::kCorruptStream,
                           "Engine: shard counts break the round-robin "
                           "placement invariant");
    }
  }
  return r;
}

}  // namespace wtrie::engine
