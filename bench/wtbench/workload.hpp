// wtbench workloads: the served URL stores, the pre-encoded request pools,
// and the expected reply of every request in them.
//
// Everything here is a pure function of (workload, seed) and is computed
// before the daemon starts, off the clock. Each request in a pool is one
// wire frame, encoded once with request_id 0 (the generator patches the id
// in; the frame checksum covers only the payload). Its expected reply is
// stored as the FNV-1a digest of the exact reply payload the server must
// send, so checking a reply costs one integer compare against the checksum
// the client verifies anyway. Two opcodes cannot be pinned to one payload:
//   * count_prefix counts over the whole visible store, which grows while
//     appends are frozen in; its answer must lie in [count in the initial
//     store, that + strings with the prefix sent in appends so far];
//   * append replies carry only a status; the end-of-run check is
//     engine size == initial + acknowledged strings.
// Every other read targets the initial prefix, which appends never change.
//
// Append frames live in a pool of their own, sent in order and never
// twice, so every appended string is a fresh draw; an append slot in the
// request pool only says "the next append frame goes here".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/sequence.hpp"
#include "common/serialize.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "util/workloads.hpp"
#include "util/zipf.hpp"

namespace wtbench {

using Oracle = wtrie::Sequence<wtrie::Static, wt::ByteCodec>;

/// A URL store "www.site<d>.com/sec<p%7>/page<p>": Zipf(1.0) domains and
/// Zipf(0.8) paths within a domain (wt::UrlLogOptions' skews).
struct StoreShape {
  uint32_t domains;
  uint32_t paths;
};
inline constexpr StoreShape kUrlSmall{64, 32};     // 2,048 distinct URLs
inline constexpr StoreShape kUrlLarge{4096, 256};  // ~244k distinct of 1M
inline constexpr size_t kStoreStrings = 1'000'000;
/// Request pool sizes are powers of two (the load generator permutes later
/// passes through a pool with an affine map mod its size).
inline constexpr size_t kPoolDraws = size_t{1} << 20;
/// Strings carried by one append frame, and append frames per pool: what
/// the open loops need at the calibrated rates plus a full closed-loop
/// share (wtbench.cpp, ClosedAppendShare) for every untraced segment.
inline constexpr uint32_t kAppendStrings = 64;
inline constexpr size_t kAppendFrames = size_t{1} << 15;
/// Frequent: range width and threshold (a handful of hot URLs qualify).
inline constexpr uint64_t kFrequentRange = 4096;
inline constexpr uint64_t kFrequentThreshold = 16;

enum class Op : uint8_t {
  kAccess,
  kRank,
  kSelect,
  kCountPrefix,
  kFrequent,
  kAppend,
};

enum class PositionDist : uint8_t { kZipf, kUniform };

struct WorkloadSpec {
  const char* name;
  StoreShape store;
  PositionDist positions;
  uint32_t closed_window;  // outstanding frames per connection, closed loop
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {"access_zipf", kUrlSmall, PositionDist::kZipf, 128},
    {"access_uniform", kUrlLarge, PositionDist::kUniform, 128},
    {"mixed_rw", kUrlLarge, PositionDist::kZipf, 128},
    {"ingest", kUrlLarge, PositionDist::kUniform, 8},
};

inline const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

inline uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Draws URLs of one store shape, reporting each one's domain.
class UrlSampler {
 public:
  UrlSampler(StoreShape shape, uint64_t seed)
      : rng_(seed), domain_(shape.domains, 1.0), path_(shape.paths, 0.8) {}

  std::string Next(uint32_t* domain) {
    const size_t d = domain_(rng_);
    const size_t p = path_(rng_);
    *domain = static_cast<uint32_t>(d);
    return format_.Url(d, p);
  }

 private:
  std::mt19937_64 rng_;
  wt::ZipfDistribution domain_;
  wt::ZipfDistribution path_;
  wt::UrlLogGenerator format_;
};

/// One pool entry: a pre-encoded request frame plus what its reply must be.
struct Draw {
  uint64_t expect = 0;      // digest of the expected reply payload; for
                            // count_prefix the count in the initial store
  uint32_t off = 0;         // frame bytes in Workload::frames
  uint32_t len = 0;
  uint32_t aux = 0;         // count_prefix: domain; append: first index
                            // into Workload::appended_domain
  uint32_t user_bytes = 0;  // append: bytes of the strings it carries
  uint16_t ops = 1;         // items answered; an appended string is one op
  Op op = Op::kAccess;
};

/// Public-call inputs for the traced run's per-layer replay, taken from
/// the same distributions the pool draws from.
struct ReplayStream {
  std::vector<uint64_t> positions;
  std::vector<uint32_t> rank_value;  // index into Workload::values
  std::vector<uint64_t> rank_pos;
  std::vector<uint32_t> select_value;
  std::vector<uint64_t> select_k;
  std::vector<std::string> appends;  // strings, in append-frame order
};

struct Workload {
  const WorkloadSpec* spec = nullptr;
  std::vector<std::string> values;  // the initial store, in position order
  uint64_t value_bytes = 0;
  std::vector<uint32_t> appended_domain;  // per string the appends carry
  std::vector<std::string> prefixes;     // per domain, "www.site<d>.com/"
  std::vector<uint64_t> prefix_count;    // per domain, in the initial store
  std::string frames;
  std::vector<Draw> draws;    // the request pool; kAppend draws are slots
  std::vector<Draw> appends;  // the append frames, sent in order, once
  ReplayStream replay;

  double OpsPerDraw() const {
    uint64_t ops = 0;
    for (const Draw& d : draws) ops += d.ops;
    return draws.empty() ? 1.0 : double(ops) / double(draws.size());
  }

  /// Share of the request pool's draws that are append slots.
  double AppendShare() const {
    size_t n = 0;
    for (const Draw& d : draws) n += d.op == Op::kAppend ? 1 : 0;
    return draws.empty() ? 0.0 : double(n) / double(draws.size());
  }
};

// ------------------------------------------------------- expected replies
// Byte-for-byte what net/server.hpp writes for a one-item request.

inline uint64_t Digest(const std::string& payload) {
  return wt::Fnv1a(payload.data(), payload.size());
}

inline std::string OkHeader(uint32_t items) {
  std::string w;
  wt::net::AppendPod<uint8_t>(w,
                              static_cast<uint8_t>(wt::net::WireStatus::kOk));
  wt::net::AppendPod<uint32_t>(w, items);
  return w;
}

inline uint64_t AccessReplyDigest(const std::string& value) {
  std::string w = OkHeader(1);
  wt::net::AppendStr(w, value);
  return Digest(w);
}

inline uint64_t CountReplyDigest(uint64_t count) {
  std::string w = OkHeader(1);
  wt::net::AppendPod<uint64_t>(w, count);
  return Digest(w);
}

inline uint64_t SelectReplyDigest(uint64_t pos) {
  std::string w = OkHeader(1);
  wt::net::AppendPod<uint8_t>(w, 1);
  wt::net::AppendPod<uint64_t>(w, pos);
  return Digest(w);
}

/// The engine's Frequent orders entries by decoded value.
inline uint64_t FrequentReplyDigest(
    std::vector<std::pair<std::string, uint64_t>> entries) {
  std::sort(entries.begin(), entries.end());
  std::string w = OkHeader(static_cast<uint32_t>(entries.size()));
  for (const auto& [v, c] : entries) {
    wt::net::AppendStr(w, v);
    wt::net::AppendPod<uint64_t>(w, c);
  }
  return Digest(w);
}

// ------------------------------------------------------ workload generation

class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec), seed_(seed), rng_(SplitMix(seed ^ 0x5EED)) {}

  /// Generates the store and the request pool; `oracle` receives the
  /// monolithic Sequence<Static> over the initial store that the expected
  /// answers (and the traced run's api layer) come from.
  Workload Build(Oracle* oracle) {
    Workload w;
    w.spec = &spec_;
    UrlSampler store(spec_.store, SplitMix(seed_ ^ 1));
    w.values.reserve(kStoreStrings);
    for (size_t i = 0; i < kStoreStrings; ++i) {
      uint32_t d = 0;
      w.values.push_back(store.Next(&d));
      w.value_bytes += w.values.back().size();
    }
    *oracle = Oracle(w.values);
    n_ = w.values.size();
    if (spec_.positions == PositionDist::kZipf) {
      zipf_.emplace(n_, 0.99);
      // Scramble Zipf ranks over positions so hot keys are spread across
      // shards and segments, not clustered at the start of the log.
      scramble_.resize(n_);
      std::iota(scramble_.begin(), scramble_.end(), uint32_t{0});
      std::shuffle(scramble_.begin(), scramble_.end(), rng_);
    }
    const std::string name = spec_.name;
    if (name == "access_zipf" || name == "access_uniform") {
      BuildAccessPool(&w);
    } else if (name == "mixed_rw") {
      BuildMixedPool(&w, *oracle);
    } else {
      BuildIngestPool(&w);
    }
    FillReplayStream(&w, *oracle);
    return w;
  }

 private:
  uint64_t NextPosition() {
    if (zipf_.has_value()) return scramble_[(*zipf_)(rng_)];
    return std::uniform_int_distribution<uint64_t>(0, n_ - 1)(rng_);
  }

  static void AddFrame(Workload* w, Draw* d, wt::net::MsgType type,
                       const std::string& payload) {
    d->off = static_cast<uint32_t>(w->frames.size());
    wt::net::EncodeFrameTo(w->frames, static_cast<uint8_t>(type),
                           /*request_id=*/0, /*deadline_ms=*/0, payload);
    d->len = static_cast<uint32_t>(w->frames.size() - d->off);
  }

  void AddAccess(Workload* w, uint64_t pos) {
    Draw d;
    d.op = Op::kAccess;
    d.expect = AccessReplyDigest(w->values[pos]);
    AddFrame(w, &d, wt::net::MsgType::kAccess,
             wt::net::Client::AccessPayload({pos}));
    w->draws.push_back(d);
    if (w->replay.positions.size() < kReplayItems) {
      w->replay.positions.push_back(pos);
    }
  }

  void BuildAccessPool(Workload* w) {
    w->draws.reserve(kPoolDraws);
    w->frames.reserve(kPoolDraws * 48);
    for (size_t i = 0; i < kPoolDraws; ++i) AddAccess(w, NextPosition());
  }

  /// A request-pool slot the load generator fills with the next frame of
  /// the append pool.
  static Draw AppendSlot() {
    Draw d;
    d.op = Op::kAppend;
    d.ops = kAppendStrings;
    return d;
  }

  /// Pre-encodes kAppendFrames frames of kAppendStrings consecutive
  /// strings drawn from the store's URL distribution under a fresh seed,
  /// so new distinct values keep arriving.
  void BuildAppendPool(Workload* w) {
    UrlSampler sampler(spec_.store, SplitMix(seed_ ^ 2));
    const size_t strings = kAppendFrames * kAppendStrings;
    w->appended_domain.reserve(strings);
    w->appends.reserve(kAppendFrames);
    w->frames.reserve(w->frames.size() + strings * 40);
    std::vector<std::string> batch(kAppendStrings);
    for (size_t first = 0; first < strings; first += kAppendStrings) {
      Draw d = AppendSlot();
      d.aux = static_cast<uint32_t>(first);
      for (std::string& s : batch) {
        uint32_t domain = 0;
        s = sampler.Next(&domain);
        w->appended_domain.push_back(domain);
        d.user_bytes += s.size();
        if (w->replay.appends.size() < kReplayItems) {
          w->replay.appends.push_back(s);
        }
      }
      d.expect = Digest(std::string(
          1, static_cast<char>(wt::net::WireStatus::kOk)));
      AddFrame(w, &d, wt::net::MsgType::kAppend,
               wt::net::Client::StringsPayload(batch));
      w->appends.push_back(d);
    }
  }

  /// Every request is an append.
  void BuildIngestPool(Workload* w) {
    BuildAppendPool(w);
    w->draws = {AppendSlot()};
  }

  /// 50% access (Zipf), 15% rank, 10% select, 10% count_prefix,
  /// 1% frequent, 14% append.
  void BuildMixedPool(Workload* w, const Oracle& oracle) {
    BuildAppendPool(w);
    w->prefixes.resize(spec_.store.domains);
    w->prefix_count.resize(spec_.store.domains);
    const wt::UrlLogGenerator format;
    for (uint32_t d = 0; d < spec_.store.domains; ++d) {
      w->prefixes[d] = format.Domain(d) + "/";
      w->prefix_count[d] = oracle.CountPrefix(w->prefixes[d]);
    }
    // Rank and select answers come from one batched oracle pass at the end.
    std::vector<std::string> rank_vals, select_vals;
    std::vector<size_t> rank_pos, select_at;
    std::vector<size_t> rank_draw, select_draw;
    std::vector<uint32_t> select_value;
    w->draws.reserve(kPoolDraws);
    w->frames.reserve(w->frames.size() + kPoolDraws * 64);
    std::uniform_int_distribution<int> pct(0, 99);
    for (size_t i = 0; i < kPoolDraws; ++i) {
      const int r = pct(rng_);
      if (r < 50) {
        AddAccess(w, NextPosition());
      } else if (r < 65) {
        const uint64_t p = NextPosition();
        const uint64_t at =
            std::uniform_int_distribution<uint64_t>(0, n_)(rng_);
        rank_draw.push_back(w->draws.size());
        rank_vals.push_back(w->values[p]);
        rank_pos.push_back(at);
        if (w->replay.rank_pos.size() < kReplayItems) {
          w->replay.rank_value.push_back(static_cast<uint32_t>(p));
          w->replay.rank_pos.push_back(at);
        }
        w->draws.emplace_back();  // frame filled in below
      } else if (r < 75) {
        // Select the occurrence at p itself: k = rank(values[p], p), so
        // the expected answer is p whatever the value's frequency.
        const uint64_t p = NextPosition();
        select_draw.push_back(w->draws.size());
        select_vals.push_back(w->values[p]);
        select_at.push_back(p);
        select_value.push_back(static_cast<uint32_t>(p));
        w->draws.emplace_back();
      } else if (r < 85) {
        Draw d;
        d.op = Op::kCountPrefix;
        d.aux = std::uniform_int_distribution<uint32_t>(
            0, spec_.store.domains - 1)(rng_);
        d.expect = w->prefix_count[d.aux];
        AddFrame(w, &d, wt::net::MsgType::kCountPrefix,
                 wt::net::Client::StringsPayload({w->prefixes[d.aux]}));
        w->draws.push_back(d);
      } else if (r < 86) {
        const uint64_t l = std::uniform_int_distribution<uint64_t>(
            0, n_ - kFrequentRange)(rng_);
        const uint64_t h = l + kFrequentRange;
        Draw d;
        d.op = Op::kFrequent;
        std::vector<std::pair<std::string, uint64_t>> entries;
        auto cur = oracle.Frequent(l, h, kFrequentThreshold);
        while (cur->Next()) entries.emplace_back(cur->value(), cur->count());
        d.expect = FrequentReplyDigest(std::move(entries));
        AddFrame(w, &d, wt::net::MsgType::kFrequent,
                 wt::net::Client::FrequentPayload(l, h, kFrequentThreshold));
        w->draws.push_back(d);
      } else {
        w->draws.push_back(AppendSlot());
      }
    }
    const std::vector<size_t> ranks =
        oracle.RankBatch(rank_vals, rank_pos).value();
    for (size_t j = 0; j < rank_draw.size(); ++j) {
      Draw& d = w->draws[rank_draw[j]];
      d.op = Op::kRank;
      d.expect = CountReplyDigest(ranks[j]);
      AddFrame(w, &d, wt::net::MsgType::kRank,
               wt::net::Client::RankPayload({rank_vals[j]}, {rank_pos[j]}));
    }
    const std::vector<size_t> ks =
        oracle.RankBatch(select_vals, select_at).value();
    for (size_t j = 0; j < select_draw.size(); ++j) {
      Draw& d = w->draws[select_draw[j]];
      d.op = Op::kSelect;
      d.expect = SelectReplyDigest(select_at[j]);
      AddFrame(w, &d, wt::net::MsgType::kSelect,
               wt::net::Client::SelectPayload({select_vals[j]}, {ks[j]}));
      if (w->replay.select_k.size() < kReplayItems) {
        w->replay.select_value.push_back(select_value[j]);
        w->replay.select_k.push_back(ks[j]);
      }
    }
  }

  /// Workloads whose pool lacks an opcode replay it from their own
  /// position stream: rank (values[p], p'), select (values[p], its rank).
  void FillReplayStream(Workload* w, const Oracle& oracle) {
    ReplayStream& r = w->replay;
    while (r.positions.size() < kReplayItems) {
      r.positions.push_back(NextPosition());
    }
    if (r.rank_pos.empty()) {
      for (size_t i = 0; i < kReplayItems; ++i) {
        r.rank_value.push_back(static_cast<uint32_t>(r.positions[i]));
        r.rank_pos.push_back(r.positions[(i * 7919 + 1) % kReplayItems]);
      }
    }
    if (r.select_k.empty()) {
      std::vector<std::string> vals;
      std::vector<size_t> at;
      for (size_t i = 0; i < kReplayItems; ++i) {
        vals.push_back(w->values[r.positions[i]]);
        at.push_back(r.positions[i]);
        r.select_value.push_back(static_cast<uint32_t>(r.positions[i]));
      }
      const std::vector<size_t> ks = oracle.RankBatch(vals, at).value();
      r.select_k.assign(ks.begin(), ks.end());
    }
    if (w->prefixes.empty()) {
      const wt::UrlLogGenerator format;
      for (uint32_t d = 0; d < spec_.store.domains; ++d) {
        w->prefixes.push_back(format.Domain(d) + "/");
      }
    }
    for (size_t i = 0; r.appends.size() < kReplayItems; ++i) {
      r.appends.push_back(w->values[i]);
    }
  }

  static constexpr size_t kReplayItems = size_t{1} << 16;

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  std::mt19937_64 rng_;
  size_t n_ = 0;
  std::optional<wt::ZipfDistribution> zipf_;
  std::vector<uint32_t> scramble_;
};

}  // namespace wtbench
