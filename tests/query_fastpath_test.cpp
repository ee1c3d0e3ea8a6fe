// Differential tests for the query fast path (DESIGN.md #6): the flat rank
// directories and pdep select of BitVector/Rrr are pinned against a
// bit-scanning reference oracle (including at the select-sample boundaries
// k = 4095/4096/4097 and on empty/all-ones vectors), and the batched
// trie/Sequence queries are pinned against their per-query loops for all
// three policies.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <vector>

#include "api/sequence.hpp"
#include "bitvector/bit_vector.hpp"
#include "bitvector/rrr.hpp"
#include "common/bit_array.hpp"
#include "common/bits.hpp"
#include "core/codec.hpp"
#include "core/wavelet_trie.hpp"
#include "image_roundtrip.hpp"
#include "util/workloads.hpp"

namespace {

using namespace wt;

// ------------------------------------------------------- bit-scan oracle

struct Oracle {
  explicit Oracle(const BitArray& bits) : bits_(&bits) {}

  size_t Rank1(size_t pos) const {
    size_t c = 0;
    for (size_t i = 0; i < pos; ++i) c += bits_->Get(i);
    return c;
  }
  size_t Select(bool b, size_t k) const {
    for (size_t i = 0; i < bits_->size(); ++i) {
      if (bits_->Get(i) == b && k-- == 0) return i;
    }
    ADD_FAILURE() << "oracle select out of range";
    return static_cast<size_t>(-1);
  }

  const BitArray* bits_;
};

BitArray MakePattern(const std::string& kind, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  BitArray a;
  for (size_t i = 0; i < n; ++i) {
    bool b = false;
    if (kind == "ones") b = true;
    else if (kind == "zeros") b = false;
    else if (kind == "dense") b = rng() % 2 == 0;
    else if (kind == "sparse") b = rng() % 97 == 0;
    else if (kind == "runs") b = (i / 200) % 2 == 0;
    else if (kind == "alternating") b = i % 2 == 0;
    a.PushBack(b);
  }
  return a;
}

template <typename V>
void CheckAgainstOracle(const V& v, const BitArray& bits) {
  const Oracle o(bits);
  ASSERT_EQ(v.size(), bits.size());
  const size_t n = bits.size();
  // Rank and Get at structure boundaries and random positions.
  std::vector<size_t> probes = {0, n};
  for (size_t base : {size_t(63), size_t(64), size_t(512), size_t(1008),
                      size_t(2016), n / 2, n - 1, n - 63, n - 512}) {
    for (size_t d : {size_t(0), size_t(1)}) {
      if (base + d <= n && base + d > 0) probes.push_back(base + d - 1);
    }
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200 && n > 0; ++i) probes.push_back(rng() % (n + 1));
  size_t expected_ones = o.Rank1(n);
  ASSERT_EQ(v.num_ones(), expected_ones);
  for (size_t p : probes) {
    if (p > n) continue;
    ASSERT_EQ(v.Rank1(p), o.Rank1(p)) << "Rank1(" << p << ")";
    ASSERT_EQ(v.Rank0(p), p - o.Rank1(p)) << "Rank0(" << p << ")";
    if (p < n) {
      ASSERT_EQ(v.Get(p), bits.Get(p)) << "Get(" << p << ")";
    }
  }
  // Select at the sampled-window boundaries and random ks, both polarities.
  for (bool b : {false, true}) {
    const size_t count = b ? v.num_ones() : v.num_zeros();
    std::vector<size_t> ks = {0, 1, count / 2, count - 1, 4095, 4096, 4097};
    for (int i = 0; i < 100 && count > 0; ++i) ks.push_back(rng() % count);
    for (size_t k : ks) {
      if (k >= count) continue;
      ASSERT_EQ(v.Select(b, k), o.Select(b, k)) << "Select(" << b << "," << k << ")";
    }
  }
}

// ------------------------------------------------------------ in-word ops

TEST(QueryFastPath, SelectInWordMatchesPortableOracle) {
  std::mt19937_64 rng(11);
  for (int t = 0; t < 2000; ++t) {
    uint64_t x = rng();
    if (t % 3 == 0) x &= rng();  // sparser words too
    if (t == 0) x = ~uint64_t(0);
    if (t == 1) x = 1;
    const unsigned pc = static_cast<unsigned>(PopCount(x));
    for (unsigned k = 0; k < pc; ++k) {
      ASSERT_EQ(SelectInWord(x, k), SelectInWordPortable(x, k))
          << "x=" << x << " k=" << k;
    }
  }
}

// --------------------------------------------------- BitVector vs oracle

TEST(QueryFastPath, BitVectorEmpty) {
  BitVector v{BitArray()};
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.Rank1(0), 0u);
  EXPECT_EQ(v.num_ones(), 0u);
}

TEST(QueryFastPath, BitVectorDifferential) {
  // 20000 dense bits give ~10000 ones: crosses the 4096 select sample once
  // for each polarity. 9000 exercises partial final superblocks; 512/513
  // the superblock seams.
  for (const char* kind : {"ones", "zeros", "dense", "sparse", "runs",
                           "alternating"}) {
    for (size_t n : {size_t(1), size_t(63), size_t(64), size_t(512),
                     size_t(513), size_t(9000), size_t(20000)}) {
      BitArray bits = MakePattern(kind, n, 5 + n);
      BitVector v(bits);
      CheckAgainstOracle(v, bits);
    }
  }
}

TEST(QueryFastPath, BitVectorSelectSampleBoundaries) {
  // Dense ones so that k = 4095/4096/4097 all exist and the sampled window
  // clamp (the shared SelectSampleWindow helper) is exercised on both the
  // interior and the final window.
  BitArray bits = MakePattern("dense", 18000, 3);
  BitVector v(bits);
  const Oracle o(bits);
  for (size_t k : {size_t(4095), size_t(4096), size_t(4097)}) {
    ASSERT_LT(k, v.num_ones());
    EXPECT_EQ(v.Select1(k), o.Select(true, k));
    ASSERT_LT(k, v.num_zeros());
    EXPECT_EQ(v.Select0(k), o.Select(false, k));
  }
}

// --------------------------------------------------------- Rrr vs oracle

TEST(QueryFastPath, RrrDifferential) {
  for (const char* kind : {"ones", "zeros", "dense", "sparse", "runs",
                           "alternating"}) {
    // 63/1008/2016: block and (16-block) superblock seams; 20000 crosses
    // the 4096-select samples on dense input.
    for (size_t n : {size_t(1), size_t(62), size_t(63), size_t(64),
                     size_t(1008), size_t(1009), size_t(2016), size_t(9000),
                     size_t(20000)}) {
      BitArray bits = MakePattern(kind, n, 11 + n);
      Rrr v(bits);
      CheckAgainstOracle(v, bits);
    }
  }
}

TEST(QueryFastPath, RrrEmpty) {
  Rrr v{BitArray()};
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.Rank1(0), 0u);
}

TEST(QueryFastPath, RrrRankGetFusionMatchesPair) {
  BitArray bits = MakePattern("dense", 5000, 23);
  Rrr v(bits);
  for (size_t p = 0; p < bits.size(); p += 7) {
    const auto [ones, bit] = v.RankGet(p);
    ASSERT_EQ(ones, v.Rank1(p)) << p;
    ASSERT_EQ(bit, bits.Get(p)) << p;
  }
}

TEST(QueryFastPath, RrrRankCursorAnyOrder) {
  BitArray bits = MakePattern("runs", 30000, 29);
  Rrr v(bits);
  Rrr::RankCursor cursor(&v);
  std::mt19937_64 rng(31);
  // Sorted pass, then random pass, same cursor: cache must never go stale.
  for (size_t p = 0; p < bits.size(); p += 97) {
    const auto [ones, bit] = cursor.RankGet(p);
    ASSERT_EQ(ones, v.Rank1(p));
    ASSERT_EQ(bit, bits.Get(p));
  }
  for (int i = 0; i < 500; ++i) {
    const size_t p = rng() % bits.size();
    const auto [ones, bit] = cursor.RankGet(p);
    ASSERT_EQ(ones, v.Rank1(p));
    ASSERT_EQ(bit, bits.Get(p));
    ASSERT_EQ(cursor.Rank1(p), v.Rank1(p));
  }
  ASSERT_EQ(cursor.Rank1(bits.size()), v.num_ones());
}

TEST(QueryFastPath, RrrSelectCursorAnyOrder) {
  for (const char* kind : {"dense", "sparse", "runs"}) {
    BitArray bits = MakePattern(kind, 30000, 43);
    Rrr v(bits);
    Rrr::SelectCursor cursor(&v);
    // Ascending interleaved passes (the batch ascent pattern), then random
    // jumps (restart path), against the plain Select.
    for (size_t k = 0; k < v.num_ones(); k += 11) {
      ASSERT_EQ(cursor.Select1(k), v.Select1(k)) << kind << " k=" << k;
    }
    for (size_t k = 0; k < v.num_zeros(); k += 11) {
      ASSERT_EQ(cursor.Select0(k), v.Select0(k)) << kind << " k=" << k;
    }
    std::mt19937_64 rng(47);
    for (int i = 0; i < 500; ++i) {
      if (v.num_ones() > 0) {
        const size_t k = rng() % v.num_ones();
        ASSERT_EQ(cursor.Select1(k), v.Select1(k));
      }
      if (v.num_zeros() > 0) {
        const size_t k = rng() % v.num_zeros();
        ASSERT_EQ(cursor.Select0(k), v.Select0(k));
      }
    }
  }
}

TEST(QueryFastPath, RrrImageRoundTripKeepsDirectory) {
  BitArray bits = MakePattern("dense", 20000, 37);
  Rrr v(bits);
  const auto blob = test_util::BlobOf(test_util::ImageBytes(v));
  Rrr w;
  ASSERT_TRUE(test_util::LoadFromImage(*blob, &w));
  CheckAgainstOracle(w, bits);
}

// ------------------------------------------------- trie batches vs loops

std::vector<BitString> TestStrings(size_t n, uint64_t seed) {
  UrlLogOptions opt;
  opt.num_domains = 48;
  opt.paths_per_domain = 24;
  opt.seed = seed;
  UrlLogGenerator gen(opt);
  std::vector<BitString> seq;
  seq.reserve(n);
  for (size_t i = 0; i < n; ++i) seq.push_back(ByteCodec::Encode(gen.Next()));
  return seq;
}

TEST(QueryFastPath, TrieBatchMatchesLoops) {
  const size_t n = 12000;
  const auto seq = TestStrings(n, 17);
  const WaveletTrie trie = WaveletTrie::BulkBuild(seq);

  UrlLogOptions opt;
  opt.num_domains = 48;
  opt.paths_per_domain = 24;
  UrlLogGenerator gen(opt);
  std::vector<BitString> queries;
  for (size_t i = 0; i < 40; ++i) {
    queries.push_back(ByteCodec::Encode(gen.Url(i % 48, i % 24)));
  }
  queries.push_back(ByteCodec::Encode("absent.example/none"));  // not stored
  std::vector<BitSpan> qspans;
  for (const auto& q : queries) qspans.push_back(q.Span());

  std::mt19937_64 rng(41);
  const size_t m = 3000;
  std::vector<size_t> pos(m), rank_pos(m), sel_idx(m);
  std::vector<BitSpan> qs(m);
  for (size_t i = 0; i < m; ++i) {
    pos[i] = rng() % n;
    rank_pos[i] = rng() % (n + 1);  // Rank admits pos == n
    sel_idx[i] = rng() % 1200;      // often beyond a value's count
    qs[i] = qspans[rng() % qspans.size()];
  }
  // Deliberate edge positions and duplicates.
  pos[0] = 0;
  pos[1] = n - 1;
  pos[2] = pos[3] = n / 2;
  rank_pos[0] = 0;
  rank_pos[1] = n;
  sel_idx[0] = 0;

  const auto access = trie.AccessBatch(pos);
  for (size_t i = 0; i < m; ++i) {
    ASSERT_EQ(access[i], trie.Access(pos[i])) << i;
  }
  const auto ranks = trie.RankBatch(qs, rank_pos);
  for (size_t i = 0; i < m; ++i) {
    ASSERT_EQ(ranks[i], trie.Rank(qs[i], rank_pos[i])) << i;
  }
  const auto sels = trie.SelectBatch(qs, sel_idx);
  for (size_t i = 0; i < m; ++i) {
    ASSERT_EQ(sels[i], trie.Select(qs[i], sel_idx[i])) << i;
  }
}

TEST(QueryFastPath, TrieBatchEmptyAndSingleton) {
  const WaveletTrie trie = WaveletTrie::BulkBuild(TestStrings(100, 3));
  EXPECT_TRUE(trie.AccessBatch({}).empty());
  const auto one = trie.AccessBatch(std::vector<size_t>{5});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], trie.Access(5));

  const WaveletTrie empty;
  const BitString q = ByteCodec::Encode("x");
  const std::vector<BitSpan> qs{q.Span()};
  const std::vector<size_t> zero{0};
  EXPECT_EQ(empty.RankBatch(qs, zero)[0], 0u);
  EXPECT_EQ(empty.SelectBatch(qs, zero)[0], std::nullopt);
}

TEST(QueryFastPath, TrieQueriesSurviveImageRoundTrip) {
  const size_t n = 4000;
  const auto seq = TestStrings(n, 53);
  const WaveletTrie trie = WaveletTrie::BulkBuild(seq);
  const auto blob = test_util::BlobOf(test_util::ImageBytes(trie));
  WaveletTrie loaded;
  ASSERT_TRUE(test_util::LoadFromImage(*blob, &loaded));
  std::mt19937_64 rng(59);
  for (int i = 0; i < 500; ++i) {
    const size_t p = rng() % n;
    ASSERT_EQ(loaded.Access(p), trie.Access(p));
    ASSERT_EQ(loaded.Rank(seq[p], p), trie.Rank(seq[p], p));
  }
}

// ------------------------------- Sequence batches vs loops, all policies

template <typename Policy>
void CheckSequenceBatches() {
  UrlLogOptions opt;
  opt.seed = 71;
  UrlLogGenerator gen(opt);
  std::vector<std::string> values;
  for (size_t i = 0; i < 6000; ++i) values.push_back(gen.Next());
  const wtrie::Sequence<Policy> seq(values);

  std::mt19937_64 rng(73);
  const size_t m = 1500;
  std::vector<size_t> pos(m), rank_pos(m), sel_idx(m);
  std::vector<std::string> qvals(m);
  for (size_t i = 0; i < m; ++i) {
    pos[i] = rng() % values.size();
    rank_pos[i] = rng() % (values.size() + 1);
    sel_idx[i] = rng() % 600;
    qvals[i] = (rng() % 8 == 0) ? "missing.example/void" : values[rng() % values.size()];
  }

  const auto access = seq.AccessBatch(pos);
  ASSERT_TRUE(access.ok());
  for (size_t i = 0; i < m; ++i) {
    ASSERT_EQ((*access)[i], *seq.Access(pos[i])) << i;
  }
  const auto ranks = seq.RankBatch(qvals, rank_pos);
  ASSERT_TRUE(ranks.ok());
  for (size_t i = 0; i < m; ++i) {
    ASSERT_EQ((*ranks)[i], *seq.Rank(qvals[i], rank_pos[i])) << i;
  }
  const auto sels = seq.SelectBatch(qvals, sel_idx);
  ASSERT_TRUE(sels.ok());
  for (size_t i = 0; i < m; ++i) {
    const auto single = seq.Select(qvals[i], sel_idx[i]);
    if (single.ok()) {
      ASSERT_EQ((*sels)[i], *single) << i;
    } else {
      ASSERT_EQ((*sels)[i], std::nullopt) << i;
    }
  }

  // Error paths.
  EXPECT_EQ(seq.AccessBatch({values.size()}).status().code(),
            wtrie::ErrorCode::kOutOfRange);
  EXPECT_EQ(seq.RankBatch({"a"}, {0, 1}).status().code(),
            wtrie::ErrorCode::kInvalidArgument);
  EXPECT_EQ(seq.SelectBatch({"a", "b"}, {0}).status().code(),
            wtrie::ErrorCode::kInvalidArgument);
  EXPECT_EQ(seq.RankBatch({"a"}, {values.size() + 1}).status().code(),
            wtrie::ErrorCode::kOutOfRange);
}

TEST(QueryFastPath, StaleFormatVersionIsCleanLoadError) {
  // An image stamped with an older version must be rejected cleanly —
  // never reach a structure loader.
  wtrie::Sequence<wtrie::Static> seq(std::vector<std::string>{"a", "b", "a"});
  std::stringstream buf;
  ASSERT_TRUE(seq.Save(buf).ok());
  std::string bytes = buf.str();
  // Image layout: u64 magic | u32 version | ...
  const uint32_t old_version = 1;
  std::memcpy(bytes.data() + sizeof(uint64_t), &old_version, sizeof(uint32_t));
  std::istringstream stale(bytes);
  const auto loaded = wtrie::Sequence<wtrie::Static>::Load(stale);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), wtrie::ErrorCode::kVersionMismatch);
}

TEST(QueryFastPath, SequenceBatchesStatic) {
  CheckSequenceBatches<wtrie::Static>();
}
TEST(QueryFastPath, SequenceBatchesAppendOnly) {
  CheckSequenceBatches<wtrie::AppendOnly>();
}
TEST(QueryFastPath, SequenceBatchesDynamic) {
  CheckSequenceBatches<wtrie::Dynamic>();
}

}  // namespace
