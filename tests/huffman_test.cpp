// Tests for canonical Huffman codes (coding/huffman.hpp) and the
// Huffman-shaped Wavelet Tree (core/huffman_wavelet_tree.hpp) — the
// Section 3 "Huffman code mapping" instance of the Wavelet Trie.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <sstream>
#include <vector>

#include "coding/huffman.hpp"
#include "core/huffman_wavelet_tree.hpp"
#include "util/workloads.hpp"

namespace wt {
namespace {

// ---------------------------------------------------------------- HuffmanCode

TEST(HuffmanCode, SingleSymbolGetsOneBit) {
  HuffmanCode code({{42, 10}});
  EXPECT_EQ(code.num_symbols(), 1u);
  EXPECT_EQ(code.Encode(42).ToString(), "0");
  EXPECT_EQ(code.Decode(BitString::FromString("0").Span()),
            (std::pair<uint64_t, size_t>{42, 1}));
}

TEST(HuffmanCode, TwoEqualSymbolsGetOneBitEach) {
  HuffmanCode code({{5, 1}, {9, 1}});
  EXPECT_EQ(*code.Length(5), 1u);
  EXPECT_EQ(*code.Length(9), 1u);
  EXPECT_NE(code.Encode(5).ToString(), code.Encode(9).ToString());
}

TEST(HuffmanCode, SkewedFrequenciesGiveShorterCodesToFrequentSymbols) {
  // freqs 8:4:2:1:1 -> lengths 1,2,3,4,4 (textbook).
  HuffmanCode code({{0, 8}, {1, 4}, {2, 2}, {3, 1}, {4, 1}});
  EXPECT_EQ(*code.Length(0), 1u);
  EXPECT_EQ(*code.Length(1), 2u);
  EXPECT_EQ(*code.Length(2), 3u);
  EXPECT_EQ(*code.Length(3), 4u);
  EXPECT_EQ(*code.Length(4), 4u);
}

TEST(HuffmanCode, CodewordsArePrefixFree) {
  std::vector<std::pair<uint64_t, uint64_t>> freqs;
  std::mt19937_64 rng(3);
  for (uint64_t s = 0; s < 40; ++s) freqs.push_back({s * 977, 1 + rng() % 1000});
  HuffmanCode code(freqs);
  std::vector<BitString> words;
  for (const auto& [sym, f] : freqs) words.push_back(code.Encode(sym));
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t j = 0; j < words.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(words[i].Span().IsPrefixOf(words[j].Span()))
          << words[i].ToString() << " prefixes " << words[j].ToString();
    }
  }
}

TEST(HuffmanCode, DecodeInvertsEncode) {
  std::vector<std::pair<uint64_t, uint64_t>> freqs;
  std::mt19937_64 rng(11);
  for (uint64_t s = 0; s < 64; ++s) freqs.push_back({rng(), 1 + rng() % 500});
  HuffmanCode code(freqs);
  for (const auto& [sym, f] : freqs) {
    const BitString cw = code.Encode(sym);
    const auto [dec, len] = code.Decode(cw.Span());
    EXPECT_EQ(dec, sym);
    EXPECT_EQ(len, cw.size());
  }
}

TEST(HuffmanCode, DecodeConsumesOnlyTheCodeword) {
  HuffmanCode code({{1, 3}, {2, 2}, {3, 1}});
  BitString stream = code.Encode(3);
  stream.Append(code.Encode(1));
  const auto [first, len] = code.Decode(stream.Span());
  EXPECT_EQ(first, 3u);
  const auto [second, len2] = code.Decode(stream.SubSpan(len));
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(len + len2, stream.size());
}

TEST(HuffmanCode, AverageLengthWithinOneBitOfEntropy) {
  // Shannon: H0 <= avg codeword length < H0 + 1.
  std::mt19937_64 rng(5);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::pair<uint64_t, uint64_t>> freqs;
    uint64_t total = 0;
    const size_t sigma = 2 + rng() % 100;
    for (uint64_t s = 0; s < sigma; ++s) {
      const uint64_t f = 1 + rng() % 10000;
      freqs.push_back({s, f});
      total += f;
    }
    double h0 = 0;
    for (const auto& [sym, f] : freqs) {
      const double p = double(f) / double(total);
      h0 -= p * std::log2(p);
    }
    const double avg = double(HuffmanCode(freqs).EncodedBits(freqs)) / double(total);
    EXPECT_GE(avg + 1e-9, h0) << "round " << round;
    EXPECT_LT(avg, h0 + 1.0) << "round " << round;
  }
}

TEST(HuffmanCode, CanonicalCodesAreOrderedWithinLength) {
  // Canonical property: among symbols of equal length, codes increase with
  // symbol order, and as integers code(len k) values are contiguous.
  HuffmanCode code({{10, 5}, {20, 5}, {30, 5}, {40, 5}});
  // All lengths are 2; codewords must be 00, 01, 10, 11 in symbol order.
  EXPECT_EQ(code.Encode(10).ToString(), "00");
  EXPECT_EQ(code.Encode(20).ToString(), "01");
  EXPECT_EQ(code.Encode(30).ToString(), "10");
  EXPECT_EQ(code.Encode(40).ToString(), "11");
}

TEST(HuffmanCode, SparseAlphabetSupported) {
  HuffmanCode code({{uint64_t(1) << 63, 4}, {0, 2}, {977, 1}});
  EXPECT_TRUE(code.Contains(uint64_t(1) << 63));
  EXPECT_TRUE(code.Contains(0));
  EXPECT_FALSE(code.Contains(976));
  EXPECT_EQ(code.Length(976), std::nullopt);
}

// ------------------------------------------------------- HuffmanWaveletTree

TEST(HuffmanWaveletTree, EmptySequence) {
  HuffmanWaveletTree hwt;
  EXPECT_EQ(hwt.size(), 0u);
  EXPECT_TRUE(hwt.empty());
  EXPECT_EQ(hwt.Rank(7, 0), 0u);
  EXPECT_EQ(hwt.Select(7, 0), std::nullopt);
}

TEST(HuffmanWaveletTree, ConstantSequence) {
  std::vector<uint64_t> seq(100, 9);
  HuffmanWaveletTree hwt(seq);
  EXPECT_EQ(hwt.NumDistinct(), 1u);
  EXPECT_EQ(hwt.Access(57), 9u);
  EXPECT_EQ(hwt.Rank(9, 100), 100u);
  EXPECT_EQ(*hwt.Select(9, 99), 99u);
  EXPECT_EQ(hwt.Select(9, 100), std::nullopt);
  EXPECT_EQ(hwt.Rank(8, 100), 0u);
}

TEST(HuffmanWaveletTree, MatchesNaiveOnAbracadabra) {
  // The paper's Figure 1 sequence, as integers a=0 b=1 c=2 d=3 r=4.
  const std::vector<uint64_t> seq{0, 1, 4, 0, 2, 0, 3, 0, 1, 4, 0};
  HuffmanWaveletTree hwt(seq);
  EXPECT_EQ(hwt.size(), seq.size());
  EXPECT_EQ(hwt.NumDistinct(), 5u);
  for (size_t i = 0; i < seq.size(); ++i) EXPECT_EQ(hwt.Access(i), seq[i]);
  // 'a' (freq 5 of 11) must get the shortest codeword.
  for (uint64_t s = 1; s <= 4; ++s) {
    EXPECT_LE(*hwt.code().Length(0), *hwt.code().Length(s));
  }
  EXPECT_EQ(hwt.Rank(0, 11), 5u);
  EXPECT_EQ(hwt.Rank(4, 11), 2u);
  EXPECT_EQ(*hwt.Select(4, 1), 9u);
}

struct HwtParam {
  size_t n;
  size_t distinct;
  IntDistribution dist;
  uint64_t seed;
};

class HuffmanWaveletTreeProperty : public ::testing::TestWithParam<HwtParam> {};

TEST_P(HuffmanWaveletTreeProperty, MatchesNaiveCounts) {
  const auto p = GetParam();
  const auto seq = GenerateIntegers(p.n, p.distinct, p.dist, p.seed);
  HuffmanWaveletTree hwt(seq);
  ASSERT_EQ(hwt.size(), seq.size());

  // Access everywhere.
  for (size_t i = 0; i < seq.size(); ++i) ASSERT_EQ(hwt.Access(i), seq[i]) << i;

  // Rank at sampled positions against a running count.
  std::map<uint64_t, size_t> counts;
  for (size_t i = 0; i <= seq.size(); ++i) {
    if (i % 97 == 0 || i == seq.size()) {
      for (const auto& [sym, c] : counts) {
        ASSERT_EQ(hwt.Rank(sym, i), c) << "sym " << sym << " pos " << i;
      }
    }
    if (i < seq.size()) ++counts[seq[i]];
  }

  // Select inverts Rank for every occurrence of a few symbols.
  size_t probed = 0;
  for (const auto& [sym, total] : counts) {
    if (probed++ % 5 != 0) continue;
    for (size_t k = 0; k < total; k += (total / 7 + 1)) {
      const auto pos = hwt.Select(sym, k);
      ASSERT_TRUE(pos.has_value());
      ASSERT_EQ(seq[*pos], sym);
      ASSERT_EQ(hwt.Rank(sym, *pos), k);
    }
    ASSERT_EQ(hwt.Select(sym, total), std::nullopt);
  }
}

TEST_P(HuffmanWaveletTreeProperty, SpaceTracksEntropy) {
  const auto p = GetParam();
  const auto seq = GenerateIntegers(p.n, p.distinct, p.dist, p.seed);
  HuffmanWaveletTree hwt(seq);
  std::map<uint64_t, size_t> counts;
  for (uint64_t v : seq) ++counts[v];
  double h0 = 0;
  for (const auto& [sym, c] : counts) {
    const double q = double(c) / double(seq.size());
    h0 -= q * std::log2(q);
  }
  // Bitvector payload ~ Huffman-encoded size < n(H0+1); the whole structure
  // also carries the model (symbols + lengths) and sub-linear directories.
  const double payload_budget =
      double(seq.size()) * (h0 + 1.0) +
      double(counts.size()) * 192.0 +  // model + per-node constants
      4096.0;
  EXPECT_LT(double(hwt.trie().SizeInBits()), payload_budget * 1.35);
}

TEST_P(HuffmanWaveletTreeProperty, DistinctInRangeMatchesNaive) {
  const auto p = GetParam();
  const auto seq = GenerateIntegers(p.n, p.distinct, p.dist, p.seed);
  HuffmanWaveletTree hwt(seq);
  const size_t l = p.n / 5, r = std::min(p.n, l + p.n / 3 + 1);
  std::map<uint64_t, size_t> expect;
  for (size_t i = l; i < r; ++i) ++expect[seq[i]];
  std::map<uint64_t, size_t> got;
  hwt.DistinctInRange(l, r, [&](uint64_t sym, size_t c) { got[sym] = c; });
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HuffmanWaveletTreeProperty,
    ::testing::Values(HwtParam{500, 3, IntDistribution::kUniform, 1},
                      HwtParam{1000, 17, IntDistribution::kZipf, 2},
                      HwtParam{2000, 64, IntDistribution::kUniform, 3},
                      HwtParam{3000, 200, IntDistribution::kZipf, 4},
                      HwtParam{1500, 40, IntDistribution::kClustered, 5},
                      HwtParam{4000, 999, IntDistribution::kZipf, 6}));

TEST(HuffmanWaveletTree, HuffmanShapeBeatsBalancedOnSkew) {
  // With a heavily skewed distribution the Huffman shape's total bitvector
  // length (~nH0) is far below the balanced shape's n*ceil(log sigma).
  const size_t n = 20000;
  std::mt19937_64 rng(8);
  std::vector<uint64_t> seq;
  seq.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // 95% symbol 0, rest uniform over 255 others.
    seq.push_back(rng() % 100 < 95 ? 0 : 1 + rng() % 255);
  }
  HuffmanWaveletTree hwt(seq);
  // Frequent symbol has a 1-2 bit code; average height << log2(256) = 8.
  EXPECT_LE(*hwt.code().Length(0), 2u);
  EXPECT_GE(hwt.Height(), 8u);
  double avg_len = 0;
  std::map<uint64_t, size_t> counts;
  for (uint64_t v : seq) ++counts[v];
  for (const auto& [sym, c] : counts) avg_len += double(c) * double(*hwt.code().Length(sym));
  avg_len /= double(n);
  EXPECT_LT(avg_len, 3.0);
}

}  // namespace
}  // namespace wt
