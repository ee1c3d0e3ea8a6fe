// Tests for the 2D / analytics operations on the classic Wavelet Tree
// (RangeCount2d, RangeQuantile, RangeDistinct, RangeMajority) and for the
// lexicographic dictionary baseline (core/lex_sequence.hpp) — related-work
// approach (1), including the RankPrefix-via-RangeCount reduction and the
// binary-searched SelectPrefix fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/lex_sequence.hpp"
#include "core/wavelet_tree.hpp"
#include "util/workloads.hpp"

namespace wt {
namespace {

// ------------------------------------------------------------ 2D operations

struct Wt2dParam {
  size_t n;
  uint64_t sigma;
  IntDistribution dist;
  uint64_t seed;
};

class WaveletTree2dProperty : public ::testing::TestWithParam<Wt2dParam> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    std::mt19937_64 rng(p.seed);
    seq_.reserve(p.n);
    switch (p.dist) {
      case IntDistribution::kUniform:
        for (size_t i = 0; i < p.n; ++i) seq_.push_back(rng() % p.sigma);
        break;
      case IntDistribution::kZipf: {
        ZipfDistribution z(p.sigma, 1.0);
        for (size_t i = 0; i < p.n; ++i) seq_.push_back(z(rng));
        break;
      }
      case IntDistribution::kClustered: {
        size_t i = 0;
        while (i < p.n) {
          const uint64_t v = rng() % p.sigma;
          for (size_t j = rng() % 30 + 1; j > 0 && i < p.n; --j, ++i)
            seq_.push_back(v);
        }
        break;
      }
    }
    tree_ = WaveletTree(seq_, p.sigma);
    rng_.seed(p.seed ^ 0xABCD);
  }

  size_t NaiveRangeCount(size_t l, size_t r, uint64_t a, uint64_t b) const {
    size_t c = 0;
    for (size_t i = l; i < r; ++i) c += (seq_[i] >= a && seq_[i] < b);
    return c;
  }

  std::vector<uint64_t> seq_;
  WaveletTree tree_;
  std::mt19937_64 rng_;
};

TEST_P(WaveletTree2dProperty, RangeCountMatchesNaive) {
  const size_t n = seq_.size();
  const uint64_t sigma = GetParam().sigma;
  for (int probe = 0; probe < 200; ++probe) {
    size_t l = rng_() % (n + 1), r = rng_() % (n + 1);
    if (l > r) std::swap(l, r);
    uint64_t a = rng_() % (sigma + 2), b = rng_() % (sigma + 2);
    if (a > b) std::swap(a, b);
    ASSERT_EQ(tree_.RangeCount2d(l, r, a, b), NaiveRangeCount(l, r, a, b))
        << "l=" << l << " r=" << r << " a=" << a << " b=" << b;
  }
}

TEST_P(WaveletTree2dProperty, RangeCountDegenerateRanges) {
  const size_t n = seq_.size();
  EXPECT_EQ(tree_.RangeCount2d(0, 0, 0, GetParam().sigma), 0u);
  EXPECT_EQ(tree_.RangeCount2d(n, n, 0, GetParam().sigma), 0u);
  EXPECT_EQ(tree_.RangeCount2d(0, n, 5, 5), 0u);
  EXPECT_EQ(tree_.RangeCount2d(0, n, 0, GetParam().sigma), n);
}

TEST_P(WaveletTree2dProperty, QuantileMatchesSortedRange) {
  const size_t n = seq_.size();
  for (int probe = 0; probe < 40; ++probe) {
    size_t l = rng_() % n, r = l + 1 + rng_() % (n - l);
    std::vector<uint64_t> window(seq_.begin() + l, seq_.begin() + r);
    std::sort(window.begin(), window.end());
    for (size_t k = 0; k < window.size(); k += (window.size() / 9 + 1)) {
      ASSERT_EQ(tree_.RangeQuantile(l, r, k), window[k])
          << "l=" << l << " r=" << r << " k=" << k;
    }
    // Median and extremes.
    ASSERT_EQ(tree_.RangeQuantile(l, r, 0), window.front());
    ASSERT_EQ(tree_.RangeQuantile(l, r, window.size() - 1), window.back());
    ASSERT_EQ(tree_.RangeQuantile(l, r, window.size() / 2),
              window[window.size() / 2]);
  }
}

TEST_P(WaveletTree2dProperty, DistinctMatchesNaive) {
  const size_t n = seq_.size();
  for (int probe = 0; probe < 25; ++probe) {
    size_t l = rng_() % (n + 1), r = rng_() % (n + 1);
    if (l > r) std::swap(l, r);
    std::map<uint64_t, size_t> expect;
    for (size_t i = l; i < r; ++i) ++expect[seq_[i]];
    std::map<uint64_t, size_t> got;
    uint64_t prev = 0;
    bool first = true;
    tree_.RangeDistinct(l, r, [&](uint64_t v, size_t c) {
      got[v] = c;
      if (!first) {
        ASSERT_GT(v, prev) << "not in increasing order";
      }
      prev = v;
      first = false;
    });
    ASSERT_EQ(got, expect) << "l=" << l << " r=" << r;
  }
}

TEST_P(WaveletTree2dProperty, MajorityMatchesNaive) {
  const size_t n = seq_.size();
  for (int probe = 0; probe < 60; ++probe) {
    size_t l = rng_() % (n + 1), r = rng_() % (n + 1);
    if (l > r) std::swap(l, r);
    std::map<uint64_t, size_t> counts;
    for (size_t i = l; i < r; ++i) ++counts[seq_[i]];
    std::optional<std::pair<uint64_t, size_t>> expect;
    for (const auto& [v, c] : counts) {
      if (2 * c > r - l) expect = {v, c};
    }
    ASSERT_EQ(tree_.RangeMajority(l, r), expect) << "l=" << l << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WaveletTree2dProperty,
    ::testing::Values(Wt2dParam{300, 2, IntDistribution::kUniform, 1},
                      Wt2dParam{1000, 16, IntDistribution::kZipf, 2},
                      Wt2dParam{2000, 100, IntDistribution::kUniform, 3},
                      Wt2dParam{1500, 7, IntDistribution::kClustered, 4},
                      Wt2dParam{2500, 1000, IntDistribution::kZipf, 5},
                      Wt2dParam{500, 1, IntDistribution::kUniform, 6},
                      Wt2dParam{4000, 256, IntDistribution::kClustered, 7}));

TEST(WaveletTree2d, MajorityOnConstantRuns) {
  std::vector<uint64_t> seq{5, 5, 5, 5, 2, 2, 9, 5, 5};
  WaveletTree tree(seq, 10);
  auto m = tree.RangeMajority(0, 9);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first, 5u);
  EXPECT_EQ(m->second, 6u);
  auto two_of_three = tree.RangeMajority(4, 7);  // 2,2,9 -> 2 wins (2 of 3)
  ASSERT_TRUE(two_of_three.has_value());
  EXPECT_EQ(two_of_three->first, 2u);
  EXPECT_EQ(tree.RangeMajority(4, 8), std::nullopt);  // 2,2,9,5 -> tie, none
  auto single = tree.RangeMajority(6, 7);
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->first, 9u);
}

// ------------------------------------------------------- LexMappedSequence

class LexSequenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    UrlLogGenerator gen({.num_domains = 12, .paths_per_domain = 9, .seed = 99});
    seq_ = gen.Take(600);
    lex_ = LexMappedSequence(seq_);
  }

  size_t NaiveRankPrefix(const std::string& p, size_t pos) const {
    size_t c = 0;
    for (size_t i = 0; i < pos; ++i) c += seq_[i].compare(0, p.size(), p) == 0;
    return c;
  }

  std::vector<std::string> seq_;
  LexMappedSequence lex_;
};

TEST_F(LexSequenceTest, AccessRoundTrip) {
  for (size_t i = 0; i < seq_.size(); ++i) ASSERT_EQ(lex_.Access(i), seq_[i]);
}

TEST_F(LexSequenceTest, RankSelectMatchNaive) {
  const std::string probe = seq_[17];
  size_t count = 0;
  for (size_t i = 0; i < seq_.size(); ++i) {
    ASSERT_EQ(lex_.Rank(probe, i), count);
    if (seq_[i] == probe) {
      ASSERT_EQ(lex_.Select(probe, count), std::optional<size_t>(i));
      ++count;
    }
  }
  EXPECT_EQ(lex_.Select(probe, count), std::nullopt);
  EXPECT_EQ(lex_.Rank("absent-string", seq_.size()), 0u);
  EXPECT_EQ(lex_.Select("absent-string", 0), std::nullopt);
}

TEST_F(LexSequenceTest, RankPrefixViaRangeCountMatchesNaive) {
  const std::vector<std::string> prefixes{
      "www.site0.com", "www.site1.com/sec1", "www.site", "www.site11.com/",
      "nosuchprefix",   ""};
  for (const auto& p : prefixes) {
    for (size_t pos = 0; pos <= seq_.size(); pos += 61) {
      ASSERT_EQ(lex_.RankPrefix(p, pos), NaiveRankPrefix(p, pos))
          << "prefix '" << p << "' pos " << pos;
    }
    ASSERT_EQ(lex_.RankPrefix(p, seq_.size()),
              NaiveRankPrefix(p, seq_.size()));
  }
}

TEST_F(LexSequenceTest, SelectPrefixBinarySearchMatchesNaive) {
  const std::string p = "www.site0.com";
  std::vector<size_t> expect;
  for (size_t i = 0; i < seq_.size(); ++i) {
    if (seq_[i].compare(0, p.size(), p) == 0) expect.push_back(i);
  }
  ASSERT_FALSE(expect.empty());
  for (size_t k = 0; k < expect.size(); ++k) {
    ASSERT_EQ(lex_.SelectPrefix(p, k), std::optional<size_t>(expect[k])) << k;
  }
  EXPECT_EQ(lex_.SelectPrefix(p, expect.size()), std::nullopt);
  EXPECT_EQ(lex_.SelectPrefix("nosuchprefix", 0), std::nullopt);
}

TEST_F(LexSequenceTest, PrefixIdRangeBoundaries) {
  // Every dictionary entry with the prefix must fall inside the id range,
  // every entry without it outside.
  const std::string p = "www.site1";
  const auto [lo, hi] = lex_.PrefixIdRange(p);
  const auto& dict = lex_.dictionary();
  for (uint64_t id = 0; id < dict.size(); ++id) {
    const bool has = dict[id].compare(0, p.size(), p) == 0;
    EXPECT_EQ(id >= lo && id < hi, has) << dict[id];
  }
}

TEST_F(LexSequenceTest, EmptyPrefixCoversEverything) {
  EXPECT_EQ(lex_.RankPrefix("", seq_.size()), seq_.size());
  EXPECT_EQ(lex_.SelectPrefix("", 0), std::optional<size_t>(0));
}

TEST_F(LexSequenceTest, AppendWithRebuildGrowsAlphabet) {
  const size_t d = lex_.NumDistinct();
  const size_t n = lex_.size();
  EXPECT_TRUE(lex_.AppendWithRebuild("zzz.example.org/brand-new"));
  EXPECT_EQ(lex_.size(), n + 1);
  EXPECT_EQ(lex_.NumDistinct(), d + 1);
  EXPECT_EQ(lex_.Access(n), "zzz.example.org/brand-new");
  // Existing positions survive the rebuild.
  for (size_t i = 0; i < n; i += 37) EXPECT_EQ(lex_.Access(i), seq_[i]);
  // Appending a known value does not grow the alphabet.
  EXPECT_FALSE(lex_.AppendWithRebuild(seq_[0]));
  EXPECT_EQ(lex_.NumDistinct(), d + 1);
}

TEST(LexSequence, EmptyAndSingle) {
  LexMappedSequence empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.Rank("x", 0), 0u);

  LexMappedSequence one(std::vector<std::string>{"solo"});
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.Access(0), "solo");
  EXPECT_EQ(one.RankPrefix("so", 1), 1u);
  EXPECT_EQ(one.SelectPrefix("so", 0), std::optional<size_t>(0));
}

TEST(LexSequence, PrefixThatIsAlsoAFullString) {
  // "ab" is both a stored string and a prefix of "abc": prefix queries must
  // count both, exact queries only the exact one.
  std::vector<std::string> seq{"ab", "abc", "ab", "b", "abc"};
  LexMappedSequence lex(seq);
  EXPECT_EQ(lex.RankPrefix("ab", 5), 4u);
  EXPECT_EQ(lex.Rank("ab", 5), 2u);
  EXPECT_EQ(lex.Rank("abc", 5), 2u);
  EXPECT_EQ(lex.SelectPrefix("ab", 3), std::optional<size_t>(4));
}

TEST(WaveletTree, EmptyAndSingleValueTrees) {
  WaveletTree empty(std::vector<uint64_t>{}, 1);
  EXPECT_EQ(empty.size(), 0u);

  WaveletTree constant(std::vector<uint64_t>(40, 0), 1);
  EXPECT_EQ(constant.size(), 40u);
  EXPECT_EQ(constant.Access(17), 0u);
  EXPECT_EQ(constant.Rank(0, 40), 40u);
}

}  // namespace
}  // namespace wt
