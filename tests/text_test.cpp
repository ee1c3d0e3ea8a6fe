// Tests for the text-indexing substrate: suffix array / BWT / LCP
// (text/suffix_array.hpp), the FM-index (text/fm_index.hpp) and the
// approach-(2) TextCollection baseline (text/text_collection.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "text/fm_index.hpp"
#include "text/suffix_array.hpp"
#include "text/text_collection.hpp"
#include "util/workloads.hpp"

namespace wt {
namespace {

std::vector<uint32_t> ToSymbols(std::string_view s, bool sentinel = true) {
  std::vector<uint32_t> out;
  for (unsigned char c : s) out.push_back(uint32_t(c) + 1);
  if (sentinel) out.push_back(0);
  return out;
}

std::vector<uint32_t> NaiveSuffixArray(const std::vector<uint32_t>& text) {
  std::vector<uint32_t> sa(text.size());
  std::iota(sa.begin(), sa.end(), 0);
  std::sort(sa.begin(), sa.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(text.begin() + a, text.end(),
                                        text.begin() + b, text.end());
  });
  return sa;
}

size_t NaiveCount(std::string_view text, std::string_view pat) {
  if (pat.empty()) return text.size() + 1;
  size_t c = 0;
  for (size_t i = 0; pat.size() <= text.size() && i + pat.size() <= text.size(); ++i) {
    c += text.compare(i, pat.size(), pat) == 0;
  }
  return c;
}

// -------------------------------------------------------------- SuffixArray

TEST(SuffixArray, EmptyAndSingle) {
  EXPECT_TRUE(BuildSuffixArray({}).empty());
  EXPECT_EQ(BuildSuffixArray({5}), (std::vector<uint32_t>{0}));
}

TEST(SuffixArray, BananaClassic) {
  // banana$ -> SA = 6 5 3 1 0 4 2, BWT = annb$aa.
  const auto text = ToSymbols("banana");
  const auto sa = BuildSuffixArray(text);
  EXPECT_EQ(sa, (std::vector<uint32_t>{6, 5, 3, 1, 0, 4, 2}));
  const auto bwt = BuildBwt(text, sa);
  std::string rendered;
  for (uint32_t c : bwt) rendered.push_back(c == 0 ? '$' : char(c - 1));
  EXPECT_EQ(rendered, "annb$aa");
}

TEST(SuffixArray, AllEqualSymbols) {
  const auto text = ToSymbols("aaaaaa");
  const auto sa = BuildSuffixArray(text);
  // Shorter suffixes sort first: 6(sentinel),5,4,3,2,1,0.
  EXPECT_EQ(sa, (std::vector<uint32_t>{6, 5, 4, 3, 2, 1, 0}));
}

TEST(SuffixArray, PeriodicText) {
  const auto text = ToSymbols("abababab");
  EXPECT_EQ(BuildSuffixArray(text), NaiveSuffixArray(text));
}

class SuffixArrayRandom : public ::testing::TestWithParam<
                              std::tuple<size_t, unsigned, uint64_t>> {};

TEST_P(SuffixArrayRandom, MatchesNaiveSort) {
  const auto [len, sigma, seed] = GetParam();
  std::mt19937_64 rng(seed);
  std::string s;
  for (size_t i = 0; i < len; ++i) s.push_back(char('a' + rng() % sigma));
  const auto text = ToSymbols(s);
  EXPECT_EQ(BuildSuffixArray(text), NaiveSuffixArray(text)) << s;
}

TEST_P(SuffixArrayRandom, LcpMatchesNaive) {
  const auto [len, sigma, seed] = GetParam();
  std::mt19937_64 rng(seed ^ 0xF00D);
  std::string s;
  for (size_t i = 0; i < len; ++i) s.push_back(char('a' + rng() % sigma));
  const auto text = ToSymbols(s);
  const auto sa = BuildSuffixArray(text);
  const auto lcp = BuildLcpArray(text, sa);
  ASSERT_EQ(lcp.size(), text.size() - 1);
  for (size_t k = 0; k + 1 < text.size(); ++k) {
    size_t h = 0;
    while (sa[k] + h < text.size() && sa[k + 1] + h < text.size() &&
           text[sa[k] + h] == text[sa[k + 1] + h]) {
      ++h;
    }
    ASSERT_EQ(lcp[k], h) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SuffixArrayRandom,
    ::testing::Values(std::tuple<size_t, unsigned, uint64_t>{1, 1, 1},
                      std::tuple<size_t, unsigned, uint64_t>{2, 2, 2},
                      std::tuple<size_t, unsigned, uint64_t>{50, 2, 3},
                      std::tuple<size_t, unsigned, uint64_t>{100, 3, 4},
                      std::tuple<size_t, unsigned, uint64_t>{333, 4, 5},
                      std::tuple<size_t, unsigned, uint64_t>{500, 26, 6},
                      std::tuple<size_t, unsigned, uint64_t>{777, 2, 7}));

TEST(SuffixArray, InverseIsAPermutationInverse) {
  const auto text = ToSymbols("mississippi");
  const auto sa = BuildSuffixArray(text);
  const auto isa = InverseSuffixArray(sa);
  for (size_t k = 0; k < sa.size(); ++k) {
    EXPECT_EQ(isa[sa[k]], k);
    EXPECT_EQ(sa[isa[k]], k);
  }
}

// ------------------------------------------------------------------ FmIndex

TEST(FmIndex, CountOnMississippi) {
  const auto fm = FmIndex::FromString("mississippi");
  EXPECT_EQ(fm.size(), 11u);
  EXPECT_EQ(fm.CountString("ssi"), 2u);
  EXPECT_EQ(fm.CountString("issi"), 2u);
  EXPECT_EQ(fm.CountString("i"), 4u);
  EXPECT_EQ(fm.CountString("mississippi"), 1u);
  EXPECT_EQ(fm.CountString("x"), 0u);
  EXPECT_EQ(fm.CountString("ppi"), 1u);
  EXPECT_EQ(fm.CountString(""), 12u);
}

TEST(FmIndex, LocateOnMississippi) {
  const auto fm = FmIndex::FromString("mississippi");
  EXPECT_EQ(fm.LocateString("ssi"), (std::vector<size_t>{2, 5}));
  EXPECT_EQ(fm.LocateString("i"), (std::vector<size_t>{1, 4, 7, 10}));
  EXPECT_EQ(fm.LocateString("mississippi"), (std::vector<size_t>{0}));
  EXPECT_TRUE(fm.LocateString("zzz").empty());
}

TEST(FmIndex, ExtractRecoversSubstrings) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const auto fm = FmIndex::FromString(text);
  for (size_t start = 0; start < text.size(); start += 5) {
    for (size_t len : {size_t(0), size_t(1), size_t(7),
                       text.size() - start}) {
      if (start + len > text.size()) continue;
      EXPECT_EQ(fm.ExtractString(start, len), text.substr(start, len))
          << start << "+" << len;
    }
  }
}

class FmIndexRandom
    : public ::testing::TestWithParam<std::tuple<size_t, unsigned, uint64_t>> {
 protected:
  void SetUp() override {
    const auto [len, sigma, seed] = GetParam();
    std::mt19937_64 rng(seed);
    for (size_t i = 0; i < len; ++i) text_.push_back(char('a' + rng() % sigma));
    fm_ = FmIndex::FromString(text_);
    rng_.seed(seed ^ 0xBEEF);
  }

  std::string RandomPattern(size_t max_len, bool from_text) {
    const size_t len = 1 + rng_() % max_len;
    if (from_text && len <= text_.size()) {
      const size_t start = rng_() % (text_.size() - len + 1);
      return text_.substr(start, len);
    }
    const auto [_, sigma, __] = GetParam();
    std::string p;
    for (size_t i = 0; i < len; ++i) p.push_back(char('a' + rng_() % (sigma + 1)));
    return p;
  }

  std::string text_;
  FmIndex fm_;
  std::mt19937_64 rng_;
};

TEST_P(FmIndexRandom, CountMatchesNaive) {
  for (int probe = 0; probe < 60; ++probe) {
    const std::string p = RandomPattern(12, probe % 2 == 0);
    ASSERT_EQ(fm_.CountString(p), NaiveCount(text_, p)) << "'" << p << "'";
  }
}

TEST_P(FmIndexRandom, LocateMatchesNaive) {
  for (int probe = 0; probe < 25; ++probe) {
    const std::string p = RandomPattern(8, true);
    std::vector<size_t> expect;
    for (size_t i = 0; i + p.size() <= text_.size(); ++i) {
      if (text_.compare(i, p.size(), p) == 0) expect.push_back(i);
    }
    ASSERT_EQ(fm_.LocateString(p), expect) << "'" << p << "'";
  }
}

TEST_P(FmIndexRandom, ExtractMatchesSubstr) {
  for (int probe = 0; probe < 25; ++probe) {
    const size_t start = rng_() % text_.size();
    const size_t len = rng_() % (text_.size() - start + 1);
    ASSERT_EQ(fm_.ExtractString(start, len), text_.substr(start, len));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FmIndexRandom,
    ::testing::Values(std::tuple<size_t, unsigned, uint64_t>{40, 2, 1},
                      std::tuple<size_t, unsigned, uint64_t>{200, 2, 2},
                      std::tuple<size_t, unsigned, uint64_t>{500, 4, 3},
                      std::tuple<size_t, unsigned, uint64_t>{1000, 3, 4},
                      std::tuple<size_t, unsigned, uint64_t>{2000, 26, 5},
                      std::tuple<size_t, unsigned, uint64_t>{1500, 2, 6}));

TEST(FmIndex, EmptyText) {
  FmIndex fm(std::vector<uint32_t>{});
  EXPECT_EQ(fm.size(), 0u);
  EXPECT_EQ(fm.CountString(""), 1u);  // the sentinel row only
  EXPECT_EQ(fm.CountString("a"), 0u);
}

// ------------------------------------------------------------ TextCollection

class TextCollectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    UrlLogGenerator gen({.num_domains = 8, .paths_per_domain = 6, .seed = 4});
    docs_ = gen.Take(150);
    docs_.push_back("");  // empty document edge case
    docs_.push_back(docs_[3]);
    coll_ = TextCollection(docs_);
  }

  std::vector<std::string> docs_;
  TextCollection coll_;
};

TEST_F(TextCollectionTest, AccessExtractsEveryDocument) {
  ASSERT_EQ(coll_.size(), docs_.size());
  for (size_t i = 0; i < docs_.size(); ++i) {
    ASSERT_EQ(coll_.Access(i), docs_[i]) << i;
  }
}

TEST_F(TextCollectionTest, CountRankSelectMatchNaive) {
  const std::vector<std::string> probes{docs_[0], docs_[3], "", "absent!"};
  for (const auto& s : probes) {
    size_t total = 0;
    for (size_t i = 0; i < docs_.size(); ++i) {
      ASSERT_EQ(coll_.Rank(s, i), total) << "'" << s << "' pos " << i;
      if (docs_[i] == s) {
        ASSERT_EQ(coll_.Select(s, total), std::optional<size_t>(i));
        ++total;
      }
    }
    ASSERT_EQ(coll_.Count(s), total) << "'" << s << "'";
    ASSERT_EQ(coll_.Select(s, total), std::nullopt);
  }
}

TEST_F(TextCollectionTest, PrefixOperationsMatchNaive) {
  const std::vector<std::string> prefixes{"www.site0.com", "www.site1",
                                          "www.", "", "nope"};
  for (const auto& p : prefixes) {
    size_t total = 0;
    for (size_t i = 0; i < docs_.size(); ++i) {
      if (i % 13 == 0) {
        ASSERT_EQ(coll_.RankPrefix(p, i), total) << p << " " << i;
      }
      if (docs_[i].compare(0, p.size(), p) == 0) {
        ASSERT_EQ(coll_.SelectPrefix(p, total), std::optional<size_t>(i)) << p;
        ++total;
      }
    }
    ASSERT_EQ(coll_.CountPrefix(p), total) << "'" << p << "'";
  }
}

TEST_F(TextCollectionTest, DocsContainingSubstring) {
  std::vector<size_t> expect;
  for (size_t i = 0; i < docs_.size(); ++i) {
    if (docs_[i].find("page3") != std::string::npos) expect.push_back(i);
  }
  EXPECT_EQ(coll_.DocsContaining("page3"), expect);
}

TEST(TextCollection, EmptyCollection) {
  TextCollection coll;
  EXPECT_EQ(coll.size(), 0u);
  EXPECT_EQ(coll.Count("x"), 0u);
  EXPECT_EQ(coll.CountPrefix(""), 0u);
}

TEST(TextCollection, SharedPrefixDocsAreDistinguished) {
  TextCollection coll(std::vector<std::string>{"ab", "abc", "ab", "a"});
  EXPECT_EQ(coll.Count("ab"), 2u);
  EXPECT_EQ(coll.Count("abc"), 1u);
  EXPECT_EQ(coll.Count("a"), 1u);
  EXPECT_EQ(coll.CountPrefix("ab"), 3u);
  EXPECT_EQ(coll.CountPrefix("a"), 4u);
  EXPECT_EQ(coll.SelectPrefix("ab", 2), std::optional<size_t>(2));
}

}  // namespace
}  // namespace wt
