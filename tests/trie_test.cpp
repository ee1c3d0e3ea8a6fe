// Tests for the dynamic PatriciaTrie of Appendix B.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/bit_string.hpp"
#include "trie/patricia_trie.hpp"

namespace wt {
namespace {

// --------------------------------------------------------- PatriciaTrie

BitString BS(const std::string& s) { return BitString::FromString(s); }

TEST(PatriciaTrie, InsertAndContains) {
  PatriciaTrie t;
  EXPECT_TRUE(t.Insert(BS("0001")));
  EXPECT_TRUE(t.Insert(BS("0011")));
  EXPECT_TRUE(t.Insert(BS("0100")));
  EXPECT_TRUE(t.Insert(BS("00100")));
  EXPECT_FALSE(t.Insert(BS("0011")));  // duplicate
  EXPECT_EQ(t.size(), 4u);
  EXPECT_TRUE(t.Contains(BS("0001")));
  EXPECT_TRUE(t.Contains(BS("00100")));
  EXPECT_FALSE(t.Contains(BS("0000")));
  EXPECT_FALSE(t.Contains(BS("01")));
  EXPECT_FALSE(t.Contains(BS("010000")));
}

TEST(PatriciaTrie, EnumerationIsLexicographic) {
  PatriciaTrie t;
  const std::vector<std::string> strs = {"0001", "0011", "0100", "00100"};
  for (const auto& s : strs) t.Insert(BS(s));
  std::vector<std::string> got;
  t.ForEach([&](const BitString& b) { got.push_back(b.ToString()); });
  // Lexicographic bit order: 0001 < 00100 < 0011 < 0100.
  const std::vector<std::string> expect = {"0001", "00100", "0011", "0100"};
  EXPECT_EQ(got, expect);
}

TEST(PatriciaTrie, EraseMergesNodes) {
  PatriciaTrie t;
  t.Insert(BS("0001"));
  t.Insert(BS("0011"));
  t.Insert(BS("0100"));
  EXPECT_TRUE(t.Erase(BS("0011")));
  EXPECT_FALSE(t.Erase(BS("0011")));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.Contains(BS("0001")));
  EXPECT_TRUE(t.Contains(BS("0100")));
  EXPECT_TRUE(t.Erase(BS("0001")));
  EXPECT_TRUE(t.Erase(BS("0100")));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.LabelBits(), 0u);
}

TEST(PatriciaTrie, LabelBitsMatchesRebuild) {
  // After arbitrary churn, |L| must equal the value from a fresh build.
  std::mt19937_64 rng(42);
  PatriciaTrie t;
  std::set<std::string> ref;
  auto random_string = [&]() {
    // Fixed length 12 => prefix-free guaranteed.
    std::string s;
    for (int i = 0; i < 12; ++i) s.push_back((rng() % 2) ? '1' : '0');
    return s;
  };
  for (int step = 0; step < 2000; ++step) {
    if (ref.empty() || rng() % 3 != 0) {
      const std::string s = random_string();
      ASSERT_EQ(t.Insert(BS(s)), ref.insert(s).second);
    } else {
      auto it = ref.begin();
      std::advance(it, rng() % ref.size());
      ASSERT_TRUE(t.Erase(BS(*it)));
      ref.erase(it);
    }
  }
  ASSERT_EQ(t.size(), ref.size());
  for (const auto& s : ref) ASSERT_TRUE(t.Contains(BS(s)));
  // Rebuild and compare |L| and node count.
  PatriciaTrie fresh;
  for (const auto& s : ref) fresh.Insert(BS(s));
  EXPECT_EQ(t.LabelBits(), fresh.LabelBits());
  EXPECT_EQ(t.NumNodes(), fresh.NumNodes());
  // Enumeration equals the sorted reference (fixed length => bit-lex ==
  // string-lex).
  std::vector<std::string> got;
  t.ForEach([&](const BitString& b) { got.push_back(b.ToString()); });
  std::vector<std::string> expect(ref.begin(), ref.end());
  EXPECT_EQ(got, expect);
}

TEST(PatriciaTrie, VariableLengthPrefixFreeSet) {
  // Strings ending in '1' with only '0's before: 1, 01, 001, ... prefix-free.
  PatriciaTrie t;
  std::vector<std::string> strs;
  std::string cur = "1";
  for (int i = 0; i < 50; ++i) {
    strs.push_back(cur);
    cur = "0" + cur;
  }
  std::mt19937_64 rng(7);
  std::shuffle(strs.begin(), strs.end(), rng);
  for (const auto& s : strs) ASSERT_TRUE(t.Insert(BS(s)));
  EXPECT_EQ(t.size(), 50u);
  for (const auto& s : strs) ASSERT_TRUE(t.Contains(BS(s)));
  std::shuffle(strs.begin(), strs.end(), rng);
  for (const auto& s : strs) ASSERT_TRUE(t.Erase(BS(s)));
  EXPECT_TRUE(t.empty());
}

TEST(PatriciaTrie, SingleString) {
  PatriciaTrie t;
  t.Insert(BS("10101"));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.LabelBits(), 5u);
  EXPECT_EQ(t.NumNodes(), 1u);
  EXPECT_TRUE(t.Contains(BS("10101")));
  EXPECT_FALSE(t.Contains(BS("1010")));
  EXPECT_TRUE(t.Erase(BS("10101")));
  EXPECT_EQ(t.LabelBits(), 0u);
}

TEST(PatriciaTrie, LabelBitsKnownSmallCase) {
  // {00, 01}: root label "0", two empty leaf labels; branch bits implicit.
  PatriciaTrie t;
  t.Insert(BS("00"));
  t.Insert(BS("01"));
  EXPECT_EQ(t.LabelBits(), 1u);
  EXPECT_EQ(t.NumNodes(), 3u);
  // Erase one: back to a single leaf "01" with 2 label bits.
  t.Erase(BS("00"));
  EXPECT_EQ(t.LabelBits(), 2u);
}

}  // namespace
}  // namespace wt
