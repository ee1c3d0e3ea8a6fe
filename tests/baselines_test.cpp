// Tests for the baselines and Section 6:
//   * classic WaveletTree — exact Figure 1 reproduction + randomized checks;
//   * cross-validation: WaveletTree == WaveletTrie-with-FixedIntCodec
//     (the paper's observation that every Wavelet Tree is a Wavelet Trie);
//   * DynamicWaveletTreeFixed (known-alphabet dynamic baseline);
//   * InvertedIndexBaseline;
//   * BalancedWaveletTree (Theorem 6.2) = Sequence<Dynamic, HashedIntCodec>:
//     correctness and height bound;
//   * codec round-trips.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "api/sequence.hpp"
#include "core/codec.hpp"
#include "core/dynamic_wavelet_tree_fixed.hpp"
#include "core/inverted_index.hpp"
#include "core/wavelet_tree.hpp"
#include "core/wavelet_trie.hpp"

namespace wt {
namespace {

// --------------------------------------------------------------- codecs

TEST(ByteCodec, RoundTrip) {
  for (const std::string& s :
       std::vector<std::string>{"", "a", "abracadabra", "www.example.com/x?y=1",
                                std::string("\x00\x01\xff\x7f", 4)}) {
    EXPECT_EQ(ByteCodec::Decode(ByteCodec::Encode(s).Span()), s);
  }
}

TEST(ByteCodec, PrefixRelationPreserved) {
  const BitString full = ByteCodec::Encode("abcdef");
  EXPECT_TRUE(ByteCodec::EncodePrefix("abc").Span().IsPrefixOf(full.Span()));
  EXPECT_TRUE(ByteCodec::EncodePrefix("").Span().IsPrefixOf(full.Span()));
  EXPECT_FALSE(ByteCodec::EncodePrefix("abd").Span().IsPrefixOf(full.Span()));
  // The terminator guarantees prefix-freeness of full encodings.
  EXPECT_FALSE(
      ByteCodec::Encode("abc").Span().IsPrefixOf(ByteCodec::Encode("abcdef").Span()));
}

TEST(RawByteCodec, RoundTripAndCompactness) {
  for (const std::string s : {"", "hello", "path/to/file"}) {
    EXPECT_EQ(RawByteCodec::Decode(RawByteCodec::Encode(s).Span()), s);
  }
  // 8 bits/char + 8 vs 9 bits/char + 1: raw wins for strings over 7 bytes.
  EXPECT_LT(RawByteCodec::Encode("path/to/file").size(),
            ByteCodec::Encode("path/to/file").size());
}

TEST(FixedIntCodec, RoundTripAndOrder) {
  FixedIntCodec c(20);
  std::mt19937_64 rng(3);
  uint64_t prev_val = 0;
  BitString prev;
  for (int i = 0; i < 200; ++i) {
    const uint64_t v = rng() % (1 << 20);
    const BitString e = c.Encode(v);
    EXPECT_EQ(e.size(), 20u);
    EXPECT_EQ(c.Decode(e.Span()), v);
    if (i > 0) {
      // MSB-first fixed width: bit-lex order == numeric order.
      EXPECT_EQ(prev < e, prev_val < v);
    }
    prev = e;
    prev_val = v;
  }
}

TEST(HashedIntCodec, RoundTripAllWidths) {
  for (unsigned width : {8u, 16u, 33u, 64u}) {
    HashedIntCodec c(width, 12345);
    std::mt19937_64 rng(width);
    for (int i = 0; i < 200; ++i) {
      const uint64_t v = width == 64 ? rng() : rng() % (uint64_t(1) << width);
      const BitString e = c.Encode(v);
      EXPECT_EQ(e.size(), width);
      EXPECT_EQ(c.Decode(e.Span()), v) << "width " << width;
    }
  }
}

// ------------------------------------------------------------- Figure 1

TEST(WaveletTreeFigure1, AbracadabraExactBitvectors) {
  // Figure 1: "abracadabra" on {a,b,c,d,r} = {0,1,2,3,4}.
  const std::string text = "abracadabra";
  std::map<char, uint64_t> code = {{'a', 0}, {'b', 1}, {'c', 2}, {'d', 3}, {'r', 4}};
  std::vector<uint64_t> seq;
  for (char ch : text) seq.push_back(code[ch]);
  WaveletTree tree(seq, 5);
  const auto nodes = tree.DebugNodes();
  // Preorder: root [0,5) = "00101010010"; [0,2) {a,b} = "0100010";
  // [2,5) {c,d,r} = "1011"; [3,5) {d,r} = "101".
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0].bits, "00101010010");
  EXPECT_EQ(nodes[0].lo, 0u);
  EXPECT_EQ(nodes[0].hi, 5u);
  EXPECT_EQ(nodes[1].bits, "0100010");  // abaaaba -> a=0, b=1
  EXPECT_EQ(nodes[2].bits, "1011");     // rcdr vs mid=3
  EXPECT_EQ(nodes[3].bits, "101");      // rdr vs mid=4
  // And the operations on the example.
  EXPECT_EQ(tree.Access(0), 0u);                      // a
  EXPECT_EQ(tree.Access(2), 4u);                      // r
  EXPECT_EQ(tree.Rank(0, 11), 5u);                    // five a's
  EXPECT_EQ(tree.Rank(4, 11), 2u);                    // two r's
  EXPECT_EQ(tree.Select(4, 1), std::optional<size_t>(9));
  EXPECT_EQ(tree.Select(2, 0), std::optional<size_t>(4));  // the c
  EXPECT_EQ(tree.Select(2, 1), std::nullopt);
}

TEST(WaveletTree, RandomAgainstScan) {
  std::mt19937_64 rng(17);
  for (uint64_t sigma : {1u, 2u, 3u, 5u, 17u, 300u}) {
    std::vector<uint64_t> seq;
    for (int i = 0; i < 2000; ++i) seq.push_back(rng() % sigma);
    WaveletTree tree(seq, sigma);
    for (size_t i = 0; i < seq.size(); i += 7) {
      ASSERT_EQ(tree.Access(i), seq[i]) << "sigma " << sigma;
    }
    for (uint64_t v = 0; v < std::min<uint64_t>(sigma, 20); ++v) {
      size_t count = 0;
      for (size_t i = 0; i < seq.size(); ++i) {
        if (i % 251 == 0) {
          ASSERT_EQ(tree.Rank(v, i), count);
        }
        if (seq[i] == v) {
          if (count % 3 == 0) {
            ASSERT_EQ(tree.Select(v, count), i);
          }
          ++count;
        }
      }
      ASSERT_EQ(tree.Rank(v, seq.size()), count);
      ASSERT_EQ(tree.Select(v, count), std::nullopt);
    }
  }
}

// Every Wavelet Tree is a Wavelet Trie under the fixed-width MSB codec
// (paper Section 3: "any Wavelet Tree can be seen as a Wavelet Trie").
TEST(CrossValidation, WaveletTreeEqualsWaveletTrieWithIntCodec) {
  std::mt19937_64 rng(23);
  const unsigned width = 10;
  const uint64_t sigma = 1 << width;
  FixedIntCodec codec(width);
  std::vector<uint64_t> seq;
  std::vector<BitString> enc;
  for (int i = 0; i < 3000; ++i) {
    // Clustered values: only 64 distinct, so the trie path-compresses.
    seq.push_back((rng() % 64) * 16 + 3);
    enc.push_back(codec.Encode(seq.back()));
  }
  WaveletTree tree(seq, sigma);
  WaveletTrie trie(enc);
  for (size_t i = 0; i < seq.size(); i += 11) {
    ASSERT_EQ(codec.Decode(trie.Access(i).Span()), tree.Access(i));
  }
  for (int q = 0; q < 200; ++q) {
    const uint64_t v = (rng() % 64) * 16 + 3;
    const size_t pos = rng() % (seq.size() + 1);
    ASSERT_EQ(trie.Rank(codec.Encode(v), pos), tree.Rank(v, pos));
  }
  // The trie is *shallower* than the balanced tree: 64 distinct values need
  // ~6 levels, not 10 (path compression on the clustered universe).
  EXPECT_LT(trie.Height(), width);
}

// ------------------------------------------- fixed-alphabet dynamic tree

TEST(DynamicWaveletTreeFixed, ChurnAgainstReference) {
  std::mt19937_64 rng(29);
  const uint64_t sigma = 37;  // non-power-of-two exercises uneven splits
  DynamicWaveletTreeFixed tree(sigma);
  std::vector<uint64_t> ref;
  for (int step = 0; step < 6000; ++step) {
    const int op = static_cast<int>(rng() % 10);
    if (op < 6 || ref.empty()) {
      const uint64_t v = rng() % sigma;
      const size_t pos = rng() % (ref.size() + 1);
      tree.Insert(v, pos);
      ref.insert(ref.begin() + static_cast<ptrdiff_t>(pos), v);
    } else if (op < 8) {
      const size_t pos = rng() % ref.size();
      tree.Delete(pos);
      ref.erase(ref.begin() + static_cast<ptrdiff_t>(pos));
    } else {
      const size_t pos = rng() % (ref.size() + 1);
      const uint64_t v = rng() % sigma;
      size_t expect = 0;
      for (size_t i = 0; i < pos; ++i) expect += (ref[i] == v);
      ASSERT_EQ(tree.Rank(v, pos), expect);
      if (!ref.empty()) {
        const size_t p2 = rng() % ref.size();
        ASSERT_EQ(tree.Access(p2), ref[p2]);
      }
    }
  }
  ASSERT_EQ(tree.size(), ref.size());
  for (size_t i = 0; i < ref.size(); i += 3) ASSERT_EQ(tree.Access(i), ref[i]);
  for (uint64_t v = 0; v < sigma; ++v) {
    size_t count = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
      if (ref[i] == v) {
        ASSERT_EQ(tree.Select(v, count), i);
        ++count;
      }
    }
    ASSERT_EQ(tree.Select(v, count), std::nullopt);
  }
}

TEST(DynamicWaveletTreeFixed, SigmaOne) {
  DynamicWaveletTreeFixed tree(1);
  tree.Append(0);
  tree.Append(0);
  EXPECT_EQ(tree.Access(1), 0u);
  EXPECT_EQ(tree.Rank(0, 2), 2u);
  EXPECT_EQ(tree.Select(0, 1), std::optional<size_t>(1));
  tree.Delete(0);
  EXPECT_EQ(tree.size(), 1u);
}

// --------------------------------------------------------- inverted index

TEST(InvertedIndexBaseline, MatchesScan) {
  std::mt19937_64 rng(31);
  std::vector<std::string> words = {"be", "bee", "beer", "cat", "car", "dog"};
  InvertedIndexBaseline idx;
  std::vector<std::string> ref;
  for (int i = 0; i < 2000; ++i) {
    const auto& w = words[rng() % words.size()];
    idx.Append(w);
    ref.push_back(w);
  }
  for (size_t i = 0; i < ref.size(); i += 17) ASSERT_EQ(idx.Access(i), ref[i]);
  for (const auto& w : words) {
    size_t count = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
      if (i % 101 == 0) {
        ASSERT_EQ(idx.Rank(w, i), count);
      }
      if (ref[i] == w) {
        if (count % 5 == 0) {
          ASSERT_EQ(idx.Select(w, count), i);
        }
        ++count;
      }
    }
  }
  // Prefix ops.
  size_t be_count = 0;
  std::vector<size_t> be_positions;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (ref[i].compare(0, 2, "be") == 0) {
      be_positions.push_back(i);
      ++be_count;
    }
  }
  ASSERT_EQ(idx.RankPrefix("be", ref.size()), be_count);
  ASSERT_EQ(idx.SelectPrefix("be", 0), be_positions.front());
  ASSERT_EQ(idx.SelectPrefix("be", be_count - 1), be_positions.back());
  ASSERT_EQ(idx.SelectPrefix("be", be_count), std::nullopt);
}

// ------------------------------------------------- Section 6 (Thm 6.2)

// Section 6's balanced Wavelet Tree is the fully-dynamic trie over the
// hashed integer codes.
using BalancedWaveletTree = wtrie::Sequence<wtrie::Dynamic, HashedIntCodec>;

TEST(BalancedWaveletTree, CorrectnessAgainstReference) {
  BalancedWaveletTree tree(HashedIntCodec(64, /*seed=*/777));
  std::mt19937_64 rng(37);
  // Working alphabet: 100 arbitrary 64-bit values (universe 2^64).
  std::vector<uint64_t> alphabet;
  for (int i = 0; i < 100; ++i) alphabet.push_back(rng());
  std::vector<uint64_t> ref;
  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng() % 10);
    if (op < 6 || ref.empty()) {
      const uint64_t v = alphabet[rng() % alphabet.size()];
      const size_t pos = rng() % (ref.size() + 1);
      ASSERT_TRUE(tree.Insert(v, pos).ok());
      ref.insert(ref.begin() + static_cast<ptrdiff_t>(pos), v);
    } else if (op < 8) {
      const size_t pos = rng() % ref.size();
      ASSERT_TRUE(tree.Delete(pos).ok());
      ref.erase(ref.begin() + static_cast<ptrdiff_t>(pos));
    } else if (!ref.empty()) {
      const size_t pos = rng() % ref.size();
      ASSERT_EQ(tree.Access(pos).value(), ref[pos]);
      const uint64_t v = alphabet[rng() % alphabet.size()];
      size_t expect = 0;
      for (size_t i = 0; i < pos; ++i) expect += (ref[i] == v);
      ASSERT_EQ(tree.Rank(v, pos).value(), expect);
    }
  }
  for (size_t i = 0; i < ref.size(); i += 3) {
    ASSERT_EQ(tree.Access(i).value(), ref[i]);
  }
  for (const uint64_t v : alphabet) {
    size_t count = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
      if (ref[i] == v) {
        if (count % 2 == 0) {
          ASSERT_EQ(tree.Select(v, count).value(), i);
        }
        ++count;
      }
    }
    ASSERT_EQ(tree.Rank(v, ref.size()).value(), count);
  }
}

TEST(BalancedWaveletTree, HeightIsLogSigmaNotLogUniverse) {
  // Theorem 6.2: with |Sigma| = 256 values from a 2^64 universe, the trie
  // height should be ~(alpha+2) log 256 = O(24), nowhere near 64. Check
  // several seeds; allow the probabilistic bound generous slack.
  std::mt19937_64 rng(41);
  for (uint64_t seed : {1ull, 99ull, 31337ull}) {
    BalancedWaveletTree tree{HashedIntCodec(64, seed)};
    for (int i = 0; i < 4096; ++i) {
      // 256 distinct, huge values
      ASSERT_TRUE(tree.Append(rng() % 256 + (uint64_t(1) << 60)).ok());
    }
    EXPECT_EQ(tree.NumDistinct(), 256u);
    EXPECT_LE(tree.trie().Height(), 4 * 8u) << "seed " << seed;  // 4 log2(256)
    EXPECT_LT(tree.trie().Height(), 64u);
  }
}

TEST(BalancedWaveletTree, BalancesAdversarialChainAlphabet) {
  // Alphabet {2^k - 1}: consecutive values differ only in one high bit, so
  // without hashing the trie is a chain of depth ~|Sigma|. The MSB-first
  // multiplicative hash (see HashedIntCodec's reproduction note) must bring
  // the height down to O(log |Sigma|) regardless.
  std::mt19937_64 rng(43);
  const size_t sigma = 48;
  // Unhashed control: chain depth ~ sigma.
  {
    FixedIntCodec codec(64);
    DynamicWaveletTrie trie;
    for (int i = 0; i < 2000; ++i) {
      trie.Append(codec.Encode((uint64_t(1) << (rng() % sigma)) - 1));
    }
    EXPECT_GE(trie.Height(), sigma - 5);
  }
  // Hashed: height ~ c log sigma across seeds.
  for (uint64_t seed : {7ull, 1234ull, 987654321ull}) {
    BalancedWaveletTree tree{HashedIntCodec(64, seed)};
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(tree.Append((uint64_t(1) << (rng() % sigma)) - 1).ok());
    }
    EXPECT_LE(tree.trie().Height(), 30u) << "seed " << seed;  // ~5 log2(48)
  }
}

TEST(BalancedWaveletTree, SameSeedReproducesStructure) {
  BalancedWaveletTree a{HashedIntCodec(32, 5)}, b{HashedIntCodec(32, 5)};
  for (uint64_t v : {7u, 9u, 7u, 1u}) {
    ASSERT_TRUE(a.Append(v).ok());
    ASSERT_TRUE(b.Append(v).ok());
  }
  EXPECT_EQ(a.trie().Height(), b.trie().Height());
  EXPECT_EQ(a.SizeInBits(), b.SizeInBits());
  EXPECT_EQ(a.Access(2).value(), 7u);
}

}  // namespace
}  // namespace wt
