// Round-trip tests for the persisted form of the static structures (the v4
// image, storage/image.hpp): every query result must be identical after
// SaveImage + LoadImage, and malformed images are refused with a clean
// false — never an abort.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bitvector/bit_vector.hpp"
#include "bitvector/elias_fano.hpp"
#include "bitvector/rrr.hpp"
#include "core/codec.hpp"
#include "core/wavelet_trie.hpp"
#include "image_roundtrip.hpp"
#include "util/workloads.hpp"

namespace wt {
namespace {

using test_util::BlobOf;
using test_util::ImageBytes;
using test_util::LoadFromImage;

BitArray RandomBits(size_t n, double density, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(density);
  BitArray a;
  for (size_t i = 0; i < n; ++i) a.PushBack(coin(rng));
  return a;
}

TEST(Serialize, BitVectorRoundTrip) {
  BitVector orig(RandomBits(50000, 0.37, 1));
  const auto blob = BlobOf(ImageBytes(orig));
  BitVector loaded;
  ASSERT_TRUE(LoadFromImage(*blob, &loaded));
  ASSERT_EQ(loaded.size(), orig.size());
  ASSERT_EQ(loaded.num_ones(), orig.num_ones());
  ASSERT_EQ(loaded.SizeInBits(), orig.SizeInBits());
  for (size_t pos = 0; pos <= orig.size(); pos += 997) {
    ASSERT_EQ(loaded.Rank1(pos), orig.Rank1(pos));
  }
  for (size_t k = 0; k < orig.num_ones(); k += 991) {
    ASSERT_EQ(loaded.Select1(k), orig.Select1(k));
  }
  for (size_t k = 0; k < orig.num_zeros(); k += 997) {
    ASSERT_EQ(loaded.Select0(k), orig.Select0(k));
  }
}

TEST(Serialize, RrrRoundTrip) {
  Rrr orig(RandomBits(80000, 0.08, 2));
  const auto blob = BlobOf(ImageBytes(orig));
  Rrr loaded;
  ASSERT_TRUE(LoadFromImage(*blob, &loaded));
  ASSERT_EQ(loaded.size(), orig.size());
  ASSERT_EQ(loaded.num_ones(), orig.num_ones());
  for (size_t pos = 0; pos <= orig.size(); pos += 1009) {
    ASSERT_EQ(loaded.Rank1(pos), orig.Rank1(pos));
    if (pos < orig.size()) {
      ASSERT_EQ(loaded.Get(pos), orig.Get(pos));
    }
  }
  for (size_t k = 0; k < orig.num_ones(); k += 499) {
    ASSERT_EQ(loaded.Select1(k), orig.Select1(k));
  }
  for (size_t k = 0; k < orig.num_zeros(); k += 4999) {
    ASSERT_EQ(loaded.Select0(k), orig.Select0(k));
  }
}

TEST(Serialize, EliasFanoRoundTrip) {
  std::vector<uint64_t> vals;
  std::mt19937_64 rng(3);
  uint64_t cur = 0;
  for (int i = 0; i < 5000; ++i) {
    cur += rng() % 300;
    vals.push_back(cur);
  }
  EliasFano orig(vals, vals.back());
  const auto blob = BlobOf(ImageBytes(orig));
  EliasFano loaded;
  ASSERT_TRUE(LoadFromImage(*blob, &loaded));
  ASSERT_EQ(loaded.size(), orig.size());
  for (size_t i = 0; i < vals.size(); ++i) ASSERT_EQ(loaded.Access(i), vals[i]);
}

TEST(Serialize, WaveletTrieRoundTripFullQuerySurface) {
  UrlLogOptions opt;
  opt.num_domains = 24;
  opt.paths_per_domain = 12;
  opt.seed = 4;
  UrlLogGenerator gen(opt);
  std::vector<BitString> seq;
  std::vector<std::string> urls = gen.Take(5000);
  for (const auto& u : urls) seq.push_back(ByteCodec::Encode(u));
  WaveletTrie orig(seq);

  const auto blob = BlobOf(ImageBytes(orig));
  WaveletTrie loaded;
  ASSERT_TRUE(LoadFromImage(*blob, &loaded));

  ASSERT_EQ(loaded.size(), orig.size());
  ASSERT_EQ(loaded.NumDistinct(), orig.NumDistinct());
  std::mt19937_64 rng(5);
  for (int q = 0; q < 300; ++q) {
    const size_t pos = rng() % orig.size();
    ASSERT_TRUE(loaded.Access(pos).Span().ContentEquals(orig.Access(pos).Span()));
    const BitString probe = ByteCodec::Encode(urls[rng() % urls.size()]);
    const size_t upto = rng() % (orig.size() + 1);
    ASSERT_EQ(loaded.Rank(probe, upto), orig.Rank(probe, upto));
    const BitString p = ByteCodec::EncodePrefix(gen.Domain(rng() % 24));
    ASSERT_EQ(loaded.RankPrefix(p, upto), orig.RankPrefix(p, upto));
  }
  // Range analytics survive the round trip.
  auto m1 = orig.RangeMajority(100, 4000);
  auto m2 = loaded.RangeMajority(100, 4000);
  ASSERT_EQ(m1.has_value(), m2.has_value());
  size_t d1 = 0, d2 = 0;
  orig.DistinctInRange(0, 2000, [&](const BitString&, size_t) { ++d1; });
  loaded.DistinctInRange(0, 2000, [&](const BitString&, size_t) { ++d2; });
  ASSERT_EQ(d1, d2);
}

TEST(Serialize, EmptyTrieRoundTrip) {
  WaveletTrie orig{std::vector<BitString>{}};
  const auto blob = BlobOf(ImageBytes(orig));
  WaveletTrie loaded;
  ASSERT_TRUE(LoadFromImage(*blob, &loaded));
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.Rank(BitString::FromString("01"), 0), 0u);
}

TEST(Serialize, MalformedImagesAreRefusedNotAborted) {
  WaveletTrie orig(std::vector<BitString>{BitString::FromString("01"),
                                          BitString::FromString("10")});
  const std::string bytes = ImageBytes(orig);
  WaveletTrie t;
  // Garbage magic, and a valid image cut in half.
  EXPECT_FALSE(LoadFromImage(*BlobOf(std::string(bytes.size(), 'x')), &t));
  EXPECT_FALSE(LoadFromImage(*BlobOf(bytes.substr(0, bytes.size() / 2)), &t));
  // A well-formed image holding some other component has no trie sections.
  EXPECT_FALSE(LoadFromImage(*BlobOf(ImageBytes(BitVector(RandomBits(100, 0.5, 6)))),
                             &t));
  const auto blob = BlobOf(bytes);
  ASSERT_TRUE(LoadFromImage(*blob, &t));
  EXPECT_EQ(t.Access(1), orig.Access(1));
}

}  // namespace
}  // namespace wt
