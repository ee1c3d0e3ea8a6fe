// Round-trip tests for the persisted form of the static structures (the v4
// image, storage/image.hpp): every query result must be identical after
// SaveImage + LoadImage, and malformed images are refused with a clean
// false — never an abort.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

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
  EXPECT_FALSE(
      LoadFromImage(*BlobOf(ImageBytes(Rrr(RandomBits(100, 0.5, 6)))), &t));
  const auto blob = BlobOf(bytes);
  ASSERT_TRUE(LoadFromImage(*blob, &t));
  EXPECT_EQ(t.Access(1), orig.Access(1));
}

// Offset of the node-header section (count, then the header array) in a
// trie image.
size_t HeadersOffset(const std::string& bytes) {
  const auto blob = BlobOf(bytes);
  storage::ImageReader r;
  EXPECT_EQ(storage::ImageReader::Parse(blob->data(), blob->size(),
                                        storage::VerifyMode::kFull, &r),
            storage::ImageError::kOk);
  for (const storage::SectionEntry& s : r.sections()) {
    if (s.tag == storage::kSecHeaders) return s.offset;
  }
  ADD_FAILURE() << "image has no node-header section";
  return 0;
}

// Under VerifyMode::kNone no hash covers the node headers, the one array
// whose length the image states. LoadImage's O(1) checks must refuse a
// count or a label end that cannot describe a full binary trie over the
// stored labels.
TEST(Serialize, UnverifiedNodeDirectoryIsValidated) {
  std::vector<BitString> seq;
  for (const char* s : {"0001", "0011", "0100", "00100", "0011"}) {
    seq.push_back(BitString::FromString(s));
  }
  const std::string bytes = ImageBytes(WaveletTrie(seq));
  const size_t at = HeadersOffset(bytes);
  uint64_t nodes = 0;
  std::memcpy(&nodes, bytes.data() + at, sizeof(nodes));
  ASSERT_EQ(nodes, 7u);  // 4 distinct strings: 3 internal nodes, 4 leaves
  const auto loads = [](const std::string& image) {
    const auto blob = BlobOf(image);
    WaveletTrie t;
    return LoadFromImage(*blob, &t, storage::VerifyMode::kNone);
  };
  const auto with_count = [&](uint64_t count) {
    std::string edited = bytes;
    std::memcpy(edited.data() + at, &count, sizeof(count));
    return edited;
  };
  EXPECT_TRUE(loads(bytes));
  EXPECT_FALSE(loads(with_count(0)));          // no directory at all
  EXPECT_FALSE(loads(with_count(nodes - 1)));  // even: not a full binary tree
  std::string past_labels = bytes;
  WaveletTrie::NodeHeader last;
  const size_t last_at = at + sizeof(uint64_t) + (nodes - 1) * sizeof(last);
  std::memcpy(&last, past_labels.data() + last_at, sizeof(last));
  ++last.label_end;
  std::memcpy(past_labels.data() + last_at, &last, sizeof(last));
  EXPECT_FALSE(loads(past_labels));
}

}  // namespace
}  // namespace wt
