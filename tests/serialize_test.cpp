// Round-trip tests for the persisted form of the static structures (the v5
// image, storage/image.hpp): every query result must be identical after
// SaveImage + LoadImage, and malformed images are refused with a clean
// false — never an abort.
#include <gtest/gtest.h>

#include <array>
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

// Table index of the node-directory section in a trie image.
size_t DirectoryIndex(const std::string& bytes) {
  const auto blob = BlobOf(bytes);
  storage::ImageReader r;
  EXPECT_EQ(storage::ImageReader::Parse(blob->data(), blob->size(),
                                        storage::VerifyMode::kFull, &r),
            storage::ImageError::kOk);
  for (size_t i = 0; i < r.sections().size(); ++i) {
    if (r.sections()[i].tag == storage::kSecDirectory) return i;
  }
  ADD_FAILURE() << "image has no node-directory section";
  return 0;
}

// A trie image whose packed node directory can be read and forged field by
// field: the section's scalars (storage::DirectoryHeader) and the bits of
// its two word arrays, label ends then records.
struct ForgeableDirectory {
  explicit ForgeableDirectory(const std::vector<const char*>& strings) {
    std::vector<BitString> seq;
    for (const char* s : strings) seq.push_back(BitString::FromString(s));
    bytes = ImageBytes(WaveletTrie(seq));
    entry_at = sizeof(storage::ImageHeader) +
               DirectoryIndex(bytes) * sizeof(storage::SectionEntry);
    std::memcpy(&entry, bytes.data() + entry_at, sizeof(entry));
    std::memcpy(&dir, bytes.data() + entry.offset, sizeof(dir));
  }
  size_t ends_at() const { return entry.offset + sizeof(dir); }
  // The label ends open with a zero field: node p's end is field p + 1.
  size_t records_at() const {
    return ends_at() +
           8 * storage::PackedWords(dir.nodes + 1, dir.label_end_bits);
  }
  // The image with `width` bits at bit `bit` of the array at byte `at` set
  // to `value`.
  std::string WithBits(size_t at, size_t bit, size_t width,
                       uint64_t value) const {
    std::string out = bytes;
    std::vector<uint64_t> words(WordsFor(bit + width) + 1);
    std::memcpy(words.data(), out.data() + at, 8 * words.size());
    StoreBits(words.data(), bit, width, value);
    std::memcpy(out.data() + at, words.data(), 8 * words.size());
    return out;
  }
  uint64_t Bits(size_t at, size_t bit, size_t width) const {
    std::vector<uint64_t> words(WordsFor(bit + width) + 1);
    std::memcpy(words.data(), bytes.data() + at, 8 * words.size());
    return LoadBits(words.data(), bit, width);
  }
  std::string WithHeader(const storage::DirectoryHeader& forged) const {
    std::string out = bytes;
    std::memcpy(out.data() + entry.offset, &forged, sizeof(forged));
    return out;
  }
  // Root record fields: k, beta start, ones start.
  uint32_t RootFieldWidth(size_t field) const {
    return std::array<uint32_t, 3>{dir.k_bits, dir.beta_start_bits,
                                   dir.ones_start_bits}[field];
  }
  size_t RootFieldBit(size_t field) const {
    size_t bit = 0;
    for (size_t f = 0; f < field; ++f) bit += RootFieldWidth(f);
    return bit;
  }

  std::string bytes;
  size_t entry_at = 0;
  storage::SectionEntry entry;
  storage::DirectoryHeader dir;
};

bool LoadsUnverified(const std::string& image) {
  const auto blob = BlobOf(image);
  WaveletTrie t;
  return LoadFromImage(*blob, &t, storage::VerifyMode::kNone);
}

// Under VerifyMode::kNone no hash covers the node directory, which states
// its own counts and field widths. LoadImage's O(1) checks must refuse
// every statement that cannot describe a full binary trie over the stored
// labels and beta — with false, never an abort.
TEST(Serialize, UnverifiedNodeDirectoryIsValidated) {
  // 4 distinct strings: 7 nodes, 3 internal.
  const ForgeableDirectory f({"0001", "0011", "0100", "00100", "0011"});
  ASSERT_EQ(f.dir.nodes, 7u);
  ASSERT_EQ(f.dir.label_ends, 7u);
  ASSERT_EQ(f.dir.records, 3u);
  for (const uint32_t w : {f.dir.label_end_bits, f.dir.k_bits,
                           f.dir.beta_start_bits, f.dir.ones_start_bits}) {
    ASSERT_GE(w, 1u);
    ASSERT_LE(w, 32u);
  }
  EXPECT_TRUE(LoadsUnverified(f.bytes));

  // A field width above 32, in each of the four fields.
  for (uint32_t storage::DirectoryHeader::*width :
       {&storage::DirectoryHeader::label_end_bits,
        &storage::DirectoryHeader::k_bits,
        &storage::DirectoryHeader::beta_start_bits,
        &storage::DirectoryHeader::ones_start_bits}) {
    storage::DirectoryHeader forged = f.dir;
    forged.*width = 33;
    EXPECT_FALSE(LoadsUnverified(f.WithHeader(forged)));
  }
  // A record count other than (nodes - 1) / 2.
  for (const uint64_t records : {uint64_t{0}, uint64_t{2}, uint64_t{4}}) {
    storage::DirectoryHeader forged = f.dir;
    forged.records = records;
    EXPECT_FALSE(LoadsUnverified(f.WithHeader(forged))) << records;
  }
  // A label-end count other than nodes.
  for (const uint64_t ends : {uint64_t{0}, uint64_t{6}, uint64_t{8}}) {
    storage::DirectoryHeader forged = f.dir;
    forged.label_ends = ends;
    EXPECT_FALSE(LoadsUnverified(f.WithHeader(forged))) << ends;
  }
  // Node counts that close no full binary tree, or more leaves than strings.
  for (const uint64_t nodes : {uint64_t{0}, uint64_t{6}, uint64_t{11}}) {
    storage::DirectoryHeader forged = f.dir;
    forged.nodes = forged.label_ends = nodes;
    forged.records = nodes / 2;
    EXPECT_FALSE(LoadsUnverified(f.WithHeader(forged))) << nodes;
  }
  // An array shorter than count x width: the widest legal fields ask for
  // more words than the section holds, and so does a section table entry
  // that cuts the records array short.
  {
    storage::DirectoryHeader forged = f.dir;
    forged.label_end_bits = forged.k_bits = forged.beta_start_bits =
        forged.ones_start_bits = 32;
    EXPECT_FALSE(LoadsUnverified(f.WithHeader(forged)));
    std::string cut = f.bytes;
    storage::SectionEntry entry = f.entry;
    entry.bytes -= 8;
    std::memcpy(cut.data() + f.entry_at, &entry, sizeof(entry));
    EXPECT_FALSE(LoadsUnverified(cut));
  }
  // A last label end other than the label bits.
  {
    const size_t bit = f.dir.nodes * f.dir.label_end_bits;
    const uint64_t last = f.Bits(f.ends_at(), bit, f.dir.label_end_bits);
    EXPECT_TRUE(LoadsUnverified(
        f.WithBits(f.ends_at(), bit, f.dir.label_end_bits, last)));
    EXPECT_FALSE(LoadsUnverified(
        f.WithBits(f.ends_at(), bit, f.dir.label_end_bits, last ^ 1)));
  }
  // A root record whose beta start or ones start is not 0.
  for (const size_t field : {size_t{1}, size_t{2}}) {
    ASSERT_EQ(f.Bits(f.records_at(), f.RootFieldBit(field),
                     f.RootFieldWidth(field)),
              0u);
    EXPECT_FALSE(LoadsUnverified(f.WithBits(
        f.records_at(), f.RootFieldBit(field), f.RootFieldWidth(field), 1)))
        << field;
  }
  // A root k outside [1, d - 1]: 0 here, and d in a trie whose k field
  // can hold it (3 distinct strings, root k = 2 in a 2-bit field).
  EXPECT_FALSE(
      LoadsUnverified(f.WithBits(f.records_at(), 0, f.dir.k_bits, 0)));
  const ForgeableDirectory g({"00", "01", "1", "00"});
  ASSERT_EQ(g.dir.nodes, 5u);
  ASSERT_EQ(g.Bits(g.records_at(), 0, g.dir.k_bits), 2u);
  ASSERT_EQ(g.dir.k_bits, 2u);
  EXPECT_TRUE(LoadsUnverified(g.bytes));
  EXPECT_FALSE(LoadsUnverified(g.WithBits(g.records_at(), 0, 2, 3)));
  EXPECT_FALSE(LoadsUnverified(g.WithBits(g.records_at(), 0, 2, 0)));
}

}  // namespace
}  // namespace wt
