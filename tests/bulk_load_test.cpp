// Differential tests for the bulk-load / word-parallel ingestion paths:
//   * AppendWord / AppendRun on both append-only bitvectors, including the
//     word-boundary and chunk-seal edge cases (len 1, 63, 64, crossing 4096);
//   * BitTree/DynamicBitVector run- and word-appends vs per-bit appends;
//   * DynamicWaveletTrieT::AppendBatch vs repeated Append — the structures
//     must be *identical* (same trie shape, same beta contents, same counts),
//     checked over >= 10k mixed Zipf/uniform strings;
//   * WaveletTrie::BulkBuild vs the reference constructor — byte-identical
//     images;
//   * the leaf-dictionary paths (ExtractDict feeding BuildFromDict or
//     AppendDict: Sequence::Freeze, Thaw and Concat) vs BulkBuild over the
//     per-string ForEachInRange scan — byte-identical images.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "api/sequence.hpp"
#include "bitvector/append_only.hpp"
#include "bitvector/append_only_deamortized.hpp"
#include "bitvector/dynamic_bit_vector.hpp"
#include "core/codec.hpp"
#include "core/dynamic_wavelet_trie.hpp"
#include "core/wavelet_trie.hpp"
#include "image_roundtrip.hpp"
#include "util/workloads.hpp"

namespace wt {
namespace {

// ---------------------------------------------------------- bitvector level

template <typename BV>
class AppendOnlyWordTest : public ::testing::Test {};

using AppendOnlyTypes =
    ::testing::Types<AppendOnlyBitVector, DeamortizedAppendOnlyBitVector>;
TYPED_TEST_SUITE(AppendOnlyWordTest, AppendOnlyTypes);

template <typename BV>
void CheckAgainstReference(const BV& bv, const std::vector<bool>& ref) {
  ASSERT_EQ(bv.size(), ref.size());
  size_t ones = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(bv.Get(i), ref[i]) << "bit " << i;
    ASSERT_EQ(bv.Rank1(i), ones) << "rank " << i;
    if (ref[i]) {
      ASSERT_EQ(bv.Select1(ones), i);
      ++ones;
    } else {
      ASSERT_EQ(bv.Select0(i - ones), i);
    }
  }
  ASSERT_EQ(bv.Rank1(ref.size()), ones);
  ASSERT_EQ(bv.num_ones(), ones);
}

void AppendWordRef(std::vector<bool>* ref, uint64_t value, size_t len) {
  for (size_t i = 0; i < len; ++i) ref->push_back((value >> i) & 1);
}

TYPED_TEST(AppendOnlyWordTest, WordBoundaryLengths) {
  // len 1, 63, 64, and unaligned mixes around every word boundary.
  for (size_t len : {size_t(1), size_t(63), size_t(64)}) {
    TypeParam bv;
    std::vector<bool> ref;
    std::mt19937_64 rng(len);
    for (int round = 0; round < 300; ++round) {
      const uint64_t v = rng();
      bv.AppendWord(v, len);
      AppendWordRef(&ref, v, len);
    }
    CheckAgainstReference(bv, ref);
  }
}

TYPED_TEST(AppendOnlyWordTest, MixedLengthsAndBits) {
  TypeParam bv;
  std::vector<bool> ref;
  std::mt19937_64 rng(7);
  for (int round = 0; round < 2000; ++round) {
    const size_t len = rng() % 65;  // includes len == 0
    const uint64_t v = rng();
    bv.AppendWord(v, len);
    AppendWordRef(&ref, v, len);
    if (round % 5 == 0) {
      const bool b = rng() & 1;
      bv.Append(b);
      ref.push_back(b);
    }
  }
  CheckAgainstReference(bv, ref);
}

TYPED_TEST(AppendOnlyWordTest, WordAppendsCrossChunkSeal) {
  // Fill to just below the 4096-bit chunk boundary, then cross it with a
  // 64-bit word so the seal splits the word.
  TypeParam bv;
  std::vector<bool> ref;
  std::mt19937_64 rng(11);
  while (bv.size() < TypeParam::kChunkBits - 17) {
    const bool b = rng() & 1;
    bv.Append(b);
    ref.push_back(b);
  }
  const uint64_t v = rng();
  bv.AppendWord(v, 64);  // 17 bits land in the old chunk, 47 in the next
  AppendWordRef(&ref, v, 64);
  for (int round = 0; round < 200; ++round) {
    const uint64_t w = rng();
    bv.AppendWord(w, 64);
    AppendWordRef(&ref, w, 64);
  }
  CheckAgainstReference(bv, ref);
}

TYPED_TEST(AppendOnlyWordTest, RunAppendsCrossChunkSeal) {
  TypeParam bv;
  std::vector<bool> ref;
  // A run spanning multiple chunks, then alternating short runs, on top of a
  // virtual constant-prefix Init.
  const size_t kInit = 1000;
  TypeParam bv2(true, kInit);
  std::vector<bool> ref2(kInit, true);
  std::mt19937_64 rng(13);
  size_t runs[] = {1, 63, 64, 65, 9000, 4096, 1, 2, 100};
  bool bit = false;
  for (size_t r : runs) {
    bv.AppendRun(bit, r);
    bv2.AppendRun(bit, r);
    for (size_t i = 0; i < r; ++i) {
      ref.push_back(bit);
      ref2.push_back(bit);
    }
    bit = !bit;
  }
  bv.AppendRun(true, 0);  // empty run is a no-op
  CheckAgainstReference(bv, ref);
  CheckAgainstReference(bv2, ref2);
}

TYPED_TEST(AppendOnlyWordTest, AppendSpanMatchesBits) {
  std::mt19937_64 rng(19);
  BitString s;
  for (int i = 0; i < 5000; ++i) s.PushBack(rng() % 3 == 0);
  TypeParam bv;
  bv.AppendSpan(s.Span().SubSpan(3, 4500));  // unaligned view
  ASSERT_EQ(bv.size(), 4500u);
  for (size_t i = 0; i < 4500; ++i) ASSERT_EQ(bv.Get(i), s.Get(3 + i));
}

TYPED_TEST(AppendOnlyWordTest, WordPathMatchesBitPath) {
  // The word-parallel path must answer every query identically to the
  // per-bit path (internal chunking may differ; queries may not).
  TypeParam word_bv;
  TypeParam bit_bv;
  std::mt19937_64 rng(17);
  for (int round = 0; round < 500; ++round) {
    const size_t len = 1 + rng() % 64;
    const uint64_t v = rng();
    word_bv.AppendWord(v, len);
    for (size_t i = 0; i < len; ++i) bit_bv.Append((v >> i) & 1);
  }
  ASSERT_EQ(word_bv.size(), bit_bv.size());
  ASSERT_EQ(word_bv.num_ones(), bit_bv.num_ones());
  for (size_t i = 0; i < word_bv.size(); i += 37) {
    ASSERT_EQ(word_bv.Get(i), bit_bv.Get(i));
    ASSERT_EQ(word_bv.Rank1(i), bit_bv.Rank1(i));
  }
  for (size_t k = 0; k < word_bv.num_ones(); k += 29) {
    ASSERT_EQ(word_bv.Select1(k), bit_bv.Select1(k));
  }
}

TEST(DynamicBitVectorBulk, RunAndWordAppendsMatchBitAppends) {
  DynamicBitVector fast;
  DynamicBitVector slow;
  std::mt19937_64 rng(23);
  for (int round = 0; round < 400; ++round) {
    switch (rng() % 3) {
      case 0: {
        const bool b = rng() & 1;
        const size_t n = rng() % 300;
        fast.AppendRun(b, n);
        for (size_t i = 0; i < n; ++i) slow.Append(b);
        break;
      }
      case 1: {
        const size_t len = rng() % 65;
        const uint64_t v = rng();
        fast.AppendWord(v, len);
        for (size_t i = 0; i < len; ++i) slow.Append((v >> i) & 1);
        break;
      }
      default: {
        const bool b = rng() & 1;
        fast.Append(b);
        slow.Append(b);
        break;
      }
    }
  }
  fast.CheckInvariants();
  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_EQ(fast.num_ones(), slow.num_ones());
  for (size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast.Get(i), slow.Get(i)) << "bit " << i;
  }
  for (size_t i = 0; i <= fast.size(); i += 11) {
    ASSERT_EQ(fast.Rank1(i), slow.Rank1(i));
  }
  for (size_t k = 0; k < fast.num_ones(); k += 7) {
    ASSERT_EQ(fast.Select1(k), slow.Select1(k));
  }
  for (size_t k = 0; k < fast.num_zeros(); k += 7) {
    ASSERT_EQ(fast.Select0(k), slow.Select0(k));
  }
}

TEST(DynamicBitVectorBulk, BulkConstructorMatchesBits) {
  std::mt19937_64 rng(29);
  BitArray bits;
  for (int i = 0; i < 5000; ++i) bits.PushBack(rng() % 3 == 0);
  DynamicBitVector bv(bits);
  bv.CheckInvariants();
  ASSERT_EQ(bv.size(), bits.size());
  for (size_t i = 0; i < bits.size(); ++i) ASSERT_EQ(bv.Get(i), bits.Get(i));
}

// --------------------------------------------------------------- trie level

// Mixed workload per the paper's motivation: a Zipfian URL log plus uniform
// random byte strings, all ByteCodec-encoded (one prefix-free universe).
std::vector<BitString> MixedWorkload(size_t n_zipf, size_t n_uniform,
                                     uint64_t seed) {
  std::vector<BitString> seq;
  seq.reserve(n_zipf + n_uniform);
  UrlLogOptions opt;
  opt.num_domains = 40;
  opt.paths_per_domain = 25;
  opt.seed = seed;
  UrlLogGenerator gen(opt);
  for (size_t i = 0; i < n_zipf; ++i) seq.push_back(ByteCodec::Encode(gen.Next()));
  std::mt19937_64 rng(seed * 31 + 1);
  for (size_t i = 0; i < n_uniform; ++i) {
    std::string s;
    const size_t len = 1 + rng() % 10;
    for (size_t j = 0; j < len; ++j) s.push_back('a' + rng() % 26);
    seq.push_back(ByteCodec::Encode(s));
  }
  // Interleave deterministically so batches mix both distributions.
  std::shuffle(seq.begin(), seq.end(), std::mt19937_64(seed * 7 + 3));
  return seq;
}

template <typename Trie>
void ExpectIdenticalStructure(const Trie& a, const Trie& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.NumDistinct(), b.NumDistinct());
  ASSERT_EQ(a.Height(), b.Height());
  ASSERT_EQ(a.LabelBits(), b.LabelBits());
  const auto na = a.DebugNodes();
  const auto nb = b.DebugNodes();
  ASSERT_EQ(na.size(), nb.size());
  for (size_t i = 0; i < na.size(); ++i) {
    ASSERT_EQ(na[i].alpha, nb[i].alpha) << "node " << i;
    ASSERT_EQ(na[i].beta, nb[i].beta) << "node " << i;
    ASSERT_EQ(na[i].is_leaf, nb[i].is_leaf) << "node " << i;
    ASSERT_EQ(na[i].count, nb[i].count) << "node " << i;
  }
}

// Both tries answer as `seq` itself does: Access is the stored string, Rank
// a count and Select the position a scan finds. Comparing the two tries
// only would pass a walker bug they share, since they run the same query
// code.
template <typename Trie>
void ExpectIdenticalQueries(const Trie& a, const Trie& b,
                            const std::vector<BitString>& seq) {
  const size_t n = seq.size();
  for (const Trie* t : {&a, &b}) {
    for (size_t i = 0; i < n; i += 97) {
      ASSERT_EQ(t->Access(i), seq[i]) << "pos " << i;
    }
  }
  for (size_t i = 0; i < n; i += 131) {
    const BitSpan s = seq[i].Span();
    std::vector<size_t> at;  // the positions of s, by scan
    for (size_t j = 0; j < n; ++j) {
      if (seq[j] == seq[i]) at.push_back(j);
    }
    const auto before = static_cast<size_t>(
        std::lower_bound(at.begin(), at.end(), n / 3) - at.begin());
    for (const Trie* t : {&a, &b}) {
      ASSERT_EQ(t->Rank(s, n / 3), before) << "pos " << i;
      ASSERT_EQ(t->Rank(s, n), at.size()) << "pos " << i;
      ASSERT_EQ(t->Select(s, 0), at.front()) << "pos " << i;
      ASSERT_EQ(t->Select(s, before), before < at.size()
                                          ? std::optional<size_t>(at[before])
                                          : std::nullopt);
      ASSERT_EQ(t->Select(s, at.size() - 1), at.back()) << "pos " << i;
      ASSERT_EQ(t->Select(s, at.size()), std::nullopt) << "pos " << i;
    }
  }
}

template <typename Trie>
class AppendBatchTest : public ::testing::Test {};

using TrieTypes = ::testing::Types<AppendOnlyWaveletTrie,
                                   DeamortizedAppendOnlyWaveletTrie,
                                   DynamicWaveletTrie>;
TYPED_TEST_SUITE(AppendBatchTest, TrieTypes);

TYPED_TEST(AppendBatchTest, DifferentialMixedZipfUniform) {
  // >= 10k strings, one batch vs element-wise: bit-identical structures.
  const auto seq = MixedWorkload(8000, 4000, 42);
  TypeParam batched;
  batched.AppendBatch(seq);
  TypeParam incremental;
  for (const auto& s : seq) incremental.Append(s);
  ExpectIdenticalStructure(batched, incremental);
  ExpectIdenticalQueries(batched, incremental, seq);
}

TYPED_TEST(AppendBatchTest, BatchOntoExistingTrieAndSmallBatches) {
  const auto seq = MixedWorkload(2000, 1000, 99);
  TypeParam batched;
  TypeParam incremental;
  // Seed both element-wise, then append the rest in batches of varying size
  // (including size 1) so batches hit existing nodes, splits, and leaves.
  size_t i = 0;
  for (; i < 500; ++i) {
    batched.Append(seq[i]);
    incremental.Append(seq[i]);
  }
  const size_t batch_sizes[] = {1, 7, 64, 65, 1000, seq.size()};
  for (size_t bs : batch_sizes) {
    const size_t end = std::min(seq.size(), i + bs);
    std::vector<BitSpan> batch;
    for (size_t j = i; j < end; ++j) batch.push_back(seq[j].Span());
    batched.AppendBatch(std::span<const BitSpan>(batch));
    for (size_t j = i; j < end; ++j) incremental.Append(seq[j]);
    i = end;
  }
  ASSERT_EQ(i, seq.size());
  // An empty batch is a no-op.
  batched.AppendBatch(std::span<const BitSpan>{});
  ExpectIdenticalStructure(batched, incremental);
  ExpectIdenticalQueries(batched, incremental, seq);
}

TYPED_TEST(AppendBatchTest, HashedIntegerAlphabet) {
  // Balanced-shape coverage: Zipf and uniform integers under HashedIntCodec.
  HashedIntCodec codec(32);
  std::vector<BitString> seq;
  for (auto dist : {IntDistribution::kZipf, IntDistribution::kUniform}) {
    for (uint64_t v : GenerateIntegers(3000, 200, dist, 5)) {
      seq.push_back(codec.Encode(v & 0xFFFFFFFFull));
    }
  }
  TypeParam batched;
  // Two batches to cover batch-onto-batch.
  std::vector<BitSpan> first(seq.begin(), seq.begin() + 3000);
  std::vector<BitSpan> second(seq.begin() + 3000, seq.end());
  batched.AppendBatch(std::span<const BitSpan>(first));
  batched.AppendBatch(std::span<const BitSpan>(second));
  TypeParam incremental;
  for (const auto& s : seq) incremental.Append(s);
  ExpectIdenticalStructure(batched, incremental);
}

TEST(AppendBatch, SingletonAndDuplicateBatches) {
  AppendOnlyWaveletTrie batched;
  AppendOnlyWaveletTrie incremental;
  std::vector<BitString> seq;
  for (const char* s : {"0001", "0011", "0100", "00100", "0100", "00100",
                        "0100", "0001", "0011"}) {
    seq.push_back(BitString::FromString(s));
  }
  batched.AppendBatch(seq);
  for (const auto& s : seq) incremental.Append(s);
  ExpectIdenticalStructure(batched, incremental);
  // A batch of one duplicate string.
  std::vector<BitSpan> one{seq[0].Span()};
  batched.AppendBatch(std::span<const BitSpan>(one));
  incremental.Append(seq[0]);
  ExpectIdenticalStructure(batched, incremental);
}

TEST(DynamicWaveletTrieMove, MoveAssignmentStealsAndFrees) {
  AppendOnlyWaveletTrie a;
  a.Append(BitString::FromString("0101"));
  a.Append(BitString::FromString("0110"));
  AppendOnlyWaveletTrie b;
  b.Append(BitString::FromString("111"));
  b = std::move(a);
  ASSERT_EQ(b.size(), 2u);
  ASSERT_EQ(b.NumDistinct(), 2u);
  ASSERT_EQ(b.Access(0).ToString(), "0101");
  ASSERT_EQ(b.Access(1).ToString(), "0110");
  ASSERT_EQ(a.size(), 0u);   // NOLINT(bugprone-use-after-move): spec'd empty
  // Self-move must be a no-op.
  auto* pb = &b;
  b = std::move(*pb);
  ASSERT_EQ(b.size(), 2u);
  // Move assignment works for the fully dynamic variant too.
  DynamicWaveletTrie c;
  c.Append(BitString::FromString("00"));
  DynamicWaveletTrie d;
  d = std::move(c);
  ASSERT_EQ(d.size(), 1u);
}

// ------------------------------------------------------------- static level

TEST(BulkBuild, ByteIdenticalToReferenceConstructor) {
  const auto seq = MixedWorkload(3000, 1500, 7);
  WaveletTrie reference(seq);
  WaveletTrie bulk = WaveletTrie::BulkBuild(seq);
  ASSERT_EQ(test_util::ImageBytes(reference), test_util::ImageBytes(bulk));
  ASSERT_EQ(bulk.size(), seq.size());
  ExpectIdenticalQueries(reference, bulk, seq);
}

TEST(BulkBuild, EmptyAndSingleton) {
  ASSERT_EQ(test_util::ImageBytes(WaveletTrie(std::vector<BitString>{})),
            test_util::ImageBytes(WaveletTrie::BulkBuild({})));
  std::vector<BitString> one{BitString::FromString("10101")};
  WaveletTrie ref(one);
  WaveletTrie bulk = WaveletTrie::BulkBuild(one);
  ASSERT_EQ(bulk.size(), 1u);
  ASSERT_EQ(bulk.Access(0), one[0]);
  ASSERT_EQ(ref.Access(0), one[0]);
}

TEST(SequenceBatch, AppendBatchMatchesAppendAndFreeze) {
  UrlLogGenerator gen;
  const auto urls = gen.Take(4000);
  wtrie::Sequence<wtrie::AppendOnly> batched;
  ASSERT_TRUE(batched.AppendBatch(urls).ok());
  wtrie::Sequence<wtrie::AppendOnly> incremental;
  for (const auto& u : urls) ASSERT_TRUE(incremental.Append(u).ok());
  ASSERT_EQ(batched.size(), incremental.size());
  ASSERT_EQ(batched.NumDistinct(), incremental.NumDistinct());
  for (size_t i = 0; i < urls.size(); i += 61) {
    ASSERT_EQ(batched.Access(i).value(), urls[i]);
    ASSERT_EQ(batched.Rank(urls[i], urls.size()).value(),
              incremental.Rank(urls[i], urls.size()).value());
  }
  // Freeze goes through BuildFromDict; the snapshot must agree everywhere.
  auto frozen = batched.Freeze();
  ASSERT_EQ(frozen.size(), urls.size());
  for (size_t i = 0; i < urls.size(); i += 61) {
    ASSERT_EQ(frozen.Access(i).value(), urls[i]);
  }
}

// ------------------------------------------------ leaf-dictionary paths

using StrStatic = wtrie::Sequence<wtrie::Static>;

// The per-string Section 5 scan, the reference every dictionary path is
// checked against.
template <typename Trie>
std::vector<BitString> ScanAll(const Trie& trie) {
  std::vector<BitString> out;
  trie.ForEachInRange(0, trie.size(),
                      [&](size_t, const BitString& s) { out.push_back(s); });
  return out;
}

uint64_t TotalBits(const std::vector<BitString>& seq) {
  uint64_t bits = 0;
  for (const auto& s : seq) bits += s.size();
  return bits;
}

// SerializeImage of a ByteCodec static sequence holding `encoded_bits`,
// built by BulkBuild over `strings`.
std::string ScanImage(const std::vector<BitString>& strings,
                      uint64_t encoded_bits) {
  storage::ImageWriter w;
  WaveletTrie::BulkBuild(strings).SaveImage(w);
  return w.Finish(ByteCodec::kCodecId, strings.size(), encoded_bits);
}

// The dictionary cases: the empty sequence, one string, one distinct value
// repeated, all-distinct values, the empty string among others, and a
// Zipf URL log.
std::vector<std::vector<std::string>> DictCases() {
  std::vector<std::vector<std::string>> cases;
  cases.push_back({});
  cases.push_back({"solo"});
  cases.push_back(std::vector<std::string>(300, "same"));
  std::vector<std::string> distinct;
  for (int i = 0; i < 300; ++i) {
    std::string v = "v";
    v += std::to_string(i * 7919);
    distinct.push_back(std::move(v));
  }
  std::shuffle(distinct.begin(), distinct.end(), std::mt19937_64(3));
  cases.push_back(distinct);
  cases.push_back({"", "a", "", "ab", "b", ""});
  UrlLogOptions opt;
  opt.num_domains = 30;
  opt.paths_per_domain = 20;
  opt.seed = 5;
  cases.push_back(UrlLogGenerator(opt).Take(3000));
  return cases;
}

template <typename Trie>
void ExpectDictSpellsSequence(const Trie& trie) {
  const internal::LeafDict d = trie.ExtractDict();
  const std::vector<BitString> scan = ScanAll(trie);
  ASSERT_EQ(d.dict.id_of.size(), scan.size());
  ASSERT_EQ(d.dict.distinct.size(), trie.NumDistinct());
  std::vector<size_t> uses(d.dict.distinct.size(), 0);
  for (size_t i = 0; i < scan.size(); ++i) {
    const uint32_t id = d.dict.id_of[i];
    ASSERT_LT(id, d.dict.distinct.size());
    ASSERT_EQ(BitString::FromSpan(d.dict.distinct[id]), scan[i]) << "pos " << i;
    ++uses[id];
  }
  // Each leaf string once, every one used, in sorted (preorder) order.
  for (size_t k = 0; k < uses.size(); ++k) {
    ASSERT_GT(uses[k], 0u) << "leaf " << k;
    if (k > 0) {
      ASSERT_TRUE(BitString::FromSpan(d.dict.distinct[k - 1]) <
                  BitString::FromSpan(d.dict.distinct[k]));
    }
  }
}

TYPED_TEST(AppendBatchTest, ExtractDictSpellsTheSequence) {
  for (const auto& values : DictCases()) {
    TypeParam trie;
    std::vector<BitString> enc;
    for (const auto& v : values) enc.push_back(ByteCodec::Encode(v));
    trie.AppendBatch(enc);
    ExpectDictSpellsSequence(trie);
    ExpectDictSpellsSequence(WaveletTrie::BulkBuild(enc));
  }
}

template <typename P>
void ExpectFreezeMatchesScan(const wtrie::Sequence<P>& seq) {
  const std::vector<BitString> scan = ScanAll(seq.trie());
  const auto frozen = seq.Freeze();
  ASSERT_EQ(frozen.SerializeImage(), ScanImage(scan, seq.EncodedBits()));
}

TEST(LeafDict, FreezeMatchesScanUnderAppendOnlyAndDynamic) {
  for (const auto& values : DictCases()) {
    SCOPED_TRACE(values.size());
    wtrie::Sequence<wtrie::AppendOnly> append_only;
    ASSERT_TRUE(append_only.AppendBatch(values).ok());
    ExpectFreezeMatchesScan(append_only);
    wtrie::Sequence<wtrie::Dynamic> dynamic;
    // Half appended, half inserted at the front.
    std::vector<std::string> back(values.begin(),
                                  values.begin() + values.size() / 2);
    ASSERT_TRUE(dynamic.AppendBatch(back).ok());
    for (size_t i = values.size() / 2; i < values.size(); ++i) {
      ASSERT_TRUE(dynamic.Insert(values[i], 0).ok());
    }
    ExpectFreezeMatchesScan(dynamic);
    // Deletes that empty leaves merge nodes away; the budget is not
    // refunded, so the frozen image keeps the larger EncodedBits.
    for (size_t i = 0; i < dynamic.size(); i += 3) {
      ASSERT_TRUE(dynamic.Delete(i).ok());
    }
    ExpectFreezeMatchesScan(dynamic);
  }
}

template <typename P>
void ExpectThawMatchesScan(const StrStatic& frozen) {
  const std::vector<BitString> scan = ScanAll(frozen.trie());
  const auto thawed = frozen.template Thaw<P>();
  ASSERT_EQ(thawed.EncodedBits(), TotalBits(scan));
  typename P::Trie reference;
  reference.AppendBatch(scan);
  ExpectIdenticalStructure(thawed.trie(), reference);
  ASSERT_EQ(thawed.SerializeImage(), ScanImage(scan, TotalBits(scan)));
}

TEST(LeafDict, ThawOfAFrozenSequenceMatchesScan) {
  for (const auto& values : DictCases()) {
    SCOPED_TRACE(values.size());
    wtrie::Sequence<wtrie::AppendOnly> stream;
    ASSERT_TRUE(stream.AppendBatch(values).ok());
    const StrStatic frozen = stream.Freeze();
    ExpectThawMatchesScan<wtrie::AppendOnly>(frozen);
    ExpectThawMatchesScan<wtrie::Dynamic>(frozen);
  }
}

void ExpectConcatMatchesScan(
    const std::vector<std::vector<std::string>>& part_values) {
  std::vector<StrStatic> parts;
  for (const auto& v : part_values) parts.emplace_back(v);
  std::vector<const StrStatic*> ptrs;
  std::vector<BitString> scan;
  for (const StrStatic& p : parts) {
    ptrs.push_back(&p);
    for (BitString& s : ScanAll(p.trie())) scan.push_back(std::move(s));
  }
  const StrStatic merged = StrStatic::Concat(ptrs);
  ASSERT_EQ(merged.SerializeImage(), ScanImage(scan, TotalBits(scan)));
}

TEST(LeafDict, ConcatMatchesScan) {
  ExpectConcatMatchesScan({});
  ExpectConcatMatchesScan({{}});
  ExpectConcatMatchesScan({{}, {}});
  ExpectConcatMatchesScan({{"one"}});
  ExpectConcatMatchesScan({{"ab"}, {"ac"}});  // the union splits a label
  ExpectConcatMatchesScan({{"ab", "ab"}, {}, {"ac"}, {"ab"}});
  ExpectConcatMatchesScan({{"a", "b", "a"}, {"x", "y"}});  // disjoint alphabets
  ExpectConcatMatchesScan({{"same", "same"}, {"same"}, {"same", "same"}});
  const auto cases = DictCases();
  std::mt19937_64 rng(11);
  for (size_t k = 1; k <= 4; ++k) {
    for (int round = 0; round < 4; ++round) {
      std::vector<std::vector<std::string>> part_values;
      for (size_t j = 0; j < k; ++j) {
        const auto& c = cases[rng() % cases.size()];
        const size_t from = c.empty() ? 0 : rng() % c.size();
        part_values.emplace_back(c.begin() + from, c.end());
      }
      SCOPED_TRACE(testing::Message() << k << " parts, round " << round);
      ExpectConcatMatchesScan(part_values);
    }
  }
}

}  // namespace
}  // namespace wt
