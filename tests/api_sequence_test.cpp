// Tests for the unified public API facade (src/api/sequence.hpp):
//   * differential tests of Sequence<P> against the naive oracle for every
//     policy, over a mixed Zipf/uniform workload;
//   * lifecycle round trips: Thaw(Freeze(s)) and Load(Save(s)) are
//     query-identical (and, through the canonical static image,
//     byte-identical on re-save);
//   * corrupt / truncated / mismatched input, codec state included, is a
//     recoverable error at the API boundary — never an abort;
//   * cursors enumerate exactly what the core visitor callbacks produce;
//   * the RawByteCodec and FixedIntCodec instantiations answer queries.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/sequence.hpp"
#include "core/naive.hpp"
#include "image_roundtrip.hpp"
#include "util/workloads.hpp"

namespace wt {
namespace {

// Mixed workload: Zipf-skewed URLs (long shared prefixes, heavy head) plus
// uniform random tokens (flat tail, little sharing).
std::vector<std::string> MixedWorkload(size_t n, uint64_t seed) {
  UrlLogOptions opt;
  opt.num_domains = 24;
  opt.paths_per_domain = 12;
  opt.seed = seed;
  UrlLogGenerator gen(opt);
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng() % 3 == 0) {
      std::string t = "tok";
      for (int j = 0; j < 6; ++j) t.push_back('a' + rng() % 26);
      out.push_back(std::move(t));
    } else {
      out.push_back(gen.Next());
    }
  }
  return out;
}

NaiveIndexedSequence NaiveOf(const std::vector<std::string>& values) {
  std::vector<BitString> enc;
  enc.reserve(values.size());
  for (const auto& v : values) enc.push_back(ByteCodec::Encode(v));
  return NaiveIndexedSequence(std::move(enc));
}

// Probes: values drawn from the sequence plus strings certain to be absent.
std::vector<std::string> Probes(const std::vector<std::string>& values,
                                std::mt19937_64& rng, size_t count) {
  std::vector<std::string> probes;
  for (size_t i = 0; i < count; ++i) {
    probes.push_back(i % 4 == 3 ? "absent/value" + std::to_string(i)
                                : values[rng() % values.size()]);
  }
  return probes;
}

template <typename Seq>
void CheckAgainstNaive(const Seq& seq, const NaiveIndexedSequence& naive,
                       const std::vector<std::string>& values, uint64_t seed) {
  ASSERT_EQ(seq.size(), naive.size());
  std::mt19937_64 rng(seed);
  const auto probes = Probes(values, rng, 60);

  for (const auto& probe : probes) {
    const BitString enc = ByteCodec::Encode(probe);
    const size_t pos = rng() % (naive.size() + 1);
    ASSERT_EQ(seq.Rank(probe, pos).value(), naive.Rank(enc, pos));
    const size_t idx = rng() % 8;
    const auto sel = seq.Select(probe, idx);
    const auto nsel = naive.Select(enc, idx);
    ASSERT_EQ(sel.ok(), nsel.has_value());
    if (sel.ok()) ASSERT_EQ(sel.value(), *nsel);

    // Prefix variants: byte prefixes of the probe.
    const std::string prefix = probe.substr(0, rng() % (probe.size() + 1));
    const BitString penc = ByteCodec::EncodePrefix(prefix);
    ASSERT_EQ(seq.RankPrefix(prefix, pos).value(), naive.RankPrefix(penc, pos));
    const auto psel = seq.SelectPrefix(prefix, idx);
    const auto npsel = naive.SelectPrefix(penc, idx);
    ASSERT_EQ(psel.ok(), npsel.has_value());
    if (psel.ok()) ASSERT_EQ(psel.value(), *npsel);
  }

  for (int q = 0; q < 40; ++q) {
    const size_t pos = rng() % naive.size();
    ASSERT_EQ(seq.Access(pos).value(),
              ByteCodec::Decode(naive.Access(pos).Span()));
  }

  // Range analytics on random windows.
  for (int q = 0; q < 12; ++q) {
    size_t l = rng() % (naive.size() + 1);
    size_t r = rng() % (naive.size() + 1);
    if (l > r) std::swap(l, r);

    const std::string& probe = probes[q];
    const BitString enc = ByteCodec::Encode(probe);
    ASSERT_EQ(seq.RangeCount(probe, l, r).value(),
              naive.Rank(enc, r) - naive.Rank(enc, l));
    const std::string prefix = probe.substr(0, probe.size() / 2);
    const BitString penc = ByteCodec::EncodePrefix(prefix);
    ASSERT_EQ(seq.RangeCountPrefix(prefix, l, r).value(),
              naive.RankPrefix(penc, r) - naive.RankPrefix(penc, l));

    std::map<std::string, size_t> got;
    auto cur = seq.Distinct(l, r).value();
    while (cur.Next()) got[cur.value()] = cur.count();
    std::map<std::string, size_t> want;
    for (const auto& [s, c] : naive.DistinctInRange(l, r)) {
      want[ByteCodec::Decode(s.Span())] = c;
    }
    ASSERT_EQ(got, want);

    const auto m = seq.Majority(l, r);
    const auto nm = naive.RangeMajority(l, r);
    ASSERT_EQ(m.ok(), nm.has_value());
    if (m.ok()) {
      ASSERT_EQ(m->first, ByteCodec::Decode(nm->first.Span()));
      ASSERT_EQ(m->second, nm->second);
    }

    if (r > l) {
      const size_t t = 1 + rng() % 8;
      std::map<std::string, size_t> fgot;
      auto fcur = seq.Frequent(l, r, t).value();
      while (fcur.Next()) fgot[fcur.value()] = fcur.count();
      std::map<std::string, size_t> fwant;
      for (const auto& [s, c] : naive.RangeFrequent(l, r, t)) {
        fwant[ByteCodec::Decode(s.Span())] = c;
      }
      ASSERT_EQ(fgot, fwant);
    }
  }
}

template <typename Policy>
class ApiSequenceTest : public ::testing::Test {};

using Policies = ::testing::Types<wtrie::Static, wtrie::AppendOnly,
                                  wtrie::Dynamic>;
TYPED_TEST_SUITE(ApiSequenceTest, Policies);

TYPED_TEST(ApiSequenceTest, DifferentialVsNaive) {
  const auto values = MixedWorkload(4000, 11);
  const wtrie::Sequence<TypeParam> seq(values);
  CheckAgainstNaive(seq, NaiveOf(values), values, 21);
}

TYPED_TEST(ApiSequenceTest, SaveLoadRoundTripIsQueryIdentical) {
  const auto values = MixedWorkload(3000, 12);
  const wtrie::Sequence<TypeParam> seq(values);
  std::stringstream file;
  ASSERT_TRUE(seq.Save(file).ok());
  auto loaded = wtrie::Sequence<TypeParam>::Load(file);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), seq.size());
  ASSERT_EQ(loaded->NumDistinct(), seq.NumDistinct());
  // The capacity budget must survive the round trip for every policy:
  // downstream accounting (the engine's compaction guard) trusts it.
  ASSERT_EQ(loaded->EncodedBits(), seq.EncodedBits());
  ASSERT_GT(loaded->EncodedBits(), 0u);
  CheckAgainstNaive(*loaded, NaiveOf(values), values, 22);
  // The canonical static image makes re-save byte-identical.
  std::stringstream again;
  ASSERT_TRUE(loaded->Save(again).ok());
  std::stringstream orig;
  ASSERT_TRUE(seq.Save(orig).ok());
  ASSERT_EQ(again.str(), orig.str());
}

TYPED_TEST(ApiSequenceTest, ScanCursorMatchesCoreVisitor) {
  const auto values = MixedWorkload(3000, 13);
  const wtrie::Sequence<TypeParam> seq(values);
  std::mt19937_64 rng(23);
  for (int q = 0; q < 8; ++q) {
    size_t l = rng() % (values.size() + 1);
    size_t r = rng() % (values.size() + 1);
    if (l > r) std::swap(l, r);
    std::vector<std::pair<size_t, std::string>> want;
    seq.trie().ForEachInRange(l, r, [&](size_t i, const BitString& s) {
      want.emplace_back(i, ByteCodec::Decode(s.Span()));
    });
    std::vector<std::pair<size_t, std::string>> got;
    auto cur = seq.Scan(l, r).value();
    ASSERT_EQ(cur.remaining(), r - l);
    while (cur.Next()) got.emplace_back(cur.position(), cur.value());
    ASSERT_EQ(got, want);
    ASSERT_EQ(cur.remaining(), 0u);
    // And against ground truth: the scan must be the input slice itself.
    for (const auto& [i, v] : got) ASSERT_EQ(v, values[i]);
  }
}

TYPED_TEST(ApiSequenceTest, BoundsAreErrorsNotAborts) {
  const auto values = MixedWorkload(100, 14);
  const wtrie::Sequence<TypeParam> seq(values);
  EXPECT_EQ(seq.Access(seq.size()).code(), wtrie::ErrorCode::kOutOfRange);
  EXPECT_EQ(seq.Rank("x", seq.size() + 1).code(),
            wtrie::ErrorCode::kOutOfRange);
  EXPECT_EQ(seq.Select("definitely-absent", 0).code(),
            wtrie::ErrorCode::kNotFound);
  EXPECT_EQ(seq.Scan(5, 2).code(), wtrie::ErrorCode::kInvalidArgument);
  EXPECT_EQ(seq.Scan(0, seq.size() + 1).code(),
            wtrie::ErrorCode::kOutOfRange);
  EXPECT_EQ(seq.Distinct(0, seq.size() + 1).code(),
            wtrie::ErrorCode::kOutOfRange);
  EXPECT_EQ(seq.Frequent(0, seq.size(), 0).code(),
            wtrie::ErrorCode::kInvalidArgument);
  EXPECT_EQ(seq.Majority(3, 1).code(), wtrie::ErrorCode::kInvalidArgument);
}

TEST(ApiLifecycle, ThawFreezeIsIdentity) {
  const auto values = MixedWorkload(3000, 15);
  const wtrie::Sequence<wtrie::Static> s(values);
  std::stringstream s_bytes;
  ASSERT_TRUE(s.Save(s_bytes).ok());

  // Static -> AppendOnly -> Static and Static -> Dynamic -> Static both
  // reproduce the exact canonical image (structure-identical), and the
  // thawed sequences answer queries identically (query-identical).
  {
    auto thawed = s.Thaw<wtrie::AppendOnly>();
    CheckAgainstNaive(thawed, NaiveOf(values), values, 31);
    std::stringstream back;
    ASSERT_TRUE(thawed.Freeze().Save(back).ok());
    ASSERT_EQ(back.str(), s_bytes.str());
  }
  {
    auto thawed = s.Thaw<wtrie::Dynamic>();
    CheckAgainstNaive(thawed, NaiveOf(values), values, 32);
    std::stringstream back;
    ASSERT_TRUE(thawed.Freeze().Save(back).ok());
    ASSERT_EQ(back.str(), s_bytes.str());
  }
}

TEST(ApiLifecycle, ThawedSequenceAcceptsUpdates) {
  const auto values = MixedWorkload(500, 16);
  const wtrie::Sequence<wtrie::Static> s(values);
  auto dyn = s.Thaw<wtrie::Dynamic>();
  NaiveIndexedSequence naive = NaiveOf(values);

  std::mt19937_64 rng(33);
  auto mixed = MixedWorkload(200, 17);
  for (const auto& v : mixed) {
    if (rng() % 3 == 0 && dyn.size() > 0) {
      const size_t pos = rng() % dyn.size();
      ASSERT_TRUE(dyn.Delete(pos).ok());
      naive.Delete(pos);
    } else {
      const size_t pos = rng() % (dyn.size() + 1);
      ASSERT_TRUE(dyn.Insert(v, pos).ok());
      naive.Insert(pos, ByteCodec::Encode(v));
    }
  }
  ASSERT_EQ(dyn.size(), naive.size());
  for (size_t i = 0; i < dyn.size(); i += 7) {
    ASSERT_EQ(dyn.Access(i).value(), ByteCodec::Decode(naive.Access(i).Span()));
  }
}

TEST(ApiLifecycle, FreezeShrinksAndPreservesQueries) {
  const auto values = MixedWorkload(2000, 18);
  wtrie::Sequence<wtrie::AppendOnly> stream;
  for (const auto& v : values) ASSERT_TRUE(stream.Append(v).ok());
  const auto frozen = stream.Freeze();
  EXPECT_LE(frozen.SizeInBits(), stream.SizeInBits());
  CheckAgainstNaive(frozen, NaiveOf(values), values, 41);
}

TEST(ApiPersistence, CrossPolicyLoad) {
  // The payload is the canonical static image: a file written under one
  // policy loads under any other.
  const auto values = MixedWorkload(1000, 19);
  wtrie::Sequence<wtrie::AppendOnly> stream;
  ASSERT_TRUE(stream.AppendBatch(values).ok());
  std::stringstream file;
  ASSERT_TRUE(stream.Save(file).ok());

  auto as_static = wtrie::Sequence<wtrie::Static>::Load(file);
  ASSERT_TRUE(as_static.ok());
  file.clear();
  file.seekg(0);
  auto as_dynamic = wtrie::Sequence<wtrie::Dynamic>::Load(file);
  ASSERT_TRUE(as_dynamic.ok());
  for (size_t i = 0; i < values.size(); i += 13) {
    ASSERT_EQ(as_static->Access(i).value(), values[i]);
    ASSERT_EQ(as_dynamic->Access(i).value(), values[i]);
  }
}

TEST(ApiPersistence, IntCodecStateSurvivesRoundTrip) {
  std::vector<uint64_t> vals;
  for (uint64_t v : GenerateIntegers(2000, 64, IntDistribution::kZipf, 3)) {
    vals.push_back(v & 0xFFFFFFFFu);
  }
  const wtrie::Sequence<wtrie::Static, FixedIntCodec> fixed(vals,
                                                            FixedIntCodec(32));
  std::stringstream f1;
  ASSERT_TRUE(fixed.Save(f1).ok());
  auto fixed2 = wtrie::Sequence<wtrie::Static, FixedIntCodec>::Load(f1);
  ASSERT_TRUE(fixed2.ok());
  ASSERT_EQ(fixed2->codec().width(), 32u);

  const wtrie::Sequence<wtrie::Dynamic, HashedIntCodec> hashed(
      vals, HashedIntCodec(64, 77));
  std::stringstream f2;
  ASSERT_TRUE(hashed.Save(f2).ok());
  auto hashed2 = wtrie::Sequence<wtrie::Dynamic, HashedIntCodec>::Load(f2);
  ASSERT_TRUE(hashed2.ok());
  ASSERT_EQ(hashed2->codec().multiplier(), hashed.codec().multiplier());
  for (size_t i = 0; i < vals.size(); i += 17) {
    ASSERT_EQ(fixed2->Access(i).value(), vals[i]);
    ASSERT_EQ(hashed2->Access(i).value(), vals[i]);
  }
}

TEST(ApiPersistence, EmptySequenceRoundTrip) {
  const wtrie::Sequence<wtrie::Static> empty;
  std::stringstream file;
  ASSERT_TRUE(empty.Save(file).ok());
  auto loaded = wtrie::Sequence<wtrie::Dynamic>::Load(file);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->Rank("anything", 0).value(), 0u);
}

// Offset of the codec-state section body in a v5 image: a u64 length,
// then the codec's SaveState bytes.
size_t CodecStateOffset(const std::string& img) {
  storage::ImageHeader h;
  std::memcpy(&h, img.data(), sizeof(h));
  for (uint32_t i = 0; i < h.section_count; ++i) {
    storage::SectionEntry e;
    std::memcpy(&e, img.data() + sizeof(h) + i * sizeof(e), sizeof(e));
    if (e.tag == storage::kSecCodecState) return e.offset;
  }
  ADD_FAILURE() << "image has no codec-state section";
  return 0;
}

template <typename Codec>
wtrie::ErrorCode LoadUnverified(const std::string& img) {
  return wtrie::Sequence<wtrie::Static, Codec>::LoadImage(
             test_util::BlobOf(img), Codec(), storage::VerifyMode::kNone)
      .code();
}

TEST(ApiPersistence, CorruptInputIsAnErrorNotAnAbort) {
  const auto values = MixedWorkload(500, 20);
  const wtrie::Sequence<wtrie::Static> seq(values);
  std::stringstream file;
  ASSERT_TRUE(seq.Save(file).ok());
  const std::string bytes = file.str();

  {  // wrong magic
    std::stringstream bad("this is not a sequence stream at all............");
    auto r = wtrie::Sequence<wtrie::Static>::Load(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), wtrie::ErrorCode::kCorruptStream);
  }
  {  // truncation at every layer: magic, header, section table, bodies
    for (const size_t cut : {size_t(3), size_t(13), size_t(60),
                             bytes.size() / 2, bytes.size() - 1}) {
      std::stringstream bad(bytes.substr(0, cut));
      auto r = wtrie::Sequence<wtrie::Static>::Load(bad);
      ASSERT_FALSE(r.ok()) << "cut at " << cut;
      EXPECT_EQ(r.code(), wtrie::ErrorCode::kTruncatedStream);
    }
  }
  {  // lying image-size field (trusted only after the hash checks out): the
     // huge claimed size must surface as truncation, not a giant allocation
    std::string forged = bytes;
    const uint64_t huge = uint64_t(1) << 60;
    std::memcpy(forged.data() + offsetof(wt::storage::ImageHeader, total_bytes),
                &huge, sizeof(huge));
    std::stringstream bad(forged);
    auto r = wtrie::Sequence<wtrie::Static>::Load(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), wtrie::ErrorCode::kTruncatedStream);
  }
  {  // bit flip inside the image: caught by the hash
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    std::stringstream bad(flipped);
    auto r = wtrie::Sequence<wtrie::Static>::Load(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), wtrie::ErrorCode::kCorruptStream);
  }
  {  // future format version
    std::string newer = bytes;
    newer[8] = 0x7F;  // version field follows the u64 magic
    std::stringstream bad(newer);
    auto r = wtrie::Sequence<wtrie::Static>::Load(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), wtrie::ErrorCode::kVersionMismatch);
  }
  {  // codec mismatch: saved with ByteCodec, loaded as FixedIntCodec
    std::stringstream bad(bytes);
    auto r = wtrie::Sequence<wtrie::Static, FixedIntCodec>::Load(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), wtrie::ErrorCode::kInvalidArgument);
  }
  {  // corrupt codec state under VerifyMode::kNone (how the engine opens
     // segments): no hash check runs first, so the codec must reject it
    const std::vector<uint64_t> ints{7, 1, 7, 9};
    const std::string fixed =
        wtrie::Sequence<wtrie::Static, FixedIntCodec>(ints, FixedIntCodec(16))
            .SerializeImage();
    const size_t state = CodecStateOffset(fixed);
    ASSERT_EQ(LoadUnverified<FixedIntCodec>(fixed), wtrie::ErrorCode::kOk);
    for (const uint32_t width : {0u, 65u}) {
      std::string bad = fixed;
      std::memcpy(bad.data() + state + 8, &width, sizeof(width));
      EXPECT_EQ(LoadUnverified<FixedIntCodec>(bad),
                wtrie::ErrorCode::kCorruptStream)
          << "width " << width;
    }
    std::string truncated = fixed;  // length field: 2 of the 4 width bytes
    const uint64_t len = 2;
    std::memcpy(truncated.data() + state, &len, sizeof(len));
    EXPECT_EQ(LoadUnverified<FixedIntCodec>(truncated),
              wtrie::ErrorCode::kCorruptStream);

    std::string hashed = wtrie::Sequence<wtrie::Static, HashedIntCodec>(
                             ints, HashedIntCodec(64, 77))
                             .SerializeImage();
    const size_t hstate = CodecStateOffset(hashed) + 8 + sizeof(uint32_t);
    uint64_t a = 0;  // the multiplier follows the u32 width
    std::memcpy(&a, hashed.data() + hstate, sizeof(a));
    a &= ~uint64_t(1);
    std::memcpy(hashed.data() + hstate, &a, sizeof(a));
    EXPECT_EQ(LoadUnverified<HashedIntCodec>(hashed),
              wtrie::ErrorCode::kCorruptStream);

    FixedIntCodec c(16);  // a rejected state leaves the codec unchanged
    std::istringstream zero(std::string(sizeof(uint32_t), '\0'));
    EXPECT_FALSE(c.LoadState(zero));
    EXPECT_EQ(c.width(), 16u);
  }
  // The original stream still loads fine after all that.
  std::stringstream good(bytes);
  ASSERT_TRUE(wtrie::Sequence<wtrie::Static>::Load(good).ok());
}

TEST(ApiCodecs, RawByteCodecVariant) {
  wtrie::Sequence<wtrie::AppendOnly, RawByteCodec> seq;
  for (const char* s : {"aaa", "aab", "aaa", "b"}) {
    ASSERT_TRUE(seq.Append(std::string(s)).ok());
  }
  EXPECT_EQ(seq.Count("aaa"), 2u);
  EXPECT_EQ(seq.CountPrefix("aa"), 3u);
  EXPECT_EQ(seq.Access(3).value(), "b");
}

TEST(ApiCodecs, IntegerCodecStatic) {
  using IntSequence = wtrie::Sequence<wtrie::Static, FixedIntCodec>;
  const std::vector<uint64_t> data = {7, 1, 7, 9, 7, 7, 500};
  const IntSequence seq(data, FixedIntCodec(16));
  EXPECT_EQ(seq.size(), 7u);
  EXPECT_EQ(seq.Access(3).value(), 9u);
  EXPECT_EQ(seq.Rank(7, 7).value(), 4u);
  EXPECT_EQ(seq.Select(1, 0).value(), 1u);
  const auto m = seq.Majority(0, 6);  // 7 occurs 4 of 6: strict majority
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->first, 7u);
  // Prefix methods do not exist for integer codecs (compile-time property).
  static_assert(!IntSequence::kHasPrefixCodec);
}

TEST(ApiCursor, DistinctCursorMatchesCallbacksAndHandlesEmptyRange) {
  const auto values = MixedWorkload(1500, 24);
  const wtrie::Sequence<wtrie::AppendOnly> seq(values);

  std::vector<std::pair<std::string, size_t>> want;
  seq.trie().DistinctInRange(100, 900, [&](const BitString& s, size_t c) {
    want.emplace_back(ByteCodec::Decode(s.Span()), c);
  });
  std::vector<std::pair<std::string, size_t>> got;
  auto cur = seq.Distinct(100, 900).value();
  ASSERT_EQ(cur.size(), want.size());
  while (cur.Next()) got.emplace_back(cur.value(), cur.count());
  ASSERT_EQ(got, want);  // same entries, same (lexicographic) order

  auto empty = seq.Distinct(500, 500).value();
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.Next());
  auto empty_scan = seq.Scan(500, 500).value();
  EXPECT_FALSE(empty_scan.Next());

  // Prefix-restricted distinct, against the core visitor.
  std::map<std::string, size_t> pwant;
  const BitString p = ByteCodec::EncodePrefix("www.site1");
  seq.trie().DistinctInRangeWithPrefix(p.Span(), 100, 900,
                                       [&](const BitString& s, size_t c) {
                                         pwant[ByteCodec::Decode(s.Span())] = c;
                                       });
  std::map<std::string, size_t> pgot;
  auto pcur = seq.DistinctWithPrefix("www.site1", 100, 900).value();
  while (pcur.Next()) pgot[pcur.value()] = pcur.count();
  ASSERT_EQ(pgot, pwant);
}

}  // namespace
}  // namespace wt
