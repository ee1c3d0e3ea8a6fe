// Cross-representation integration tests: every indexed-sequence
// representation in the library — the four Wavelet Tries behind the
// wtrie::Sequence facade (static, append-only, de-amortized append-only,
// fully dynamic), which share one implementation of the queries, and the
// three related-work baselines — answers the same queries on the same
// workloads. Any divergence between two representations is a bug in one of
// them; the naive vector-of-strings oracle arbitrates.
//
// Also covers lifecycle paths a database would exercise: streaming into an
// append-only trie and snapshotting it into the static structure, and
// mixed insert/delete/query traffic against the fully dynamic trie.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/sequence.hpp"
#include "core/btree_sequence.hpp"
#include "core/lex_sequence.hpp"
#include "text/text_collection.hpp"
#include "util/workloads.hpp"

namespace wt {
namespace {

// Lemma 4.8's de-amortized append-only trie has no shipped policy; the
// facade takes any struct that models contracts::SequencePolicy.
struct Deamortized {
  using Trie = DeamortizedAppendOnlyWaveletTrie;
  static constexpr bool kMutable = true;
  static constexpr bool kFullyDynamic = false;
  static constexpr const char* kName = "Deamortized";
};

// The facade reports a missing occurrence as kNotFound, the baselines as
// nullopt.
std::optional<size_t> Opt(const wtrie::Result<size_t>& r) {
  if (r.ok()) return r.value();
  EXPECT_EQ(r.code(), wtrie::ErrorCode::kNotFound);
  return std::nullopt;
}

std::map<std::string, size_t> ToMap(
    wtrie::Result<wtrie::DistinctCursor<std::string>> r) {
  std::map<std::string, size_t> out;
  auto cur = std::move(r).value();
  while (cur.Next()) out[cur.value()] = cur.count();
  return out;
}

struct WorkloadParam {
  size_t n;
  size_t domains;
  size_t paths;
  uint64_t seed;
  bool add_edge_strings;  // inject empty/one-char/nested-prefix values
};

class AllRepresentations : public ::testing::TestWithParam<WorkloadParam> {
 protected:
  void SetUp() override {
    const auto p = GetParam();
    UrlLogGenerator gen(
        {.num_domains = p.domains, .paths_per_domain = p.paths, .seed = p.seed});
    seq_ = gen.Take(p.n);
    if (p.add_edge_strings) {
      std::mt19937_64 rng(p.seed ^ 0xE);
      const std::vector<std::string> edges{"", "a", "ab", "abc", "b",
                                           seq_[0] + "/deeper"};
      for (const auto& e : edges) {
        seq_.insert(seq_.begin() + rng() % seq_.size(), e);
        seq_.insert(seq_.begin() + rng() % seq_.size(), e);
      }
    }
    static_trie_ = wtrie::Sequence<wtrie::Static>(seq_);
    for (const auto& s : seq_) {
      ASSERT_TRUE(append_trie_.Append(s).ok());
      ASSERT_TRUE(deam_trie_.Append(s).ok());
    }
    // The fully-dynamic trie is built front-first by Insert, so its node
    // splits and bitvectors come from the update path, not from appends.
    for (size_t i = seq_.size(); i-- > 0;) {
      ASSERT_TRUE(dyn_trie_.Insert(seq_[i], 0).ok());
    }
    lex_ = LexMappedSequence(seq_);
    text_ = TextCollection(seq_);
    btree_ = BTreeIndexedSequence(seq_);
  }

  std::vector<std::string> Probes() const {
    std::vector<std::string> probes{seq_[0], seq_[seq_.size() / 2],
                                    seq_.back(), "not-in-the-sequence"};
    if (GetParam().add_edge_strings) {
      probes.push_back("");
      probes.push_back("ab");
    }
    return probes;
  }

  std::vector<std::string> seq_;
  wtrie::Sequence<wtrie::Static> static_trie_;
  wtrie::Sequence<wtrie::AppendOnly> append_trie_;
  wtrie::Sequence<Deamortized> deam_trie_;
  wtrie::Sequence<wtrie::Dynamic> dyn_trie_;
  LexMappedSequence lex_;
  TextCollection text_;
  BTreeIndexedSequence btree_;
};

TEST_P(AllRepresentations, AccessAgreesEverywhere) {
  for (size_t i = 0; i < seq_.size(); i += 7) {
    const std::string& expect = seq_[i];
    ASSERT_EQ(static_trie_.Access(i).value(), expect) << i;
    ASSERT_EQ(append_trie_.Access(i).value(), expect) << i;
    ASSERT_EQ(deam_trie_.Access(i).value(), expect) << i;
    ASSERT_EQ(dyn_trie_.Access(i).value(), expect) << i;
    ASSERT_EQ(lex_.Access(i), expect) << i;
    ASSERT_EQ(text_.Access(i), expect) << i;
    ASSERT_EQ(btree_.Access(i), expect) << i;
  }
}

TEST_P(AllRepresentations, RankAgreesEverywhere) {
  for (const auto& probe : Probes()) {
    size_t count = 0;
    for (size_t i = 0; i <= seq_.size(); i += 97) {
      count = 0;
      for (size_t j = 0; j < i; ++j) count += seq_[j] == probe;
      ASSERT_EQ(static_trie_.Rank(probe, i).value(), count)
          << probe << "@" << i;
      ASSERT_EQ(append_trie_.Rank(probe, i).value(), count);
      ASSERT_EQ(deam_trie_.Rank(probe, i).value(), count);
      ASSERT_EQ(dyn_trie_.Rank(probe, i).value(), count);
      ASSERT_EQ(lex_.Rank(probe, i), count);
      ASSERT_EQ(text_.Rank(probe, i), count);
      ASSERT_EQ(btree_.Rank(probe, i), count);
    }
  }
}

TEST_P(AllRepresentations, SelectAgreesEverywhere) {
  for (const auto& probe : Probes()) {
    std::vector<size_t> positions;
    for (size_t i = 0; i < seq_.size(); ++i) {
      if (seq_[i] == probe) positions.push_back(i);
    }
    for (size_t k = 0; k <= positions.size(); k += (positions.size() / 5 + 1)) {
      const std::optional<size_t> expect =
          k < positions.size() ? std::optional<size_t>(positions[k])
                               : std::nullopt;
      ASSERT_EQ(Opt(static_trie_.Select(probe, k)), expect)
          << probe << " k=" << k;
      ASSERT_EQ(Opt(append_trie_.Select(probe, k)), expect);
      ASSERT_EQ(Opt(deam_trie_.Select(probe, k)), expect);
      ASSERT_EQ(Opt(dyn_trie_.Select(probe, k)), expect);
      ASSERT_EQ(lex_.Select(probe, k), expect);
      ASSERT_EQ(text_.Select(probe, k), expect);
      ASSERT_EQ(btree_.Select(probe, k), expect);
    }
  }
}

TEST_P(AllRepresentations, PrefixOpsAgreeEverywhere) {
  UrlLogGenerator gen({.num_domains = GetParam().domains, .seed = 1});
  const std::vector<std::string> prefixes{gen.Domain(0), gen.Domain(1) + "/",
                                          "www.", "zzz-nothing", ""};
  for (const auto& p : prefixes) {
    // RankPrefix at sampled positions.
    for (size_t i = 0; i <= seq_.size(); i += 131) {
      size_t count = 0;
      for (size_t j = 0; j < i; ++j) {
        count += seq_[j].compare(0, p.size(), p) == 0;
      }
      ASSERT_EQ(static_trie_.RankPrefix(p, i).value(), count)
          << p << "@" << i;
      ASSERT_EQ(append_trie_.RankPrefix(p, i).value(), count);
      ASSERT_EQ(deam_trie_.RankPrefix(p, i).value(), count);
      ASSERT_EQ(dyn_trie_.RankPrefix(p, i).value(), count);
      ASSERT_EQ(lex_.RankPrefix(p, i), count);
      ASSERT_EQ(text_.RankPrefix(p, i), count);
      ASSERT_EQ(btree_.RankPrefix(p, i), count);
    }
    // SelectPrefix for sampled ks.
    std::vector<size_t> positions;
    for (size_t i = 0; i < seq_.size(); ++i) {
      if (seq_[i].compare(0, p.size(), p) == 0) positions.push_back(i);
    }
    for (size_t k = 0; k <= positions.size(); k += (positions.size() / 4 + 1)) {
      const std::optional<size_t> expect =
          k < positions.size() ? std::optional<size_t>(positions[k])
                               : std::nullopt;
      ASSERT_EQ(Opt(static_trie_.SelectPrefix(p, k)), expect)
          << p << " k=" << k;
      ASSERT_EQ(Opt(append_trie_.SelectPrefix(p, k)), expect);
      ASSERT_EQ(Opt(deam_trie_.SelectPrefix(p, k)), expect);
      ASSERT_EQ(Opt(dyn_trie_.SelectPrefix(p, k)), expect);
      ASSERT_EQ(lex_.SelectPrefix(p, k), expect);
      ASSERT_EQ(text_.SelectPrefix(p, k), expect);
      ASSERT_EQ(btree_.SelectPrefix(p, k), expect);
    }
  }
}

TEST_P(AllRepresentations, DistinctCountsAgree) {
  std::vector<std::string> sorted(seq_);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(static_trie_.NumDistinct(), sorted.size());
  EXPECT_EQ(append_trie_.NumDistinct(), sorted.size());
  EXPECT_EQ(deam_trie_.NumDistinct(), sorted.size());
  EXPECT_EQ(dyn_trie_.NumDistinct(), sorted.size());
  EXPECT_EQ(lex_.NumDistinct(), sorted.size());
}

TEST_P(AllRepresentations, CompressedBeatsUncompressedBaselines) {
  // The headline space claim, checked as an invariant on every workload:
  // the static trie is smaller than the lex dictionary + balanced tree and
  // far smaller than the B-tree index.
  EXPECT_LT(static_trie_.SizeInBits(), lex_.SizeInBits());
  EXPECT_LT(static_trie_.SizeInBits(), btree_.SizeInBits() / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AllRepresentations,
    ::testing::Values(WorkloadParam{300, 5, 4, 11, false},
                      WorkloadParam{800, 20, 10, 12, false},
                      WorkloadParam{500, 3, 30, 13, true},
                      WorkloadParam{1200, 40, 3, 14, true}));

TEST_P(AllRepresentations, PrefixRestrictedDistinctMatchesNaive) {
  UrlLogGenerator gen({.num_domains = GetParam().domains, .seed = 1});
  const std::vector<std::string> prefixes{gen.Domain(0), gen.Domain(1) + "/sec",
                                          "www.", "", "zzz-nothing"};
  const size_t l = seq_.size() / 5, r = seq_.size() - seq_.size() / 7;
  for (const auto& p : prefixes) {
    std::map<std::string, size_t> expect;
    for (size_t i = l; i < r; ++i) {
      if (seq_[i].compare(0, p.size(), p) == 0) ++expect[seq_[i]];
    }
    ASSERT_EQ(ToMap(static_trie_.DistinctWithPrefix(p, l, r)), expect)
        << "static, prefix '" << p << "'";
    ASSERT_EQ(ToMap(append_trie_.DistinctWithPrefix(p, l, r)), expect)
        << "append-only, prefix '" << p << "'";
    ASSERT_EQ(ToMap(deam_trie_.DistinctWithPrefix(p, l, r)), expect)
        << "de-amortized, prefix '" << p << "'";
    ASSERT_EQ(ToMap(dyn_trie_.DistinctWithPrefix(p, l, r)), expect)
        << "dynamic, prefix '" << p << "'";
  }
}

// Section 5 on every trie: Majority, Frequent (t = 1, 2, 5) and Scan against
// the naive vector over the whole range, a middle window, a one-position
// window (its string is always the majority) and an empty window.
TEST_P(AllRepresentations, RangeAnalyticsAgree) {
  const size_t n = seq_.size();
  const std::vector<std::pair<size_t, size_t>> windows{
      {0, n}, {n / 3, n - n / 4}, {n / 2, n / 2 + 1}, {n / 2, n / 2}};
  for (const auto& [l, r] : windows) {
    std::map<std::string, size_t> counts;
    for (size_t i = l; i < r; ++i) ++counts[seq_[i]];
    std::optional<std::pair<std::string, size_t>> majority;
    for (const auto& [s, c] : counts) {
      if (2 * c > r - l) majority = std::make_pair(s, c);
    }
    const auto check = [&](const auto& trie, const char* name) {
      const auto m = trie.Majority(l, r);
      if (majority) {
        ASSERT_TRUE(m.ok()) << name << " [" << l << ", " << r << ")";
        ASSERT_EQ(m.value(), *majority) << name;
      } else {
        ASSERT_EQ(m.code(), wtrie::ErrorCode::kNotFound)
            << name << " [" << l << ", " << r << ")";
      }
      for (const size_t t : {1, 2, 5}) {
        std::map<std::string, size_t> expect;
        for (const auto& [s, c] : counts) {
          if (c >= t) expect[s] = c;
        }
        ASSERT_EQ(ToMap(trie.Frequent(l, r, t)), expect)
            << name << " t=" << t << " [" << l << ", " << r << ")";
      }
      auto cur = trie.Scan(l, r).value();
      size_t i = l;
      while (cur.Next()) {
        ASSERT_EQ(cur.position(), i) << name;
        ASSERT_EQ(cur.value(), seq_[i]) << name << " @" << i;
        ++i;
      }
      ASSERT_EQ(i, r) << name;
    };
    check(static_trie_, "static");
    check(append_trie_, "append-only");
    check(deam_trie_, "de-amortized");
    check(dyn_trie_, "dynamic");
  }
}

// ------------------------------------------------------- lifecycle paths

TEST(Lifecycle, StreamingThenSnapshotToStatic) {
  // Ingest through the append-only trie, then "compact" into the static
  // structure (a database flush); both must agree, and the static one must
  // not be larger.
  UrlLogGenerator gen({.num_domains = 15, .seed = 31});
  wtrie::Sequence<wtrie::AppendOnly> stream;
  std::vector<std::string> log;
  for (int i = 0; i < 3000; ++i) {
    log.push_back(gen.Next());
    ASSERT_TRUE(stream.Append(log.back()).ok());
  }
  // Snapshot by sequential range access (Section 5), not by re-reading the
  // input: this exercises the Scan cursor as the extraction path.
  std::vector<std::string> extracted;
  extracted.reserve(stream.size());
  auto cur = stream.Scan(0, stream.size()).value();
  while (cur.Next()) {
    ASSERT_EQ(cur.position(), extracted.size());
    extracted.push_back(cur.value());
  }
  ASSERT_EQ(extracted, log);
  wtrie::Sequence<wtrie::Static> snapshot(extracted);
  ASSERT_EQ(snapshot.size(), stream.size());
  for (size_t i = 0; i < log.size(); i += 101) {
    ASSERT_EQ(snapshot.Access(i).value(), stream.Access(i).value());
  }
  const std::string domain = gen.Domain(2);
  ASSERT_EQ(snapshot.CountPrefix(domain), stream.CountPrefix(domain));
  EXPECT_LE(snapshot.SizeInBits(), stream.SizeInBits());
}

TEST(Lifecycle, FreezeSnapshotsStreamingSequence) {
  UrlLogGenerator gen({.num_domains = 10, .seed = 8});
  wtrie::Sequence<wtrie::AppendOnly> stream;
  std::vector<std::string> log;
  for (int i = 0; i < 2000; ++i) {
    log.push_back(gen.Next());
    ASSERT_TRUE(stream.Append(log.back()).ok());
  }
  const wtrie::Sequence<wtrie::Static> frozen = stream.Freeze();
  ASSERT_EQ(frozen.size(), stream.size());
  ASSERT_EQ(frozen.NumDistinct(), stream.NumDistinct());
  for (size_t i = 0; i < log.size(); i += 53) {
    ASSERT_EQ(frozen.Access(i).value(), log[i]);
  }
  const std::string d = gen.Domain(1);
  EXPECT_EQ(frozen.CountPrefix(d), stream.CountPrefix(d));
  EXPECT_EQ(frozen.Rank(log[7], 1500).value(),
            stream.Rank(log[7], 1500).value());
  EXPECT_LE(frozen.SizeInBits(), stream.SizeInBits());
}

// Fixed seed kept out-of-line so a failure message identifies the run.
uint64_t committed_seed() { return 0xC0FFEE; }

TEST(Lifecycle, DynamicChurnAgainstNaive) {
  // Mixed insert/delete/append/query traffic vs a plain vector oracle.
  std::mt19937_64 rng(committed_seed());
  wtrie::Sequence<wtrie::Dynamic> dyn;
  std::vector<std::string> oracle;
  UrlLogGenerator gen({.num_domains = 8, .paths_per_domain = 5, .seed = 77});
  for (int op = 0; op < 4000; ++op) {
    const unsigned dice = rng() % 10;
    if (dice < 5 || oracle.empty()) {  // insert at random position
      const std::string s = gen.Next();
      const size_t pos = rng() % (oracle.size() + 1);
      ASSERT_TRUE(dyn.Insert(s, pos).ok());
      oracle.insert(oracle.begin() + pos, s);
    } else if (dice < 7) {  // delete
      const size_t pos = rng() % oracle.size();
      ASSERT_TRUE(dyn.Delete(pos).ok());
      oracle.erase(oracle.begin() + pos);
    } else {  // probe
      ASSERT_EQ(dyn.size(), oracle.size());
      const size_t pos = rng() % oracle.size();
      ASSERT_EQ(dyn.Access(pos).value(), oracle[pos]) << "op " << op;
      const std::string& probe = oracle[rng() % oracle.size()];
      size_t count = 0;
      for (size_t j = 0; j < pos; ++j) count += oracle[j] == probe;
      ASSERT_EQ(dyn.Rank(probe, pos).value(), count) << "op " << op;
    }
  }
  // Full final sweep.
  for (size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(dyn.Access(i).value(), oracle[i]);
  }

  // Empty it out completely: alphabet must shrink back to nothing.
  while (!oracle.empty()) {
    ASSERT_TRUE(dyn.Delete(oracle.size() - 1).ok());
    oracle.pop_back();
  }
  EXPECT_EQ(dyn.size(), 0u);
  EXPECT_EQ(dyn.NumDistinct(), 0u);
}

}  // namespace
}  // namespace wt
