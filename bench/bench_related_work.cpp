// Related-work benchmark: the Wavelet Trie against all three alternatives
// the paper's Related Work section describes, on the same URL-log workload.
//
//   (1) LexMappedSequence — lexicographic dictionary + balanced Wavelet
//       Tree; RankPrefix via RangeCount2d [17], SelectPrefix only by binary
//       search, alphabet frozen (append of an unseen value = full rebuild).
//   (2) TextCollection — concatenation + FM-index (Dynamic Text Collection
//       [18]); Rank/Select pay O(occ) Locates.
//   (3) BTreeIndexedSequence — (s_i, i) keys in a B+-tree plus a plain copy
//       of the sequence; no compression, Rank by range scan.
//
// Counters: bits_per_string reports each structure's space on the shared
// input, so one run reproduces both the time and the space comparison.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "api/sequence.hpp"
#include "core/btree_sequence.hpp"
#include "core/lex_sequence.hpp"
#include "text/text_collection.hpp"
#include "util/workloads.hpp"

namespace {

using namespace wt;

constexpr size_t kLogSize = 1 << 14;

const std::vector<std::string>& Log() {
  static const std::vector<std::string> log = [] {
    UrlLogGenerator gen({.num_domains = 30, .paths_per_domain = 20, .seed = 5});
    return gen.Take(kLogSize);
  }();
  return log;
}

const wtrie::Sequence<wtrie::Static>& Trie() {
  static const wtrie::Sequence<wtrie::Static> t{Log()};
  return t;
}
const LexMappedSequence& Lex() {
  static const LexMappedSequence l{Log()};
  return l;
}
const TextCollection& Text() {
  static const TextCollection t{Log()};
  return t;
}
const BTreeIndexedSequence& BTree() {
  static const BTreeIndexedSequence b{Log()};
  return b;
}

const std::string& Probe() { return Log()[kLogSize / 3]; }
const std::string kPrefix = "www.site1.com";

template <typename F>
void RunOp(benchmark::State& state, size_t bits, F&& op) {
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(op(i));
    i = (i + 7919) % kLogSize;
  }
  state.counters["bits_per_string"] =
      static_cast<double>(bits) / static_cast<double>(kLogSize);
}

// ------------------------------------------------------------------- Access

void BM_Access_WaveletTrie(benchmark::State& state) {
  RunOp(state, Trie().SizeInBits(), [&](size_t i) { return Trie().Access(i); });
}
BENCHMARK(BM_Access_WaveletTrie);

void BM_Access_LexMapped(benchmark::State& state) {
  RunOp(state, Lex().SizeInBits(), [&](size_t i) { return Lex().Access(i); });
}
BENCHMARK(BM_Access_LexMapped);

void BM_Access_TextCollection(benchmark::State& state) {
  RunOp(state, Text().SizeInBits(), [&](size_t i) { return Text().Access(i); });
}
BENCHMARK(BM_Access_TextCollection);

void BM_Access_BTree(benchmark::State& state) {
  RunOp(state, BTree().SizeInBits(),
        [&](size_t i) { return BTree().Access(i); });
}
BENCHMARK(BM_Access_BTree);

// --------------------------------------------------------------------- Rank

void BM_Rank_WaveletTrie(benchmark::State& state) {
  RunOp(state, Trie().SizeInBits(),
        [&](size_t i) { return Trie().Rank(Probe(), i); });
}
BENCHMARK(BM_Rank_WaveletTrie);

void BM_Rank_LexMapped(benchmark::State& state) {
  RunOp(state, Lex().SizeInBits(),
        [&](size_t i) { return Lex().Rank(Probe(), i); });
}
BENCHMARK(BM_Rank_LexMapped);

void BM_Rank_TextCollection(benchmark::State& state) {
  // O(occ) locates per call: expect orders of magnitude slower.
  RunOp(state, Text().SizeInBits(),
        [&](size_t i) { return Text().Rank(Probe(), i); });
}
BENCHMARK(BM_Rank_TextCollection)->Unit(benchmark::kMicrosecond);

void BM_Rank_BTree(benchmark::State& state) {
  // O(log n + occ) leaf scan.
  RunOp(state, BTree().SizeInBits(),
        [&](size_t i) { return BTree().Rank(Probe(), i); });
}
BENCHMARK(BM_Rank_BTree)->Unit(benchmark::kMicrosecond);

// --------------------------------------------------------------- RankPrefix

void BM_RankPrefix_WaveletTrie(benchmark::State& state) {
  RunOp(state, Trie().SizeInBits(),
        [&](size_t i) { return Trie().RankPrefix(kPrefix, i); });
}
BENCHMARK(BM_RankPrefix_WaveletTrie);

void BM_RankPrefix_LexMapped(benchmark::State& state) {
  // The efficient reduction: RangeCount2d on the id interval.
  RunOp(state, Lex().SizeInBits(),
        [&](size_t i) { return Lex().RankPrefix(kPrefix, i); });
}
BENCHMARK(BM_RankPrefix_LexMapped);

void BM_RankPrefix_TextCollection(benchmark::State& state) {
  RunOp(state, Text().SizeInBits(),
        [&](size_t i) { return Text().RankPrefix(kPrefix, i); });
}
BENCHMARK(BM_RankPrefix_TextCollection)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------- SelectPrefix

void BM_SelectPrefix_WaveletTrie(benchmark::State& state) {
  const size_t total = Trie().CountPrefix(kPrefix);
  size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Trie().SelectPrefix(kPrefix, k));
    k = (k + 13) % total;
  }
}
BENCHMARK(BM_SelectPrefix_WaveletTrie);

void BM_SelectPrefix_LexMapped(benchmark::State& state) {
  // No direct algorithm (paper): binary search over RangeCount2d.
  const size_t total = Lex().RankPrefix(kPrefix, kLogSize);
  size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Lex().SelectPrefix(kPrefix, k));
    k = (k + 13) % total;
  }
}
BENCHMARK(BM_SelectPrefix_LexMapped);

// --------------------------------------- dynamic alphabet: append new value

void BM_AppendUnseen_AppendOnlyTrie(benchmark::State& state) {
  // O(|s| + h_s): the paper's headline dynamic-alphabet result.
  wtrie::Sequence<wtrie::AppendOnly> seq(Log());
  size_t serial = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seq.Append("zz.new-domain" + std::to_string(serial++) + ".org/x"));
  }
}
BENCHMARK(BM_AppendUnseen_AppendOnlyTrie);

void BM_AppendUnseen_LexMappedRebuild(benchmark::State& state) {
  // Issue (a): frozen alphabet, full rebuild per unseen value.
  LexMappedSequence lex(Log());
  size_t serial = 0;
  for (auto _ : state) {
    lex.AppendWithRebuild("zz.new-domain" + std::to_string(serial++) + ".org/x");
  }
}
BENCHMARK(BM_AppendUnseen_LexMappedRebuild)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void BM_AppendUnseen_BTree(benchmark::State& state) {
  // Uncompressed index: fast appends, but several times the space.
  BTreeIndexedSequence bts(Log());
  size_t serial = 0;
  for (auto _ : state) {
    bts.Append("zz.new-domain" + std::to_string(serial++) + ".org/x");
  }
}
BENCHMARK(BM_AppendUnseen_BTree);

}  // namespace

BENCHMARK_MAIN();
