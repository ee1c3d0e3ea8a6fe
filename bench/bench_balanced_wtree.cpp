// Theorem 6.2: the randomized Wavelet Tree over a universe u = 2^64
// supports Access/Rank/Select/Insert/Delete in time governed by the
// *working alphabet* size |Sigma|, not the universe: the hashed trie height
// is <= (alpha+2) log |Sigma| w.h.p.
//
// Verified shapes:
//   * measured height ~ c * log2(sigma) with small c, far below 64;
//   * op latency grows with sigma, not with the magnitude of the values;
//   * ablation: the same trie WITHOUT hashing (fixed-width MSB codec on raw
//     64-bit values) collapses to height ~64 on an adversarial alphabet.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "api/sequence.hpp"
#include "core/codec.hpp"
#include "core/dynamic_wavelet_trie.hpp"
#include "util/workloads.hpp"

namespace {

using namespace wt;

// Section 6's balanced Wavelet Tree: the fully-dynamic trie over the hashed
// integer codes.
using BalancedWaveletTree = wtrie::Sequence<wtrie::Dynamic, HashedIntCodec>;

void BM_HashedInsert(benchmark::State& state) {
  const size_t sigma = size_t(1) << state.range(0);
  const auto vals = GenerateIntegers(1 << 14, sigma, IntDistribution::kUniform, 9);
  BalancedWaveletTree tree(vals, HashedIntCodec(64, 42));
  std::mt19937_64 rng(1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Insert(vals[i++ % vals.size()], rng() % (tree.size() + 1)));
  }
  state.counters["height"] = static_cast<double>(tree.trie().Height());
  state.counters["log2_sigma"] = static_cast<double>(state.range(0));
  state.SetLabel("height tracks log|Sigma|, u=2^64 (Thm 6.2)");
}
BENCHMARK(BM_HashedInsert)->DenseRange(4, 14, 2);

void BM_HashedRank(benchmark::State& state) {
  const size_t sigma = size_t(1) << state.range(0);
  const auto vals = GenerateIntegers(1 << 15, sigma, IntDistribution::kUniform, 10);
  const BalancedWaveletTree tree(vals, HashedIntCodec(64, 43));
  std::mt19937_64 rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Rank(vals[rng() % vals.size()], rng() % (tree.size() + 1)));
  }
  state.counters["height"] = static_cast<double>(tree.trie().Height());
}
BENCHMARK(BM_HashedRank)->DenseRange(4, 14, 2);

void BM_HashedAccess(benchmark::State& state) {
  const size_t sigma = size_t(1) << state.range(0);
  const auto vals = GenerateIntegers(1 << 15, sigma, IntDistribution::kUniform, 11);
  const BalancedWaveletTree tree(vals, HashedIntCodec(64, 44));
  std::mt19937_64 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Access(rng() % tree.size()));
  }
}
BENCHMARK(BM_HashedAccess)->DenseRange(4, 14, 2);

// Ablation: unhashed trie on an adversarial alphabet (dense low integers
// share long MSB prefixes, but a *chain* alphabet forces depth): values
// 2^k - 1 produce a maximally unbalanced trie without hashing.
void BM_UnhashedAdversarial(benchmark::State& state) {
  const size_t sigma = 48;  // alphabet {2^0-1, ..., 2^47-1}: chain trie
  FixedIntCodec codec(64);
  DynamicWaveletTrie trie;
  std::mt19937_64 rng(4);
  for (int i = 0; i < 1 << 14; ++i) {
    const uint64_t v = (uint64_t(1) << (rng() % sigma)) - 1;
    trie.Append(codec.Encode(v));
  }
  for (auto _ : state) {
    const uint64_t v = (uint64_t(1) << (rng() % sigma)) - 1;
    benchmark::DoNotOptimize(trie.Rank(codec.Encode(v), rng() % trie.size()));
  }
  state.counters["height"] = static_cast<double>(trie.Height());
  state.SetLabel("no hashing: height ~ |Sigma| on a chain alphabet");
}
BENCHMARK(BM_UnhashedAdversarial);

void BM_HashedAdversarial(benchmark::State& state) {
  // Same chain alphabet through the Section 6 hash: height collapses to
  // O(log sigma).
  const size_t sigma = 48;
  std::mt19937_64 rng(5);
  std::vector<uint64_t> vals;
  for (int i = 0; i < 1 << 14; ++i) {
    vals.push_back((uint64_t(1) << (rng() % sigma)) - 1);
  }
  const BalancedWaveletTree tree(vals, HashedIntCodec(64, 45));
  for (auto _ : state) {
    const uint64_t v = (uint64_t(1) << (rng() % sigma)) - 1;
    benchmark::DoNotOptimize(tree.Rank(v, rng() % tree.size()));
  }
  state.counters["height"] = static_cast<double>(tree.trie().Height());
  state.SetLabel("with hashing: height ~ log|Sigma| on the same alphabet");
}
BENCHMARK(BM_HashedAdversarial);

}  // namespace

BENCHMARK_MAIN();
