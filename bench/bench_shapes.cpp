// Tree-shape ablation (paper Section 3: any Wavelet Tree is a Wavelet Trie
// under a suitable binarization): the same integer sequence stored as
//
//   * balanced        — classic WaveletTree, n*ceil(log sigma) bitvector bits;
//   * huffman         — HuffmanWaveletTree (Wavelet Trie on Huffman codes),
//                       ~nH0 bitvector bits, frequent symbols near the root;
//   * fixed-int trie  — WaveletTrie under FixedIntCodec (the balanced shape
//                       realized as a trie, with RRR-compressed bitvectors).
//
// Swept over Zipf skew: as skew grows, H0 drops and the Huffman shape's
// space and average access depth pull away from the balanced shape.
// Counters report bits-per-element and measured average codeword depth.
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <vector>

#include "core/codec.hpp"
#include "core/huffman_wavelet_tree.hpp"
#include "core/wavelet_tree.hpp"
#include "core/wavelet_trie.hpp"
#include "util/workloads.hpp"
#include "util/zipf.hpp"

namespace {

using namespace wt;

constexpr size_t kN = 1 << 15;
constexpr uint64_t kSigma = 512;

// Zipf exponent = arg / 10 (benchmark args must be integers).
std::vector<uint64_t> MakeSeq(double skew) {
  std::mt19937_64 rng(77);
  std::vector<uint64_t> seq;
  seq.reserve(kN);
  if (skew == 0.0) {
    for (size_t i = 0; i < kN; ++i) seq.push_back(rng() % kSigma);
  } else {
    ZipfDistribution z(kSigma, skew);
    for (size_t i = 0; i < kN; ++i) seq.push_back(z(rng));
  }
  return seq;
}

double EntropyBits(const std::vector<uint64_t>& seq) {
  std::map<uint64_t, size_t> counts;
  for (uint64_t v : seq) ++counts[v];
  double h = 0;
  for (const auto& [v, c] : counts) {
    const double p = double(c) / double(seq.size());
    h -= p * std::log2(p);
  }
  return h;
}

void BM_Shape_Balanced(benchmark::State& state) {
  const auto seq = MakeSeq(double(state.range(0)) / 10.0);
  const WaveletTree tree(seq, kSigma);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Rank(seq[i], i));
    i = (i + 4099) % kN;
  }
  state.counters["bits_per_elem"] = double(tree.SizeInBits()) / double(kN);
  state.counters["H0"] = EntropyBits(seq);
  state.counters["depth"] = std::ceil(std::log2(double(kSigma)));
}
BENCHMARK(BM_Shape_Balanced)->Arg(0)->Arg(8)->Arg(10)->Arg(13)->Arg(16);

void BM_Shape_Huffman(benchmark::State& state) {
  const auto seq = MakeSeq(double(state.range(0)) / 10.0);
  const HuffmanWaveletTree tree(seq);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Rank(seq[i], i));
    i = (i + 4099) % kN;
  }
  state.counters["bits_per_elem"] = double(tree.SizeInBits()) / double(kN);
  state.counters["H0"] = EntropyBits(seq);
  // Average access depth = expected codeword length.
  double depth = 0;
  std::map<uint64_t, size_t> counts;
  for (uint64_t v : seq) ++counts[v];
  for (const auto& [v, c] : counts) {
    depth += double(c) * double(*tree.code().Length(v));
  }
  state.counters["depth"] = depth / double(kN);
}
BENCHMARK(BM_Shape_Huffman)->Arg(0)->Arg(8)->Arg(10)->Arg(13)->Arg(16);

void BM_Shape_FixedIntTrie(benchmark::State& state) {
  const auto seq = MakeSeq(double(state.range(0)) / 10.0);
  const FixedIntCodec codec(9);  // 512 values -> 9-bit fixed codes
  std::vector<BitString> enc;
  enc.reserve(seq.size());
  for (uint64_t v : seq) enc.push_back(codec.Encode(v));
  const WaveletTrie trie(enc);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.Rank(enc[i].Span(), i));
    i = (i + 4099) % kN;
  }
  state.counters["bits_per_elem"] = double(trie.SizeInBits()) / double(kN);
  state.counters["H0"] = EntropyBits(seq);
  state.counters["depth"] = 9.0;
}
BENCHMARK(BM_Shape_FixedIntTrie)->Arg(0)->Arg(8)->Arg(10)->Arg(13)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
