// Information-theoretic quantities from the paper's Section 2/3, used by
// the space benchmarks (bench_table1_space, wtbench's api layer) to compare
// measured footprints against the lower bound LB(S) = LT(Sset) + n*H0(S):
//
//   * n*H0(S)     — zero-order entropy of the sequence (Shannon);
//   * LT(Sset)    — Theorem 3.6 lower bound for the string set:
//                   |L| + e + B(e, |L| + e), where L concatenates the
//                   Patricia-trie labels and e = 2(|Sset| - 1);
//   * B(m, n)     — log2 C(n, m), via lgamma;
//   * ~h          — average height (Definition 3.4), the per-element number
//                   of internal trie nodes, reported by the benches.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "common/bit_string.hpp"
#include "trie/patricia_trie.hpp"

namespace wt {

/// log2 of the binomial coefficient C(n, m).
inline double Log2Binomial(uint64_t n, uint64_t m) {
  if (m > n) return 0.0;
  const double ln2 = std::log(2.0);
  return (std::lgamma(double(n) + 1) - std::lgamma(double(m) + 1) -
          std::lgamma(double(n - m) + 1)) /
         ln2;
}

/// n*H0(S) in bits for a sequence of binary strings (symbols = whole
/// strings, as in the paper's LB).
inline double SequenceEntropyBits(const std::vector<BitString>& seq) {
  std::map<std::string, size_t> counts;
  for (const auto& s : seq) ++counts[s.ToString()];
  const double n = static_cast<double>(seq.size());
  double h = 0;
  for (const auto& [_, c] : counts) {
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h * n;
}

struct TrieLowerBound {
  size_t label_bits;   // |L|
  size_t edges;        // e = 2(|Sset| - 1)
  double total_bits;   // LT = |L| + e + B(e, |L| + e)
  size_t num_distinct;
};

/// Theorem 3.6 lower bound LT(Sset) for the distinct-string set of `seq`.
inline TrieLowerBound TrieLowerBoundBits(const std::vector<BitString>& seq) {
  PatriciaTrie trie;
  for (const auto& s : seq) trie.Insert(s.Span());
  TrieLowerBound lb;
  lb.num_distinct = trie.size();
  lb.label_bits = trie.LabelBits();
  lb.edges = trie.size() <= 1 ? 0 : 2 * (trie.size() - 1);
  lb.total_bits = static_cast<double>(lb.label_bits) + static_cast<double>(lb.edges) +
                  Log2Binomial(lb.label_bits + lb.edges, lb.edges);
  return lb;
}

/// The full lower bound LB(S) = LT(Sset) + n*H0(S) in bits.
inline double SequenceLowerBoundBits(const std::vector<BitString>& seq) {
  return TrieLowerBoundBits(seq).total_bits + SequenceEntropyBits(seq);
}

}  // namespace wt
