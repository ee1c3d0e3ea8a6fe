// Huffman-shaped Wavelet Tree, realized as a Wavelet Trie on Huffman
// codewords — the construction Section 3 of the paper describes verbatim:
// "the Huffman-tree shaped Wavelet Tree ... can be obtained as a Wavelet
// Trie by mapping each symbol to its Huffman code."
//
// The codewords of a Huffman code are a prefix-free set, so they are a valid
// Wavelet Trie alphabet; the Patricia trie of the full codeword set has no
// multi-bit labels (every internal Huffman node has two children), hence the
// trie *is* the Huffman tree and the per-node bitvectors are the classic
// Huffman-shaped Wavelet Tree's. Total bitvector length is the Huffman-
// encoded size of the sequence, i.e. within one bit per element of nH0(S) —
// this is the space-optimal static shape when prefix queries on the original
// symbols are not needed.
//
// Contrast (bench_shapes):
//   * balanced WaveletTree: O(log sigma) everything, n*ceil(log sigma) bits;
//   * HuffmanWaveletTree:   O(len(sym)) per op — frequent symbols are
//     cheaper than log sigma — and ~nH0 bits;
//   * Wavelet Trie on a string codec: prefix operations, dynamic alphabet.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "coding/huffman.hpp"
#include "common/assert.hpp"
#include "core/wavelet_trie.hpp"

namespace wt {

/// Static Rank/Select sequence over an arbitrary (sparse) integer alphabet,
/// stored in a Huffman-shaped Wavelet Trie. Space ~ nH0(S) + per-symbol
/// model cost; Access/Rank/Select cost O(codeword length).
class HuffmanWaveletTree {
 public:
  HuffmanWaveletTree() = default;

  explicit HuffmanWaveletTree(const std::vector<uint64_t>& seq) : n_(seq.size()) {
    if (n_ == 0) return;
    code_ = HuffmanCode::FromSequence(seq);
    std::vector<BitString> enc;
    enc.reserve(seq.size());
    for (uint64_t v : seq) enc.push_back(code_.Encode(v));
    trie_ = WaveletTrie(enc);
  }

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  size_t NumDistinct() const { return code_.num_symbols(); }
  const HuffmanCode& code() const { return code_; }

  /// The symbol at position pos. O(len(symbol)).
  uint64_t Access(size_t pos) const {
    WT_ASSERT(pos < n_);
    const BitString cw = trie_.Access(pos);
    return code_.Decode(cw.Span()).first;
  }

  /// Occurrences of `sym` in [0, pos). Symbols outside the alphabet have
  /// rank 0 everywhere.
  size_t Rank(uint64_t sym, size_t pos) const {
    WT_ASSERT(pos <= n_);
    if (!code_.Contains(sym)) return 0;
    return trie_.Rank(code_.Encode(sym).Span(), pos);
  }

  /// Position of the (k+1)-th occurrence of `sym` (0-based).
  std::optional<size_t> Select(uint64_t sym, size_t k) const {
    if (!code_.Contains(sym)) return std::nullopt;
    return trie_.Select(code_.Encode(sym).Span(), k);
  }

  /// Occurrences of sym in [l, r).
  size_t RangeCount(uint64_t sym, size_t l, size_t r) const {
    WT_DASSERT(l <= r);
    return Rank(sym, r) - Rank(sym, l);
  }

  /// Section 5 analytics lifted from the underlying trie: distinct symbols
  /// in [l, r) with multiplicities, in canonical-code order.
  void DistinctInRange(size_t l, size_t r,
                       const std::function<void(uint64_t, size_t)>& fn) const {
    trie_.DistinctInRange(l, r, [&](const BitString& cw, size_t count) {
      fn(code_.Decode(cw.Span()).first, count);
    });
  }

  /// Majority symbol of [l, r), if any.
  std::optional<std::pair<uint64_t, size_t>> RangeMajority(size_t l,
                                                           size_t r) const {
    const auto m = trie_.RangeMajority(l, r);
    if (!m) return std::nullopt;
    return std::make_pair(code_.Decode(m->first.Span()).first, m->second);
  }

  /// Height of the Huffman tree = longest codeword.
  size_t Height() const { return trie_.Height(); }

  size_t SizeInBits() const { return trie_.SizeInBits() + code_.SizeInBits(); }

  const WaveletTrie& trie() const { return trie_; }

 private:
  size_t n_ = 0;
  HuffmanCode code_;
  WaveletTrie trie_;
};

}  // namespace wt
