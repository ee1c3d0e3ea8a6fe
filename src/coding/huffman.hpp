// Canonical Huffman codes over an arbitrary (sparse) integer alphabet.
//
// Section 3 of the paper observes that "the Huffman-tree shaped Wavelet Tree
// ... can be obtained as a Wavelet Trie by mapping each symbol to its Huffman
// code": the codewords of a Huffman code form a prefix-free set, so they are
// a valid Wavelet Trie alphabet, and the induced Patricia trie *is* the
// Huffman tree. core/huffman_wavelet_tree.hpp instantiates exactly that; this
// header provides the code construction.
//
// Codes are canonicalized (within each length, codewords are assigned in
// increasing symbol order), so the code is fully described by the sorted
// symbol list plus one length per symbol. Construction is the standard
// two-queue O(sigma log sigma) algorithm on sorted frequencies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/bit_string.hpp"

namespace wt {

/// A canonical Huffman code for a set of (symbol, frequency) pairs.
/// Symbols are arbitrary uint64 values (the alphabet need not be
/// contiguous); every frequency must be positive.
class HuffmanCode {
 public:
  HuffmanCode() = default;

  /// Builds the code from positive symbol frequencies. Duplicated symbols
  /// are rejected. A single-symbol alphabet gets the 1-bit codeword "0"
  /// (a zero-length codeword cannot label a Wavelet Trie leaf usefully and
  /// would make the code non-instantaneous on decode).
  explicit HuffmanCode(const std::vector<std::pair<uint64_t, uint64_t>>& freqs) {
    WT_ASSERT_MSG(!freqs.empty(), "HuffmanCode: empty alphabet");
    symbols_.reserve(freqs.size());
    for (const auto& [sym, f] : freqs) {
      WT_ASSERT_MSG(f > 0, "HuffmanCode: zero frequency");
      symbols_.push_back(sym);
    }
    std::sort(symbols_.begin(), symbols_.end());
    WT_ASSERT_MSG(std::adjacent_find(symbols_.begin(), symbols_.end()) ==
                      symbols_.end(),
                  "HuffmanCode: duplicate symbol");
    lengths_ = CodeLengths(freqs);
    FinishFromLengths();
  }

  /// Convenience: builds from a sequence by counting symbol frequencies.
  static HuffmanCode FromSequence(const std::vector<uint64_t>& seq) {
    WT_ASSERT_MSG(!seq.empty(), "HuffmanCode: empty sequence");
    std::unordered_map<uint64_t, uint64_t> counts;
    for (uint64_t v : seq) ++counts[v];
    std::vector<std::pair<uint64_t, uint64_t>> freqs(counts.begin(), counts.end());
    return HuffmanCode(freqs);
  }

  size_t num_symbols() const { return symbols_.size(); }
  const std::vector<uint64_t>& symbols() const { return symbols_; }

  /// True iff `sym` has a codeword.
  bool Contains(uint64_t sym) const { return IndexOf(sym).has_value(); }

  /// The codeword of `sym`, MSB-first. Asserts that sym is in the alphabet.
  BitString Encode(uint64_t sym) const {
    const auto idx = IndexOf(sym);
    WT_ASSERT_MSG(idx.has_value(), "HuffmanCode: symbol not in alphabet");
    return CodewordAt(*idx);
  }

  /// Codeword length in bits of `sym`; nullopt if not in the alphabet.
  std::optional<size_t> Length(uint64_t sym) const {
    const auto idx = IndexOf(sym);
    if (!idx) return std::nullopt;
    return lengths_[*idx];
  }

  /// Decodes one codeword from the front of `bits`; the codeword must be a
  /// prefix of the span. Returns (symbol, codeword length). O(length) time
  /// via the canonical first-code table.
  std::pair<uint64_t, size_t> Decode(BitSpan bits) const {
    uint64_t code = 0;
    for (size_t len = 1; len <= max_length_; ++len) {
      WT_ASSERT_MSG(len <= bits.size(), "HuffmanCode: truncated codeword");
      code = (code << 1) | (bits.Get(len - 1) ? 1 : 0);
      const uint64_t first = first_code_[len];
      const uint64_t count = length_count_[len];
      if (count > 0 && code < first + count) {
        const size_t idx = first_index_[len] + static_cast<size_t>(code - first);
        return {sorted_by_code_[idx], len};
      }
    }
    WT_ASSERT_MSG(false, "HuffmanCode: invalid codeword");
    return {0, 0};
  }

  /// Total encoded size of a sequence with these frequencies:
  /// sum freq(sym) * len(sym). By Huffman optimality this is within one bit
  /// per symbol of the entropy.
  uint64_t EncodedBits(const std::vector<std::pair<uint64_t, uint64_t>>& freqs) const {
    uint64_t total = 0;
    for (const auto& [sym, f] : freqs) {
      const auto len = Length(sym);
      WT_ASSERT(len.has_value());
      total += f * *len;
    }
    return total;
  }

  size_t max_length() const { return max_length_; }

  size_t SizeInBits() const {
    return 64 * symbols_.capacity() + 8 * sizeof(size_t) * lengths_.capacity() +
           8 * sizeof(*this);
  }

 private:
  /// Optimal code lengths via the two-queue method (queue one: sorted leaf
  /// weights; queue two: internal-node weights, produced in increasing
  /// order). Depths are recovered by walking the parent links.
  std::vector<size_t> CodeLengths(
      const std::vector<std::pair<uint64_t, uint64_t>>& freqs) const {
    const size_t k = freqs.size();
    if (k == 1) return {1};
    // Leaves sorted by (frequency, symbol) for determinism.
    std::vector<std::pair<uint64_t, uint64_t>> leaves(freqs);  // (freq, sym)
    for (auto& p : leaves) std::swap(p.first, p.second);
    std::sort(leaves.begin(), leaves.end());
    // Node arena: first k entries are leaves, then k-1 internal nodes.
    std::vector<uint64_t> weight(2 * k - 1);
    std::vector<size_t> parent(2 * k - 1, SIZE_MAX);
    for (size_t i = 0; i < k; ++i) weight[i] = leaves[i].first;
    size_t leaf_head = 0, internal_head = k, next_internal = k;
    auto pop_min = [&]() -> size_t {
      const bool take_leaf =
          leaf_head < k && (internal_head >= next_internal ||
                            weight[leaf_head] <= weight[internal_head]);
      return take_leaf ? leaf_head++ : internal_head++;
    };
    while (next_internal < 2 * k - 1) {
      const size_t a = pop_min();
      const size_t b = pop_min();
      weight[next_internal] = weight[a] + weight[b];
      parent[a] = parent[b] = next_internal;
      ++next_internal;
    }
    // Depth of each leaf = number of parent hops to the root.
    std::vector<size_t> depth(2 * k - 1, 0);
    for (size_t i = 2 * k - 2; i-- > 0;) depth[i] = depth[parent[i]] + 1;
    // Map back to the symbol-sorted order used by symbols_.
    std::vector<size_t> lens(k);
    for (size_t i = 0; i < k; ++i) {
      const uint64_t sym = leaves[i].second;
      const size_t pos = static_cast<size_t>(
          std::lower_bound(symbols_.begin(), symbols_.end(), sym) -
          symbols_.begin());
      lens[pos] = depth[i];
    }
    return lens;
  }

  /// Assigns canonical codewords from lengths_ and builds decode tables.
  void FinishFromLengths() {
    const size_t k = symbols_.size();
    max_length_ = 0;
    for (size_t len : lengths_) max_length_ = std::max(max_length_, len);
    WT_ASSERT_MSG(max_length_ <= 63, "HuffmanCode: codeword longer than 63 bits");
    length_count_.assign(max_length_ + 1, 0);
    for (size_t len : lengths_) ++length_count_[len];
    // Kraft check: sum 2^(max-len) must equal 2^max for a complete code.
    uint64_t kraft = 0;
    for (size_t len = 1; len <= max_length_; ++len) {
      kraft += length_count_[len] << (max_length_ - len);
    }
    WT_ASSERT_MSG(kraft == (uint64_t(1) << max_length_) || k == 1,
                  "HuffmanCode: lengths violate Kraft equality");
    // Canonical numbering: first code of each length.
    first_code_.assign(max_length_ + 2, 0);
    uint64_t code = 0;
    for (size_t len = 1; len <= max_length_; ++len) {
      code = (code + length_count_[len - 1]) << 1;
      first_code_[len] = code;
    }
    // Codeword of symbol i = first_code_[len] + (rank of i among same-length
    // symbols in symbol order). Precompute per-symbol code values.
    std::vector<uint64_t> next(max_length_ + 1);
    for (size_t len = 1; len <= max_length_; ++len) next[len] = first_code_[len];
    codes_.resize(k);
    for (size_t i = 0; i < k; ++i) codes_[i] = next[lengths_[i]]++;
    // Decode tables: symbols grouped by length, each group in code order.
    first_index_.assign(max_length_ + 1, 0);
    for (size_t len = 1; len <= max_length_; ++len) {
      first_index_[len] = first_index_[len - 1] + length_count_[len - 1];
    }
    sorted_by_code_.resize(k);
    std::vector<size_t> fill = first_index_;
    for (size_t i = 0; i < k; ++i) sorted_by_code_[fill[lengths_[i]]++] = symbols_[i];
  }

  std::optional<size_t> IndexOf(uint64_t sym) const {
    const auto it = std::lower_bound(symbols_.begin(), symbols_.end(), sym);
    if (it == symbols_.end() || *it != sym) return std::nullopt;
    return static_cast<size_t>(it - symbols_.begin());
  }

  BitString CodewordAt(size_t idx) const {
    BitString out;
    const size_t len = lengths_[idx];
    for (size_t b = len; b-- > 0;) out.PushBack((codes_[idx] >> b) & 1);
    return out;
  }

  std::vector<uint64_t> symbols_;      // sorted
  std::vector<size_t> lengths_;        // per symbol, same order as symbols_
  std::vector<uint64_t> codes_;        // canonical code values
  size_t max_length_ = 0;
  std::vector<uint64_t> length_count_;  // #codewords per length
  std::vector<uint64_t> first_code_;    // canonical first code per length
  std::vector<size_t> first_index_;     // cumulative count per length
  std::vector<uint64_t> sorted_by_code_;  // symbols grouped by (length, code)
};

}  // namespace wt
