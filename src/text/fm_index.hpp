// FM-index: compressed full-text index with backward search — the engine of
// the related-work approach (2) baseline (Dynamic Text Collection [18]).
//
// Composition:
//   * suffix array + BWT from text/suffix_array.hpp;
//   * the BWT sequence stored in a HuffmanWaveletTree, i.e. a Wavelet Trie
//     on Huffman codewords with RRR-compressed node bitvectors. RRR on the
//     run-clustered BWT is what gives the index its k-th order entropy
//     compression (the "only compresses according to the k-order entropy of
//     the string" the paper contrasts with the Wavelet Trie's nH0(S) over
//     whole strings);
//   * C[] symbol-prefix counts for backward search;
//   * sampled SA (every kSampleRate-th text position) for Locate, and
//     sampled ISA for Extract.
//
// Symbols are uint32 values >= 1; value 0 is reserved for the internal
// sentinel appended at construction. Count/Locate take patterns over the
// same symbol space.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "bitvector/bit_vector.hpp"
#include "common/assert.hpp"
#include "core/huffman_wavelet_tree.hpp"
#include "text/suffix_array.hpp"

namespace wt {

class FmIndex {
 public:
  /// Every kSampleRate-th text position keeps its SA/ISA sample: Locate and
  /// Extract pay O(kSampleRate) LF steps against ~2n/kSampleRate * log n
  /// sample bits.
  static constexpr size_t kSampleRate = 32;

  FmIndex() = default;

  /// Indexes `text` (symbols >= 1; 0 is reserved). The sentinel is appended
  /// internally, so size() == text.size().
  explicit FmIndex(const std::vector<uint32_t>& text) {
    for (uint32_t c : text) WT_ASSERT_MSG(c != 0, "FmIndex: symbol 0 is reserved");
    std::vector<uint32_t> t(text);
    t.push_back(0);  // unique smallest sentinel
    n_ = t.size();
    const std::vector<uint32_t> sa = BuildSuffixArray(t);
    const std::vector<uint32_t> bwt32 = BuildBwt(t, sa);

    // C[c] = number of text symbols strictly smaller than c.
    uint32_t max_sym = 0;
    for (uint32_t c : t) max_sym = std::max(max_sym, c);
    c_.assign(size_t(max_sym) + 2, 0);
    for (uint32_t c : t) ++c_[c + 1];
    for (size_t i = 1; i < c_.size(); ++i) c_[i] += c_[i - 1];

    // BWT sequence in a Huffman-shaped Wavelet Trie (RRR bitvectors).
    std::vector<uint64_t> bwt64(bwt32.begin(), bwt32.end());
    bwt_ = HuffmanWaveletTree(bwt64);

    // SA samples at text positions that are multiples of kSampleRate, plus
    // an ISA sample for every such position and for the last position.
    BitArray sampled(n_, false);
    std::vector<uint32_t> sa_vals;
    isa_samples_.assign(n_ / kSampleRate + 1, 0);
    for (size_t row = 0; row < n_; ++row) {
      if (sa[row] % kSampleRate == 0) {
        sampled.Set(row, true);
        isa_samples_[sa[row] / kSampleRate] = static_cast<uint32_t>(row);
      }
    }
    for (size_t row = 0; row < n_; ++row) {
      if (sampled.Get(row)) sa_vals.push_back(sa[row]);
    }
    sampled_ = BitVector(std::move(sampled));
    sa_samples_ = std::move(sa_vals);
    isa_last_ = InverseSuffixArray(sa)[n_ - 1];
  }

  /// Convenience: index a byte string (bytes are mapped to byte value + 1).
  static FmIndex FromString(std::string_view text) {
    return FmIndex(MapBytes(text));
  }

  /// Original text length (without the sentinel).
  size_t size() const { return n_ == 0 ? 0 : n_ - 1; }
  bool empty() const { return size() == 0; }

  /// Number of occurrences of `pattern` in the text (overlapping). The empty
  /// pattern matches before every position and at the end: size() + 1.
  size_t Count(const std::vector<uint32_t>& pattern) const {
    const auto [lo, hi] = BackwardSearch(pattern);
    return hi - lo;
  }

  size_t CountString(std::string_view pattern) const {
    return Count(MapBytes(pattern));
  }

  /// All start positions of `pattern`, in increasing order.
  /// O(occ * kSampleRate) LF steps after the backward search.
  std::vector<size_t> Locate(const std::vector<uint32_t>& pattern) const {
    const auto [lo, hi] = BackwardSearch(pattern);
    std::vector<size_t> out;
    out.reserve(hi - lo);
    for (size_t row = lo; row < hi; ++row) out.push_back(PositionOfRow(row));
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<size_t> LocateString(std::string_view pattern) const {
    return Locate(MapBytes(pattern));
  }

  /// The text symbols in [start, start + len). O(len + kSampleRate) LF steps.
  std::vector<uint32_t> Extract(size_t start, size_t len) const {
    WT_ASSERT(start + len <= size());
    if (len == 0) return {};
    // Walk the LF chain backwards from the nearest sampled position at or
    // after start + len (or from the sentinel row for the text end).
    size_t anchor = (start + len + kSampleRate - 1) / kSampleRate * kSampleRate;
    size_t row;
    if (anchor >= n_ - 1) {
      anchor = n_ - 1;  // position of the sentinel
      row = isa_last_;
    } else {
      row = isa_samples_[anchor / kSampleRate];
    }
    // bwt[row] is the symbol at text position anchor - 1.
    std::vector<uint32_t> out(len);
    size_t pos = anchor;
    while (pos > start) {
      const uint32_t c = static_cast<uint32_t>(bwt_.Access(row));
      --pos;
      if (pos < start + len) out[pos - start] = c;
      row = Lf(row, c);
    }
    return out;
  }

  std::string ExtractString(size_t start, size_t len) const {
    std::string out;
    for (uint32_t c : Extract(start, len)) {
      WT_ASSERT_MSG(c >= 1 && c <= 256, "ExtractString: non-byte symbol");
      out.push_back(static_cast<char>(c - 1));
    }
    return out;
  }

  size_t SizeInBits() const {
    return bwt_.SizeInBits() + sampled_.SizeInBits() + 64 * c_.capacity() +
           32 * (sa_samples_.capacity() + isa_samples_.capacity()) +
           8 * sizeof(*this);
  }

  const HuffmanWaveletTree& bwt() const { return bwt_; }

 private:
  static std::vector<uint32_t> MapBytes(std::string_view s) {
    std::vector<uint32_t> out;
    out.reserve(s.size());
    for (unsigned char c : s) out.push_back(uint32_t(c) + 1);
    return out;
  }

  /// The half-open BWT row interval of suffixes prefixed by `pattern`.
  std::pair<size_t, size_t> BackwardSearch(
      const std::vector<uint32_t>& pattern) const {
    size_t lo = 0, hi = n_;
    for (size_t j = pattern.size(); j-- > 0;) {
      const uint32_t c = pattern[j];
      if (c + 1 >= c_.size()) return {0, 0};  // symbol absent from the text
      lo = c_[c] + bwt_.Rank(c, lo);
      hi = c_[c] + bwt_.Rank(c, hi);
      if (lo >= hi) return {0, 0};
    }
    return {lo, hi};
  }

  size_t Lf(size_t row, uint32_t c) const {
    return c_[c] + bwt_.Rank(c, row);
  }

  /// Text position of the suffix at BWT row `row`, via LF steps to the
  /// nearest sampled row.
  size_t PositionOfRow(size_t row) const {
    size_t steps = 0;
    while (!sampled_.Get(row)) {
      const uint32_t c = static_cast<uint32_t>(bwt_.Access(row));
      row = Lf(row, c);
      ++steps;
    }
    return sa_samples_[sampled_.Rank1(row)] + steps;
  }

  size_t n_ = 0;                       // text length including the sentinel
  std::vector<uint64_t> c_;            // C[c]: #symbols < c
  HuffmanWaveletTree bwt_;             // BWT in a compressed wavelet trie
  BitVector sampled_;                  // rows whose SA value is sampled
  std::vector<uint32_t> sa_samples_;   // SA values at sampled rows, row order
  std::vector<uint32_t> isa_samples_;  // row of suffix at position k*rate
  uint64_t isa_last_ = 0;              // row of the sentinel suffix's pred
};

}  // namespace wt
