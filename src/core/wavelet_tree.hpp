// Classic static Wavelet Tree [Grossi-Gupta-Vitter 2003] over a contiguous
// integer alphabet {0, ..., sigma-1} — the structure of the paper's
// Figure 1, and the related-work baseline (1): to index strings with it, one
// must first map them to integers through a dictionary, fixing the alphabet
// and losing prefix structure (exactly the limitation the Wavelet Trie
// removes).
//
// Balanced value-range partition: a node covering [lo, hi) splits at
// mid = (lo + hi) / 2; bit 0 routes to [lo, mid), bit 1 to [mid, hi).
// Plain (uncompressed) bitvectors with rank/select.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitvector/bit_vector.hpp"
#include "common/assert.hpp"

namespace wt {

class WaveletTree {
 public:
  WaveletTree() = default;

  /// Builds from `seq` with values in [0, sigma).
  WaveletTree(const std::vector<uint64_t>& seq, uint64_t sigma)
      : n_(seq.size()), sigma_(sigma) {
    WT_ASSERT(sigma >= 1);
    for (uint64_t v : seq) WT_ASSERT_MSG(v < sigma, "WaveletTree: value out of range");
    if (n_ > 0 && sigma > 1) root_ = Build(seq, 0, sigma);
  }

  size_t size() const { return n_; }
  uint64_t sigma() const { return sigma_; }

  uint64_t Access(size_t pos) const {
    WT_ASSERT(pos < n_);
    const Node* v = root_.get();
    uint64_t lo = 0, hi = sigma_;
    while (v != nullptr) {
      const uint64_t mid = lo + (hi - lo) / 2;  // overflow-safe for hi > 2^63
      if (v->bits.Get(pos)) {
        pos = v->bits.Rank1(pos);
        lo = mid;
        v = v->right.get();
      } else {
        pos = v->bits.Rank0(pos);
        hi = mid;
        v = v->left.get();
      }
    }
    return lo;
  }

  /// Occurrences of `value` in [0, pos).
  size_t Rank(uint64_t value, size_t pos) const {
    WT_ASSERT(pos <= n_);
    if (value >= sigma_) return 0;
    const Node* v = root_.get();
    uint64_t lo = 0, hi = sigma_;
    while (v != nullptr) {
      const uint64_t mid = lo + (hi - lo) / 2;  // overflow-safe for hi > 2^63
      if (value >= mid) {
        pos = v->bits.Rank1(pos);
        lo = mid;
        v = v->right.get();
      } else {
        pos = v->bits.Rank0(pos);
        hi = mid;
        v = v->left.get();
      }
    }
    return pos;
  }

  /// Position of the (k+1)-th occurrence of `value` (0-based).
  std::optional<size_t> Select(uint64_t value, size_t k) const {
    if (value >= sigma_) return std::nullopt;
    return SelectRec(root_.get(), 0, sigma_, value, k);
  }

  /// Two-dimensional counting [Makinen-Navarro, LATIN 2006]: the number of
  /// positions i in [l, r) with value in [a, b). O(log sigma) time. With a
  /// lexicographic string-to-integer mapping this implements RankPrefix
  /// (see core/lex_sequence.hpp) — the related-work approach (1).
  size_t RangeCount2d(size_t l, size_t r, uint64_t a, uint64_t b) const {
    WT_ASSERT(l <= r && r <= n_);
    if (a >= b) return 0;
    if (sigma_ == 1) return (a == 0) ? r - l : 0;
    return RangeCount2dRec(root_.get(), 0, sigma_, l, r, a, b);
  }

  /// The (k+1)-th smallest value in positions [l, r), counting multiplicity
  /// (the "range quantile" of Gagie-Navarro-Puglisi). O(log sigma) time.
  /// Requires k < r - l.
  uint64_t RangeQuantile(size_t l, size_t r, size_t k) const {
    WT_ASSERT(l <= r && r <= n_);
    WT_ASSERT_MSG(k < r - l, "RangeQuantile: k out of range");
    const Node* v = root_.get();
    uint64_t lo = 0, hi = sigma_;
    while (v != nullptr) {
      const uint64_t mid = lo + (hi - lo) / 2;  // overflow-safe for hi > 2^63
      const size_t l0 = v->bits.Rank0(l), r0 = v->bits.Rank0(r);
      const size_t zeros = r0 - l0;
      if (k < zeros) {
        hi = mid;
        l = l0;
        r = r0;
        v = v->left.get();
      } else {
        k -= zeros;
        lo = mid;
        l = l - l0;
        r = r - r0;
        v = v->right.get();
      }
    }
    return lo;
  }

  /// Enumerates the distinct values occurring in [l, r) with multiplicities,
  /// in increasing value order (the "report" algorithm of [11]). The cost is
  /// proportional to the paths to the reported values, not to sigma.
  void RangeDistinct(size_t l, size_t r,
                     const std::function<void(uint64_t, size_t)>& fn) const {
    WT_ASSERT(l <= r && r <= n_);
    if (l == r || n_ == 0) return;
    RangeDistinctRec(root_.get(), 0, sigma_, l, r, fn);
  }

  /// Majority value of [l, r) (> half the range), if any. O(log sigma).
  std::optional<std::pair<uint64_t, size_t>> RangeMajority(size_t l,
                                                           size_t r) const {
    WT_ASSERT(l <= r && r <= n_);
    if (l >= r || n_ == 0) return std::nullopt;
    const size_t need = (r - l) / 2;  // strict majority: count > need
    const Node* v = root_.get();
    uint64_t lo = 0, hi = sigma_;
    while (v != nullptr) {
      // At most one side can hold more than half the original range.
      const size_t l0 = v->bits.Rank0(l), r0 = v->bits.Rank0(r);
      const size_t c0 = r0 - l0, c1 = (r - l) - c0;
      const uint64_t mid = lo + (hi - lo) / 2;  // overflow-safe for hi > 2^63
      if (c0 > need) {
        hi = mid;
        l = l0;
        r = r0;
        v = v->left.get();
      } else if (c1 > need) {
        lo = mid;
        l = l - l0;
        r = r - r0;
        v = v->right.get();
      } else {
        return std::nullopt;
      }
    }
    if (r - l <= need) return std::nullopt;
    return std::make_pair(lo, r - l);
  }

  size_t SizeInBits() const { return NodeBits(root_.get()); }

  /// Preorder debug view for the Figure 1 reproduction: each internal node's
  /// value range and bitvector.
  struct NodeDebug {
    uint64_t lo, hi;
    std::string bits;
  };
  std::vector<NodeDebug> DebugNodes() const {
    std::vector<NodeDebug> out;
    DebugRec(root_.get(), 0, sigma_, &out);
    return out;
  }

 private:
  struct Node {
    BitVector bits;
    std::unique_ptr<Node> left, right;
  };

  std::unique_ptr<Node> Build(const std::vector<uint64_t>& seq, uint64_t lo,
                              uint64_t hi) {
    if (seq.empty() || hi - lo <= 1) return nullptr;
    const uint64_t mid = lo + (hi - lo) / 2;  // overflow-safe for hi > 2^63
    BitArray bits;
    std::vector<uint64_t> left, right;
    for (uint64_t v : seq) {
      const bool b = v >= mid;
      bits.PushBack(b);
      (b ? right : left).push_back(v);
    }
    auto node = std::make_unique<Node>();
    node->bits = BitVector(std::move(bits));
    node->left = Build(left, lo, mid);
    node->right = Build(right, mid, hi);
    return node;
  }

  size_t RangeCount2dRec(const Node* v, uint64_t lo, uint64_t hi, size_t l,
                         size_t r, uint64_t a, uint64_t b) const {
    if (l >= r || b <= lo || hi <= a) return 0;
    if (a <= lo && hi <= b) return r - l;
    if (v == nullptr) return 0;  // empty subsequence in a partial overlap
    const uint64_t mid = lo + (hi - lo) / 2;  // overflow-safe for hi > 2^63
    const size_t l0 = v->bits.Rank0(l), r0 = v->bits.Rank0(r);
    return RangeCount2dRec(v->left.get(), lo, mid, l0, r0, a, b) +
           RangeCount2dRec(v->right.get(), mid, hi, l - l0, r - r0, a, b);
  }

  void RangeDistinctRec(const Node* v, uint64_t lo, uint64_t hi, size_t l,
                        size_t r,
                        const std::function<void(uint64_t, size_t)>& fn) const {
    if (l >= r) return;
    if (v == nullptr) {
      // Single-value range (hi - lo == 1) or constant tail.
      fn(lo, r - l);
      return;
    }
    const uint64_t mid = lo + (hi - lo) / 2;  // overflow-safe for hi > 2^63
    const size_t l0 = v->bits.Rank0(l), r0 = v->bits.Rank0(r);
    RangeDistinctRec(v->left.get(), lo, mid, l0, r0, fn);
    RangeDistinctRec(v->right.get(), mid, hi, l - l0, r - r0, fn);
  }

  std::optional<size_t> SelectRec(const Node* v, uint64_t lo, uint64_t hi,
                                  uint64_t value, size_t k) const {
    if (v == nullptr) {
      // Leaf range: k must be within the number of occurrences, which equals
      // the subsequence length. The caller checks via select bounds, so only
      // the root-level (sigma == 1) case lands here directly.
      return k < n_ ? std::optional<size_t>(k) : std::nullopt;
    }
    const uint64_t mid = lo + (hi - lo) / 2;  // overflow-safe for hi > 2^63
    const bool b = value >= mid;
    const Node* child = b ? v->right.get() : v->left.get();
    const uint64_t clo = b ? mid : lo, chi = b ? hi : mid;
    std::optional<size_t> down;
    if (child == nullptr) {
      // The child is a value-range leaf; its subsequence length bounds k.
      const size_t len = b ? v->bits.num_ones() : v->bits.num_zeros();
      if (k >= len) return std::nullopt;
      down = k;
    } else {
      down = SelectRec(child, clo, chi, value, k);
      if (!down) return std::nullopt;
    }
    return v->bits.Select(b, *down);
  }

  static size_t NodeBits(const Node* v) {
    if (v == nullptr) return 0;
    return 8 * sizeof(Node) + v->bits.SizeInBits() + NodeBits(v->left.get()) +
           NodeBits(v->right.get());
  }

  static void DebugRec(const Node* v, uint64_t lo, uint64_t hi,
                       std::vector<NodeDebug>* out) {
    if (v == nullptr) return;
    NodeDebug d;
    d.lo = lo;
    d.hi = hi;
    for (size_t i = 0; i < v->bits.size(); ++i) {
      d.bits.push_back(v->bits.Get(i) ? '1' : '0');
    }
    out->push_back(std::move(d));
    const uint64_t mid = lo + (hi - lo) / 2;  // overflow-safe for hi > 2^63
    DebugRec(v->left.get(), lo, mid, out);
    DebugRec(v->right.get(), mid, hi, out);
  }

  size_t n_ = 0;
  uint64_t sigma_ = 1;
  std::unique_ptr<Node> root_;
};

}  // namespace wt
