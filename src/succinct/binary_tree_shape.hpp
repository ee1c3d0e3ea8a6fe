// Succinct shape of a *full* binary tree (every node has 0 or 2 children),
// stored as its preorder bitmap: bit v is 1 if node v is internal, 0 if it
// is a leaf.
//
// This carries the same information as the paper's DFUDS encoding of the
// first-child/next-sibling transform (Section 3): 1 bit per node plus
// o(n)-style directories. Navigation:
//   LeftChild(v)  = v + 1                                  (preorder)
//   RightChild(v) = Close(v + 1) + 1
// where Close(u) — the last node of u's subtree — is an excess search:
// weighting internal nodes +1 and leaves -1, Close(u) is the smallest j >= u
// with excess(u..j) = -1. The search uses a range-min (RMM) segment tree
// over 512-bit blocks, O(log n) worst case and one block scan in practice —
// the standard engineering substitute for O(1) balanced-parentheses
// directories (cf. sdsl bp_support_sada); see DESIGN.md #3.5.
//
// InternalRank/LeafRank (for indexing per-node payloads) reuse BitVector's
// O(1) rank.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bitvector/bit_vector.hpp"
#include "common/assert.hpp"
#include "common/bit_array.hpp"
#include "common/bits.hpp"
#include "storage/image.hpp"
#include "storage/vec.hpp"

namespace wt {

namespace shape_internal {

// Per-byte excess tables, LSB-first bit order (bit 0 is visited first).
// excess = (#1s - #0s); min_excess = minimum running excess over prefixes.
struct ByteExcessTables {
  std::array<int8_t, 256> total{};
  std::array<int8_t, 256> min{};
};

constexpr ByteExcessTables MakeByteExcessTables() {
  ByteExcessTables t{};
  for (int b = 0; b < 256; ++b) {
    int run = 0, mn = 127;
    for (int i = 0; i < 8; ++i) {
      run += (b >> i) & 1 ? 1 : -1;
      if (run < mn) mn = run;
    }
    t.total[b] = static_cast<int8_t>(run);
    t.min[b] = static_cast<int8_t>(mn);
  }
  return t;
}

inline constexpr ByteExcessTables kByteExcess = MakeByteExcessTables();

}  // namespace shape_internal

class BinaryTreeShape {
 public:
  static constexpr size_t kBlockBits = 512;

  BinaryTreeShape() = default;

  /// `preorder`: 1 = internal, 0 = leaf, in preorder. Must describe a full
  /// binary tree (k internal nodes, k+1 leaves) or be empty.
  explicit BinaryTreeShape(BitArray preorder) : bits_(std::move(preorder)) {
    BuildDirectory();
  }

  size_t NumNodes() const { return bits_.size(); }
  size_t NumInternal() const { return bits_.num_ones(); }
  size_t NumLeaves() const { return bits_.size() - bits_.num_ones(); }

  bool IsInternal(size_t v) const { return bits_.Get(v); }
  size_t LeftChild(size_t v) const {
    WT_DASSERT(IsInternal(v));
    return v + 1;
  }
  size_t RightChild(size_t v) const {
    WT_DASSERT(IsInternal(v));
    return Close(v + 1) + 1;
  }

  /// Index of the last node of v's subtree (v itself if v is a leaf).
  size_t Close(size_t v) const {
    WT_DASSERT(v < bits_.size());
    return ForwardSearch(v, -1);
  }

  size_t SubtreeSize(size_t v) const { return Close(v) - v + 1; }

  /// Number of internal nodes before v in preorder (payload index of v).
  size_t InternalRank(size_t v) const { return bits_.Rank1(v); }
  /// Number of leaves before v in preorder.
  size_t LeafRank(size_t v) const { return bits_.Rank0(v); }

  /// v4 flat image: the preorder bitmap (with its rank directory) and the
  /// excess segment tree are persisted; load borrows both.
  void SaveImage(storage::ImageWriter& w) const {
    bits_.SaveImage(w);
    WT_DASSERT(seg_tot_.size() == 2 * seg_leaves_ &&
               seg_min_.size() == 2 * seg_leaves_);
    w.Array(seg_tot_.data(), seg_tot_.size());
    w.Array(seg_min_.data(), seg_min_.size());
  }
  bool LoadImage(storage::ImageReader& r) {
    if (!bits_.LoadImage(r)) return false;
    const size_t n = bits_.size();
    const size_t blocks = (n + kBlockBits - 1) / kBlockBits;
    const size_t leaves =
        blocks == 0 ? 0 : size_t(1) << CeilLog2(std::max<size_t>(blocks, 1));
    const int32_t* tot = nullptr;
    const int32_t* mn = nullptr;
    if (!r.Array(&tot, 2 * leaves) || !r.Array(&mn, 2 * leaves)) return false;
    num_blocks_ = blocks;
    seg_leaves_ = leaves;
    seg_tot_ = storage::Vec<int32_t>::Borrow(tot, 2 * leaves);
    seg_min_ = storage::Vec<int32_t>::Borrow(mn, 2 * leaves);
    return true;
  }

  size_t SizeInBits() const {
    return bits_.SizeInBits() + 32 * (seg_tot_.capacity() + seg_min_.capacity());
  }

 private:
  // Smallest j >= from with excess(from..j) == target (target < 0).
  size_t ForwardSearch(size_t from, int target) const {
    const uint64_t* words = bits_.bits().data();
    const size_t n = bits_.size();
    const size_t from_block = from / kBlockBits;
    int need = target;
    // 1. Scan the remainder of from's block.
    {
      const size_t block_end = std::min(n, (from_block + 1) * kBlockBits);
      const size_t found = ScanRange(words, from, block_end, need);
      if (found != kNotFound) return found;
    }
    if (num_blocks_ <= from_block + 1) {
      WT_ASSERT_MSG(false, "BinaryTreeShape: malformed tree (no close)");
    }
    // 2. Find the first later block whose internal min excess reaches `need`
    //    (need has been updated by ScanRange to be relative to the block
    //    start), via the segment tree.
    const size_t b = SegFind(from_block + 1, need);
    WT_ASSERT_MSG(b != kNotFound, "BinaryTreeShape: malformed tree (no close)");
    // 3. Scan the found block.
    const size_t begin = b * kBlockBits;
    const size_t block_end = std::min(n, begin + kBlockBits);
    const size_t found = ScanRange(words, begin, block_end, need);
    WT_ASSERT(found != kNotFound);
    return found;
  }

  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  // Scans bits [from, end); if the running excess hits `need`, returns the
  // position. Otherwise returns kNotFound and decrements `need` by the range
  // excess (so it stays "remaining target relative to `end`").
  static size_t ScanRange(const uint64_t* words, size_t from, size_t end,
                          int& need) {
    using shape_internal::kByteExcess;
    size_t i = from;
    while (i < end) {
      const size_t chunk = std::min<size_t>(64 - (i % 64), end - i);
      uint64_t w = LoadBits(words, i, chunk);
      // Byte-at-a-time with the min-excess table; bit-at-a-time within the
      // byte that must contain the hit.
      size_t done = 0;
      while (done < chunk) {
        const size_t blen = std::min<size_t>(8, chunk - done);
        const uint8_t byte = static_cast<uint8_t>(w & 0xFF);
        if (blen == 8 && kByteExcess.min[byte] > need) {
          need -= kByteExcess.total[byte];
          w >>= 8;
          done += 8;
          continue;
        }
        for (size_t j = 0; j < blen; ++j) {
          need -= (byte >> j) & 1 ? 1 : -1;
          if (need == 0) return i + done + j;
        }
        w >>= blen;
        done += blen;
      }
      i += chunk;
    }
    return kNotFound;
  }

  // First block >= from_block whose internal prefix excess reaches `need`;
  // on success `need` is made relative to that block's start. kNotFound
  // otherwise.
  size_t SegFind(size_t from_block, int& need) const {
    if (from_block >= num_blocks_) return kNotFound;
    // Walk leaves of the implicit segment tree from `from_block`, using
    // subtree aggregates to skip. Simple two-phase: ascend right-looking,
    // then descend.
    size_t node = seg_leaves_ + from_block;
    // Check this leaf directly first.
    if (seg_min_[node] <= need) return DescendSeg(node, need);
    need -= seg_tot_[node];
    // Ascend: whenever we are a left child, test the right sibling subtree.
    while (node > 1) {
      const bool is_left = (node % 2 == 0);
      node /= 2;
      if (is_left) {
        const size_t right = 2 * node + 1;
        if (seg_min_[right] <= need) return DescendSeg(right, need);
        need -= seg_tot_[right];
      }
    }
    return kNotFound;
  }

  // Descends to the first leaf in `node`'s subtree where the prefix excess
  // reaches need; adjusts need to be relative to that leaf's block start.
  size_t DescendSeg(size_t node, int& need) const {
    while (node < seg_leaves_) {
      const size_t l = 2 * node, r = 2 * node + 1;
      if (seg_min_[l] <= need) {
        node = l;
      } else {
        need -= seg_tot_[l];
        node = r;
      }
    }
    return node - seg_leaves_;
  }

  void BuildDirectory() {
    using shape_internal::kByteExcess;
    const size_t n = bits_.size();
    num_blocks_ = (n + kBlockBits - 1) / kBlockBits;
    if (num_blocks_ == 0) return;
    seg_leaves_ = size_t(1) << CeilLog2(std::max<size_t>(num_blocks_, 1));
    seg_tot_.assign(2 * seg_leaves_, 0);
    // Empty padding blocks: total 0, min "+inf" so they never match.
    seg_min_.assign(2 * seg_leaves_, INT32_MAX / 2);
    const uint64_t* words = bits_.bits().data();
    for (size_t b = 0; b < num_blocks_; ++b) {
      const size_t begin = b * kBlockBits;
      const size_t end = std::min(n, begin + kBlockBits);
      int run = 0, mn = INT32_MAX / 2;
      for (size_t i = begin; i < end; i += 8) {
        const size_t blen = std::min<size_t>(8, end - i);
        const uint8_t byte = static_cast<uint8_t>(LoadBits(words, i, blen));
        if (blen == 8) {
          if (run + kByteExcess.min[byte] < mn) mn = run + kByteExcess.min[byte];
          run += kByteExcess.total[byte];
        } else {
          for (size_t j = 0; j < blen; ++j) {
            run += (byte >> j) & 1 ? 1 : -1;
            if (run < mn) mn = run;
          }
        }
      }
      seg_tot_[seg_leaves_ + b] = run;
      seg_min_[seg_leaves_ + b] = mn;
    }
    for (size_t node = seg_leaves_ - 1; node >= 1; --node) {
      const size_t l = 2 * node, r = 2 * node + 1;
      seg_tot_[node] = seg_tot_[l] + seg_tot_[r];
      seg_min_[node] = std::min(seg_min_[l], seg_tot_[l] + seg_min_[r]);
    }
  }

  BitVector bits_;
  size_t num_blocks_ = 0;
  size_t seg_leaves_ = 0;
  storage::Vec<int32_t> seg_tot_;
  storage::Vec<int32_t> seg_min_;
};

}  // namespace wt
