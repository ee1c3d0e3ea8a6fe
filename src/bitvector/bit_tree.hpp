// BitTree<Leaf>: a counted B-tree over compressed bit chunks — the
// self-balancing search tree with partial counts of Makinen--Navarro [18]
// Sec. 3.4, which the paper's Section 4.2 adapts.
//
// The tree is generic in the leaf encoding:
//   * RleLeaf  (dynamic_bit_vector.hpp) — RLE + Elias gamma, the paper's
//     choice (Theorem 4.9), with O(1)-sized encoding of constant runs so
//     that Init(b, n) is fast (Remark 4.2);
//   * GapLeaf  (gap_bit_vector.hpp) — gap + Elias delta, the [18] encoding
//     the paper rejects: Init(1, n) inherently costs Theta(n).
//
// Internal nodes store per-child (bits, ones) partial counts; all of
// Access/Rank/Select/Insert/Delete descend one root-to-leaf path, giving
// O(log n) plus O(leaf-capacity) work per operation.
//
// The Leaf concept:
//   size_t bits(), ones(), EncodedBits(), SizeInBits();
//   bool NeedsSplit(); bool IsUnderfull();
//   Leaf SplitTail();              // move ~half (by encoded size) out
//   void MergeRight(Leaf&&);       // absorb the right neighbour
//   bool Get(size_t i); size_t Rank1(size_t pos);
//   size_t Select(bool b, size_t k);
//   void Insert(size_t pos, bool b); bool Erase(size_t pos);
//   void AppendRun(bool b, size_t n);        // only for BitTree::AppendRun
//   void AppendWord(uint64_t v, size_t len); // only for BitTree::AppendWord
//   static std::pair<Leaf,size_t> MakeRunPrefix(bool b, size_t n);
//   class Iterator { Iterator(const Leaf*, size_t pos); bool Next(); };
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace wt {

template <typename Leaf>
class BitTree {
  struct NodeBase;
  struct LeafNode;
  struct InternalNode;

 public:
  static constexpr int kFanout = 16;
  static constexpr int kMinFanout = 4;

  BitTree() : root_(new LeafNode{}) {}

  /// O(|encoding|) Init: replaces the content with n copies of `bit`.
  /// For RleLeaf this is O(1) leaves; for GapLeaf with bit=1 it is Theta(n).
  void Init(bool bit, size_t n) {
    FreeNode(root_);
    root_ = nullptr;  // never dangling, even if an allocation below throws
    std::vector<NodeBase*> level;
    size_t remaining = n;
    while (remaining > 0) {
      auto [leaf, consumed] = Leaf::MakeRunPrefix(bit, remaining);
      WT_DASSERT(consumed > 0);
      auto* ln = new LeafNode{};
      ln->leaf = std::move(leaf);
      level.push_back(ln);
      remaining -= consumed;
    }
    if (level.empty()) level.push_back(new LeafNode{});
    root_ = BulkBuild(std::move(level));
    size_ = n;
    ones_ = bit ? n : 0;
  }

  ~BitTree() { FreeNode(root_); }

  BitTree(const BitTree&) = delete;
  BitTree& operator=(const BitTree&) = delete;
  BitTree(BitTree&& o) noexcept : root_(o.root_), size_(o.size_), ones_(o.ones_) {
    o.root_ = new LeafNode{};
    o.size_ = o.ones_ = 0;
  }
  BitTree& operator=(BitTree&& o) noexcept {
    if (this != &o) {
      FreeNode(root_);
      root_ = o.root_;
      size_ = o.size_;
      ones_ = o.ones_;
      o.root_ = new LeafNode{};
      o.size_ = o.ones_ = 0;
    }
    return *this;
  }

  void Insert(size_t pos, bool b) {
    WT_DASSERT(pos <= size_);
    FinishRootSplit(InsertRec(root_, pos, b));
    ++size_;
    ones_ += b ? 1 : 0;
  }

  void Append(bool b) { Insert(size_, b); }

  /// Appends `n` copies of `b`: a single rightmost-path descent with one run
  /// extension in the last leaf, O(log n + leaf) regardless of n.
  void AppendRun(bool b, size_t n) {
    if (n == 0) return;
    FinishRootSplit(AppendTailRec(root_, n, b ? n : 0,
                                  [&](Leaf& leaf) { leaf.AppendRun(b, n); }));
    size_ += n;
    ones_ += b ? n : 0;
  }

  /// Appends the low `len` (<= 64) bits of `value` LSB-first: one descent,
  /// one decode/encode round in the last leaf for the whole word.
  void AppendWord(uint64_t value, size_t len) {
    WT_DASSERT(len <= kWordBits);
    value &= LowMask(len);
    if (len == 0) return;
    const size_t ones = static_cast<size_t>(PopCount(value));
    FinishRootSplit(AppendTailRec(
        root_, len, ones, [&](Leaf& leaf) { leaf.AppendWord(value, len); }));
    size_ += len;
    ones_ += ones;
  }

  /// Removes and returns the bit at `pos`.
  bool Erase(size_t pos) {
    WT_DASSERT(pos < size_);
    const bool b = EraseRec(root_, pos);
    // Collapse a single-child root.
    while (!root_->is_leaf) {
      auto* in = static_cast<InternalNode*>(root_);
      if (in->n > 1) break;
      root_ = in->child[0];
      delete in;
    }
    --size_;
    ones_ -= b ? 1 : 0;
    return b;
  }

  bool Get(size_t pos) const {
    WT_DASSERT(pos < size_);
    const NodeBase* node = root_;
    while (!node->is_leaf) {
      const auto* in = static_cast<const InternalNode*>(node);
      int i = 0;
      while (pos >= in->bits[i]) {
        pos -= in->bits[i];
        ++i;
        WT_DASSERT(i < in->n);
      }
      node = in->child[i];
    }
    return static_cast<const LeafNode*>(node)->leaf.Get(pos);
  }

  /// Number of 1s in [0, pos). pos may equal size().
  size_t Rank1(size_t pos) const {
    WT_DASSERT(pos <= size_);
    const NodeBase* node = root_;
    size_t ones = 0;
    while (!node->is_leaf) {
      const auto* in = static_cast<const InternalNode*>(node);
      int i = 0;
      while (i + 1 < in->n && pos > in->bits[i]) {
        pos -= in->bits[i];
        ones += in->ones[i];
        ++i;
      }
      node = in->child[i];
    }
    return ones + static_cast<const LeafNode*>(node)->leaf.Rank1(pos);
  }

  size_t Rank0(size_t pos) const { return pos - Rank1(pos); }
  size_t Rank(bool b, size_t pos) const { return b ? Rank1(pos) : Rank0(pos); }

  /// Position of the (k+1)-th occurrence of bit `b` (0-based).
  size_t Select(bool b, size_t k) const {
    WT_DASSERT(k < (b ? ones_ : size_ - ones_));
    const NodeBase* node = root_;
    size_t base = 0;
    while (!node->is_leaf) {
      const auto* in = static_cast<const InternalNode*>(node);
      int i = 0;
      for (;;) {
        const uint64_t cnt = b ? in->ones[i] : in->bits[i] - in->ones[i];
        if (k < cnt) break;
        k -= cnt;
        base += in->bits[i];
        ++i;
        WT_DASSERT(i < in->n);
      }
      node = in->child[i];
    }
    return base + static_cast<const LeafNode*>(node)->leaf.Select(b, k);
  }

  size_t Select1(size_t k) const { return Select(true, k); }
  size_t Select0(size_t k) const { return Select(false, k); }

  size_t size() const { return size_; }
  size_t num_ones() const { return ones_; }
  size_t num_zeros() const { return size_ - ones_; }

  size_t SizeInBits() const { return NodeSizeInBits(root_); }

  /// Checks all structural invariants (aggregate consistency, fanout and
  /// leaf-size bounds); used by the property tests.
  void CheckInvariants() const {
    const auto [bits, ones] = CheckNode(root_, /*is_root=*/true);
    WT_ASSERT(bits == size_);
    WT_ASSERT(ones == ones_);
  }

  /// Sequential bit iterator with O(1) amortized Next().
  class Iterator {
   public:
    Iterator(const BitTree* t, size_t pos) {
      WT_DASSERT(pos <= t->size());
      if (pos >= t->size()) return;
      const NodeBase* node = t->root_;
      while (!node->is_leaf) {
        const auto* in = static_cast<const InternalNode*>(node);
        int i = 0;
        while (pos >= in->bits[i]) {
          pos -= in->bits[i];
          ++i;
        }
        stack_.push_back({in, i});
        node = in->child[i];
      }
      leaf_it_.emplace(&static_cast<const LeafNode*>(node)->leaf, pos);
      remaining_in_leaf_ = static_cast<const LeafNode*>(node)->leaf.bits() - pos;
    }

    bool Next() {
      WT_DASSERT(leaf_it_.has_value() && remaining_in_leaf_ > 0);
      const bool b = leaf_it_->Next();
      if (--remaining_in_leaf_ == 0) AdvanceLeaf();
      return b;
    }

   private:
    void AdvanceLeaf() {
      // Pop until we can move right, then descend leftmost.
      while (!stack_.empty()) {
        auto& [in, idx] = stack_.back();
        if (idx + 1 < in->n) {
          ++idx;
          const NodeBase* node = in->child[idx];
          while (!node->is_leaf) {
            const auto* child_in = static_cast<const InternalNode*>(node);
            stack_.push_back({child_in, 0});
            node = child_in->child[0];
          }
          const auto* ln = static_cast<const LeafNode*>(node);
          leaf_it_.emplace(&ln->leaf, 0);
          remaining_in_leaf_ = ln->leaf.bits();
          return;
        }
        stack_.pop_back();
      }
      leaf_it_.reset();  // exhausted
    }

    std::vector<std::pair<const InternalNode*, int>> stack_;
    std::optional<typename Leaf::Iterator> leaf_it_;
    size_t remaining_in_leaf_ = 0;
  };

 private:
  struct NodeBase {
    bool is_leaf;
  };
  struct LeafNode : NodeBase {
    LeafNode() { this->is_leaf = true; }
    Leaf leaf;
  };
  struct InternalNode : NodeBase {
    InternalNode() { this->is_leaf = false; }
    int n = 0;
    NodeBase* child[kFanout];
    uint64_t bits[kFanout];
    uint64_t ones[kFanout];
  };

  struct SplitResult {
    NodeBase* right = nullptr;
    uint64_t right_bits = 0;
    uint64_t right_ones = 0;
    bool split = false;
  };

  static uint64_t NodeBits(const NodeBase* node) {
    if (node->is_leaf) return static_cast<const LeafNode*>(node)->leaf.bits();
    const auto* in = static_cast<const InternalNode*>(node);
    uint64_t s = 0;
    for (int i = 0; i < in->n; ++i) s += in->bits[i];
    return s;
  }

  static uint64_t NodeOnes(const NodeBase* node) {
    if (node->is_leaf) return static_cast<const LeafNode*>(node)->leaf.ones();
    const auto* in = static_cast<const InternalNode*>(node);
    uint64_t s = 0;
    for (int i = 0; i < in->n; ++i) s += in->ones[i];
    return s;
  }

  /// Grows a fresh root when the old one split.
  void FinishRootSplit(SplitResult sr) {
    if (!sr.split) return;
    auto* nr = new InternalNode{};
    nr->n = 2;
    nr->child[0] = root_;
    nr->bits[0] = NodeBits(root_);
    nr->ones[0] = NodeOnes(root_);
    nr->child[1] = sr.right;
    nr->bits[1] = sr.right_bits;
    nr->ones[1] = sr.right_ones;
    root_ = nr;
  }

  /// Post-split bookkeeping shared by all insert paths: refresh entry i and
  /// splice the new right sibling in at slot i+1, splitting `in` if full.
  SplitResult HandleChildSplit(InternalNode* in, int i, SplitResult child_split) {
    in->bits[i] = NodeBits(in->child[i]);
    in->ones[i] = NodeOnes(in->child[i]);
    for (int j = in->n; j > i + 1; --j) {
      in->child[j] = in->child[j - 1];
      in->bits[j] = in->bits[j - 1];
      in->ones[j] = in->ones[j - 1];
    }
    in->child[i + 1] = child_split.right;
    in->bits[i + 1] = child_split.right_bits;
    in->ones[i + 1] = child_split.right_ones;
    ++in->n;
    if (in->n < kFanout) return {};
    // Split this internal node in half.
    auto* right = new InternalNode{};
    const int keep = in->n / 2;
    right->n = in->n - keep;
    for (int j = 0; j < right->n; ++j) {
      right->child[j] = in->child[keep + j];
      right->bits[j] = in->bits[keep + j];
      right->ones[j] = in->ones[keep + j];
    }
    in->n = keep;
    return {right, NodeBits(right), NodeOnes(right), true};
  }

  SplitResult InsertRec(NodeBase* node, size_t pos, bool b) {
    if (node->is_leaf) {
      Leaf& leaf = static_cast<LeafNode*>(node)->leaf;
      leaf.Insert(pos, b);
      return MaybeSplitLeaf(leaf);
    }
    auto* in = static_cast<InternalNode*>(node);
    int i = 0;
    while (i + 1 < in->n && pos >= in->bits[i]) {
      pos -= in->bits[i];
      ++i;
    }
    const SplitResult child_split = InsertRec(in->child[i], pos, b);
    in->bits[i] += 1;
    in->ones[i] += b ? 1 : 0;
    if (!child_split.split) return {};
    return HandleChildSplit(in, i, child_split);
  }

  static SplitResult MaybeSplitLeaf(Leaf& leaf) {
    if (!leaf.NeedsSplit()) return {};
    auto* right = new LeafNode{};
    right->leaf = leaf.SplitTail();
    return {right, right->leaf.bits(), right->leaf.ones(), true};
  }

  /// Applies `op` to the last leaf (op must append exactly `delta_bits` bits
  /// with `delta_ones` ones), updating the partial counts along the rightmost
  /// path — the shared descent of AppendRun and AppendWord.
  template <typename LeafOp>
  SplitResult AppendTailRec(NodeBase* node, size_t delta_bits, size_t delta_ones,
                            const LeafOp& op) {
    if (node->is_leaf) {
      Leaf& leaf = static_cast<LeafNode*>(node)->leaf;
      op(leaf);
      return MaybeSplitLeaf(leaf);
    }
    auto* in = static_cast<InternalNode*>(node);
    const int i = in->n - 1;
    const SplitResult child_split =
        AppendTailRec(in->child[i], delta_bits, delta_ones, op);
    in->bits[i] += delta_bits;
    in->ones[i] += delta_ones;
    if (!child_split.split) return {};
    return HandleChildSplit(in, i, child_split);
  }

  bool EraseRec(NodeBase* node, size_t pos) {
    if (node->is_leaf) {
      return static_cast<LeafNode*>(node)->leaf.Erase(pos);
    }
    auto* in = static_cast<InternalNode*>(node);
    int i = 0;
    while (pos >= in->bits[i]) {
      pos -= in->bits[i];
      ++i;
      WT_DASSERT(i < in->n);
    }
    const bool b = EraseRec(in->child[i], pos);
    in->bits[i] -= 1;
    in->ones[i] -= b ? 1 : 0;
    FixChild(in, i);
    return b;
  }

  /// Rebalances child i of `in` if it is underfull, by merging with a
  /// neighbour and re-splitting when the merge overflows ("merge then maybe
  /// split" replaces separate borrow logic).
  void FixChild(InternalNode* in, int i) {
    if (in->n < 2) return;
    NodeBase* c = in->child[i];
    if (c->is_leaf) {
      if (!static_cast<LeafNode*>(c)->leaf.IsUnderfull()) return;
      const int j = (i > 0) ? i - 1 : i + 1;
      const int l = std::min(i, j), r = std::max(i, j);
      auto* left = static_cast<LeafNode*>(in->child[l]);
      auto* right = static_cast<LeafNode*>(in->child[r]);
      left->leaf.MergeRight(std::move(right->leaf));
      if (left->leaf.NeedsSplit()) {
        right->leaf = left->leaf.SplitTail();
        in->bits[l] = left->leaf.bits();
        in->ones[l] = left->leaf.ones();
        in->bits[r] = right->leaf.bits();
        in->ones[r] = right->leaf.ones();
      } else {
        delete right;
        RemoveEntry(in, r);
        in->bits[l] = left->leaf.bits();
        in->ones[l] = left->leaf.ones();
      }
    } else {
      auto* ci = static_cast<InternalNode*>(c);
      if (ci->n >= kMinFanout) return;
      const int j = (i > 0) ? i - 1 : i + 1;
      const int l = std::min(i, j), r = std::max(i, j);
      auto* left = static_cast<InternalNode*>(in->child[l]);
      auto* right = static_cast<InternalNode*>(in->child[r]);
      if (left->n + right->n < kFanout) {
        // Merge right into left.
        for (int k = 0; k < right->n; ++k) {
          left->child[left->n + k] = right->child[k];
          left->bits[left->n + k] = right->bits[k];
          left->ones[left->n + k] = right->ones[k];
        }
        left->n += right->n;
        delete right;
        RemoveEntry(in, r);
        in->bits[l] = NodeBits(left);
        in->ones[l] = NodeOnes(left);
      } else {
        // Redistribute entries evenly (borrow).
        NodeBase* tmp_child[2 * kFanout];
        uint64_t tmp_bits[2 * kFanout];
        uint64_t tmp_ones[2 * kFanout];
        int total = 0;
        for (auto* node2 : {left, right}) {
          for (int k = 0; k < node2->n; ++k) {
            tmp_child[total] = node2->child[k];
            tmp_bits[total] = node2->bits[k];
            tmp_ones[total] = node2->ones[k];
            ++total;
          }
        }
        const int keep = total / 2;
        left->n = keep;
        for (int k = 0; k < keep; ++k) {
          left->child[k] = tmp_child[k];
          left->bits[k] = tmp_bits[k];
          left->ones[k] = tmp_ones[k];
        }
        right->n = total - keep;
        for (int k = 0; k < right->n; ++k) {
          right->child[k] = tmp_child[keep + k];
          right->bits[k] = tmp_bits[keep + k];
          right->ones[k] = tmp_ones[keep + k];
        }
        in->bits[l] = NodeBits(left);
        in->ones[l] = NodeOnes(left);
        in->bits[r] = NodeBits(right);
        in->ones[r] = NodeOnes(right);
      }
    }
  }

  static void RemoveEntry(InternalNode* in, int i) {
    for (int j = i; j + 1 < in->n; ++j) {
      in->child[j] = in->child[j + 1];
      in->bits[j] = in->bits[j + 1];
      in->ones[j] = in->ones[j + 1];
    }
    --in->n;
  }

  /// Builds a balanced tree over the given leaves (used by Init).
  static NodeBase* BulkBuild(std::vector<NodeBase*> level) {
    while (level.size() > 1) {
      std::vector<NodeBase*> next;
      size_t i = 0;
      while (i < level.size()) {
        auto* in = new InternalNode{};
        // Use up to kFanout-2 children so later inserts have slack, but
        // never leave a trailing group below kMinFanout.
        size_t take = std::min<size_t>(kFanout - 2, level.size() - i);
        const size_t rest = level.size() - i - take;
        if (rest > 0 && rest < kMinFanout) take -= (kMinFanout - rest);
        for (size_t k = 0; k < take; ++k) {
          NodeBase* c = level[i + k];
          in->child[in->n] = c;
          in->bits[in->n] = NodeBits(c);
          in->ones[in->n] = NodeOnes(c);
          ++in->n;
        }
        next.push_back(in);
        i += take;
      }
      level = std::move(next);
    }
    return level[0];
  }

  static void FreeNode(NodeBase* node) {
    if (node == nullptr) return;
    if (node->is_leaf) {
      delete static_cast<LeafNode*>(node);
      return;
    }
    auto* in = static_cast<InternalNode*>(node);
    for (int i = 0; i < in->n; ++i) FreeNode(in->child[i]);
    delete in;
  }

  static size_t NodeSizeInBits(const NodeBase* node) {
    if (node->is_leaf) {
      return 8 * sizeof(LeafNode) +
             static_cast<const LeafNode*>(node)->leaf.SizeInBits();
    }
    const auto* in = static_cast<const InternalNode*>(node);
    size_t s = 8 * sizeof(InternalNode);
    for (int i = 0; i < in->n; ++i) s += NodeSizeInBits(in->child[i]);
    return s;
  }

  std::pair<uint64_t, uint64_t> CheckNode(const NodeBase* node, bool is_root) const {
    if (node->is_leaf) {
      const Leaf& leaf = static_cast<const LeafNode*>(node)->leaf;
      WT_ASSERT(!leaf.NeedsSplit());
      return {leaf.bits(), leaf.ones()};
    }
    const auto* in = static_cast<const InternalNode*>(node);
    WT_ASSERT(in->n >= (is_root ? 2 : kMinFanout) && in->n < kFanout);
    uint64_t bits = 0, ones = 0;
    for (int i = 0; i < in->n; ++i) {
      const auto [cb, co] = CheckNode(in->child[i], false);
      WT_ASSERT(cb == in->bits[i]);
      WT_ASSERT(co == in->ones[i]);
      bits += cb;
      ones += co;
    }
    return {bits, ones};
  }

  NodeBase* root_;
  size_t size_ = 0;
  size_t ones_ = 0;
};

}  // namespace wt
