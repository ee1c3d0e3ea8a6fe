// Dynamic Wavelet Tries (paper Section 4) — the first compressed dynamic
// sequence with a *dynamic alphabet*.
//
// DynamicWaveletTrieT<BV> is a dynamic Patricia trie (Appendix B) whose
// internal nodes carry a dynamic bitvector BV. Two instantiations:
//
//   AppendOnlyWaveletTrie  (Theorem 4.3): BV = AppendOnlyBitVector.
//     Append(s) runs in O(|s| + h_s): node splits initialize the new
//     bitvector as an O(1) virtual constant run (the "left offset" trick),
//     and all bit insertions are appends.
//
//   DynamicWaveletTrie     (Theorem 4.4): BV = DynamicBitVector (RLE+gamma).
//     Insert/Delete at arbitrary positions in O(|s| + h_s log n); node
//     splits use the O(log n) Init of Theorem 4.9, deleting the last
//     occurrence of a string merges the split node away (inverse of
//     Figure 3).
//
// Queries (Access, Rank, Select, RankPrefix, SelectPrefix) and the Section 5
// range analytics are inherited from internal::TrieQueries
// (core/trie_queries.hpp), the one copy both wavelet tries share; this file
// supplies their Walker over the pointer nodes, plus the updates.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bitvector/append_only.hpp"
#include "bitvector/append_only_deamortized.hpp"
#include "bitvector/dynamic_bit_vector.hpp"
#include "common/assert.hpp"
#include "common/bit_string.hpp"
#include "core/batch_dedup.hpp"
#include "core/trie_queries.hpp"

namespace wt {

template <typename BV>
class DynamicWaveletTrieT
    : public internal::TrieQueries<DynamicWaveletTrieT<BV>> {
 public:
  /// True when BV supports arbitrary-position insertion and deletion.
  static constexpr bool kFullyDynamic = requires(BV& b) { b.Erase(size_t{}); };

  DynamicWaveletTrieT() = default;
  ~DynamicWaveletTrieT() { Free(root_); }

  DynamicWaveletTrieT(const DynamicWaveletTrieT&) = delete;
  DynamicWaveletTrieT& operator=(const DynamicWaveletTrieT&) = delete;
  DynamicWaveletTrieT(DynamicWaveletTrieT&& o) noexcept
      : root_(o.root_), n_(o.n_), distinct_(o.distinct_) {
    o.root_ = nullptr;
    o.n_ = 0;
    o.distinct_ = 0;
  }
  DynamicWaveletTrieT& operator=(DynamicWaveletTrieT&& o) noexcept {
    if (this != &o) {
      Free(root_);
      root_ = o.root_;
      n_ = o.n_;
      distinct_ = o.distinct_;
      o.root_ = nullptr;
      o.n_ = 0;
      o.distinct_ = 0;
    }
    return *this;
  }

  /// Appends s to the sequence. O(|s| + h_s) for the append-only variant,
  /// O(|s| + h_s log n) for the fully dynamic one.
  void Append(BitSpan s) { InsertImpl(s, n_); }

  /// Appends every string of `batch`, in order — observably identical to
  /// calling Append on each element, but word-parallel end to end
  /// (DESIGN.md #4): the batch is first collapsed onto its distinct alphabet,
  /// all structural work (label LCPs, Figure 3 splits, fresh subtrees) runs
  /// over the distinct set only, and each touched node is visited once per
  /// batch, its beta receiving the branch bits as packed 64-bit words (or a
  /// constant-run Init). Per-occurrence work is sequential integer traffic.
  /// The spans must stay valid for the duration of the call.
  void AppendBatch(std::span<const BitSpan> batch) {
    if (batch.empty()) return;
    AppendDict(internal::DedupBatch(batch));
  }

  /// AppendBatch's trie pass, fed a batch already collapsed onto its
  /// distinct alphabet: by DedupBatch over fresh strings, or by a static
  /// trie's ExtractDict (Sequence::Thaw). The distinct strings must be
  /// pairwise different, each used by some position, and alive for the
  /// duration of the call; their order does not matter.
  void AppendDict(const internal::BatchDict& dict) {
    if (dict.id_of.empty()) return;
    // Occurrence ids are 16-bit whenever the distinct alphabet allows it:
    // the per-occurrence partitions are memory-bound, so the narrower ids
    // halve the dominant traffic.
    if (dict.distinct.size() <= (size_t(1) << 16)) {
      AppendBatchImpl<uint16_t>(dict);
    } else {
      AppendBatchImpl<uint32_t>(dict);
    }
  }

 private:
  template <typename IdT>
  void AppendBatchImpl(const internal::BatchDict& dict) {
    const size_t m = dict.id_of.size();
    const std::vector<BitSpan>& dstr = dict.distinct;
    const size_t dn = dstr.size();
    // darr: distinct ids routed per subtree (drives structure); oarr: the
    // occurrence sequence as distinct ids, in batch order (drives betas).
    // Both are stably partitioned in place, range by range.
    std::vector<IdT> darr(dn);
    for (size_t i = 0; i < dn; ++i) darr[i] = static_cast<IdT>(i);
    std::vector<IdT> oarr(m);
    for (size_t i = 0; i < m; ++i) oarr[i] = static_cast<IdT>(dict.id_of[i]);
    std::vector<IdT> dscratch(dn);
    std::vector<IdT> oscratch(m);
    std::vector<uint8_t> bit_of(dn);  // branch bit per distinct id, per node
    struct Frame {
      Node** link;  // child slot holding this subtree (null -> bulk build)
      IdT *dbegin, *dend;
      IdT *obegin, *oend;
      size_t depth;  // bits consumed before this node's label
    };
    std::vector<Frame> stack;

    // Stably partitions the distinct ids and the occurrence sequence by the
    // bit at `split_pos`, appends the occurrence branch bits (the first
    // `skip` are already folded into a constant-run Init and all follow
    // `lead_bit`) to v->beta as packed words, and enqueues the children.
    const auto partition_and_descend = [&](Node* v, const Frame& f,
                                           size_t split_pos, size_t skip,
                                           bool lead_bit) {
      for (const IdT* it = f.dbegin; it != f.dend; ++it) {
        // A routed string ending at or before the branch point would be a
        // proper prefix of the others in this subtree.
        WT_ASSERT_MSG(dstr[*it].size() > split_pos,
                      "wavelet trie: append would break prefix-freeness");
        bit_of[*it] = dstr[*it].Get(split_pos);
      }
      IdT* d0 = f.dbegin;
      size_t dn1 = 0;
      for (const IdT* it = f.dbegin; it != f.dend; ++it) {
        const IdT d = *it;
        const uint8_t b = bit_of[d];
        *d0 = d;
        d0 += b ^ 1;
        dscratch[dn1] = d;
        dn1 += b;
      }
      IdT* dmid = d0;
      std::copy(dscratch.data(), dscratch.data() + dn1, d0);
      IdT* o0 = f.obegin;
      size_t on1 = 0;
      const IdT* it = f.obegin;
      if (skip > 0) {  // leading constant run: route wholesale, emit no bits
        if (lead_bit) {
          std::copy(it, it + skip, oscratch.data());
          on1 = skip;
        } else {
          o0 += skip;
        }
        it += skip;
      }
      // Process occurrences in 64-item blocks: first gather the branch bits
      // into one word (independent loads, pipelined), then partition driven
      // from the register — the store cursors advance on 1-cycle register
      // ops instead of waiting on the per-item table loads.
      while (it != f.oend) {
        const size_t blk =
            std::min<size_t>(kWordBits, static_cast<size_t>(f.oend - it));
        uint64_t word = 0;
        for (size_t j = 0; j < blk; ++j) {
          word |= uint64_t(bit_of[it[j]]) << j;
        }
        v->beta.AppendWord(word, blk);
        uint64_t w2 = word;
        for (size_t j = 0; j < blk; ++j) {
          const IdT d = it[j];
          const uint64_t b = w2 & 1;
          w2 >>= 1;
          *o0 = d;
          o0 += b ^ 1;
          oscratch[on1] = d;
          on1 += b;
        }
        it += blk;
      }
      IdT* omid = o0;
      std::copy(oscratch.data(), oscratch.data() + on1, o0);
      if (dmid != f.dbegin) {
        stack.push_back({&v->child[0], f.dbegin, dmid, f.obegin, omid,
                         split_pos + 1});
      }
      if (f.dend != dmid) {
        stack.push_back({&v->child[1], dmid, f.dend, omid, f.oend,
                         split_pos + 1});
      }
    };

    stack.push_back({&root_, darr.data(), darr.data() + dn, oarr.data(),
                     oarr.data() + m, 0});
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      const size_t dcount = static_cast<size_t>(f.dend - f.dbegin);
      const size_t ocount = static_cast<size_t>(f.oend - f.obegin);
      if (*f.link == nullptr) {
        // Bulk-build a fresh subtree: label = LCP of the routed suffixes.
        const BitSpan first = dstr[*f.dbegin].SubSpan(f.depth);
        size_t lcp = first.size();
        for (IdT* it = f.dbegin + 1; it != f.dend && lcp > 0; ++it) {
          const BitSpan s = dstr[*it].SubSpan(f.depth);
          lcp = std::min(lcp, s.Lcp(first));
          if (s.size() < lcp) lcp = s.size();
        }
        Node* v = new Node(BitString::FromSpan(first.SubSpan(0, lcp)));
        *f.link = v;
        if (lcp == first.size()) {
          // The first suffix ends here; all routed strings must be equal to
          // it (a longer one would make it a proper prefix).
          WT_ASSERT_MSG(dcount == 1,
                        "wavelet trie: append would break prefix-freeness");
          v->count = ocount;
          ++distinct_;
          continue;
        }
        partition_and_descend(v, f, f.depth + lcp, 0, false);
        continue;
      }
      Node* v = *f.link;
      const BitSpan label = v->label.Span();
      // Minimal divergence point of the batch within the label; every split
      // deeper down resolves when the old-side child is processed.
      size_t p = label.size();
      for (IdT* it = f.dbegin; it != f.dend; ++it) {
        const BitSpan s = dstr[*it].SubSpan(f.depth);
        const size_t l = s.Lcp(label);
        WT_ASSERT_MSG(l == label.size() || f.depth + l < dstr[*it].size(),
                      "wavelet trie: append would break prefix-freeness");
        if (l < p) {
          p = l;
          if (p == 0) break;
        }
      }
      if (p < label.size()) {
        // Split v at p (Figure 3, batched): the label tail moves into a
        // child that keeps v's children/beta/payload; the diverging strings
        // bulk-build the sibling. Leading occurrences that still follow the
        // old bit extend the O(1) constant-run Init, exactly matching what
        // element-wise appends would have produced.
        const bool old_bit = label.Get(p);
        Node* old_half = new Node(BitString::FromSpan(label.SubSpan(p + 1)));
        old_half->child[0] = v->child[0];
        old_half->child[1] = v->child[1];
        old_half->beta = std::move(v->beta);
        old_half->count = v->count;
        const size_t old_size = SubtreeSize(old_half);
        v->count = 0;
        v->child[old_bit] = old_half;
        v->child[!old_bit] = nullptr;
        v->label.Truncate(p);
        const size_t split_pos = f.depth + p;
        size_t k = 0;
        for (const IdT* it = f.obegin; it != f.oend; ++it, ++k) {
          if (dstr[*it].Get(split_pos) != old_bit) break;
        }
        v->beta = BV(old_bit, old_size + k);
        partition_and_descend(v, f, split_pos, k, old_bit);
        continue;
      }
      if (v->IsLeaf()) {
        WT_ASSERT_MSG(dcount == 1 &&
                          dstr[*f.dbegin].size() == f.depth + label.size(),
                      "wavelet trie: append would break prefix-freeness");
        v->count += ocount;
        continue;
      }
      partition_and_descend(v, f, f.depth + label.size(), 0, false);
    }
    n_ += m;
  }

 public:

  /// Convenience overload: appends a batch of owned strings.
  void AppendBatch(const std::vector<BitString>& batch) {
    std::vector<BitSpan> spans;
    spans.reserve(batch.size());
    for (const auto& s : batch) spans.push_back(s.Span());
    AppendBatch(std::span<const BitSpan>(spans));
  }

  /// Inserts s before position pos (paper: Insert(s, pos)).
  void Insert(BitSpan s, size_t pos)
    requires kFullyDynamic
  {
    WT_ASSERT(pos <= n_);
    InsertImpl(s, pos);
  }

  /// Deletes the string at position pos (paper: Delete(pos)). Deleting the
  /// last occurrence shrinks the alphabet and merges a trie node.
  void Delete(size_t pos)
    requires kFullyDynamic
  {
    WT_ASSERT(pos < n_);
    DeleteRec(root_, pos);
    if (root_->IsLeaf() && root_->count == 0) {
      delete root_;
      root_ = nullptr;
      --distinct_;
    }
    --n_;
  }

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Current number of distinct strings |Sset| (the dynamic alphabet).
  size_t NumDistinct() const { return distinct_; }

  size_t SizeInBits() const { return NodeSize(root_); }

  /// Total label bits |L| plus pointer overhead stats (the PT term).
  size_t LabelBits() const { return LabelBitsRec(root_); }

  /// Per-node debug view (preorder), used for the Figure 3 test.
  struct NodeDebug {
    std::string alpha;
    std::string beta;
    bool is_leaf;
    size_t count;  // leaf multiplicity (0 for internal)
  };
  std::vector<NodeDebug> DebugNodes() const {
    std::vector<NodeDebug> out;
    DebugRec(root_, &out);
    return out;
  }

 private:
  struct Node {
    explicit Node(BitString l) : label(std::move(l)) {}
    BitString label;
    Node* child[2] = {nullptr, nullptr};
    BV beta;           // internal nodes only
    size_t count = 0;  // leaves only: multiplicity
    bool IsLeaf() const { return child[0] == nullptr; }
  };

  friend class internal::TrieQueries<DynamicWaveletTrieT>;

  /// The shared queries' view of this layout (core/trie_queries.hpp):
  /// pointer nodes, each internal one owning its dynamic bitvector.
  struct Walker {
    using NodeRef = const Node*;
    const Node* root;
    NodeRef Root() const { return root; }
    BitSpan Label(NodeRef v) const { return v->label.Span(); }
    bool IsLeaf(NodeRef v) const { return v->IsLeaf(); }
    NodeRef Child(NodeRef v, bool b) const { return v->child[b]; }
    size_t Rank(NodeRef v, bool b, size_t pos) const {
      return v->beta.Rank(b, pos);
    }
    size_t Select(NodeRef v, bool b, size_t k) const {
      return v->beta.Select(b, k);
    }
    std::pair<bool, size_t> Route(NodeRef v, size_t pos) const {
      const bool b = v->beta.Get(pos);
      return {b, v->beta.Rank(b, pos)};
    }
    /// The child's stored size (beta length or leaf count): Select bounds
    /// its index without a rank per level, which on the fully-dynamic
    /// bitvector would cost about as much as the select itself.
    size_t ChildSize(NodeRef v, bool b, size_t) const {
      return SubtreeSize(v->child[b]);
    }
    typename BV::Iterator Beta(NodeRef v, size_t pos) const {
      return v->beta.IteratorAt(pos);
    }
    void Prefetch(NodeRef) const {}
  };
  Walker Walk() const { return {root_}; }

  static size_t SubtreeSize(const Node* v) {
    return v->IsLeaf() ? v->count : v->beta.size();
  }

  void InsertImpl(BitSpan s, size_t pos) {
    if (root_ == nullptr) {
      root_ = new Node(BitString::FromSpan(s));
      root_->count = 1;
      n_ = 1;
      distinct_ = 1;
      return;
    }
    Node* v = root_;
    size_t depth = 0;
    for (;;) {
      const BitSpan rest = s.SubSpan(depth);
      const size_t lcp = rest.Lcp(v->label.Span());
      if (lcp < v->label.size()) {
        // The new string diverges inside the label: split (Figure 3). The
        // new internal node's bitvector is a constant run — O(1) Init for
        // the append-only bitvector, O(log n) for the RLE one.
        WT_ASSERT_MSG(depth + lcp < s.size(),
                      "wavelet trie: insert would break prefix-freeness");
        SplitNode(v, lcp, rest);
        ++distinct_;
      }
      depth += v->label.size();
      if (v->IsLeaf()) {
        WT_ASSERT_MSG(depth == s.size(),
                      "wavelet trie: insert would break prefix-freeness");
        v->count += 1;
        break;
      }
      WT_ASSERT_MSG(depth < s.size(),
                    "wavelet trie: insert would break prefix-freeness");
      const bool b = s.Get(depth++);
      BvInsert(&v->beta, pos, b);
      pos = v->beta.Rank(b, pos);
      v = v->child[b];
    }
    ++n_;
  }

  // Splits v's label at offset lcp (Figure 3): the label tail moves into a
  // child node that inherits v's children and payload; the remainder of the
  // inserted string (`rest`, starting at the label) becomes a new empty
  // leaf; v becomes internal with a constant-run bitvector (Init) of the old
  // subtree's size. The caller's descent then routes the new string into the
  // new leaf and bumps its count.
  void SplitNode(Node* v, size_t lcp, BitSpan rest) {
    const bool old_bit = v->label.Get(lcp);
    Node* old_half = new Node(BitString::FromSpan(v->label.SubSpan(lcp + 1)));
    old_half->child[0] = v->child[0];
    old_half->child[1] = v->child[1];
    old_half->beta = std::move(v->beta);
    old_half->count = v->count;
    Node* new_leaf = new Node(BitString::FromSpan(rest.SubSpan(lcp + 1)));
    const size_t old_size = SubtreeSize(old_half);
    v->beta = BV(old_bit, old_size);
    v->count = 0;
    v->child[old_bit] = old_half;
    v->child[!old_bit] = new_leaf;
    v->label.Truncate(lcp);
  }

  static void BvInsert(BV* bv, size_t pos, bool b) {
    if constexpr (kFullyDynamic) {
      bv->Insert(pos, b);
    } else {
      WT_DASSERT(pos == bv->size());
      bv->Append(b);
    }
  }

  bool DeleteRec(Node* v, size_t pos) {
    if (v->IsLeaf()) {
      WT_DASSERT(v->count > 0);
      v->count -= 1;
      return v->count == 0;
    }
    const bool b = v->beta.Get(pos);
    const size_t child_pos = v->beta.Rank(b, pos);
    const bool child_emptied = DeleteRec(v->child[b], child_pos);
    if constexpr (kFullyDynamic) {
      v->beta.Erase(pos);
    }
    if (child_emptied && v->child[b]->IsLeaf()) {
      // Last occurrence deleted: remove the leaf and merge v with the
      // sibling (inverse of Figure 3). O(max label length) for the label
      // concatenation, as in Appendix B.
      Node* leaf = v->child[b];
      Node* sibling = v->child[!b];
      BitString merged = std::move(v->label);
      merged.PushBack(!b);
      merged.Append(sibling->label);
      v->label = std::move(merged);
      v->child[0] = sibling->child[0];
      v->child[1] = sibling->child[1];
      v->beta = std::move(sibling->beta);
      v->count = sibling->count;
      delete leaf;
      delete sibling;
      --distinct_;
    }
    return false;
  }

  static void DebugRec(const Node* v, std::vector<NodeDebug>* out) {
    if (v == nullptr) return;
    NodeDebug d;
    d.alpha = v->label.ToString();
    d.is_leaf = v->IsLeaf();
    d.count = v->IsLeaf() ? v->count : 0;
    if (!v->IsLeaf()) {
      for (size_t i = 0; i < v->beta.size(); ++i) {
        d.beta.push_back(v->beta.Get(i) ? '1' : '0');
      }
    }
    out->push_back(std::move(d));
    if (!v->IsLeaf()) {
      DebugRec(v->child[0], out);
      DebugRec(v->child[1], out);
    }
  }

  static void Free(Node* v) {
    if (v == nullptr) return;
    Free(v->child[0]);
    Free(v->child[1]);
    delete v;
  }

  static size_t NodeSize(const Node* v) {
    if (v == nullptr) return 0;
    return 8 * sizeof(Node) + v->label.SizeInBits() + v->beta.SizeInBits() +
           NodeSize(v->child[0]) + NodeSize(v->child[1]);
  }

  static size_t LabelBitsRec(const Node* v) {
    if (v == nullptr) return 0;
    return v->label.size() + LabelBitsRec(v->child[0]) + LabelBitsRec(v->child[1]);
  }

  Node* root_ = nullptr;
  size_t n_ = 0;
  size_t distinct_ = 0;
};

/// Theorem 4.3: append-only Wavelet Trie, O(|s| + h_s) Append and queries.
using AppendOnlyWaveletTrie = DynamicWaveletTrieT<AppendOnlyBitVector>;

/// Lemma 4.8 variant of Theorem 4.3: same bounds, worst-case O(1) bitvector
/// appends via incrementally built RRR chunks (see append_only_deamortized).
using DeamortizedAppendOnlyWaveletTrie =
    DynamicWaveletTrieT<DeamortizedAppendOnlyBitVector>;

/// Theorem 4.4: fully-dynamic Wavelet Trie, O(|s| + h_s log n) updates.
using DynamicWaveletTrie = DynamicWaveletTrieT<DynamicBitVector>;

}  // namespace wt
