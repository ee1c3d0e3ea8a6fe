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
// range analytics are shared by both variants.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bitvector/append_only.hpp"
#include "bitvector/append_only_deamortized.hpp"
#include "bitvector/dynamic_bit_vector.hpp"
#include "common/assert.hpp"
#include "common/bit_string.hpp"
#include "core/batch_dedup.hpp"

namespace wt {

template <typename BV>
class DynamicWaveletTrieT {
 public:
  /// True when BV supports arbitrary-position insertion and deletion.
  static constexpr bool kFullyDynamic = requires(BV& b) { b.Erase(size_t{}); };

  // Visitor parameters are deduced callables, not std::function — see the
  // note in wavelet_trie.hpp. Same signatures:
  //   distinct enumeration: fn(const BitString& value, size_t multiplicity)
  //   sequential access:    fn(size_t position, const BitString& value)

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

  BitString Access(size_t pos) const {
    WT_ASSERT(pos < n_);
    BitString out;
    const Node* v = root_;
    for (;;) {
      out.Append(v->label);
      if (v->IsLeaf()) return out;
      const bool b = v->beta.Get(pos);
      out.PushBack(b);
      pos = v->beta.Rank(b, pos);
      v = v->child[b];
    }
  }

  size_t Rank(BitSpan s, size_t pos) const {
    WT_ASSERT(pos <= n_);
    const Node* v = root_;
    size_t depth = 0;
    while (v != nullptr) {
      const BitSpan label = v->label.Span();
      if (!label.IsPrefixOf(s.SubSpan(depth))) return 0;
      depth += label.size();
      if (v->IsLeaf()) return depth == s.size() ? pos : 0;
      if (depth >= s.size()) return 0;
      const bool b = s.Get(depth++);
      pos = v->beta.Rank(b, pos);
      v = v->child[b];
    }
    return 0;
  }

  size_t RankPrefix(BitSpan p, size_t pos) const {
    WT_ASSERT(pos <= n_);
    const Node* v = root_;
    size_t depth = 0;
    while (v != nullptr) {
      const BitSpan label = v->label.Span();
      const BitSpan rest = p.SubSpan(depth);
      const size_t lcp = label.Lcp(rest);
      if (lcp == rest.size()) return pos;
      if (lcp < label.size()) return 0;
      depth += lcp;
      if (v->IsLeaf()) return 0;
      const bool b = p.Get(depth++);
      pos = v->beta.Rank(b, pos);
      v = v->child[b];
    }
    return 0;
  }

  std::optional<size_t> Select(BitSpan s, size_t idx) const {
    if (root_ == nullptr) return std::nullopt;
    std::vector<std::pair<const Node*, bool>> path;
    const Node* v = root_;
    size_t depth = 0;
    for (;;) {
      const BitSpan label = v->label.Span();
      if (!label.IsPrefixOf(s.SubSpan(depth))) return std::nullopt;
      depth += label.size();
      if (v->IsLeaf()) {
        if (depth != s.size() || idx >= v->count) return std::nullopt;
        break;
      }
      if (depth >= s.size()) return std::nullopt;
      const bool b = s.Get(depth++);
      path.push_back({v, b});
      v = v->child[b];
    }
    return SelectUp(path, idx);
  }

  std::optional<size_t> SelectPrefix(BitSpan p, size_t idx) const {
    if (root_ == nullptr) return std::nullopt;
    std::vector<std::pair<const Node*, bool>> path;
    const Node* v = root_;
    size_t depth = 0;
    for (;;) {
      const BitSpan label = v->label.Span();
      const BitSpan rest = p.SubSpan(depth);
      const size_t lcp = label.Lcp(rest);
      if (lcp == rest.size()) break;  // subtree of v holds all matches
      if (lcp < label.size()) return std::nullopt;
      depth += lcp;
      if (v->IsLeaf()) return std::nullopt;
      const bool b = p.Get(depth++);
      path.push_back({v, b});
      v = v->child[b];
    }
    if (idx >= SubtreeSize(v)) return std::nullopt;
    return SelectUp(path, idx);
  }

  size_t Count(BitSpan s) const { return Rank(s, n_); }
  size_t CountPrefix(BitSpan p) const { return RankPrefix(p, n_); }

  size_t RangeCountPrefix(BitSpan p, size_t l, size_t r) const {
    WT_DASSERT(l <= r);
    return RankPrefix(p, r) - RankPrefix(p, l);
  }

  /// Section 5: distinct strings in [l, r) with multiplicities (lex order).
  template <typename DistinctFn>
  void DistinctInRange(size_t l, size_t r, const DistinctFn& fn) const {
    WT_ASSERT(l <= r && r <= n_);
    if (l == r || root_ == nullptr) return;
    BitString prefix;
    DistinctRec(root_, l, r, &prefix, fn);
  }

  /// Section 5, prefix-restricted variant: distinct strings with prefix p
  /// in [l, r), with multiplicities (see wavelet_trie.hpp for the paper
  /// quote). The descent maps the window through the node bitvectors.
  template <typename DistinctFn>
  void DistinctInRangeWithPrefix(BitSpan p, size_t l, size_t r,
                                 const DistinctFn& fn) const {
    WT_ASSERT(l <= r && r <= n_);
    if (l == r || root_ == nullptr) return;
    BitString prefix;
    const Node* v = root_;
    size_t depth = 0;
    for (;;) {
      const BitSpan label = v->label.Span();
      const BitSpan rest = p.SubSpan(depth);
      const size_t lcp = label.Lcp(rest);
      if (lcp == rest.size()) break;  // subtree of v holds all matches
      if (lcp < label.size()) return;
      depth += lcp;
      if (v->IsLeaf()) return;
      const bool b = p.Get(depth++);
      l = v->beta.Rank(b, l);
      r = v->beta.Rank(b, r);
      if (l >= r) return;
      prefix.Append(label);
      prefix.PushBack(b);
      v = v->child[b ? 1 : 0];
    }
    DistinctRec(v, l, r, &prefix, fn);
  }

  /// Section 5: the majority string of [l, r), if one exists.
  std::optional<std::pair<BitString, size_t>> RangeMajority(size_t l,
                                                            size_t r) const {
    WT_ASSERT(l <= r && r <= n_);
    if (l >= r || root_ == nullptr) return std::nullopt;
    const size_t range = r - l;
    BitString prefix;
    const Node* v = root_;
    for (;;) {
      prefix.Append(v->label);
      if (v->IsLeaf()) {
        if (2 * (r - l) <= range) return std::nullopt;
        return std::make_pair(std::move(prefix), r - l);
      }
      const size_t l0 = v->beta.Rank0(l), r0 = v->beta.Rank0(r);
      const size_t c0 = r0 - l0;
      const size_t c1 = (r - l) - c0;
      if (2 * c0 > r - l) {
        prefix.PushBack(false);
        v = v->child[0];
        l = l0;
        r = r0;
      } else if (2 * c1 > r - l) {
        prefix.PushBack(true);
        v = v->child[1];
        l = l - l0;
        r = r - r0;
      } else {
        return std::nullopt;
      }
    }
  }

  /// Section 5 heuristic: strings occurring at least t times in [l, r).
  template <typename DistinctFn>
  void RangeFrequent(size_t l, size_t r, size_t t, const DistinctFn& fn) const {
    WT_ASSERT(l <= r && r <= n_ && t >= 1);
    if (r - l < t || root_ == nullptr) return;
    BitString prefix;
    FrequentRec(root_, l, r, t, &prefix, fn);
  }

  /// Section 5 sequential access over [l, r): one Rank per traversed node
  /// for the whole range, O(1)-advance bit iterators afterwards.
  template <typename AccessFn>
  void ForEachInRange(size_t l, size_t r, const AccessFn& fn) const {
    WT_ASSERT(l <= r && r <= n_);
    if (l == r || root_ == nullptr) return;
    struct NodeIter {
      typename BV::Iterator it;
      size_t pos;  // node-local position of the iterator
    };
    std::unordered_map<const Node*, NodeIter> iters;
    for (size_t i = l; i < r; ++i) {
      BitString out;
      const Node* v = root_;
      const Node* parent = nullptr;
      bool parent_bit = false;
      size_t parent_pos = 0;
      for (;;) {
        out.Append(v->label);
        if (v->IsLeaf()) break;
        auto found = iters.find(v);
        if (found == iters.end()) {
          const size_t node_pos =
              parent ? parent->beta.Rank(parent_bit, parent_pos) : i;
          found = iters.emplace(v, NodeIter{v->beta.IteratorAt(node_pos), node_pos})
                      .first;
        }
        NodeIter& ni = found->second;
        const bool b = ni.it.Next();
        out.PushBack(b);
        parent = v;
        parent_bit = b;
        parent_pos = ni.pos;
        ++ni.pos;
        v = v->child[b];
      }
      fn(i, out);
    }
  }

  template <typename DistinctFn>
  void ForEachDistinct(const DistinctFn& fn) const { DistinctInRange(0, n_, fn); }

  /// The whole sequence as a dictionary — each leaf's string once, in
  /// preorder, and each position's leaf id — through the kernel the static
  /// trie's ExtractDict shares (internal::ExtractLeafDict).
  internal::LeafDict ExtractDict() const {
    return internal::ExtractLeafDict(n_, DictWalk{root_});
  }

  size_t SizeInBits() const { return NodeSize(root_); }

  /// Maximum number of internal nodes on any root-to-leaf path (the h of
  /// Section 5/6; h_s <= Height() for every stored s).
  size_t Height() const { return HeightRec(root_); }

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

  /// ExtractLeafDict's view of this trie.
  struct DictWalk {
    using NodeRef = const Node*;
    const Node* root;
    NodeRef Root() const { return root; }
    BitSpan Label(NodeRef v) const { return v->label.Span(); }
    bool IsLeaf(NodeRef v) const { return v->IsLeaf(); }
    NodeRef Child(NodeRef v, bool b) const { return v->child[b]; }
    typename BV::Iterator Beta(NodeRef v) const { return v->beta.IteratorAt(0); }
  };

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

  std::optional<size_t> SelectUp(
      const std::vector<std::pair<const Node*, bool>>& path, size_t idx) const {
    for (size_t i = path.size(); i-- > 0;) {
      idx = path[i].first->beta.Select(path[i].second, idx);
    }
    return idx;
  }

  template <typename DistinctFn>
  void DistinctRec(const Node* v, size_t l, size_t r, BitString* prefix,
                   const DistinctFn& fn) const {
    const size_t mark = prefix->size();
    prefix->Append(v->label);
    if (v->IsLeaf()) {
      fn(*prefix, r - l);
      prefix->Truncate(mark);
      return;
    }
    const size_t l0 = v->beta.Rank0(l), r0 = v->beta.Rank0(r);
    if (l0 < r0) {
      prefix->PushBack(false);
      DistinctRec(v->child[0], l0, r0, prefix, fn);
      prefix->Truncate(mark + v->label.size());
    }
    if (l - l0 < r - r0) {
      prefix->PushBack(true);
      DistinctRec(v->child[1], l - l0, r - r0, prefix, fn);
    }
    prefix->Truncate(mark);
  }

  template <typename DistinctFn>
  void FrequentRec(const Node* v, size_t l, size_t r, size_t t,
                   BitString* prefix, const DistinctFn& fn) const {
    const size_t mark = prefix->size();
    prefix->Append(v->label);
    if (v->IsLeaf()) {
      if (r - l >= t) fn(*prefix, r - l);
      prefix->Truncate(mark);
      return;
    }
    const size_t l0 = v->beta.Rank0(l), r0 = v->beta.Rank0(r);
    if (r0 - l0 >= t) {
      prefix->PushBack(false);
      FrequentRec(v->child[0], l0, r0, t, prefix, fn);
      prefix->Truncate(mark + v->label.size());
    }
    if ((r - r0) - (l - l0) >= t) {
      prefix->PushBack(true);
      FrequentRec(v->child[1], l - l0, r - r0, t, prefix, fn);
    }
    prefix->Truncate(mark);
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

  static size_t HeightRec(const Node* v) {
    if (v == nullptr || v->IsLeaf()) return 0;
    return 1 + std::max(HeightRec(v->child[0]), HeightRec(v->child[1]));
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
