// The paper's queries, written once (DESIGN.md #6): Access, Rank, Select
// and their prefix forms (Sections 3-4), the Section 5 analytics, and the
// leaf-dictionary extraction that Freeze, Thaw and compaction rebuild from.
//
// Every one of them is defined on the abstract trie — a label per node and,
// per internal node, the bitvector beta routing positions to the two
// children — and the two wavelet tries differ only in how a node's label,
// children and beta are reached. So each trie supplies a `Walker` over its
// own layout and inherits the queries from internal::TrieQueries<Trie>, a
// CRTP base. The trie exposes `size()`, `empty()` and a private `Walk()`
// returning its walker (befriending the base); the walker is:
//
//   NodeRef               copyable, hashable node handle
//   Root()                the root (called only when the trie is non-empty)
//   Label(v)              v's label alpha
//   IsLeaf(v)
//   Child(v, b)           internal node v's b-child
//   Rank(v, b, pos)       b bits in [0, pos) of v's beta
//   Select(v, b, k)       position in v's beta of its (k+1)-th b bit
//   Route(v, pos)         {bit, Rank(v, bit, pos)} for bit = beta[pos]: one
//                         level of Access (the static trie fuses both into
//                         a single RRR rank-and-get)
//   ChildSize(v, b, len)  positions routed to v's b-child when len reach v:
//                         Rank(v, b, len), or a stored subtree size where
//                         the layout keeps one (Select's bound then costs no
//                         rank per level)
//   Beta(v, pos)          iterator whose Next() yields v's beta bits from
//                         position pos on
//   Prefetch(v)           hint that v is visited next (may do nothing)
//
// A new node directory is one new Walker, not another copy of the queries.
//
// Enumeration methods take the visitor as a deduced callable (inlined at the
// call site) rather than a std::function — the type-erased closures showed
// up in the Section 5 scan profiles, and the public API layer (src/api/)
// wraps these visitors into cursors anyway. Visitor signatures:
//   distinct enumeration: fn(const BitString& value, size_t multiplicity)
//   sequential access:    fn(size_t position, const BitString& value)
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/bit_string.hpp"
#include "common/bits.hpp"
#include "core/batch_dedup.hpp"

namespace wt {
namespace internal {

/// A BatchDict that owns its distinct strings: `dict.distinct` views
/// word-aligned runs of `words`. A move keeps the views valid (the buffer
/// moves with the vector); a copy would not, so there is none.
struct LeafDict {
  LeafDict() = default;
  LeafDict(LeafDict&&) = default;
  LeafDict& operator=(LeafDict&&) = default;
  LeafDict(const LeafDict&) = delete;
  LeafDict& operator=(const LeafDict&) = delete;

  std::vector<uint64_t> words;
  BatchDict dict;
};

template <typename Trie>
class TrieQueries {
 public:
  /// The string at position pos (paper: Access). O(|result| + h_s): one
  /// Route per level.
  BitString Access(size_t pos) const {
    WT_ASSERT(pos < self().size());
    const auto w = self().Walk();
    BitString out;
    auto v = w.Root();
    while (!w.IsLeaf(v)) {
      out.Append(w.Label(v));
      const auto [bit, child_pos] = w.Route(v, pos);
      out.PushBack(bit);
      pos = child_pos;
      v = w.Child(v, bit);
      w.Prefetch(v);
    }
    out.Append(w.Label(v));
    return out;
  }

  /// Occurrences of the exact string s in positions [0, pos) (paper: Rank).
  size_t Rank(BitSpan s, size_t pos) const {
    WT_ASSERT(pos <= self().size());
    if (self().empty()) return 0;
    const auto w = self().Walk();
    auto v = w.Root();
    size_t depth = 0;
    for (;;) {
      const BitSpan label = w.Label(v);
      if (!label.IsPrefixOf(s.SubSpan(depth))) return 0;
      depth += label.size();
      if (w.IsLeaf(v)) return depth == s.size() ? pos : 0;
      if (depth >= s.size()) return 0;  // s is a proper prefix of stored keys
      const bool b = s.Get(depth++);
      pos = w.Rank(v, b, pos);
      v = w.Child(v, b);
    }
  }

  /// Strings with prefix p in positions [0, pos) (paper: RankPrefix).
  size_t RankPrefix(BitSpan p, size_t pos) const {
    WT_ASSERT(pos <= self().size());
    if (self().empty()) return 0;
    const auto w = self().Walk();
    auto v = w.Root();
    size_t depth = 0;
    for (;;) {
      const BitSpan label = w.Label(v);
      const BitSpan rest = p.SubSpan(depth);
      const size_t lcp = label.Lcp(rest);
      if (lcp == rest.size()) return pos;  // p exhausted: whole subtree matches
      if (lcp < label.size()) return 0;    // mismatch inside the label
      depth += lcp;
      if (w.IsLeaf(v)) return 0;  // p longer than the stored key
      const bool b = p.Get(depth++);
      pos = w.Rank(v, b, pos);
      v = w.Child(v, b);
    }
  }

  /// Position of the (idx+1)-th occurrence of s (idx 0-based), or nullopt if
  /// s occurs fewer than idx+1 times (paper: Select). Descends to s's leaf,
  /// then maps idx up the recorded path with one Select per level.
  std::optional<size_t> Select(BitSpan s, size_t idx) const {
    if (self().empty()) return std::nullopt;
    const auto w = self().Walk();
    std::vector<std::pair<decltype(w.Root()), bool>> path;
    auto v = w.Root();
    size_t depth = 0, len = self().size();
    for (;;) {
      const BitSpan label = w.Label(v);
      if (!label.IsPrefixOf(s.SubSpan(depth))) return std::nullopt;
      depth += label.size();
      if (w.IsLeaf(v)) {
        if (depth != s.size()) return std::nullopt;
        break;
      }
      if (depth >= s.size()) return std::nullopt;
      const bool b = s.Get(depth++);
      path.push_back({v, b});
      len = w.ChildSize(v, b, len);
      v = w.Child(v, b);
    }
    if (idx >= len) return std::nullopt;  // fewer than idx+1 occurrences
    for (size_t i = path.size(); i-- > 0;) {
      idx = w.Select(path[i].first, path[i].second, idx);
    }
    return idx;
  }

  /// Position of the (idx+1)-th string having prefix p (paper: SelectPrefix).
  std::optional<size_t> SelectPrefix(BitSpan p, size_t idx) const {
    if (self().empty()) return std::nullopt;
    const auto w = self().Walk();
    std::vector<std::pair<decltype(w.Root()), bool>> path;
    auto v = w.Root();
    size_t depth = 0, len = self().size();
    for (;;) {
      const BitSpan label = w.Label(v);
      const BitSpan rest = p.SubSpan(depth);
      const size_t lcp = label.Lcp(rest);
      if (lcp == rest.size()) break;  // subtree of v holds all matches
      if (lcp < label.size()) return std::nullopt;
      depth += lcp;
      if (w.IsLeaf(v)) return std::nullopt;
      const bool b = p.Get(depth++);
      path.push_back({v, b});
      len = w.ChildSize(v, b, len);
      v = w.Child(v, b);
    }
    if (idx >= len) return std::nullopt;
    for (size_t i = path.size(); i-- > 0;) {
      idx = w.Select(path[i].first, path[i].second, idx);
    }
    return idx;
  }

  /// Strings with prefix p in [l, r).
  size_t RangeCountPrefix(BitSpan p, size_t l, size_t r) const {
    WT_DASSERT(l <= r);
    return RankPrefix(p, r) - RankPrefix(p, l);
  }

  /// Section 5, "Distinct values in range": enumerates each distinct string
  /// occurring in [l, r) with its multiplicity, in lexicographic order.
  /// O(sum over reported strings of |s| + h_s) bitvector operations.
  template <typename DistinctFn>
  void DistinctInRange(size_t l, size_t r, const DistinctFn& fn) const {
    RangeFrequent(l, r, 1, fn);
  }

  /// Section 5, prefix-restricted variant ("we can stop early in the
  /// traversal, hence enumerating the distinct prefixes that satisfy some
  /// property ... find efficiently the distinct hostnames in a given time
  /// range"): enumerates the distinct strings *with prefix p* occurring in
  /// [l, r), with multiplicities. The descent to p's node maps the range
  /// through the betas; the enumeration then never leaves p's subtree.
  template <typename DistinctFn>
  void DistinctInRangeWithPrefix(BitSpan p, size_t l, size_t r,
                                 const DistinctFn& fn) const {
    WT_ASSERT(l <= r && r <= self().size());
    if (l == r) return;
    const auto w = self().Walk();
    BitString prefix;
    auto v = w.Root();
    size_t depth = 0;
    for (;;) {
      const BitSpan label = w.Label(v);
      const BitSpan rest = p.SubSpan(depth);
      const size_t lcp = label.Lcp(rest);
      if (lcp == rest.size()) break;  // subtree of v holds all matches
      if (lcp < label.size()) return;  // mismatch inside the label
      depth += lcp;
      if (w.IsLeaf(v)) return;  // p longer than any stored key
      const bool b = p.Get(depth++);
      l = w.Rank(v, b, l);
      r = w.Rank(v, b, r);
      if (l >= r) return;  // no occurrences inside the window
      prefix.Append(label);
      prefix.PushBack(b);
      v = w.Child(v, b);
    }
    Enumerate(w, v, l, r, 1, &prefix, fn);
  }

  /// Section 5, "Range majority element": the string occurring more than
  /// (r-l)/2 times in [l, r), if any.
  std::optional<std::pair<BitString, size_t>> RangeMajority(size_t l,
                                                            size_t r) const {
    WT_ASSERT(l <= r && r <= self().size());
    if (l == r) return std::nullopt;
    const auto w = self().Walk();
    const size_t range = r - l;  // the descent yields a candidate; its count
                                 // must be verified against the full range
    BitString prefix;
    auto v = w.Root();
    for (;;) {
      prefix.Append(w.Label(v));
      if (w.IsLeaf(v)) {
        if (2 * (r - l) <= range) return std::nullopt;
        return std::make_pair(std::move(prefix), r - l);
      }
      const size_t l0 = w.Rank(v, false, l), r0 = w.Rank(v, false, r);
      const size_t c0 = r0 - l0;
      const size_t c1 = (r - l) - c0;
      if (2 * c0 > r - l) {
        prefix.PushBack(false);
        v = w.Child(v, false);
        l = l0;
        r = r0;
      } else if (2 * c1 > r - l) {
        prefix.PushBack(true);
        v = w.Child(v, true);
        l = l - l0;
        r = r - r0;
      } else {
        return std::nullopt;
      }
    }
  }

  /// Section 5 heuristic: all strings occurring at least `t` times in
  /// [l, r) (t >= 1). Branches with fewer than t positions are pruned.
  template <typename DistinctFn>
  void RangeFrequent(size_t l, size_t r, size_t t, const DistinctFn& fn) const {
    WT_ASSERT(l <= r && r <= self().size());
    WT_ASSERT(t >= 1);
    if (r - l < t) return;
    const auto w = self().Walk();
    BitString prefix;
    Enumerate(w, w.Root(), l, r, t, &prefix, fn);
  }

  /// Section 5, "Sequential access": calls fn(i, S_i) for i in [l, r) using
  /// per-node bit iterators — one Rank per traversed node for the whole
  /// range instead of per string.
  template <typename AccessFn>
  void ForEachInRange(size_t l, size_t r, const AccessFn& fn) const {
    WT_ASSERT(l <= r && r <= self().size());
    if (l == r) return;
    const auto w = self().Walk();
    using NodeRef = decltype(w.Root());
    // Per-internal-node iterator, created lazily at the node-local position
    // of the first string of the range routed through the node.
    struct NodeIter {
      decltype(w.Beta(w.Root(), 0)) it;
      size_t pos;  // node-local position of the iterator
    };
    std::unordered_map<NodeRef, NodeIter> iters;
    iters.reserve(64);
    for (size_t i = l; i < r; ++i) {
      BitString out;
      NodeRef v = w.Root();
      // Parent context, used only when a node is visited for the first time
      // in this range.
      NodeRef parent = v;
      bool parent_bit = false, has_parent = false;
      size_t parent_pos = 0;
      for (;;) {
        out.Append(w.Label(v));
        if (w.IsLeaf(v)) break;
        auto found = iters.find(v);
        if (found == iters.end()) {
          const size_t node_pos =
              has_parent ? w.Rank(parent, parent_bit, parent_pos) : i;
          found = iters.emplace(v, NodeIter{w.Beta(v, node_pos), node_pos})
                      .first;
        }
        NodeIter& ni = found->second;
        const bool b = ni.it.Next();
        out.PushBack(b);
        has_parent = true;
        parent = v;
        parent_bit = b;
        parent_pos = ni.pos++;
        v = w.Child(v, b);
      }
      fn(i, out);
    }
  }

  /// Maximum number of internal nodes on any root-to-leaf path (the h of
  /// Sections 5-6; h_s <= Height() for every stored s).
  size_t Height() const {
    if (self().empty()) return 0;
    const auto w = self().Walk();
    return HeightBelow(w, w.Root());
  }

  /// The whole sequence as a dictionary — each leaf's string once, in
  /// preorder (so sorted), and each position's leaf id — read off the betas
  /// in one pass: the bulk builders' occurrence partition run in reverse.
  /// An explicit-stack preorder walk carries the positions routed to each
  /// node, in sequence order; an internal node's beta, read 64 bits to a
  /// register word, stably partitions them between its children (zeros in
  /// place, ones through a scratch array), and a leaf appends its string to
  /// the dictionary once and stamps its id on each of its positions.
  /// O(n h) integer moves plus O(total leaf bits); no hashing, no
  /// per-string allocation. The static BuildFromDict over it rebuilds a
  /// static trie byte for byte; AppendDict appends it to a dynamic one.
  LeafDict ExtractDict() const {
    LeafDict out;
    const size_t n = self().size();
    if (n == 0) return out;
    WT_ASSERT_MSG(n < (uint64_t(1) << 32),
                  "ExtractDict: 2^32 or more strings (ids are 32-bit)");
    const auto w = self().Walk();
    std::vector<uint32_t>& leaf_of = out.dict.id_of;
    leaf_of.resize(n);
    std::vector<uint32_t> pos(n), scratch(n);
    for (size_t i = 0; i < n; ++i) pos[i] = static_cast<uint32_t>(i);

    struct Frame {
      decltype(w.Root()) v;
      uint32_t lo, hi;  // the positions routed to v: pos[lo, hi)
      size_t depth;     // bits of v's string above its label
      bool bit;         // the branch bit into v (unused for the root)
    };
    BitString prefix;  // the string of the node being visited
    std::vector<Frame> stack{{w.Root(), 0, static_cast<uint32_t>(n), 0, false}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      if (f.depth > 0) {
        prefix.Truncate(f.depth - 1);
        prefix.PushBack(f.bit);
      }
      prefix.Append(w.Label(f.v));
      if (w.IsLeaf(f.v)) {
        WT_DASSERT(f.lo < f.hi);
        const auto id = static_cast<uint32_t>(out.dict.distinct.size());
        // The span's words pointer is set once the buffer stops growing.
        out.dict.distinct.emplace_back(nullptr, out.words.size() * kWordBits,
                                       prefix.size());
        const uint64_t* words = prefix.bits().data();
        out.words.insert(out.words.end(), words,
                         words + WordsFor(prefix.size()));
        for (uint32_t i = f.lo; i < f.hi; ++i) leaf_of[pos[i]] = id;
        continue;
      }
      auto beta = w.Beta(f.v, 0);
      uint32_t* zeros = pos.data() + f.lo;
      size_t ones = 0;
      for (uint32_t i = f.lo; i < f.hi;) {
        const size_t blk = std::min<size_t>(kWordBits, f.hi - i);
        uint64_t word = 0;
        for (size_t j = 0; j < blk; ++j) word |= uint64_t(beta.Next()) << j;
        for (size_t j = 0; j < blk; ++j, ++i) {
          const uint32_t p = pos[i];
          const uint64_t b = word & 1;
          word >>= 1;
          *zeros = p;
          zeros += b ^ 1;
          scratch[ones] = p;
          ones += b;
        }
      }
      std::copy_n(scratch.data(), ones, zeros);
      const auto mid = static_cast<uint32_t>(f.hi - ones);
      const size_t depth = prefix.size() + 1;
      // Preorder: left subtree first, so push right first.
      stack.push_back({w.Child(f.v, true), mid, f.hi, depth, true});
      stack.push_back({w.Child(f.v, false), f.lo, mid, depth, false});
    }
    for (BitSpan& s : out.dict.distinct) {
      s = BitSpan(out.words.data(), s.start_bit(), s.size());
    }
    return out;
  }

 private:
  const Trie& self() const { return static_cast<const Trie&>(*this); }

  /// Distinct enumeration below v over its node-local window [l, r),
  /// pruning branches with fewer than t positions (t = 1 enumerates every
  /// distinct string). `prefix` holds the string above v's label.
  template <typename Walker, typename NodeRef, typename DistinctFn>
  static void Enumerate(const Walker& w, NodeRef v, size_t l, size_t r,
                        size_t t, BitString* prefix, const DistinctFn& fn) {
    const size_t mark = prefix->size();
    const BitSpan label = w.Label(v);
    prefix->Append(label);
    if (w.IsLeaf(v)) {
      if (r - l >= t) fn(*prefix, r - l);
      prefix->Truncate(mark);
      return;
    }
    const size_t l0 = w.Rank(v, false, l), r0 = w.Rank(v, false, r);
    if (r0 - l0 >= t) {
      prefix->PushBack(false);
      Enumerate(w, w.Child(v, false), l0, r0, t, prefix, fn);
      prefix->Truncate(mark + label.size());
    }
    if ((r - r0) - (l - l0) >= t) {
      prefix->PushBack(true);
      Enumerate(w, w.Child(v, true), l - l0, r - r0, t, prefix, fn);
    }
    prefix->Truncate(mark);
  }

  template <typename Walker, typename NodeRef>
  static size_t HeightBelow(const Walker& w, NodeRef v) {
    if (w.IsLeaf(v)) return 0;
    return 1 + std::max(HeightBelow(w, w.Child(v, false)),
                        HeightBelow(w, w.Child(v, true)));
  }
};

}  // namespace internal
}  // namespace wt
