// WaveletTrie: static compressed indexed sequence of binary strings —
// the paper's central structure (Definition 3.1, Theorem 3.7).
//
// The trie shape is the Patricia trie of the distinct strings Sset; each
// internal node carries the bitvector beta that routes sequence positions to
// its two children. Representation:
//   * labels:  all alpha labels concatenated in preorder into one bit array;
//   * betas:   all internal-node bitvectors concatenated in preorder into ONE
//              RRR vector — per-node Rank/Select are O(1) queries on the
//              global RRR;
//   * directory: the node directory (DESIGN.md #6), two bit-packed arrays
//              whose field widths the builder picks per trie: `label_ends`,
//              a zero field then one field per preorder node (the label of
//              p spans [label_end(p-1), label_end(p))), and `records`, one
//              entry per internal node in preorder: k (the leaves of its
//              left subtree), beta start, and ones before beta start. A node
//              handle {p, r, leaves} (preorder id, internal nodes before p,
//              leaves below p) reaches both children by arithmetic —
//              {p+1, r+1, k} and {p+2k, r+k, leaves-k} — and is a leaf iff
//              leaves == 1, so the directory stores no child id, no leaf
//              flag and no rank structure. Each level decodes its fields
//              from branch-free two-word windows (LoadWindow), then runs
//              one fused RRR operation.
// Section 3's succinct directory (a preorder shape bitmap plus Elias--Fano
// label and beta delimiters) would cost fewer bits per node again, at
// several times the per-level query cost.
// Batched AccessBatch/RankBatch/SelectBatch amortize one traversal per
// touched node per batch, mirroring what AppendBatch did for ingestion.
//
// Space: LT(Sset) + nH0(S) + o(~h n) bits (Theorem 3.7) plus the directory:
// per distinct string two label ends and one record, each field as wide as
// its largest value in this trie. Queries: Access/Rank/Select/RankPrefix/
// SelectPrefix in O(|s| + h_s).
//
// Those queries and the Section 5 range analytics (sequential access,
// distinct values, majority, frequent elements) are inherited from
// internal::TrieQueries (core/trie_queries.hpp), written once for both
// wavelet tries; this file supplies their Walker over the packed directory,
// the builders, the batched kernels and the image.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bitvector/rrr.hpp"
#include "common/assert.hpp"
#include "common/bit_string.hpp"
#include "core/batch_dedup.hpp"
#include "core/trie_queries.hpp"
#include "storage/image.hpp"
#include "storage/vec.hpp"

namespace wt {
namespace internal {

/// A node of the static trie's packed directory: preorder id p, internal
/// nodes before p (p's record index when p is internal), and leaves below
/// p (1 for a leaf). p alone identifies the node.
struct PackedNodeRef {
  uint32_t p, r, leaves;
  friend bool operator==(const PackedNodeRef&, const PackedNodeRef&) = default;
};

}  // namespace internal
}  // namespace wt

template <>
struct std::hash<wt::internal::PackedNodeRef> {
  size_t operator()(const wt::internal::PackedNodeRef& v) const noexcept {
    return v.p;
  }
};

namespace wt {

class WaveletTrie : public internal::TrieQueries<WaveletTrie> {
 public:
  /// Capacity of one static trie: the concatenated per-node branch
  /// bitvectors share a single Rrr, whose 32+32 packed directory caps it at
  /// 2^32-1 total beta bits (DESIGN.md #6), and the node directory's fields,
  /// at most 32 bits wide, cap the concatenated labels the same way. Each
  /// stored string contributes one beta bit per internal node on its path,
  /// and each label bit belongs to some distinct string, so both totals are
  /// <= the sum of encoded string lengths — about 150M strings at trie
  /// height 30. Both
  /// construction paths check this and abort with a clean message; the
  /// engine layer (src/engine/) is the supported way to grow past it
  /// (shard, then freeze per-shard segments).
  static constexpr uint64_t kMaxBetaBits = Rrr::kMaxBits;

  WaveletTrie() = default;

  /// Builds from a sequence of binary strings whose distinct set must be
  /// prefix-free (use core/codec.hpp). O(total input bits) construction.
  explicit WaveletTrie(const std::vector<BitString>& seq) : n_(seq.size()) {
    if (n_ == 0) return;
    WT_ASSERT_MSG(n_ < (uint64_t(1) << 32),
                  "WaveletTrie: 2^32 or more strings (ids are 32-bit)");
    std::vector<uint32_t> ids(n_);
    for (size_t i = 0; i < n_; ++i) ids[i] = static_cast<uint32_t>(i);

    BitArray beta_bits;
    size_t ones = 0;  // 1s in beta_bits so far
    DirectoryBuild dir;

    // Explicit-stack preorder construction over [begin, end) ranges of ids.
    struct Frame {
      size_t begin, end;
      size_t offset;      // bits of every string in the range already consumed
      uint32_t parent_p;  // parent's preorder id (unused for the root)
      uint32_t parent_r;  // parent's record index (unused for the root)
      bool right;         // the range is its parent's right subtree
    };
    std::vector<Frame> stack{{0, n_, 0, 0, 0, false}};
    std::vector<uint32_t> scratch;
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      const BitSpan first = seq[ids[f.begin]].SubSpan(f.offset);
      // Longest common prefix of all suffixes in the range. A suffix that
      // ends early (prefix-freeness violation) is caught when partitioning.
      size_t lcp = first.size();
      for (size_t i = f.begin + 1; i < f.end && lcp > 0; ++i) {
        const BitSpan suffix = seq[ids[i]].SubSpan(f.offset);
        lcp = std::min(lcp, suffix.Lcp(first));
        if (suffix.size() < lcp) lcp = suffix.size();
      }
      // Append the label alpha.
      labels_.AppendRange(seq[ids[f.begin]].bits(), f.offset, lcp);
      const uint32_t p = dir.AddNode(labels_.size());
      // A right child closes its parent's left subtree: 2k - 1 nodes.
      if (f.right) dir.records[f.parent_r][0] = (p - f.parent_p) / 2;
      const size_t split = f.offset + lcp;
      if (split == first.size() + f.offset) {
        // The first string ends here; by prefix-freeness all must.
        for (size_t i = f.begin; i < f.end; ++i) {
          WT_ASSERT_MSG(seq[ids[i]].size() == split,
                        "WaveletTrie: input set is not prefix-free");
        }
        continue;  // leaf
      }
      const auto r = static_cast<uint32_t>(dir.records.size());
      dir.records.push_back({0, static_cast<uint32_t>(beta_bits.size()),
                             static_cast<uint32_t>(ones)});
      // Emit beta and stably partition the range by the branching bit.
      scratch.clear();
      size_t w = f.begin;
      for (size_t i = f.begin; i < f.end; ++i) {
        const uint32_t id = ids[i];
        WT_ASSERT_MSG(seq[id].size() > split,
                      "WaveletTrie: input set is not prefix-free");
        const bool b = seq[id].Get(split);
        beta_bits.PushBack(b);
        ones += b;
        if (b)
          scratch.push_back(id);
        else
          ids[w++] = id;
      }
      for (uint32_t id : scratch) ids[w++] = id;
      const size_t mid = f.end - scratch.size();
      // Preorder: left subtree first, so push right first.
      stack.push_back({mid, f.end, split + 1, p, r, true});
      stack.push_back({f.begin, mid, split + 1, p, r, false});
    }
    FinishBuild(beta_bits, dir);
  }

  /// Word-parallel bulk construction (the DESIGN.md #4 fast path). Produces
  /// byte-identical serialization to the WaveletTrie(seq) constructor — the
  /// constructor stays as the bit-for-bit reference the differential test
  /// compares against — but first collapses the sequence onto its distinct
  /// alphabet (DedupBatch), then builds through BuildFromDict.
  static WaveletTrie BulkBuild(const std::vector<BitString>& seq) {
    std::vector<BitSpan> spans;
    spans.reserve(seq.size());
    for (const auto& s : seq) spans.push_back(s.Span());
    return BuildFromDict(internal::DedupBatch(std::span<const BitSpan>(spans)));
  }

  /// The one static builder, fed a sequence already collapsed onto its
  /// distinct alphabet: by DedupBatch over fresh strings (BulkBuild), or by
  /// a built trie's ExtractDict (Sequence::Freeze and Concat). Label LCPs
  /// and shape decisions run over the distinct set only, and each node's
  /// branch bits are emitted as packed 64-bit words driven by an
  /// L1-resident per-node bit table over distinct ids. The image depends
  /// only on the sequence `dict` spells, not on the order of its distinct
  /// strings, which must be pairwise different, prefix-free, each used by
  /// some position, and alive for the duration of the call.
  static WaveletTrie BuildFromDict(internal::BatchDict dict) {
    WaveletTrie out;
    out.n_ = dict.id_of.size();
    if (out.n_ == 0) return out;
    const size_t n = out.n_;
    WT_ASSERT_MSG(n < (uint64_t(1) << 32),
                  "WaveletTrie: 2^32 or more strings (ids are 32-bit)");
    const std::vector<BitSpan>& dstr = dict.distinct;
    const size_t dn = dstr.size();
    std::vector<uint32_t> darr(dn);
    for (size_t i = 0; i < dn; ++i) darr[i] = static_cast<uint32_t>(i);
    std::vector<uint32_t>& oarr = dict.id_of;
    std::vector<uint32_t> dscratch(dn);
    std::vector<uint32_t> oscratch(n);
    std::vector<uint8_t> bit_of(dn);

    BitArray beta_bits;
    size_t ones = 0;  // 1s in beta_bits so far
    DirectoryBuild dir;
    dir.label_ends.reserve(2 * dn - 1);  // a full binary tree over dn leaves
    dir.records.reserve(dn - 1);

    struct Frame {
      uint32_t *dbegin, *dend;  // distinct ids in this subtree
      uint32_t *obegin, *oend;  // occurrence sequence (distinct ids), in order
      size_t offset;            // bits of every string already consumed
    };
    std::vector<Frame> stack{
        {darr.data(), darr.data() + dn, oarr.data(), oarr.data() + n, 0}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      const BitSpan first = dstr[*f.dbegin].SubSpan(f.offset);
      // Longest common prefix of the distinct suffixes in this subtree.
      size_t lcp = first.size();
      for (uint32_t* it = f.dbegin + 1; it != f.dend && lcp > 0; ++it) {
        const BitSpan suffix = dstr[*it].SubSpan(f.offset);
        lcp = std::min(lcp, suffix.Lcp(first));
        if (suffix.size() < lcp) lcp = suffix.size();
      }
      const BitSpan rep = dstr[*f.dbegin];
      out.labels_.AppendWords(rep.words(), rep.start_bit() + f.offset, lcp);
      dir.AddNode(out.labels_.size());
      const size_t split = f.offset + lcp;
      if (lcp == first.size()) {
        // The first suffix ends here; all routed strings must equal it.
        WT_ASSERT_MSG(f.dend - f.dbegin == 1,
                      "WaveletTrie: input set is not prefix-free");
        continue;  // leaf
      }
      WT_ASSERT_MSG(std::all_of(f.dbegin, f.dend,
                                [&](uint32_t d) { return dstr[d].size() > split; }),
                    "WaveletTrie: input set is not prefix-free");
      const auto beta_start = static_cast<uint32_t>(beta_bits.size());
      const auto ones_start = static_cast<uint32_t>(ones);
      // Branch bit per distinct id, then one stable partition of both the
      // distinct set and the occurrence sequence, packing beta words.
      for (const uint32_t* it = f.dbegin; it != f.dend; ++it) {
        bit_of[*it] = dstr[*it].Get(split);
      }
      uint32_t* d0 = f.dbegin;
      size_t dn1 = 0;
      for (const uint32_t* it = f.dbegin; it != f.dend; ++it) {
        const uint32_t d = *it;
        const uint8_t b = bit_of[d];
        *d0 = d;
        d0 += b ^ 1;
        dscratch[dn1] = d;
        dn1 += b;
      }
      uint32_t* dmid = d0;
      std::copy(dscratch.data(), dscratch.data() + dn1, d0);
      // k: the distinct strings routed left are the left subtree's leaves.
      dir.records.push_back({static_cast<uint32_t>(dmid - f.dbegin),
                             beta_start, ones_start});
      uint32_t* o0 = f.obegin;
      size_t on1 = 0;
      // 64-item blocks: gather bits into a word (pipelined loads), then
      // partition from the register (no load-latency dependency chain).
      const uint32_t* it = f.obegin;
      while (it != f.oend) {
        const size_t blk =
            std::min<size_t>(kWordBits, static_cast<size_t>(f.oend - it));
        uint64_t word = 0;
        for (size_t j = 0; j < blk; ++j) {
          word |= uint64_t(bit_of[it[j]]) << j;
        }
        beta_bits.AppendBits(word, blk);
        ones += PopCount(word);
        uint64_t w2 = word;
        for (size_t j = 0; j < blk; ++j) {
          const uint32_t d = it[j];
          const uint64_t b = w2 & 1;
          w2 >>= 1;
          *o0 = d;
          o0 += b ^ 1;
          oscratch[on1] = d;
          on1 += b;
        }
        it += blk;
      }
      uint32_t* omid = o0;
      std::copy(oscratch.data(), oscratch.data() + on1, o0);
      // Preorder: left subtree first, so push right first.
      stack.push_back({dmid, f.dend, omid, f.oend, split + 1});
      stack.push_back({f.dbegin, dmid, f.obegin, omid, split + 1});
    }
    out.FinishBuild(beta_bits, dir);
    return out;
  }

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Number of distinct strings |Sset|.
  size_t NumDistinct() const { return (dir_.nodes + 1) / 2; }

  // ------------------------------------------------------- batched queries
  //
  // One node-grouped traversal per batch (DESIGN.md #6): queries are
  // partitioned across the trie exactly like strings during BulkBuild, so
  // each touched node's directory fields, RRR directory lines and decoded
  // beta blocks are loaded once per batch instead of once per query, with
  // the right child's fields prefetched while the current node's positions
  // are ranked.
  // Results are identical to the per-query loops (differential-tested).

  /// out[i] == Access(positions[i]); positions in any order, duplicates ok.
  std::vector<BitString> AccessBatch(std::span<const size_t> positions) const {
    const size_t m = positions.size();
    std::vector<BitString> out(m);
    if (m == 0) return out;
    WT_ASSERT(n_ > 0);
    for (const size_t p : positions) WT_ASSERT(p < n_);
    BatchState st(m);
    SortByPosition(positions, &st);
    BitString prefix;
    Rrr::RankCursor cursor(&beta_);
    // Each query records only its (distinct) leaf string's id — a 4-byte
    // scatter — and the strings are materialized in one sequential pass, so
    // neither the traversal nor the copies write 40-byte objects at random
    // indices.
    std::vector<BitString> leaf_vals;
    leaf_vals.reserve(256);
    std::vector<uint32_t> leaf_of(m);
    const Walker w = Walk();
    AccessBatchRec(w, w.Root(), 0, m, &st, &cursor, &prefix, &leaf_vals,
                   &leaf_of);
    for (size_t i = 0; i < m; ++i) out[i] = leaf_vals[leaf_of[i]];
    return out;
  }

  /// out[i] == Rank(strings[i], positions[i]).
  std::vector<size_t> RankBatch(std::span<const BitSpan> strings,
                                std::span<const size_t> positions) const {
    return RankBatch(strings, positions, internal::DedupBatch(strings));
  }

  /// RankBatch with the dedup dictionary precomputed by the caller — it
  /// must be exactly DedupBatch(strings). The engine layer computes it
  /// once per cross-shard batch and reuses it for every shard, segment,
  /// and select-search iteration instead of re-hashing the strings each
  /// time (a dict copy is a fraction of a rehash).
  std::vector<size_t> RankBatch(std::span<const BitSpan> strings,
                                std::span<const size_t> positions,
                                internal::BatchDict dict) const {
    WT_ASSERT(strings.size() == positions.size());
    const size_t m = strings.size();
    std::vector<size_t> out(m, 0);
    if (m == 0 || n_ == 0) return out;
    for (const size_t p : positions) WT_ASSERT(p <= n_);
    StringBatch sb(m, std::move(dict));
    SortByPosition(positions, &sb.st);
    for (size_t i = 0; i < m; ++i) sb.did[i] = sb.dict.id_of[QidOf(sb.st.q[i])];
    Rrr::RankCursor cursor(&beta_);
    const Walker w = Walk();
    RankBatchRec(w, w.Root(), 0, 0, m, 0, sb.darr.size(), &sb, &cursor, &out);
    return out;
  }

  /// out[i] == Select(strings[i], indices[i]).
  std::vector<std::optional<size_t>> SelectBatch(
      std::span<const BitSpan> strings, std::span<const size_t> indices) const {
    WT_ASSERT(strings.size() == indices.size());
    const size_t m = strings.size();
    std::vector<std::optional<size_t>> out(m);
    if (m == 0 || n_ == 0) return out;
    StringBatch sb(m, internal::DedupBatch(strings));
    size_t w = 0;
    for (size_t i = 0; i < m; ++i) {
      // An occurrence index >= n can never be satisfied; drop it up front
      // (this also keeps the index inside the packed key's 32 bits).
      if (indices[i] < n_) {
        sb.st.q[w] = Pack(indices[i], static_cast<uint32_t>(i));
        sb.did[w] = sb.dict.id_of[i];
        ++w;
      }
    }
    Rrr::RankCursor cursor(&beta_);
    Rrr::SelectCursor scursor(&beta_);
    const Walker walk = Walk();
    const size_t end = SelectBatchRec(walk, walk.Root(), 0, n_, 0, w, 0,
                                      sb.darr.size(), &sb, &cursor, &scursor);
    for (size_t i = 0; i < end; ++i) out[QidOf(sb.st.q[i])] = PosOf(sb.st.q[i]);
    return out;
  }

  /// v5 flat image (DESIGN.md #8): one section per component, the RRR
  /// directories *and the packed node directory* persisted, so LoadImage
  /// borrows the whole trie out of the blob with no rebuild pass — the
  /// structure is query-ready the moment the bytes are visible.
  void SaveImage(storage::ImageWriter& w) const {
    w.BeginSection(storage::kSecTrie);
    w.Pod<uint64_t>(n_);
    w.EndSection();
    if (n_ == 0) return;
    w.BeginSection(storage::kSecLabels);
    labels_.SaveImage(w);
    w.EndSection();
    w.BeginSection(storage::kSecBeta);
    beta_.SaveImage(w);
    w.EndSection();
    w.BeginSection(storage::kSecDirectory);
    w.Pod(dir_);
    w.Array(label_ends_.data(), label_ends_.size());
    w.Array(records_.data(), records_.size());
    w.EndSection();
  }

  /// Borrows a trie out of a parsed image. Never aborts: every bounds or
  /// consistency failure returns false (the caller translates it into a
  /// clean Status). The blob must stay alive as long as the trie.
  bool LoadImage(storage::ImageReader& r) {
    if (!r.OpenSection(storage::kSecTrie)) return false;
    uint64_t n = 0;
    if (!r.Pod(&n)) return false;
    if (n == 0) {
      *this = WaveletTrie();
      return true;
    }
    WaveletTrie out;
    out.n_ = n;
    if (!r.OpenSection(storage::kSecLabels) || !out.labels_.LoadImage(r)) {
      return false;
    }
    if (!r.OpenSection(storage::kSecBeta) || !out.beta_.LoadImage(r)) {
      return false;
    }
    storage::DirectoryHeader& dir = out.dir_;
    if (!r.OpenSection(storage::kSecDirectory) || !r.Pod(&dir)) return false;
    // The directory states its counts and widths. O(1) checks that they
    // close a full binary tree over these labels and this beta (an odd node
    // count, a label end per node, a record per internal node, no field
    // wider than 32 bits, a beta exactly when the root is internal), and
    // Array bounds each array by its section. n < 2^32 as every builder
    // guarantees.
    const uint64_t d = (dir.nodes + 1) / 2;
    if (n >= (uint64_t(1) << 32) || dir.nodes >= (uint64_t(1) << 32) ||
        dir.nodes % 2 == 0 || d > n || dir.label_ends != dir.nodes ||
        dir.records != d - 1 || dir.label_end_bits > 32 || dir.k_bits > 32 ||
        dir.beta_start_bits > 32 || dir.ones_start_bits > 32 ||
        (dir.nodes == 1) != (out.beta_.size() == 0)) {
      return false;
    }
    const uint64_t* ends = nullptr;
    const uint64_t* recs = nullptr;
    const size_t end_words =
        storage::PackedWords(dir.nodes + 1, dir.label_end_bits);
    const size_t rec_words = storage::PackedWords(
        dir.records, dir.k_bits + dir.beta_start_bits + dir.ones_start_bits);
    if (!r.Array(&ends, end_words) || !r.Array(&recs, rec_words)) return false;
    out.label_ends_ = storage::Vec<uint64_t>::Borrow(ends, end_words);
    out.records_ = storage::Vec<uint64_t>::Borrow(recs, rec_words);
    // The last label end closes the labels; the root's beta starts at the
    // origin, and its left subtree holds some but not all of the leaves.
    const Walker w = out.Walk();
    if (w.LabelEnd(dir.nodes - 1) != out.labels_.size()) return false;
    if (dir.records > 0) {
      const auto root = w.Record(0);
      if (root.beta_start != 0 || root.ones_start != 0 || root.k < 1 ||
          root.k >= d) {
        return false;
      }
    }
    *this = std::move(out);
    return true;
  }

  size_t SizeInBits() const {
    return labels_.SizeInBits() + beta_.SizeInBits() +
           kWordBits * (label_ends_.capacity() + records_.capacity());
  }

  /// Per-node debug view (preorder), used to reproduce the paper's Figure 2.
  struct NodeDebug {
    std::string alpha;
    std::string beta;  // empty for leaves
    bool is_leaf;
  };
  std::vector<NodeDebug> DebugNodes() const {
    std::vector<NodeDebug> out(dir_.nodes);
    if (n_ == 0) return out;
    const Walker w = Walk();
    std::vector<Walker::NodeRef> stack{w.Root()};
    while (!stack.empty()) {
      const Walker::NodeRef v = stack.back();
      stack.pop_back();
      NodeDebug& d = out[v.p];
      d.alpha = w.Label(v).ToString();
      d.is_leaf = w.IsLeaf(v);
      if (d.is_leaf) continue;
      // Betas are concatenated in preorder, so each ends where the next
      // internal node's begins.
      const size_t start = w.Record(v.r).beta_start;
      const size_t end =
          v.r + 1 < dir_.records ? w.Record(v.r + 1).beta_start : beta_.size();
      for (size_t i = start; i < end; ++i) d.beta.push_back(beta_.Get(i) ? '1' : '0');
      stack.push_back(w.Child(v, true));
      stack.push_back(w.Child(v, false));
    }
    return out;
  }

 private:
  friend class internal::TrieQueries<WaveletTrie>;

  /// The shared queries' view of this layout (core/trie_queries.hpp) and
  /// the batched kernels' decoder of the packed directory. It copies the
  /// arrays and widths once per query, so the per-level decode reads no
  /// trie member. Every field is at most 32 bits wide, so two label ends
  /// (or a record's k and beta start) fit one 64-bit window.
  struct Walker {
    using NodeRef = internal::PackedNodeRef;
    /// Internal node r's directory record. ones_start caches
    /// beta_.Rank1(beta_start), halving the RRR work of every per-node rank
    /// and select.
    struct Rec {
      size_t k, beta_start, ones_start;
    };

    const WaveletTrie* t;
    const uint64_t* ends;  // label_ends_ words
    const uint64_t* recs;  // records_ words
    unsigned wl, wk, wb, wo;  // label end, k, beta start and ones start bits

    static uint64_t Mask(unsigned width) { return (uint64_t(1) << width) - 1; }

    NodeRef Root() const {
      return {0, 0, static_cast<uint32_t>(t->NumDistinct())};
    }
    /// Both label ends from one window: the array opens with a zero field,
    /// so node p's label end is field p + 1 and its start field p.
    BitSpan Label(NodeRef v) const {
      const uint64_t win = LoadWindow(ends, size_t(v.p) * wl);
      const size_t start = win & Mask(wl), end = (win >> wl) & Mask(wl);
      return BitSpan(t->labels_.data(), start, end - start);
    }
    size_t LabelEnd(size_t p) const {
      return LoadWindow(ends, (p + 1) * wl) & Mask(wl);
    }
    /// k and beta start from one window, ones start from a second.
    Rec Record(size_t r) const {
      const size_t at = r * (wk + wb + wo);
      const uint64_t head = LoadWindow(recs, at);
      return {head & Mask(wk), (head >> wk) & Mask(wb),
              LoadWindow(recs, at + wk + wb) & Mask(wo)};
    }
    bool IsLeaf(NodeRef v) const { return v.leaves == 1; }
    /// Internal node v's b-child, v's left subtree holding k leaves:
    /// {p+1, r+1, k} or {p+2k, r+k, leaves-k}, picked by a mask, not a
    /// branch, since b is a data bit that would mispredict half the time.
    static NodeRef ChildOf(NodeRef v, bool b, size_t k) {
      const auto k32 = static_cast<uint32_t>(k);
      const uint32_t m = 0u - uint32_t{b};
      return {v.p + 1 + ((2 * k32 - 1) & m), v.r + 1 + ((k32 - 1) & m),
              k32 + ((v.leaves - 2 * k32) & m)};
    }
    NodeRef Child(NodeRef v, bool b) const {
      return ChildOf(v, b, Record(v.r).k);
    }
    /// One RRR rank (the rank at the segment start is in the record).
    size_t Rank(NodeRef v, bool b, size_t pos) const {
      const Rec rec = Record(v.r);
      const size_t ones = t->beta_.Rank1(rec.beta_start + pos) - rec.ones_start;
      return b ? ones : pos - ones;
    }
    size_t Select(NodeRef v, bool b, size_t k) const {
      const Rec rec = Record(v.r);
      if (b) return t->beta_.Select1(rec.ones_start + k) - rec.beta_start;
      return t->beta_.Select0((rec.beta_start - rec.ones_start) + k) -
             rec.beta_start;
    }
    /// One fused RRR rank-and-get.
    std::pair<bool, size_t> Route(NodeRef v, size_t pos) const {
      const Rec rec = Record(v.r);
      const auto [ones_abs, bit] = t->beta_.RankGet(rec.beta_start + pos);
      const size_t ones = ones_abs - rec.ones_start;
      return {bit, bit ? ones : pos - ones};
    }
    /// No subtree sizes are stored: a rank.
    size_t ChildSize(NodeRef v, bool b, size_t len) const {
      return Rank(v, b, len);
    }
    Rrr::Iterator Beta(NodeRef v, size_t pos) const {
      return Rrr::Iterator(&t->beta_, Record(v.r).beta_start + pos);
    }
    /// v's label ends and record.
    void Prefetch(NodeRef v) const {
      PrefetchRead(ends + ((size_t(v.p) * wl) >> 6));
      PrefetchRead(recs + ((size_t(v.r) * (wk + wb + wo)) >> 6));
    }
  };
  Walker Walk() const {
    return {this,
            label_ends_.data(),
            records_.data(),
            dir_.label_end_bits,
            dir_.k_bits,
            dir_.beta_start_bits,
            dir_.ones_start_bits};
  }

  /// The directory as both builders emit it, in preorder; FinishBuild
  /// packs it.
  struct DirectoryBuild {
    std::vector<uint32_t> label_ends;  // one per node
    /// One per internal node: k, beta start, ones start.
    std::vector<std::array<uint32_t, 3>> records;

    /// Adds the node whose label was just appended, ending at `label_end`;
    /// returns its preorder id.
    uint32_t AddNode(size_t label_end) {
      label_ends.push_back(static_cast<uint32_t>(label_end));
      return static_cast<uint32_t>(label_ends.size() - 1);
    }
  };

  /// Shared tail of both constructors: the capacity check (kMaxBetaBits),
  /// the global RRR over the emitted beta bits, and the directory packed at
  /// the narrowest width that holds each field's largest value.
  void FinishBuild(const BitArray& beta_bits, const DirectoryBuild& build) {
    WT_ASSERT_MSG(labels_.size() <= kMaxBetaBits &&
                      beta_bits.size() <= kMaxBetaBits,
                  "WaveletTrie: total label or beta bits exceed 2^32-1 (the "
                  "32-bit directory field and packed RRR directory limit); "
                  "split the sequence across tries (src/engine/) instead");
    labels_.ShrinkToFit();
    beta_ = Rrr(beta_bits);
    std::array<uint32_t, 3> max{};
    for (const auto& rec : build.records) {
      for (size_t f = 0; f < 3; ++f) max[f] = std::max(max[f], rec[f]);
    }
    dir_.nodes = dir_.label_ends = build.label_ends.size();
    dir_.records = build.records.size();
    dir_.label_end_bits = BitWidth(labels_.size());
    dir_.k_bits = BitWidth(max[0]);
    dir_.beta_start_bits = BitWidth(max[1]);
    dir_.ones_start_bits = BitWidth(max[2]);
    const unsigned wl = dir_.label_end_bits;
    label_ends_.assign(storage::PackedWords(dir_.nodes + 1, wl), 0);
    for (size_t p = 0; p < dir_.nodes; ++p) {
      StoreBits(label_ends_.mutable_data(), (p + 1) * wl, wl,
                build.label_ends[p]);
    }
    const unsigned widths[3] = {dir_.k_bits, dir_.beta_start_bits,
                                dir_.ones_start_bits};
    records_.assign(
        storage::PackedWords(dir_.records, widths[0] + widths[1] + widths[2]),
        0);
    size_t at = 0;
    for (const auto& rec : build.records) {
      for (size_t f = 0; f < 3; ++f) {
        StoreBits(records_.mutable_data(), at, widths[f], rec[f]);
        at += widths[f];
      }
    }
  }

  // ------------------------------------------------ batched traversal core

  /// Shared per-batch scratch. Each live query is one packed 64-bit key:
  /// the per-node position (Access/Rank), or the occurrence index and later
  /// the subtree-relative result (Select), in the high half; the original
  /// query index in the low half. One word per query halves the partition
  /// traffic and makes the initial order-by-position a radix sort.
  struct BatchState {
    explicit BatchState(size_t m) : q(m), scratch(m), counts(1 << kRadixBits) {
      WT_ASSERT_MSG(m < (uint64_t(1) << 32), "batch larger than 2^32 queries");
    }
    std::vector<uint64_t> q;
    std::vector<uint64_t> scratch;
    std::vector<uint32_t> counts;  // radix histogram, reused per pass
  };

  static constexpr unsigned kRadixBits = 11;

  /// Extra state for the string-keyed batches (Rank/Select): the queries
  /// dedup onto their distinct strings (internal::DedupBatch, shared with
  /// the ingestion bulk path), `darr` carries the distinct ids alive at the
  /// current node, `did` the per-query distinct id in lockstep with
  /// BatchState::q, and `route` the per-distinct verdict at the node being
  /// processed.
  struct StringBatch {
    StringBatch(size_t m, internal::BatchDict d)
        : dict(std::move(d)),
          st(m),
          did(m),
          did_scratch(m),
          darr(dict.distinct.size()),
          dscratch(dict.distinct.size()),
          route(dict.distinct.size()) {
      for (size_t i = 0; i < darr.size(); ++i) {
        darr[i] = static_cast<uint32_t>(i);
      }
    }
    internal::BatchDict dict;
    BatchState st;
    std::vector<uint32_t> did, did_scratch;
    std::vector<uint32_t> darr, dscratch;
    std::vector<uint8_t> route;
  };

  static uint64_t Pack(size_t pos, uint32_t qid) {
    return (static_cast<uint64_t>(pos) << 32) | qid;
  }
  static size_t PosOf(uint64_t key) { return key >> 32; }
  static uint32_t QidOf(uint64_t key) { return static_cast<uint32_t>(key); }

  /// Orders the batch by position so that every node's beta is walked
  /// monotonically (rank mappings preserve relative order on both branches,
  /// so sortedness is invariant down the whole traversal). LSD radix on the
  /// position half; the qid half rides along and keeps ties in input order.
  static void SortByPosition(std::span<const size_t> positions, BatchState* st) {
    const size_t m = positions.size();
    size_t max_pos = 0;
    for (size_t i = 0; i < m; ++i) {
      st->q[i] = Pack(positions[i], static_cast<uint32_t>(i));
      max_pos = std::max(max_pos, positions[i]);
    }
    const unsigned pos_bits = BitWidth(max_pos);
    for (unsigned done = 0; done < pos_bits; done += kRadixBits) {
      const unsigned shift = 32 + done;
      const unsigned digit_bits = std::min(kRadixBits, pos_bits - done);
      const uint64_t mask = LowMask(digit_bits);
      std::fill(st->counts.begin(), st->counts.begin() + (size_t(1) << digit_bits),
                0);
      for (size_t i = 0; i < m; ++i) ++st->counts[(st->q[i] >> shift) & mask];
      uint32_t sum = 0;
      for (size_t c = 0; c < (size_t(1) << digit_bits); ++c) {
        const uint32_t t = st->counts[c];
        st->counts[c] = sum;
        sum += t;
      }
      for (size_t i = 0; i < m; ++i) {
        st->scratch[st->counts[(st->q[i] >> shift) & mask]++] = st->q[i];
      }
      st->q.swap(st->scratch);
    }
  }

  /// One record decode per touched node: v's beta location and both
  /// children. The right child's directory fields are prefetched while v's
  /// positions are ranked; the left child's follow v's own in both arrays.
  struct Split {
    Walker::NodeRef left, right;
    size_t beta_start, ones_start;
  };
  static Split SplitOf(const Walker& w, Walker::NodeRef v) {
    const Walker::Rec rec = w.Record(v.r);
    const Split s{Walker::ChildOf(v, false, rec.k),
                  Walker::ChildOf(v, true, rec.k), rec.beta_start,
                  rec.ones_start};
    w.Prefetch(s.right);
    return s;
  }

  /// Per-query rank step of the batched traversals: a cursor walk (cache
  /// hit, short class-scan advance, or directory restart — positions within
  /// a node arrive sorted, so almost always the first two), with the
  /// directory lines of the query two ahead prefetched to overlap its loads
  /// with this query's decode.
  std::pair<size_t, bool> BatchRankGet(Rrr::RankCursor* cursor, size_t gpos,
                                       size_t prefetch_pos,
                                       bool has_prefetch) const {
    // Positions are sorted, so prefetch_pos >= gpos; skip the prefetch when
    // the lookahead lands within a block of the current query (its lines
    // are already inbound).
    if (has_prefetch && prefetch_pos - gpos >= Rrr::kBlockBits) {
      cursor->Prefetch(prefetch_pos);
    }
    return cursor->RankGet(gpos);
  }

  size_t BatchRank1(Rrr::RankCursor* cursor, size_t gpos, size_t prefetch_pos,
                    bool has_prefetch) const {
    if (has_prefetch && prefetch_pos - gpos >= Rrr::kBlockBits) {
      cursor->Prefetch(prefetch_pos);
    }
    return cursor->Rank1(gpos);
  }

  void AccessBatchRec(const Walker& walk, Walker::NodeRef v, size_t lo,
                      size_t hi, BatchState* st, Rrr::RankCursor* cursor,
                      BitString* prefix, std::vector<BitString>* leaf_vals,
                      std::vector<uint32_t>* leaf_of) const {
    const size_t mark = prefix->size();
    prefix->Append(walk.Label(v));
    if (walk.IsLeaf(v)) {
      const uint32_t leaf_id = static_cast<uint32_t>(leaf_vals->size());
      leaf_vals->push_back(*prefix);
      for (size_t i = lo; i < hi; ++i) (*leaf_of)[QidOf(st->q[i])] = leaf_id;
      prefix->Truncate(mark);
      return;
    }
    const auto [left, right, start, ones_start] = SplitOf(walk, v);
    size_t w = lo, n1 = 0;
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t key = st->q[i];
      const auto [ones_abs, bit] = BatchRankGet(
          cursor, start + PosOf(key),
          start + PosOf(st->q[i + 2 < hi ? i + 2 : i]), i + 2 < hi);
      const size_t ones = ones_abs - ones_start;
      if (bit) {
        st->scratch[n1++] = Pack(ones, QidOf(key));
      } else {
        st->q[w++] = Pack(PosOf(key) - ones, QidOf(key));
      }
    }
    std::copy_n(st->scratch.data(), n1, st->q.data() + w);
    const size_t lab_end = prefix->size();
    if (lo < w) {
      prefix->PushBack(false);
      AccessBatchRec(walk, left, lo, w, st, cursor, prefix, leaf_vals, leaf_of);
      prefix->Truncate(lab_end);
    }
    if (w < hi) {
      prefix->PushBack(true);
      AccessBatchRec(walk, right, w, hi, st, cursor, prefix, leaf_vals, leaf_of);
    }
    prefix->Truncate(mark);
  }

  /// Routes this node's distinct suffixes once (label check + branch bit on
  /// the distinct set, as in BulkBuild), making the per-query work an
  /// L1-resident table lookup plus one cursor rank. Returns the partition
  /// point of the distinct ids so the caller-level arrays stay in lockstep.
  enum : uint8_t { kRouteDrop = 0, kRouteLeft = 1, kRouteRight = 2, kRouteMatch = 3 };

  void RouteDistinct(const BitSpan& label, size_t depth, size_t d2,
                     bool internal_node, size_t dlo, size_t dhi,
                     StringBatch* sb) const {
    for (size_t j = dlo; j < dhi; ++j) {
      const uint32_t d = sb->darr[j];
      const BitSpan s = sb->dict.distinct[d];
      uint8_t r = kRouteDrop;
      if (label.IsPrefixOf(s.SubSpan(depth))) {
        if (!internal_node) {
          if (s.size() == d2) r = kRouteMatch;
        } else if (s.size() > d2) {
          r = s.Get(d2) ? kRouteRight : kRouteLeft;
        }
      }
      sb->route[d] = r;
    }
  }

  /// Stable three-way partition of the distinct ids by route (drops
  /// vanish); returns {left end, right count}.
  std::pair<size_t, size_t> PartitionDistinct(size_t dlo, size_t dhi,
                                              StringBatch* sb) const {
    size_t dw = dlo, dn1 = 0;
    for (size_t j = dlo; j < dhi; ++j) {
      const uint32_t d = sb->darr[j];
      const uint8_t r = sb->route[d];
      if (r == kRouteLeft) {
        sb->darr[dw++] = d;
      } else if (r == kRouteRight) {
        sb->dscratch[dn1++] = d;
      }
    }
    std::copy_n(sb->dscratch.data(), dn1, sb->darr.data() + dw);
    return {dw, dn1};
  }

  void RankBatchRec(const Walker& walk, Walker::NodeRef v, size_t depth,
                    size_t lo, size_t hi, size_t dlo, size_t dhi,
                    StringBatch* sb, Rrr::RankCursor* cursor,
                    std::vector<size_t>* out) const {
    const BitSpan label = walk.Label(v);
    const size_t d2 = depth + label.size();
    const bool internal_node = !walk.IsLeaf(v);
    RouteDistinct(label, depth, d2, internal_node, dlo, dhi, sb);
    if (!internal_node) {
      for (size_t i = lo; i < hi; ++i) {
        const uint64_t key = sb->st.q[i];
        if (sb->route[sb->did[i]] == kRouteMatch) {
          (*out)[QidOf(key)] = PosOf(key);
        }
      }
      return;
    }
    const auto [left, right, start, ones_start] = SplitOf(walk, v);
    const auto [dw, dn1] = PartitionDistinct(dlo, dhi, sb);
    size_t w = lo, n1 = 0;
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t d = sb->did[i];
      const uint8_t r = sb->route[d];
      if (r == kRouteDrop) continue;  // mismatch or proper prefix: rank 0
      const uint64_t key = sb->st.q[i];
      const size_t ones =
          BatchRank1(cursor, start + PosOf(key),
                     start + PosOf(sb->st.q[i + 2 < hi ? i + 2 : i]),
                     i + 2 < hi) -
          ones_start;
      if (r == kRouteRight) {
        sb->st.scratch[n1] = Pack(ones, QidOf(key));
        sb->did_scratch[n1] = d;
        ++n1;
      } else {
        sb->st.q[w] = Pack(PosOf(key) - ones, QidOf(key));
        sb->did[w] = d;
        ++w;
      }
    }
    std::copy_n(sb->st.scratch.data(), n1, sb->st.q.data() + w);
    std::copy_n(sb->did_scratch.data(), n1, sb->did.data() + w);
    if (lo < w) {
      RankBatchRec(walk, left, d2 + 1, lo, w, dlo, dw, sb, cursor, out);
    }
    if (n1 > 0) {
      RankBatchRec(walk, right, d2 + 1, w, w + n1, dw, dw + dn1, sb, cursor, out);
    }
  }

  /// Descends like RankBatch, then maps subtree-relative select results
  /// back up through each node on return. On entry the position half of
  /// each key holds the occurrence index; on exit (for surviving, compacted
  /// queries) the position within v's subtree sequence, in ascending order:
  /// leaves sort their survivors, each per-node mapping is monotone, and
  /// the two children's sorted runs are merged — so the ascent's selects
  /// arrive rank-sorted at every node and the select cursor walks each
  /// node's beta forward instead of re-searching per query. Returns the end
  /// of the compacted survivor range (dropped queries stay nullopt).
  size_t SelectBatchRec(const Walker& walk, Walker::NodeRef v, size_t depth,
                        size_t len, size_t lo, size_t hi, size_t dlo,
                        size_t dhi, StringBatch* sb, Rrr::RankCursor* cursor,
                        Rrr::SelectCursor* scursor) const {
    const BitSpan label = walk.Label(v);
    const size_t d2 = depth + label.size();
    const bool internal_node = !walk.IsLeaf(v);
    RouteDistinct(label, depth, d2, internal_node, dlo, dhi, sb);
    if (!internal_node) {
      size_t keep = lo;
      for (size_t i = lo; i < hi; ++i) {
        const uint64_t key = sb->st.q[i];
        if (sb->route[sb->did[i]] == kRouteMatch && PosOf(key) < len) {
          sb->st.q[keep++] = key;
        }
      }
      std::sort(sb->st.q.begin() + lo, sb->st.q.begin() + keep);
      return keep;
    }
    const auto [left, right, start, ones_start] = SplitOf(walk, v);
    const auto [dw, dn1] = PartitionDistinct(dlo, dhi, sb);
    const size_t ones_total = cursor->Rank1(start + len) - ones_start;
    size_t w = lo, n1 = 0;
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t d = sb->did[i];
      const uint8_t r = sb->route[d];
      if (r == kRouteDrop) continue;  // mismatch or proper prefix: nullopt
      const uint64_t key = sb->st.q[i];
      if (r == kRouteRight) {
        sb->st.scratch[n1] = key;
        sb->did_scratch[n1] = d;
        ++n1;
      } else {
        sb->st.q[w] = key;
        sb->did[w] = d;
        ++w;
      }
    }
    std::copy_n(sb->st.scratch.data(), n1, sb->st.q.data() + w);
    std::copy_n(sb->did_scratch.data(), n1, sb->did.data() + w);
    const size_t left_end =
        lo < w ? SelectBatchRec(walk, left, d2 + 1, len - ones_total, lo, w,
                                dlo, dw, sb, cursor, scursor)
               : lo;
    const size_t right_end =
        n1 > 0 ? SelectBatchRec(walk, right, d2 + 1, ones_total, w, w + n1, dw,
                                dw + dn1, sb, cursor, scursor)
               : w;
    const size_t zeros_start = start - ones_start;
    for (size_t i = lo; i < left_end; ++i) {
      sb->st.q[i] =
          Pack(scursor->Select0(zeros_start + PosOf(sb->st.q[i])) - start,
               QidOf(sb->st.q[i]));
    }
    for (size_t i = w; i < right_end; ++i) {
      sb->st.q[i] =
          Pack(scursor->Select1(ones_start + PosOf(sb->st.q[i])) - start,
               QidOf(sb->st.q[i]));
    }
    // Merge the two sorted runs (this also closes the gap the left child's
    // drops left behind) and restore them to [lo, lo + survivors).
    const size_t total = (left_end - lo) + (right_end - w);
    std::merge(sb->st.q.begin() + lo, sb->st.q.begin() + left_end,
               sb->st.q.begin() + w, sb->st.q.begin() + right_end,
               sb->st.scratch.begin() + lo);
    std::copy_n(sb->st.scratch.data() + lo, total, sb->st.q.data() + lo);
    return lo + total;
  }

  size_t n_ = 0;
  BitArray labels_;  // concatenated alpha labels, preorder
  Rrr beta_;         // concatenated internal-node bitvectors, preorder
  // The node directory (DESIGN.md #6): counts and field widths, one
  // label-end field per node and one record per internal node, preorder.
  storage::DirectoryHeader dir_;
  storage::Vec<uint64_t> label_ends_;
  storage::Vec<uint64_t> records_;
};

}  // namespace wt
