// Internal helpers for the bulk-load paths (DESIGN.md #4): the two sources
// of a BatchDict — a sequence collapsed onto its distinct alphabet.
//
// Real ingest batches (logs, column values) repeat a small working alphabet,
// so the batched trie builders first map every item to a distinct id. The
// structural work (label LCPs, splits) then runs over the distinct set only,
// and the per-occurrence work — routing ids through each node's beta — is
// sequential integer traffic plus an L1-resident bit table, instead of one
// random heap access per string per trie level.
//
// Fresh strings reach that form by hashing (DedupBatch). A built trie
// already holds it — its leaves are the distinct set, its betas route each
// position to one — so ExtractLeafDict reads it back without hashing or a
// per-string copy; Freeze, Thaw and compaction rebuild from that.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bit_string.hpp"
#include "common/bits.hpp"

namespace wt {
namespace internal {

/// Content hash of a bit span (word-at-a-time; direct word loads when the
/// span is word-aligned, which spans over whole BitStrings always are).
inline uint64_t HashBitSpan(BitSpan s) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ (uint64_t(s.size()) * 0xFF51AFD7ED558CCDull);
  const auto mix = [&h](uint64_t w) {
    h ^= w;
    h *= 0xC2B2AE3D27D4EB4Full;
    h ^= h >> 29;
  };
  const size_t len = s.size();
  if ((s.start_bit() & (kWordBits - 1)) == 0) {
    const uint64_t* w = s.words() + (s.start_bit() >> 6);
    const size_t nw = len >> 6;
    for (size_t i = 0; i < nw; ++i) mix(w[i]);
    const size_t tail = len & (kWordBits - 1);
    if (tail != 0) mix(w[nw] & LowMask(tail));
    return h;
  }
  for (size_t i = 0; i < len; i += kWordBits) {
    mix(s.GetBits(i, std::min(kWordBits, len - i)));
  }
  return h;
}

/// Content equality with a word-aligned fast path.
inline bool SpanContentEqual(BitSpan a, BitSpan b) {
  if (a.size() != b.size()) return false;
  if (((a.start_bit() | b.start_bit()) & (kWordBits - 1)) == 0) {
    const uint64_t* wa = a.words() + (a.start_bit() >> 6);
    const uint64_t* wb = b.words() + (b.start_bit() >> 6);
    const size_t nw = a.size() >> 6;
    for (size_t i = 0; i < nw; ++i) {
      if (wa[i] != wb[i]) return false;
    }
    const size_t tail = a.size() & (kWordBits - 1);
    return tail == 0 || ((wa[nw] ^ wb[nw]) & LowMask(tail)) == 0;
  }
  return a.ContentEquals(b);
}

struct BatchDict {
  std::vector<BitSpan> distinct;  // first occurrence of each distinct string
  std::vector<uint32_t> id_of;    // batch position -> index into `distinct`
};

/// Single-pass open-addressing dedup (linear probing, grown on the *distinct*
/// count at 25% load, so the common many-duplicates case stays cache-resident).
inline BatchDict DedupBatch(std::span<const BitSpan> batch) {
  BatchDict out;
  const size_t m = batch.size();
  WT_ASSERT(m < (uint64_t(1) << 32));
  out.id_of.resize(m);
  size_t cap = 256;
  std::vector<uint32_t> table(cap, 0);  // distinct id + 1; 0 = empty
  for (size_t pos = 0; pos < m; ++pos) {
    const BitSpan s = batch[pos];
    const uint64_t h = HashBitSpan(s);
    size_t i = h & (cap - 1);
    uint32_t id;
    for (;;) {
      const uint32_t slot = table[i];
      if (slot == 0) {
        id = static_cast<uint32_t>(out.distinct.size());
        out.distinct.push_back(s);
        table[i] = id + 1;
        if ((out.distinct.size() + 1) * 4 > cap) {
          cap <<= 2;
          table.assign(cap, 0);
          for (uint32_t d = 0; d < out.distinct.size(); ++d) {
            size_t j = HashBitSpan(out.distinct[d]) & (cap - 1);
            while (table[j] != 0) j = (j + 1) & (cap - 1);
            table[j] = d + 1;
          }
        }
        break;
      }
      if (SpanContentEqual(out.distinct[slot - 1], s)) {
        id = slot - 1;
        break;
      }
      i = (i + 1) & (cap - 1);
    }
    out.id_of[pos] = id;
  }
  return out;
}

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

/// The kernel of both tries' ExtractDict: the bulk builders' occurrence
/// partition run in reverse. One explicit-stack preorder pass carries the
/// positions routed to each node, in sequence order; an internal node's
/// beta, read 64 bits to a register word, stably partitions them between
/// its children (zeros in place, ones through a scratch array), and a leaf
/// appends its string to the dictionary once and stamps its id on each of
/// its positions. Leaves come out in preorder, so the distinct strings are
/// sorted. O(n h) integer moves plus O(total leaf bits); no hashing, no
/// per-string allocation.
///
/// `Walk` adapts one trie: a copyable `NodeRef`, `Root()`, `Label(v)`,
/// `IsLeaf(v)`, `Child(v, bit)`, and `Beta(v)`, an iterator whose Next()
/// yields v's beta bits from the first. Every leaf must hold at least one
/// position and every internal node's beta one bit per position routed
/// to it — true of every trie holding `n` strings.
template <typename Walk>
LeafDict ExtractLeafDict(size_t n, const Walk& walk) {
  LeafDict out;
  if (n == 0) return out;
  WT_ASSERT_MSG(n < (uint64_t(1) << 32),
                "ExtractLeafDict: 2^32 or more strings (ids are 32-bit)");
  std::vector<uint32_t>& leaf_of = out.dict.id_of;
  leaf_of.resize(n);
  std::vector<uint32_t> pos(n), scratch(n);
  for (size_t i = 0; i < n; ++i) pos[i] = static_cast<uint32_t>(i);

  struct Frame {
    typename Walk::NodeRef v;
    uint32_t lo, hi;  // the positions routed to v: pos[lo, hi)
    size_t depth;     // bits of v's string above its label
    bool bit;         // the branch bit into v (unused for the root)
  };
  BitString prefix;  // the string of the node being visited
  std::vector<Frame> stack{{walk.Root(), 0, static_cast<uint32_t>(n), 0, false}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.depth > 0) {
      prefix.Truncate(f.depth - 1);
      prefix.PushBack(f.bit);
    }
    prefix.Append(walk.Label(f.v));
    if (walk.IsLeaf(f.v)) {
      WT_DASSERT(f.lo < f.hi);
      const auto id = static_cast<uint32_t>(out.dict.distinct.size());
      // The span's words pointer is set once the buffer stops growing.
      out.dict.distinct.emplace_back(nullptr, out.words.size() * kWordBits,
                                     prefix.size());
      const uint64_t* w = prefix.bits().data();
      out.words.insert(out.words.end(), w, w + WordsFor(prefix.size()));
      for (uint32_t i = f.lo; i < f.hi; ++i) leaf_of[pos[i]] = id;
      continue;
    }
    auto beta = walk.Beta(f.v);
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
    stack.push_back({walk.Child(f.v, true), mid, f.hi, depth, true});
    stack.push_back({walk.Child(f.v, false), f.lo, mid, depth, false});
  }
  for (BitSpan& s : out.dict.distinct) {
    s = BitSpan(out.words.data(), s.start_bit(), s.size());
  }
  return out;
}

}  // namespace internal
}  // namespace wt
