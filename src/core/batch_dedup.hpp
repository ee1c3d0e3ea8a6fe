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
// position to one — so ExtractDict (core/trie_queries.hpp) reads it back
// without hashing or a per-string copy; Freeze, Thaw and compaction rebuild
// from that.
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

}  // namespace internal
}  // namespace wt
