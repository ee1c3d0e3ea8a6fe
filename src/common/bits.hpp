// Word-level bit primitives for the word-RAM model (w = 64).
//
// Conventions used across the library:
//   * A logical bit sequence stores bit i at words[i / 64], bit (i % 64),
//     i.e. LSB-first within each word. Bit 0 is the *first* bit of a string.
//   * All "select" operations are 0-based: SelectInWord(x, 0) is the position
//     of the first set bit.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <utility>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "common/assert.hpp"

namespace wt {

inline constexpr size_t kWordBits = 64;

/// Number of 64-bit words needed to hold `bits` bits.
constexpr size_t WordsFor(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

/// Population count of a word.
inline int PopCount(uint64_t x) { return std::popcount(x); }

/// Mask with the low `len` bits set; `len` must be <= 64.
constexpr uint64_t LowMask(size_t len) {
  return len >= 64 ? ~uint64_t(0) : ((uint64_t(1) << len) - 1);
}

namespace internal {

// reverse_byte[b] = b with its 8 bits mirrored.
struct ReverseByteTable {
  std::array<uint8_t, 256> r{};
};

constexpr ReverseByteTable MakeReverseByteTable() {
  ReverseByteTable t{};
  for (int b = 0; b < 256; ++b) {
    int r = 0;
    for (int i = 0; i < 8; ++i) {
      if (b & (1 << i)) r |= 1 << (7 - i);
    }
    t.r[b] = static_cast<uint8_t>(r);
  }
  return t;
}

inline constexpr ReverseByteTable kReverseByte = MakeReverseByteTable();

// select_in_byte[b][k] = position (0..7) of the (k+1)-th set bit of byte b.
struct SelectByteTable {
  std::array<std::array<uint8_t, 8>, 256> pos{};
};

constexpr SelectByteTable MakeSelectByteTable() {
  SelectByteTable t{};
  for (int b = 0; b < 256; ++b) {
    int k = 0;
    for (int i = 0; i < 8; ++i) {
      if (b & (1 << i)) t.pos[b][k++] = static_cast<uint8_t>(i);
    }
    for (; k < 8; ++k) t.pos[b][k] = 8;  // out of range marker
  }
  return t;
}

inline constexpr SelectByteTable kSelectByte = MakeSelectByteTable();

}  // namespace internal

/// Table-driven in-word select; the portable fallback for SelectInWord and
/// the differential oracle its pdep fast path is tested against.
/// Precondition: k < PopCount(x).
inline unsigned SelectInWordPortable(uint64_t x, unsigned k) {
  WT_DASSERT(k < static_cast<unsigned>(PopCount(x)));
  unsigned base = 0;
  for (int i = 0; i < 8; ++i) {
    unsigned byte = x & 0xFF;
    unsigned cnt = static_cast<unsigned>(std::popcount(byte));
    if (k < cnt) return base + internal::kSelectByte.pos[byte][k];
    k -= cnt;
    x >>= 8;
    base += 8;
  }
  WT_ASSERT_MSG(false, "SelectInWord: k out of range");
  return 64;
}

/// Position of the (k+1)-th set bit of `x` (k is 0-based). With BMI2, a
/// single pdep deposits a lone bit at the k-th set position of x and a
/// count-trailing-zeros reads its index — the branch-free in-word select
/// every Select query bottoms out in.
/// Precondition: k < PopCount(x).
inline unsigned SelectInWord(uint64_t x, unsigned k) {
#if defined(__BMI2__)
  WT_DASSERT(k < static_cast<unsigned>(PopCount(x)));
  return static_cast<unsigned>(std::countr_zero(_pdep_u64(uint64_t(1) << k, x)));
#else
  return SelectInWordPortable(x, k);
#endif
}

/// Position of the (k+1)-th *zero* bit of `x` (k is 0-based).
inline unsigned SelectZeroInWord(uint64_t x, unsigned k) { return SelectInWord(~x, k); }

/// Best-effort read prefetch of the cache line holding `p` (no-op when the
/// compiler has no intrinsic). Used by the batched query paths to overlap
/// the next level's node-header and directory loads with current work.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Superblock window [lo, hi] for a sampled select search: position samples
/// are taken every `sample_rate`-th target bit, and `samples[j]` names the
/// superblock holding the (j*sample_rate)-th one (zero). `last_sb` is the
/// largest superblock index the search may return (the directory's final
/// real entry). Shared by the BitVector and RRR Select paths, which used to
/// clamp this window with four hand-expanded copies of the same expression.
inline std::pair<size_t, size_t> SelectSampleWindow(const uint32_t* samples,
                                                    size_t num_samples, size_t k,
                                                    size_t sample_rate,
                                                    size_t last_sb) {
  const size_t j = k / sample_rate;
  WT_DASSERT(j < num_samples);
  const size_t lo = samples[j];
  const size_t hi =
      (j + 1 < num_samples) ? std::min<size_t>(samples[j + 1] + 1, last_sb) : last_sb;
  return {lo, hi};
}

/// Largest superblock sb in [lo, hi] with count_before(sb) <= k, by binary
/// search. `count_before` must be non-decreasing and count_before(lo) <= k.
template <typename CountBefore>
inline size_t SelectSuperblock(size_t lo, size_t hi, size_t k,
                               const CountBefore& count_before) {
  while (lo < hi) {
    const size_t mid = (lo + hi + 1) / 2;
    if (count_before(mid) <= k)
      lo = mid;
    else
      hi = mid - 1;
  }
  return lo;
}

/// Mirrors the bit order of a word (bit 0 <-> bit 63).
inline uint64_t ReverseBits(uint64_t x) {
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out = (out << 8) | internal::kReverseByte.r[x & 0xFF];
    x >>= 8;
  }
  return out;
}

/// Mirrors the low `len` (<= 64) bits of x: result bit j = x bit (len-1-j).
/// Bits of x at or above `len` are ignored. This is the word-parallel bridge
/// between MSB-first codec encodings and the library's LSB-first bit layout.
inline uint64_t ReverseBits(uint64_t x, size_t len) {
  WT_DASSERT(len <= 64);
  return len == 0 ? 0 : ReverseBits(x) >> (64 - len);
}

/// Mirrors the bit order within *each byte* of x independently (the
/// lane-wise form of ReverseBits(b, 8)): three shift-and-mask rounds swap
/// adjacent bits, pairs, then nibbles of all eight lanes at once. The
/// word-parallel codec decoders use it to flip a whole load of MSB-first
/// byte groups into bytes in one step.
inline uint64_t ReverseBitsInBytes(uint64_t v) {
  v = ((v >> 1) & 0x5555555555555555ull) | ((v & 0x5555555555555555ull) << 1);
  v = ((v >> 2) & 0x3333333333333333ull) | ((v & 0x3333333333333333ull) << 2);
  v = ((v >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((v & 0x0F0F0F0F0F0F0F0Full) << 4);
  return v;
}

/// Read `len` (<= 64) bits starting at absolute bit `start` from `words`.
/// Returned value has the first logical bit in its LSB.
/// Precondition: the containing words exist (start+len within the backing
/// array's bit capacity).
inline uint64_t LoadBits(const uint64_t* words, size_t start, size_t len) {
  WT_DASSERT(len <= 64);
  if (len == 0) return 0;
  const size_t w = start >> 6;
  const size_t off = start & 63;
  uint64_t res = words[w] >> off;
  if (off + len > 64) res |= words[w + 1] << (64 - off);
  return res & LowMask(len);
}

/// The 64 bits starting at absolute bit `start`, first logical bit in the
/// LSB, read from two words with no branch on whether the window crosses a
/// word boundary (the packed node directory's field decode). Precondition:
/// words[start / 64 + 1] exists, which the directory's arrays guarantee by
/// padding (storage::PackedWords).
inline uint64_t LoadWindow(const uint64_t* words, size_t start) {
  const uint64_t* w = words + (start >> 6);
  const unsigned off = start & 63;
  return (w[0] >> off) | ((w[1] << 1) << (63 - off));
}

/// Write `len` (<= 64) bits of `value` at absolute bit `start` in `words`.
inline void StoreBits(uint64_t* words, size_t start, size_t len, uint64_t value) {
  WT_DASSERT(len <= 64);
  if (len == 0) return;
  value &= LowMask(len);
  const size_t w = start >> 6;
  const size_t off = start & 63;
  words[w] = (words[w] & ~(LowMask(len) << off)) | (value << off);
  if (off + len > 64) {
    const size_t hi = off + len - 64;  // bits spilling into the next word
    words[w + 1] = (words[w + 1] & ~LowMask(hi)) | (value >> (64 - off));
  }
}

/// Length of the longest common prefix of the bit ranges
/// a[a_start, a_start+max_len) and b[b_start, b_start+max_len).
inline size_t BitsLcp(const uint64_t* a, size_t a_start, const uint64_t* b,
                      size_t b_start, size_t max_len) {
  size_t i = 0;
  while (i < max_len) {
    const size_t chunk = std::min<size_t>(64, max_len - i);
    const uint64_t diff =
        LoadBits(a, a_start + i, chunk) ^ LoadBits(b, b_start + i, chunk);
    if (diff != 0) {
      const size_t tz = static_cast<size_t>(std::countr_zero(diff));
      return i + std::min(tz, chunk);
    }
    i += chunk;
  }
  return max_len;
}

/// ceil(log2(x)) for x >= 1; CeilLog2(1) == 0.
constexpr unsigned CeilLog2(uint64_t x) {
  return x <= 1 ? 0 : static_cast<unsigned>(std::bit_width(x - 1));
}

/// Number of bits in the binary representation of x (0 -> 0).
constexpr unsigned BitWidth(uint64_t x) { return static_cast<unsigned>(std::bit_width(x)); }

}  // namespace wt
