// RRR compressed bitvector [Raman, Raman, Rao 2007].
//
// Encodes a bitvector of n bits with m ones in B(m,n) + o(n) bits while
// supporting Rank/Select/Access in O(1) table-free word operations.
//
// Layout: blocks of 63 bits; each block is stored as a 6-bit *class* (its
// popcount k) plus an *offset*: the block verbatim for dense classes (the
// escape, see kMinEscapeWidth — decode is a load) and the
// ceil(log2 C(63,k))-bit combinadic rank within the class otherwise.
// Superblocks of 32 blocks store one interleaved directory word — absolute
// rank in the low half, absolute offset-stream bit position in the high
// half — so locating a block costs a single load plus a scan of at most 31
// classes, each folded into one table-lookup-and-add (class and offset
// width accumulate in the two halves of a 32-bit counter). Rank decodes at
// most one block, and the combinadic walk early-exits at the queried bit,
// so it never materializes the block word. Select is supported by position
// samples every kSelectSample-th 1 (and 0), a bounded binary search over
// superblocks (shared helpers in common/bits.hpp), and the pdep in-word
// select. Combinadic ranking/unranking is done on the fly (<= 63 steps)
// instead of the paper's Four-Russians tables; this preserves O(1)
// behaviour in the word-RAM sense with a fixed constant.
//
// Capacity: the interleaved 32+32 directory caps a single Rrr at 2^32-1
// bits (enforced; the pre-fast-path directory was 64-bit and unbounded, so
// this is a deliberate capacity-for-space trade). Structures needing more
// shard across instances — the append-only bitvector's chunking already
// does; the wavelet trie's single concatenated beta inherits the cap as
// its total-beta-bits limit (documented at WaveletTrie::kMaxBetaBits and
// DESIGN.md #6).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/bit_array.hpp"
#include "common/bits.hpp"
#include "storage/image.hpp"
#include "storage/vec.hpp"

namespace wt {

namespace rrr_internal {

inline constexpr size_t kBlockBits = 63;
inline constexpr size_t kBlocksPerSuper = 32;
inline constexpr size_t kSuperBits = kBlockBits * kBlocksPerSuper;

// Classes whose combinadic offset would be at least this wide are *escaped*:
// the block is stored verbatim in the offset stream (width kBlockBits), so
// decoding it is a plain load instead of a <= 63-step combinadic walk. Near
// the balanced classes C(63,k) is within a few bits of 2^63 anyway, so the
// escape costs at most kBlockBits - kMinEscapeWidth bits per dense block and
// removes the decode from the rank hot path exactly where it is slowest
// (the near-50% betas of the upper wavelet-trie levels).
inline constexpr size_t kMinEscapeWidth = 58;

// Binomial table: kBinomial[n][k] = C(n, k) for 0 <= k <= n <= 63.
// C(63, 31) ~ 9.16e17 < 2^63, so all entries fit in uint64_t.
struct BinomialTable {
  std::array<std::array<uint64_t, kBlockBits + 1>, kBlockBits + 1> c{};
};

constexpr BinomialTable MakeBinomialTable() {
  BinomialTable t{};
  for (size_t n = 0; n <= kBlockBits; ++n) {
    t.c[n][0] = 1;
    for (size_t k = 1; k <= n; ++k) {
      t.c[n][k] = t.c[n - 1][k - 1] + (k <= n - 1 ? t.c[n - 1][k] : 0);
    }
  }
  return t;
}

inline constexpr BinomialTable kBinomial = MakeBinomialTable();

// Width in bits of the offset field for each class k: ceil(log2 C(63,k)),
// bumped to kBlockBits for escaped classes. No natural width reaches
// kBlockBits (C(63,k) <= C(63,31) < 2^60), so width == kBlockBits uniquely
// identifies an escaped class.
struct OffsetWidths {
  std::array<uint8_t, kBlockBits + 1> w{};
};

constexpr OffsetWidths MakeOffsetWidths() {
  OffsetWidths ow{};
  for (size_t k = 0; k <= kBlockBits; ++k) {
    const uint64_t classes = kBinomial.c[kBlockBits][k];
    const size_t natural = CeilLog2(classes);
    ow.w[k] = static_cast<uint8_t>(natural >= kMinEscapeWidth ? kBlockBits : natural);
  }
  return ow;
}

inline constexpr OffsetWidths kOffsetWidth = MakeOffsetWidths();

constexpr bool IsEscaped(unsigned k) { return kOffsetWidth.w[k] == kBlockBits; }

// kClassScan[c] = c | (offset_width(c) << 16): one lookup-and-add per class
// accumulates both the rank prefix (low half) and the offset-stream width
// prefix (high half) of a superblock scan. Scans cover at most
// kBlocksPerSuper blocks (ScanClasses asserts it), bounding both halves by
// kBlocksPerSuper * kBlockBits = 2016 < 2^16, so the halves cannot carry
// into each other.
struct ClassScanTable {
  std::array<uint32_t, kBlockBits + 1> v{};
};

constexpr ClassScanTable MakeClassScanTable() {
  ClassScanTable t{};
  for (size_t k = 0; k <= kBlockBits; ++k) {
    t.v[k] = static_cast<uint32_t>(k) |
             (static_cast<uint32_t>(kOffsetWidth.w[k]) << 16);
  }
  return t;
}

inline constexpr ClassScanTable kClassScan = MakeClassScanTable();

/// Combinadic rank of `w` within class `r = popcount(w)`, iterating over the
/// set bits only (O(popcount) instead of a 63-step scan with a branch per
/// bit — block encoding is the hot loop of every chunk seal).
inline uint64_t EncodeBlockDirect(uint64_t w, unsigned r) {
  uint64_t off = 0;
  while (r > 0) {
    const int i = 63 - std::countl_zero(w);  // highest remaining set bit
    off += kBinomial.c[i][r];
    --r;
    w ^= uint64_t(1) << i;
  }
  return off;
}

inline uint64_t DecodeBlockDirect(uint64_t off, unsigned k) {
  uint64_t w = 0;
  unsigned r = k;
  for (int i = kBlockBits - 1; i >= 0 && r > 0; --i) {
    const uint64_t c = kBinomial.c[i][r];
    if (off >= c) {
      off -= c;
      w |= uint64_t(1) << i;
      --r;
    }
  }
  return w;
}

/// Rank of a 63-bit block `w` with popcount `k` within its offset encoding.
/// Escaped (dense) classes store the block verbatim. Otherwise the
/// combinadic rank, with near-full classes ranked through the complement
/// (C(63,k) == C(63,63-k), so complementation bijects the classes), capping
/// the work at min(k, 63-k) steps — all-ones and nearly-constant blocks,
/// the common case for run-structured betas, become nearly free.
inline uint64_t EncodeBlock(uint64_t w, unsigned k) {
  if (IsEscaped(k)) return w;
  if (2 * k > kBlockBits) {
    return EncodeBlockDirect(~w & LowMask(kBlockBits), kBlockBits - k);
  }
  return EncodeBlockDirect(w, k);
}

/// Inverse of EncodeBlock.
inline uint64_t DecodeBlock(uint64_t off, unsigned k) {
  if (IsEscaped(k)) return off;
  if (2 * k > kBlockBits) {
    return ~DecodeBlockDirect(off, kBlockBits - k) & LowMask(kBlockBits);
  }
  return DecodeBlockDirect(off, k);
}

/// Popcount of bits [0, tail) of the block encoded as (off, k), plus the bit
/// at position `tail` itself (tail < kBlockBits). Escaped blocks are a mask
/// and a popcount. Otherwise the combinadic walk places
/// (complemented-class) set bits from high positions down and stops as soon
/// as it crosses `tail`: the bits still unplaced are exactly the ones below
/// it, so no block word is ever materialized and the walk does only the
/// high-side fraction of a full decode.
inline std::pair<unsigned, bool> PrefixOnesAndBit(uint64_t off, unsigned k,
                                                  size_t tail) {
  WT_DASSERT(tail < kBlockBits);
  if (IsEscaped(k)) {
    return {static_cast<unsigned>(PopCount(off & LowMask(tail))),
            (off >> tail) & 1};
  }
  // Dense classes are stored through their complement (see EncodeBlock):
  // walk the complement's set bits and translate counts at the end.
  const bool comp = 2 * k > kBlockBits;
  unsigned r = comp ? static_cast<unsigned>(kBlockBits) - k : k;
  bool bit_dec = false;
  for (int i = kBlockBits - 1; i >= static_cast<int>(tail) && r > 0; --i) {
    const uint64_t c = kBinomial.c[i][r];
    if (off >= c) {
      off -= c;
      --r;
      if (static_cast<size_t>(i) == tail) bit_dec = true;
    }
  }
  // r decoded-class bits remain strictly below `tail`.
  const unsigned ones = comp ? static_cast<unsigned>(tail) - r : r;
  const bool bit = comp ? !bit_dec : bit_dec;
  return {ones, bit};
}

}  // namespace rrr_internal

class Rrr {
 public:
  static constexpr size_t kBlockBits = rrr_internal::kBlockBits;
  static constexpr size_t kBlocksPerSuper = rrr_internal::kBlocksPerSuper;
  static constexpr size_t kSelectSample = 4096;
  /// Hard capacity of a single Rrr: the interleaved 32+32 superblock
  /// directory addresses ranks and offset positions with 32 bits each.
  /// Construction beyond this is a clean always-on error (CheckCapacity),
  /// checked before any input word is read; callers that can outgrow it
  /// must shard (src/engine/ is the supported way to do that).
  static constexpr uint64_t kMaxBits = (uint64_t(1) << 32) - 1;

  Rrr() = default;

  explicit Rrr(const BitArray& bits) : Rrr(bits.data(), bits.size()) {}

  /// Builds from `n` bits stored LSB-first in `words` (the decomposable
  /// black-box constructor of Theorem 4.5: any word range can be compressed
  /// independently).
  Rrr(const uint64_t* words, size_t n) {
    using namespace rrr_internal;
    CheckCapacity(n);
    n_ = n;
    num_blocks_ = (n + kBlockBits - 1) / kBlockBits;
    sb_.reserve(num_blocks_ / kBlocksPerSuper + 2);
    size_t ones = 0;
    for (size_t b = 0; b < num_blocks_; ++b) {
      if (b % kBlocksPerSuper == 0) PushSuper(ones);
      const size_t begin = b * kBlockBits;
      const size_t len = std::min(kBlockBits, n - begin);
      const uint64_t w = LoadBitsBounded(words, begin, len, n);
      const unsigned k = static_cast<unsigned>(PopCount(w));
      classes_.AppendBits(k, kClassFieldBits);
      offsets_.AppendBits(EncodeBlock(w, k), kOffsetWidth.w[k]);
      ones += k;
    }
    PushSuper(ones);
    num_ones_ = ones;
    BuildSelectSamples();
    classes_.ShrinkToFit();
    offsets_.ShrinkToFit();
    sb_.shrink_to_fit();
    select1_samples_.shrink_to_fit();
    select0_samples_.shrink_to_fit();
  }

  /// Resumable construction — the paper's decomposable-RRR requirement
  /// (Theorem 4.5): "this O(n'/log n)-time work can be spread over
  /// O(n'/log n) steps, each of O(1) time". Each Step() encodes a bounded
  /// number of 63-bit blocks; the caller interleaves steps with other work
  /// (bitvector/append_only_deamortized.hpp uses one Step per Append,
  /// realizing Lemma 4.8's de-amortization). Defined after the class (it
  /// holds an Rrr member). The source words must stay alive until Take().
  class Builder;

  /// Forward cursor over Rank1/Get with a one-block decode cache; the
  /// batched trie queries walk each node's positions in sorted order, so
  /// nearby queries share the directory walk and the block decode. Declared
  /// here, defined after the class.
  class RankCursor;

  /// Forward cursor over Select1/Select0 with the same one-block cache:
  /// ascending target ranks reuse the cached block, short gaps advance with
  /// a bounded class scan, and long jumps restart through the sampled
  /// search. Declared here, defined after the class.
  class SelectCursor;

  bool Get(size_t i) const {
    WT_DASSERT(i < n_);
    return RankGet(i).second;
  }

  /// Number of 1s in [0, pos). pos may equal size().
  size_t Rank1(size_t pos) const {
    using namespace rrr_internal;
    WT_DASSERT(pos <= n_);
    if (pos == 0) return 0;
    const size_t b = pos / kBlockBits;
    const size_t tail = pos % kBlockBits;
    if (tail == 0 || b >= num_blocks_) return RankAtBlock(b);
    size_t off_pos;
    const size_t ones = RankAtBlock(b, &off_pos);
    const unsigned k = ClassOf(b);
    const uint64_t off =
        kOffsetWidth.w[k] == 0 ? 0 : offsets_.GetBits(off_pos, kOffsetWidth.w[k]);
    return ones + PrefixOnesAndBit(off, k, tail).first;
  }

  /// (Rank1(pos), Get(pos)) in one directory walk and one early-exit
  /// combinadic decode — the fused per-level operation of WaveletTrie
  /// Access. Precondition: pos < size().
  std::pair<size_t, bool> RankGet(size_t pos) const {
    using namespace rrr_internal;
    WT_DASSERT(pos < n_);
    const size_t b = pos / kBlockBits;
    const size_t tail = pos % kBlockBits;
    size_t off_pos;
    const size_t ones = RankAtBlock(b, &off_pos);
    const unsigned k = ClassOf(b);
    const uint64_t off =
        kOffsetWidth.w[k] == 0 ? 0 : offsets_.GetBits(off_pos, kOffsetWidth.w[k]);
    const auto [prefix, bit] = PrefixOnesAndBit(off, k, tail);
    return {ones + prefix, bit};
  }

  size_t Rank0(size_t pos) const { return pos - Rank1(pos); }
  size_t Rank(bool b, size_t pos) const { return b ? Rank1(pos) : Rank0(pos); }

  /// Position of the (k+1)-th 1 (0-based k). Precondition: k < num_ones().
  size_t Select1(size_t k) const {
    const BlockCtx c = LocateOne(k);
    return c.b * kBlockBits +
           SelectInWord(c.word, static_cast<unsigned>(k - c.ones_before));
  }

  /// Position of the (k+1)-th 0 (0-based k). Precondition: k < num_zeros().
  size_t Select0(size_t k) const {
    const BlockCtx c = LocateZero(k);
    return c.b * kBlockBits +
           SelectZeroInWord(
               c.word, static_cast<unsigned>(k - (c.b * kBlockBits - c.ones_before)));
  }

  size_t Select(bool b, size_t k) const { return b ? Select1(k) : Select0(k); }

  size_t size() const { return n_; }
  size_t num_ones() const { return num_ones_; }
  size_t num_zeros() const { return n_ - num_ones_; }

  /// v5 flat image: the interleaved superblock directory and both select
  /// sample arrays are persisted with the payload, so LoadImage borrows
  /// everything — no class-stream scan, no sample rebuild. Array lengths
  /// are derived from (n, num_ones, num_blocks), never read from the blob.
  void SaveImage(storage::ImageWriter& w) const {
    w.Pod<uint64_t>(n_);
    w.Pod<uint64_t>(num_ones_);
    w.Pod<uint64_t>(num_blocks_);
    classes_.SaveImage(w);
    offsets_.SaveImage(w);
    WT_DASSERT(sb_.size() == SuperCount(num_blocks_));
    WT_DASSERT(select1_samples_.size() == SampleCount(num_ones_));
    WT_DASSERT(select0_samples_.size() == SampleCount(n_ - num_ones_));
    w.Array(sb_.data(), sb_.size());
    w.Array(select1_samples_.data(), select1_samples_.size());
    w.Array(select0_samples_.data(), select0_samples_.size());
  }
  bool LoadImage(storage::ImageReader& r) {
    uint64_t n = 0, ones = 0, blocks = 0;
    if (!r.Pod(&n) || !r.Pod(&ones) || !r.Pod(&blocks)) return false;
    if (n > kMaxBits || ones > n ||
        blocks != (n + kBlockBits - 1) / kBlockBits) {
      return false;
    }
    if (!classes_.LoadImage(r) || !offsets_.LoadImage(r)) return false;
    if (classes_.size() != blocks * kClassFieldBits) return false;
    const uint64_t* sb = nullptr;
    const uint32_t* s1 = nullptr;
    const uint32_t* s0 = nullptr;
    const size_t nsb = SuperCount(blocks);
    const size_t n1 = SampleCount(ones);
    const size_t n0 = SampleCount(n - ones);
    if (!r.Array(&sb, nsb) || !r.Array(&s1, n1) || !r.Array(&s0, n0)) {
      return false;
    }
    n_ = n;
    num_ones_ = ones;
    num_blocks_ = blocks;
    sb_ = storage::Vec<uint64_t>::Borrow(sb, nsb);
    select1_samples_ = storage::Vec<uint32_t>::Borrow(s1, n1);
    select0_samples_ = storage::Vec<uint32_t>::Borrow(s0, n0);
    return true;
  }

  size_t SizeInBits() const {
    return offsets_.SizeInBits() + classes_.SizeInBits() + 64 * sb_.capacity() +
           32 * (select1_samples_.capacity() + select0_samples_.capacity());
  }

  /// Sequential bit iterator with O(1) amortized Next(); used by the
  /// Section 5 range algorithms.
  class Iterator {
   public:
    Iterator(const Rrr* rrr, size_t pos) : rrr_(rrr), pos_(pos) {
      if (pos_ < rrr_->size()) LoadBlock();
    }

    bool Next() {
      WT_DASSERT(pos_ < rrr_->size());
      const bool bit = (cur_word_ >> (pos_ % kBlockBits)) & 1;
      ++pos_;
      if (pos_ < rrr_->size() && pos_ % kBlockBits == 0) LoadBlock();
      return bit;
    }

    size_t position() const { return pos_; }

   private:
    void LoadBlock() {
      const size_t b = pos_ / kBlockBits;
      size_t off_pos;
      rrr_->RankAtBlock(b, &off_pos);  // cheap way to locate the offset
      cur_word_ = rrr_->DecodeBlockAtPos(b, off_pos);
    }

    const Rrr* rrr_;
    size_t pos_;
    uint64_t cur_word_ = 0;
  };

 private:
  // LoadBits that never reads past the end of the backing words.
  static uint64_t LoadBitsBounded(const uint64_t* words, size_t start, size_t len,
                                  size_t total_bits) {
    (void)total_bits;
    WT_DASSERT(start + len <= total_bits);
    return len == 0 ? 0 : LoadBits(words, start, len);
  }

  static void CheckCapacity(size_t n) {
    WT_ASSERT_MSG(n <= kMaxBits,
                  "Rrr: single vector capped at 2^32-1 bits (shard instead)");
  }

  /// Directory entries construction pushes for `blocks` blocks: one per
  /// started superblock plus the final sentinel (a lone sentinel when
  /// empty).
  static size_t SuperCount(size_t blocks) {
    return blocks == 0 ? 1 : (blocks - 1) / kBlocksPerSuper + 2;
  }
  static size_t SampleCount(size_t k) {
    return k == 0 ? 1 : (k + kSelectSample - 1) / kSelectSample;
  }

  size_t SbRank(size_t sb) const { return static_cast<uint32_t>(sb_[sb]); }
  size_t SbOffset(size_t sb) const { return sb_[sb] >> 32; }

  void PushSuper(size_t ones) {
    sb_.push_back(static_cast<uint64_t>(ones) |
                  (static_cast<uint64_t>(offsets_.size()) << 32));
  }

  /// Sum of kClassScan entries (classes in the low half, offset widths in
  /// the high half) over blocks [b0, b1). The halves cannot carry as long
  /// as b1 - b0 <= kBlocksPerSuper (all callers).
  uint32_t ScanClasses(size_t b0, size_t b1) const {
    using namespace rrr_internal;
    WT_DASSERT(b1 - b0 <= kBlocksPerSuper);
    const uint64_t* cw = classes_.data();
    uint32_t acc = 0;
    size_t bit = b0 * kClassFieldBits;
    for (size_t i = b0; i < b1; ++i, bit += kClassFieldBits) {
      // Inline 6-bit extraction: the word after a straddled boundary exists
      // because it holds the tail of class i itself.
      const size_t w = bit >> 6;
      const size_t o = bit & 63;
      uint64_t cls = cw[w] >> o;
      if (o > 64 - kClassFieldBits) cls |= cw[w + 1] << (64 - o);
      acc += kClassScan.v[cls & kClassMask];
    }
    return acc;
  }

  /// Ones strictly before block b; optionally reports the bit position of
  /// block b's offset field. One directory load plus a <= 31-class scan,
  /// each class folded into a single lookup-and-add on a split counter.
  size_t RankAtBlock(size_t b, size_t* off_pos_out = nullptr) const {
    const size_t sb = b / kBlocksPerSuper;
    const uint64_t hdr = sb_[sb];
    const uint32_t acc = ScanClasses(sb * kBlocksPerSuper, b);
    if (off_pos_out != nullptr) *off_pos_out = (hdr >> 32) + (acc >> 16);
    return static_cast<uint32_t>(hdr) + (acc & 0xFFFF);
  }

  void PrefetchBlockDirectory(size_t b) const {
    PrefetchRead(&sb_[b / kBlocksPerSuper]);
    PrefetchRead(classes_.data() + (b * kClassFieldBits) / kWordBits);
  }

  /// Decoded block holding the (k+1)-th target bit, with its directory
  /// context — the shared back end of Select1/Select0 and the restart path
  /// of SelectCursor.
  struct BlockCtx {
    size_t b;            // block index
    size_t off_pos;      // bit position of its offset field
    size_t ones_before;  // ones strictly before the block
    unsigned cls;        // its class (popcount)
    uint64_t word;       // the decoded 63-bit block
  };

  BlockCtx LocateOne(size_t k) const {
    using namespace rrr_internal;
    WT_DASSERT(k < num_ones_);
    const auto [wlo, whi] =
        SelectSampleWindow(select1_samples_.data(), select1_samples_.size(), k,
                           kSelectSample, sb_.size() - 1);
    const size_t sb =
        SelectSuperblock(wlo, whi, k, [&](size_t s) { return SbRank(s); });
    size_t ones = SbRank(sb);
    size_t b = sb * kBlocksPerSuper;
    size_t off_pos = SbOffset(sb);
    for (;; ++b) {
      WT_DASSERT(b < num_blocks_);
      const unsigned cls = ClassOf(b);
      if (k - ones < cls) {
        return {b, off_pos, ones, cls, DecodeBlockAtPos(b, off_pos)};
      }
      ones += cls;
      off_pos += kOffsetWidth.w[cls];
    }
  }

  BlockCtx LocateZero(size_t k) const {
    using namespace rrr_internal;
    WT_DASSERT(k < n_ - num_ones_);
    auto zeros_before = [&](size_t sb) {
      // Phantom padding of the final superblock is never selected because
      // k is bounded by the number of real zeros.
      return sb * kSuperBits - SbRank(sb);
    };
    const auto [wlo, whi] =
        SelectSampleWindow(select0_samples_.data(), select0_samples_.size(), k,
                           kSelectSample, sb_.size() - 1);
    const size_t sb = SelectSuperblock(wlo, whi, k, zeros_before);
    size_t ones = SbRank(sb);
    size_t b = sb * kBlocksPerSuper;
    size_t off_pos = SbOffset(sb);
    for (;; ++b) {
      WT_DASSERT(b < num_blocks_);
      const unsigned cls = ClassOf(b);
      const size_t block_len = std::min(kBlockBits, n_ - b * kBlockBits);
      const size_t zeros = block_len - cls;
      if (k - (b * kBlockBits - ones) < zeros) {
        return {b, off_pos, ones, cls, DecodeBlockAtPos(b, off_pos)};
      }
      ones += cls;
      off_pos += kOffsetWidth.w[cls];
    }
  }

  uint64_t DecodeBlockAtPos(size_t b, size_t off_pos) const {
    using namespace rrr_internal;
    const unsigned k = ClassOf(b);
    const unsigned width = kOffsetWidth.w[k];
    const uint64_t off = width == 0 ? 0 : offsets_.GetBits(off_pos, width);
    return DecodeBlock(off, k);
  }

  void BuildSelectSamples() {
    using namespace rrr_internal;
    select1_samples_.clear();
    for (size_t target = 0, sb = 0; target < num_ones_; target += kSelectSample) {
      while (SbRank(sb + 1) <= target) ++sb;
      select1_samples_.push_back(static_cast<uint32_t>(sb));
    }
    if (select1_samples_.empty()) select1_samples_.push_back(0);
    select0_samples_.clear();
    const size_t num_zeros = n_ - num_ones_;
    for (size_t target = 0, sb = 0; target < num_zeros; target += kSelectSample) {
      while ((sb + 1) * kSuperBits - SbRank(sb + 1) <= target) ++sb;
      select0_samples_.push_back(static_cast<uint32_t>(sb));
    }
    if (select0_samples_.empty()) select0_samples_.push_back(0);
  }

  unsigned ClassOf(size_t b) const {
    return static_cast<unsigned>(classes_.GetBits(b * kClassFieldBits, kClassFieldBits));
  }

  static constexpr size_t kClassFieldBits = 6;  // classes are in [0, 63]
  static constexpr size_t kClassMask = (size_t(1) << kClassFieldBits) - 1;

  size_t n_ = 0;
  size_t num_ones_ = 0;
  size_t num_blocks_ = 0;
  BitArray classes_;  // popcount of each 63-bit block, 6-bit packed
  BitArray offsets_;  // variable-width combinadic offsets
  // Interleaved superblock directory (+ final sentinel): low 32 bits = ones
  // before the superblock, high 32 bits = offset-stream bit position.
  storage::Vec<uint64_t> sb_;
  storage::Vec<uint32_t> select1_samples_;
  storage::Vec<uint32_t> select0_samples_;
};

class Rrr::Builder {
 public:
  Builder() = default;

  Builder(const uint64_t* words, size_t n) : words_(words) {
    CheckCapacity(n);
    out_.n_ = n;
    out_.num_blocks_ = (n + kBlockBits - 1) / kBlockBits;
    out_.sb_.reserve(out_.num_blocks_ / kBlocksPerSuper + 2);
  }

  bool done() const { return finished_; }

  /// Encodes up to `blocks` more blocks; returns true once construction is
  /// complete (the finishing bookkeeping counts as one block).
  bool Step(size_t blocks) {
    using namespace rrr_internal;
    if (finished_) return true;
    while (blocks > 0 && next_block_ < out_.num_blocks_) {
      const size_t b = next_block_;
      if (b % kBlocksPerSuper == 0) out_.PushSuper(ones_);
      const size_t begin = b * kBlockBits;
      const size_t len = std::min(kBlockBits, out_.n_ - begin);
      const uint64_t w = LoadBitsBounded(words_, begin, len, out_.n_);
      const unsigned k = static_cast<unsigned>(PopCount(w));
      out_.classes_.AppendBits(k, kClassFieldBits);
      out_.offsets_.AppendBits(EncodeBlock(w, k), kOffsetWidth.w[k]);
      ones_ += k;
      ++next_block_;
      --blocks;
    }
    if (next_block_ == out_.num_blocks_ && blocks > 0) {
      out_.PushSuper(ones_);
      out_.num_ones_ = ones_;
      out_.BuildSelectSamples();
      out_.classes_.ShrinkToFit();
      out_.offsets_.ShrinkToFit();
      finished_ = true;
    }
    return finished_;
  }

  /// The finished structure; requires done().
  Rrr Take() {
    WT_ASSERT_MSG(finished_, "Rrr::Builder: construction not finished");
    return std::move(out_);
  }

 private:
  const uint64_t* words_ = nullptr;
  size_t next_block_ = 0;
  size_t ones_ = 0;
  bool finished_ = false;
  Rrr out_;
};

/// See the declaration inside Rrr. The cache key is the block index; any
/// access pattern is correct, monotone-in-a-region patterns are fast.
class Rrr::RankCursor {
 public:
  explicit RankCursor(const Rrr* rrr) : rrr_(rrr) {}

  /// (Rank1(pos), Get(pos)); pos < size().
  std::pair<size_t, bool> RankGet(size_t pos) {
    WT_DASSERT(pos < rrr_->size());
    Seek(pos / kBlockBits);
    const size_t tail = pos % kBlockBits;
    return {ones_before_ + static_cast<size_t>(PopCount(word_ & LowMask(tail))),
            (word_ >> tail) & 1};
  }

  /// Rank1(pos); pos <= size().
  size_t Rank1(size_t pos) {
    WT_DASSERT(pos <= rrr_->size());
    const size_t b = pos / kBlockBits;
    const size_t tail = pos % kBlockBits;
    if (tail == 0 || b >= rrr_->num_blocks_) return rrr_->RankAtBlock(b);
    Seek(b);
    return ones_before_ + static_cast<size_t>(PopCount(word_ & LowMask(tail)));
  }

  /// The block index the cursor currently holds decoded (npos initially).
  size_t cached_block() const { return cached_block_; }

  /// Prefetches the directory and class-stream lines a future query at
  /// `pos` will walk (the offset stream's address is data-dependent and
  /// cannot be prefetched without the walk).
  void Prefetch(size_t pos) const {
    const size_t b = pos / kBlockBits;
    rrr_->PrefetchBlockDirectory(b);
  }

 private:
  // Short forward moves advance incrementally from the cached block (a
  // Delta-length class scan, no directory reload); longer or backward moves
  // restart from the superblock header.
  static constexpr size_t kMaxSeqAdvance = kBlocksPerSuper / 2;

  void Seek(size_t b) {
    if (b == cached_block_) return;
    if (b > cached_block_ && b - cached_block_ <= kMaxSeqAdvance &&
        cached_block_ != static_cast<size_t>(-1)) {
      const uint32_t acc = rrr_->ScanClasses(cached_block_, b);
      ones_before_ += acc & 0xFFFF;
      off_pos_ += acc >> 16;
    } else {
      ones_before_ = rrr_->RankAtBlock(b, &off_pos_);
    }
    word_ = rrr_->DecodeBlockAtPos(b, off_pos_);
    cached_block_ = b;
  }

  const Rrr* rrr_;
  size_t cached_block_ = static_cast<size_t>(-1);
  size_t ones_before_ = 0;
  size_t off_pos_ = 0;
  uint64_t word_ = 0;
};

/// See the declaration inside Rrr. Both polarities share one cached block
/// context (zeros-before derives from ones-before), so interleaved
/// Select1/Select0 streams still reuse it.
class Rrr::SelectCursor {
 public:
  explicit SelectCursor(const Rrr* rrr) : rrr_(rrr) {}

  /// Position of the (k+1)-th 1; fastest when k is non-decreasing across
  /// calls. Precondition: k < num_ones().
  size_t Select1(size_t k) {
    WT_DASSERT(k < rrr_->num_ones_);
    if (valid_ && k >= ctx_.ones_before) {
      if (k - ctx_.ones_before < ctx_.cls) {
        return ctx_.b * kBlockBits +
               SelectInWord(ctx_.word, static_cast<unsigned>(k - ctx_.ones_before));
      }
      size_t b = ctx_.b;
      size_t ones = ctx_.ones_before + ctx_.cls;
      size_t off_pos = ctx_.off_pos + rrr_internal::kOffsetWidth.w[ctx_.cls];
      for (size_t steps = 0; steps < kMaxScan && b + 1 < rrr_->num_blocks_;
           ++steps) {
        ++b;
        const unsigned cls = rrr_->ClassOf(b);
        if (k - ones < cls) {
          ctx_ = {b, off_pos, ones, cls, rrr_->DecodeBlockAtPos(b, off_pos)};
          return b * kBlockBits +
                 SelectInWord(ctx_.word, static_cast<unsigned>(k - ones));
        }
        ones += cls;
        off_pos += rrr_internal::kOffsetWidth.w[cls];
      }
    }
    ctx_ = rrr_->LocateOne(k);
    valid_ = true;
    return ctx_.b * kBlockBits +
           SelectInWord(ctx_.word, static_cast<unsigned>(k - ctx_.ones_before));
  }

  /// Position of the (k+1)-th 0; fastest when k is non-decreasing across
  /// calls. Precondition: k < num_zeros().
  size_t Select0(size_t k) {
    WT_DASSERT(k < rrr_->num_zeros());
    if (valid_) {
      const size_t zeros_before = ctx_.b * kBlockBits - ctx_.ones_before;
      const size_t block_len =
          std::min(kBlockBits, rrr_->n_ - ctx_.b * kBlockBits);
      if (k >= zeros_before) {
        if (k - zeros_before < block_len - ctx_.cls) {
          return ctx_.b * kBlockBits +
                 SelectZeroInWord(ctx_.word,
                                  static_cast<unsigned>(k - zeros_before));
        }
        size_t b = ctx_.b;
        size_t ones = ctx_.ones_before + ctx_.cls;
        size_t off_pos = ctx_.off_pos + rrr_internal::kOffsetWidth.w[ctx_.cls];
        for (size_t steps = 0; steps < kMaxScan && b + 1 < rrr_->num_blocks_;
             ++steps) {
          ++b;
          const unsigned cls = rrr_->ClassOf(b);
          const size_t zb = b * kBlockBits - ones;
          const size_t len = std::min(kBlockBits, rrr_->n_ - b * kBlockBits);
          if (k - zb < len - cls) {
            ctx_ = {b, off_pos, ones, cls, rrr_->DecodeBlockAtPos(b, off_pos)};
            return b * kBlockBits +
                   SelectZeroInWord(ctx_.word, static_cast<unsigned>(k - zb));
          }
          ones += cls;
          off_pos += rrr_internal::kOffsetWidth.w[cls];
        }
      }
    }
    ctx_ = rrr_->LocateZero(k);
    valid_ = true;
    return ctx_.b * kBlockBits +
           SelectZeroInWord(ctx_.word,
                            static_cast<unsigned>(
                                k - (ctx_.b * kBlockBits - ctx_.ones_before)));
  }

 private:
  static constexpr size_t kMaxScan = kBlocksPerSuper;

  const Rrr* rrr_;
  Rrr::BlockCtx ctx_{};
  bool valid_ = false;
};

}  // namespace wt
