// Plain (uncompressed) bitvector with constant-time Rank and sampled Select.
//
// This is the baseline Fully Indexable Dictionary (FID) of Section 2 of the
// paper; the FM-index (text/) and the balanced wavelet tree build on it.
//
// Layout (rank9-style two-level directory): 512-bit superblocks with an
// absolute 64-bit rank counter each, plus one packed 64-bit word per
// superblock holding the seven 9-bit cumulative popcounts of the words
// inside it — Rank1 is two directory loads, one data load and a popcount,
// with no word scan. Select narrows to a superblock with position samples
// every kSelectSample-th 1 (and 0) plus a bounded binary search, locates
// the word from the same packed counts, and finishes with the pdep-based
// in-word select (common/bits.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/bit_array.hpp"
#include "common/bits.hpp"
#include "storage/vec.hpp"

namespace wt {

class BitVector {
 public:
  static constexpr size_t kSuperBits = 512;
  static constexpr size_t kWordsPerSuper = kSuperBits / kWordBits;
  static constexpr size_t kSelectSample = 4096;

  BitVector() = default;

  explicit BitVector(BitArray bits) : bits_(std::move(bits)) { Build(); }

  bool Get(size_t i) const { return bits_.Get(i); }

  /// Number of 1s in [0, pos). pos may equal size(). O(1): no word scan —
  /// the per-word cumulative count comes from the packed block directory.
  size_t Rank1(size_t pos) const {
    WT_DASSERT(pos <= bits_.size());
    const size_t sb = pos / kSuperBits;
    const size_t word = pos / kWordBits;
    const size_t widx = word & (kWordsPerSuper - 1);
    size_t cnt = super_[sb];
    if (widx != 0) cnt += (block_[sb] >> (9 * (widx - 1))) & 511;
    const size_t tail = pos & (kWordBits - 1);
    if (tail != 0) cnt += PopCount(bits_.data()[word] & LowMask(tail));
    return cnt;
  }

  size_t Rank0(size_t pos) const { return pos - Rank1(pos); }
  size_t Rank(bool b, size_t pos) const { return b ? Rank1(pos) : Rank0(pos); }

  /// Position of the (k+1)-th 1 (k is 0-based). Precondition: k < num_ones().
  size_t Select1(size_t k) const {
    WT_DASSERT(k < num_ones_);
    const auto [lo, hi] =
        SelectSampleWindow(select1_samples_.data(), select1_samples_.size(), k,
                           kSelectSample, super_.size() - 1);
    const size_t sb =
        SelectSuperblock(lo, hi, k, [&](size_t s) { return super_[s]; });
    size_t remaining = k - super_[sb];
    // Locate the word inside the superblock from the packed prefix counts
    // (non-decreasing; entries for words past the end of the bitvector hold
    // the superblock total, which `remaining` is strictly below).
    const uint64_t packed = block_[sb];
    size_t widx = 0;
    while (widx < kWordsPerSuper - 1 &&
           ((packed >> (9 * widx)) & 511) <= remaining) {
      ++widx;
    }
    if (widx != 0) remaining -= (packed >> (9 * (widx - 1))) & 511;
    const size_t word = sb * kWordsPerSuper + widx;
    WT_DASSERT(word < WordsFor(bits_.size()));
    return word * kWordBits +
           SelectInWord(bits_.data()[word], static_cast<unsigned>(remaining));
  }

  /// Position of the (k+1)-th 0 (k is 0-based). Precondition: k < num_zeros().
  size_t Select0(size_t k) const {
    WT_DASSERT(k < bits_.size() - num_ones_);
    auto zeros_before = [&](size_t sb) { return sb * kSuperBits - super_[sb]; };
    const auto [lo, hi] =
        SelectSampleWindow(select0_samples_.data(), select0_samples_.size(), k,
                           kSelectSample, super_.size() - 1);
    const size_t sb = SelectSuperblock(lo, hi, k, zeros_before);
    size_t remaining = k - zeros_before(sb);
    // Zero-prefix of word j inside the superblock = 64*j - one-prefix.
    // Entries for words past the end never win: their zero-prefix is at
    // least the superblock's real zero count, which bounds `remaining`.
    const uint64_t packed = block_[sb];
    size_t widx = 0;
    while (widx < kWordsPerSuper - 1 &&
           kWordBits * (widx + 1) - ((packed >> (9 * widx)) & 511) <= remaining) {
      ++widx;
    }
    if (widx != 0) {
      remaining -= kWordBits * widx - ((packed >> (9 * (widx - 1))) & 511);
    }
    const size_t word = sb * kWordsPerSuper + widx;
    WT_DASSERT(word < WordsFor(bits_.size()));
    return word * kWordBits +
           SelectZeroInWord(bits_.data()[word], static_cast<unsigned>(remaining));
  }

  size_t Select(bool b, size_t k) const { return b ? Select1(k) : Select0(k); }

  size_t size() const { return bits_.size(); }
  size_t num_ones() const { return num_ones_; }
  size_t num_zeros() const { return bits_.size() - num_ones_; }
  const BitArray& bits() const { return bits_; }

  size_t SizeInBits() const {
    return bits_.SizeInBits() + 64 * (super_.capacity() + block_.capacity()) +
           32 * (select1_samples_.capacity() + select0_samples_.capacity());
  }

 private:
  void Build() {
    const size_t n = bits_.size();
    const size_t num_super = n / kSuperBits + 1;
    super_.resize(num_super + 1);
    block_.assign(num_super + 1, 0);
    const uint64_t* w = bits_.data();
    const size_t nwords = WordsFor(n);
    size_t ones = 0;
    for (size_t sb = 0; sb <= num_super; ++sb) {
      super_[sb] = ones;
      if (sb == num_super) break;
      uint64_t packed = 0;
      size_t in_super = 0;
      for (size_t j = 0; j < kWordsPerSuper; ++j) {
        const size_t i = sb * kWordsPerSuper + j;
        if (i < nwords) in_super += static_cast<size_t>(PopCount(w[i]));
        // Cumulative count through word j, stored for words 1..7; trailing
        // entries of a partial superblock repeat the total so Select's word
        // search never walks past the last real word.
        if (j + 1 < kWordsPerSuper) {
          packed |= static_cast<uint64_t>(in_super) << (9 * j);
        }
      }
      block_[sb] = packed;
      ones += in_super;
    }
    num_ones_ = ones;
    // select1_samples_[j] = superblock containing the (j*kSelectSample)-th 1.
    select1_samples_.clear();
    for (size_t target = 0, sb = 0; target < num_ones_; target += kSelectSample) {
      while (super_[sb + 1] <= target) ++sb;
      select1_samples_.push_back(static_cast<uint32_t>(sb));
    }
    if (select1_samples_.empty()) select1_samples_.push_back(0);
    // Same for 0s; zeros before superblock sb is sb*kSuperBits - super_[sb]
    // (the phantom padding of the final superblock is never reached because
    // Select0's argument is bounded by the number of real zeros).
    select0_samples_.clear();
    const size_t num_zeros = n - num_ones_;
    for (size_t target = 0, sb = 0; target < num_zeros; target += kSelectSample) {
      while ((sb + 1) * kSuperBits - super_[sb + 1] <= target) ++sb;
      select0_samples_.push_back(static_cast<uint32_t>(sb));
    }
    if (select0_samples_.empty()) select0_samples_.push_back(0);
    super_.shrink_to_fit();
    block_.shrink_to_fit();
    select1_samples_.shrink_to_fit();
    select0_samples_.shrink_to_fit();
    // The moved-in bits may carry append-growth slack; dropping it makes a
    // built BitVector byte-for-byte the same footprint as a reloaded one
    // (the storage differential tests assert SizeInBits equality).
    bits_.ShrinkToFit();
  }

  BitArray bits_;
  storage::Vec<uint64_t> super_;  // absolute rank per superblock (+ sentinel)
  storage::Vec<uint64_t> block_;  // 7 packed 9-bit per-word cumulative counts
  storage::Vec<uint32_t> select1_samples_;
  storage::Vec<uint32_t> select0_samples_;
  size_t num_ones_ = 0;
};

}  // namespace wt
