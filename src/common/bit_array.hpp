// BitArray: a growable, random-access sequence of bits.
//
// This is the raw storage type every bitvector in the library is built from.
// It deliberately has no rank/select support; see bitvector/ for indexed
// structures. The word storage goes through storage::Vec, so a BitArray can
// borrow its words straight out of a mapped v5 image (DESIGN.md #8);
// borrowed arrays are read-only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "storage/image.hpp"
#include "storage/vec.hpp"

namespace wt {

class BitArray {
 public:
  BitArray() = default;

  /// Constructs an array of `n` copies of `bit`.
  BitArray(size_t n, bool bit) : size_(n) {
    words_.assign(WordsFor(n), bit ? ~uint64_t(0) : 0);
    TrimLastWord();
  }

  /// Appends a single bit.
  void PushBack(bool bit) {
    const size_t w = size_ >> 6;
    if (w == words_.size()) words_.push_back(0);
    if (bit) words_[w] |= uint64_t(1) << (size_ & 63);
    ++size_;
  }

  /// Appends the low `len` (<= 64) bits of `value`, LSB first.
  void AppendBits(uint64_t value, size_t len) {
    WT_DASSERT(len <= 64);
    Reserve(size_ + len);
    StoreBits(words_.mutable_data(), size_, len, value);
    size_ += len;
  }

  /// Appends `len` bits read from `src` starting at absolute bit `start`.
  /// Word-parallel: when both ends are word-aligned the copy is a plain
  /// word-array copy; otherwise it proceeds in 64-bit loads/stores.
  /// Precondition: the source words covering [start, start+len) exist.
  void AppendWords(const uint64_t* src, size_t start, size_t len) {
    Reserve(size_ + len);
    if ((size_ & 63) == 0 && (start & 63) == 0) {
      const uint64_t* from = src + (start >> 6);
      std::copy(from, from + WordsFor(len), words_.mutable_data() + (size_ >> 6));
      size_ += len;
      TrimLastWord();
      return;
    }
    size_t i = 0;
    while (i < len) {
      const size_t chunk = std::min<size_t>(64, len - i);
      StoreBits(words_.mutable_data(), size_ + i, chunk, LoadBits(src, start + i, chunk));
      i += chunk;
    }
    size_ += len;
  }

  /// Appends `len` bits read from `other` starting at bit `start`.
  void AppendRange(const BitArray& other, size_t start, size_t len) {
    WT_DASSERT(start + len <= other.size_);
    AppendWords(other.words_.data(), start, len);
  }

  /// Appends `n` copies of `bit`.
  void AppendRun(bool bit, size_t n) {
    Reserve(size_ + n);
    const uint64_t fill = bit ? ~uint64_t(0) : 0;
    size_t i = 0;
    while (i < n) {
      const size_t chunk = std::min<size_t>(64, n - i);
      StoreBits(words_.mutable_data(), size_ + i, chunk, fill);
      i += chunk;
    }
    size_ += n;
  }

  bool Get(size_t i) const {
    WT_DASSERT(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(size_t i, bool bit) {
    WT_DASSERT(i < size_);
    if (bit)
      words_[i >> 6] |= uint64_t(1) << (i & 63);
    else
      words_[i >> 6] &= ~(uint64_t(1) << (i & 63));
  }

  /// Reads `len` (<= 64) bits starting at `start`.
  uint64_t GetBits(size_t start, size_t len) const {
    WT_DASSERT(start + len <= size_);
    if (len == 0) return 0;
    return LoadBits(words_.data(), start, len);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint64_t* data() const { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  void Clear() {
    words_.clear();
    size_ = 0;
  }

  /// Drops trailing bits so that exactly `n` (<= size()) remain.
  void Truncate(size_t n) {
    WT_DASSERT(n <= size_);
    size_ = n;
    words_.resize(WordsFor(n));
    TrimLastWord();
  }

  /// Heap footprint in bits (capacity-based; excludes the struct itself).
  /// Library convention: SizeInBits() counts heap memory only, and owners
  /// add 8*sizeof(Node) for structs they allocate.
  size_t SizeInBits() const { return words_.capacity() * kWordBits; }

  /// Releases slack capacity; call once a structure becomes static.
  void ShrinkToFit() { words_.shrink_to_fit(); }

  /// v5 flat image: the words are persisted verbatim and borrowed back on
  /// load — zero copies, no rebuild (DESIGN.md #8).
  void SaveImage(storage::ImageWriter& w) const {
    w.Pod<uint64_t>(size_);
    w.Array(words_.data(), words_.size());
  }
  bool LoadImage(storage::ImageReader& r) {
    uint64_t n = 0;
    if (!r.Pod(&n)) return false;
    // Reject bit counts whose word count would wrap WordsFor's +63 (a
    // forged n near 2^64 must not alias an empty array) — the Array
    // bounds check below then caps n at 64x the section size.
    if (n > UINT64_MAX - 63) return false;
    const uint64_t* words = nullptr;
    if (!r.Array(&words, WordsFor(n))) return false;
    size_ = n;
    words_ = storage::Vec<uint64_t>::Borrow(words, WordsFor(n));
    return true;
  }

  friend bool operator==(const BitArray& a, const BitArray& b) {
    if (a.size_ != b.size_) return false;
    return a.words_ == b.words_;
  }

 private:
  void Reserve(size_t bits) {
    const size_t need = WordsFor(bits);
    if (need <= words_.size()) return;
    // Grow geometrically: vector::resize alone reallocates to exactly `need`,
    // which would make repeated word appends quadratic.
    if (need > words_.capacity()) {
      words_.reserve(std::max(need, words_.capacity() * 2));
    }
    words_.resize(need, 0);
  }

  // Keeps bits beyond size_ zero so that operator== and word reads are clean.
  void TrimLastWord() {
    const size_t tail = size_ & 63;
    if (tail != 0 && !words_.empty()) words_.back() &= LowMask(tail);
  }

  storage::Vec<uint64_t> words_;
  size_t size_ = 0;
};

}  // namespace wt
