// Elias--Fano encoding of a monotone non-decreasing integer sequence.
//
// This plays the role of the "partial sum structure of [22]" in the paper:
// it delimits the concatenated node labels L and the concatenated RRR node
// bitvectors of the static Wavelet Trie. Access(i) is O(1) via Select1 on the
// upper-bits bitvector.
//
// Space: n * (2 + ceil(log2(u/n))) + o(n) bits for n values in [0, u].
#pragma once

#include <cstdint>
#include <vector>

#include "bitvector/bit_vector.hpp"
#include "common/assert.hpp"
#include "common/bits.hpp"
#include "storage/image.hpp"

namespace wt {

class EliasFano {
 public:
  EliasFano() = default;

  /// Encodes `values`, which must be non-decreasing; `universe` must be an
  /// upper bound on the last value.
  EliasFano(const std::vector<uint64_t>& values, uint64_t universe) {
    n_ = values.size();
    universe_ = universe;
    // An empty sequence still builds its (empty) high bitvector, so a
    // constructed EliasFano is indistinguishable from a reloaded one — the
    // flat image format relies on the directory arrays always having their
    // built-for-n shapes (DESIGN.md #8).
    BitArray high;
    if (n_ > 0) {
      WT_ASSERT_MSG(values.back() <= universe, "EliasFano: universe too small");
      low_bits_ = (universe / n_ >= 2) ? CeilLog2(universe / n_) : 0;
      uint64_t prev = 0;
      uint64_t prev_high = 0;
      for (size_t i = 0; i < n_; ++i) {
        const uint64_t v = values[i];
        WT_ASSERT_MSG(v >= prev, "EliasFano: sequence not monotone");
        prev = v;
        if (low_bits_ > 0) low_.AppendBits(v & LowMask(low_bits_), low_bits_);
        const uint64_t h = v >> low_bits_;
        high.AppendRun(false, h - prev_high);
        high.PushBack(true);
        prev_high = h;
      }
    }
    high_ = BitVector(std::move(high));
    low_.ShrinkToFit();  // footprint parity with a reloaded instance
  }

  /// The i-th value (0-based).
  uint64_t Access(size_t i) const {
    WT_DASSERT(i < n_);
    const uint64_t h = high_.Select1(i) - i;
    const uint64_t l =
        low_bits_ == 0 ? 0 : low_.GetBits(i * low_bits_, low_bits_);
    return (h << low_bits_) | l;
  }

  /// Convenience for delimiter use: the pair (start, end) of segment i when
  /// the sequence stores cumulative lengths with a leading implicit 0 — i.e.
  /// values[i] = end of segment i.
  uint64_t SegmentStart(size_t i) const { return i == 0 ? 0 : Access(i - 1); }
  uint64_t SegmentEnd(size_t i) const { return Access(i); }

  size_t size() const { return n_; }
  uint64_t universe() const { return universe_; }

  /// v4 flat image (DESIGN.md #8): both component bitvectors persist their
  /// directories, so nothing is rebuilt on load.
  void SaveImage(storage::ImageWriter& w) const {
    w.Pod<uint64_t>(n_);
    w.Pod<uint64_t>(universe_);
    w.Pod<uint32_t>(low_bits_);
    high_.SaveImage(w);
    low_.SaveImage(w);
  }
  bool LoadImage(storage::ImageReader& r) {
    uint64_t n = 0, universe = 0;
    uint32_t low_bits = 0;
    if (!r.Pod(&n) || !r.Pod(&universe) || !r.Pod(&low_bits)) return false;
    if (low_bits > 64) return false;
    if (!high_.LoadImage(r) || !low_.LoadImage(r)) return false;
    // Access(i) selects the i-th high one and reads i*low_bits low bits.
    if (high_.num_ones() != n || low_.size() != n * uint64_t(low_bits)) {
      return false;
    }
    n_ = n;
    universe_ = universe;
    low_bits_ = low_bits;
    return true;
  }

  size_t SizeInBits() const {
    return high_.SizeInBits() + low_.SizeInBits();
  }

 private:
  size_t n_ = 0;
  uint64_t universe_ = 0;
  unsigned low_bits_ = 0;
  BitVector high_;
  BitArray low_;
};

}  // namespace wt
