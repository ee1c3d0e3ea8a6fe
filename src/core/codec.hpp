// Codecs: binarization of application values into prefix-free binary
// strings (paper Section 2, "strings from larger alphabets can be binarized",
// and Section 6's randomized mapping).
//
// The Wavelet Trie requires the *set* of encoded strings to be prefix-free.
// Each codec here guarantees that by construction:
//
//   ByteCodec      — any byte string; each byte becomes a 0-flagged 9-bit
//                    group (0 then the 8 data bits MSB-first), terminated by
//                    a lone 1 bit. EncodePrefix omits the terminator, and is
//                    a bit-prefix of Encode(s) exactly when p is a byte
//                    prefix of s — which is what RankPrefix/SelectPrefix
//                    need.
//   RawByteCodec   — 8 bits per byte plus a 0x00 terminator byte; more
//                    compact, requires NUL-free input.
//   FixedIntCodec  — integers as fixed-width MSB-first strings (all the same
//                    length, hence prefix-free); the resulting Wavelet Trie
//                    is exactly the classic balanced Wavelet Tree.
//   HashedIntCodec — Section 6: x -> a*x mod 2^width with a random odd
//                    multiplier, written MSB-first (see the class comment
//                    for why the paper's LSB order is corrected); the trie
//                    on the hashes is balanced w.h.p. (Lemma 6.1 intent).
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/assert.hpp"
#include "common/bit_string.hpp"
#include "common/bits.hpp"
#include "common/serialize.hpp"

namespace wt {

// Each codec carries a stable one-byte id, recorded in the image header by
// api/sequence.hpp so a Load into the wrong instantiation fails cleanly
// instead of decoding garbage. Stateful codecs additionally expose
// SaveState/LoadState; stateless ones have nothing to persist. LoadState
// parses untrusted bytes: it returns false on a short read or an invalid
// state and leaves the codec unchanged.

class ByteCodec {
 public:
  using Value = std::string;
  static constexpr uint8_t kCodecId = 1;

  static BitString Encode(std::string_view s) {
    BitString out = EncodePrefix(s);
    out.PushBack(true);  // terminator
    return out;
  }

  /// Encoding of a *prefix* query: no terminator, so byte-prefix relations
  /// are preserved as bit-prefix relations. Word-parallel: each byte is one
  /// 9-bit append (flag + mirrored byte) instead of nine PushBacks.
  static BitString EncodePrefix(std::string_view p) {
    BitString out;
    for (unsigned char c : p) {
      out.AppendBits(ReverseBits(c, 8) << 1, 9);
    }
    return out;
  }

  static std::string Decode(BitSpan bits) {
    std::string out;
    out.reserve(bits.size() / 9);
    size_t i = 0;
    // Word-parallel fast path: one 63-bit load covers seven 9-bit groups.
    // Their flag bits sit at positions 0, 9, ..., 54 of the load; all-zero
    // flags mean seven full data groups, otherwise the lowest set flag is
    // the terminator (intermediate flags are 0 by construction) and only
    // the groups below it carry data. The 56 data bits are extracted in one
    // pext (or a short shift loop without BMI2) and un-mirrored lane-wise.
    constexpr uint64_t kFlagMask = 0x0040201008040201ull;  // bits 9j, j<7
    while (i + 63 <= bits.size()) {
      const uint64_t w = bits.GetBits(i, 63);
      const uint64_t flags = w & kFlagMask;
      const size_t groups =
          flags == 0 ? 7 : static_cast<size_t>(std::countr_zero(flags)) / 9;
      if (groups > 0) {
#if defined(__BMI2__)
        constexpr uint64_t kDataMask = 0x7FFFFFFFFFFFFFFFull & ~kFlagMask;
        uint64_t data = _pext_u64(w, kDataMask);
#else
        uint64_t data = 0;
        for (size_t j = 0; j < groups; ++j) {
          data |= ((w >> (9 * j + 1)) & 0xFF) << (8 * j);
        }
#endif
        data = ReverseBitsInBytes(data);  // byte lane j = group j's byte
        for (size_t j = 0; j < groups; ++j) {
          out.push_back(static_cast<char>(data >> (8 * j)));
        }
        i += groups * 9;
      }
      if (flags != 0) return out;  // the terminator follows the last group
    }
    // Tail (and oddly-short strings): the per-group reference loop.
    for (;;) {
      WT_ASSERT_MSG(i < bits.size(), "ByteCodec: truncated encoding");
      if (bits.Get(i)) return out;  // terminator
      WT_ASSERT_MSG(i + 9 <= bits.size(), "ByteCodec: truncated group");
      out.push_back(static_cast<char>(ReverseBits(bits.GetBits(i + 1, 8), 8)));
      i += 9;
    }
  }
};

class RawByteCodec {
 public:
  using Value = std::string;
  static constexpr uint8_t kCodecId = 2;

  static BitString Encode(std::string_view s) {
    BitString out = EncodePrefix(s);
    out.AppendBits(0, 8);  // 0x00 terminator
    return out;
  }

  static BitString EncodePrefix(std::string_view p) {
    BitString out;
    for (unsigned char c : p) {
      WT_ASSERT_MSG(c != 0, "RawByteCodec: NUL bytes not supported");
      out.AppendBits(ReverseBits(c, 8), 8);
    }
    return out;
  }

  static std::string Decode(BitSpan bits) {
    WT_ASSERT_MSG(bits.size() % 8 == 0, "RawByteCodec: misaligned encoding");
    std::string out;
    for (size_t i = 0; i + 8 <= bits.size(); i += 8) {
      const unsigned char c =
          static_cast<unsigned char>(ReverseBits(bits.GetBits(i, 8), 8));
      if (c == 0) return out;
      out.push_back(static_cast<char>(c));
    }
    WT_ASSERT_MSG(false, "RawByteCodec: missing terminator");
    return out;
  }
};

/// Fixed-width MSB-first integer binarization. Lexicographic bit order
/// equals numeric order, and the induced Wavelet Trie is the classic
/// balanced Wavelet Tree on {0, ..., 2^width - 1}.
class FixedIntCodec {
 public:
  using Value = uint64_t;
  static constexpr uint8_t kCodecId = 3;

  explicit FixedIntCodec(unsigned width = 64) : width_(width) {
    WT_ASSERT(width >= 1 && width <= 64);
  }

  void SaveState(std::ostream& out) const { WritePod<uint32_t>(out, width_); }
  bool LoadState(std::istream& in) {
    uint32_t width = 0;
    if (!TryReadPod(in, &width) || width < 1 || width > 64) return false;
    width_ = width;
    return true;
  }

  BitString Encode(uint64_t x) const {
    WT_DASSERT(width_ == 64 || x < (uint64_t(1) << width_));
    BitString out;
    out.AppendBits(ReverseBits(x, width_), width_);  // MSB first
    return out;
  }

  uint64_t Decode(BitSpan bits) const {
    WT_ASSERT(bits.size() == width_);
    return ReverseBits(bits.GetBits(0, width_), width_);
  }

  unsigned width() const { return width_; }

 private:
  unsigned width_;
};

/// Section 6 randomized codec: h_a(x) = a*x mod 2^width with a random odd
/// multiplier a, written *MSB-first*.
///
/// Reproduction note: the paper writes the hash "LSB-to-MSB", but for any
/// odd a the low bits of a multiplicative hash are deterministic —
/// a(x-y) = 0 mod 2^l iff x = y mod 2^l — so an LSB-first trie cannot be
/// balanced by the choice of a (an alphabet {2^k - 1} stays a chain;
/// bench_balanced_wtree demonstrates it). The Dietzfelbinger et al. lemma
/// the paper cites is about the *high* bits of ax (multiply-shift
/// universality), which is what MSB-first order uses; with it the trie
/// height is O(log |Sigma|) w.h.p. as Theorem 6.2 claims.
class HashedIntCodec {
 public:
  using Value = uint64_t;
  static constexpr uint8_t kCodecId = 4;

  explicit HashedIntCodec(unsigned width = 64, uint64_t seed = 0x9E3779B97F4A7C15ull)
      : width_(width) {
    WT_ASSERT(width >= 1 && width <= 64);
    // Full-entropy odd multiplier derived from the seed (splitmix64 finalizer).
    a_ = Mix(seed) | 1;
    a_inv_ = InverseOdd(a_);
  }

  /// Persists the multiplier itself (not the seed): a reload must decode
  /// codes produced by this exact instance.
  void SaveState(std::ostream& out) const {
    WritePod<uint32_t>(out, width_);
    WritePod<uint64_t>(out, a_);
  }
  bool LoadState(std::istream& in) {
    uint32_t width = 0;
    uint64_t a = 0;
    if (!TryReadPod(in, &width) || width < 1 || width > 64 ||
        !TryReadPod(in, &a) || (a & 1) == 0) {
      return false;
    }
    width_ = width;
    a_ = a;
    a_inv_ = InverseOdd(a_);
    return true;
  }

  BitString Encode(uint64_t x) const {
    WT_DASSERT(width_ == 64 || x < (uint64_t(1) << width_));
    const uint64_t h = (a_ * x) & Mask();
    BitString out;
    out.AppendBits(ReverseBits(h, width_), width_);  // MSB first
    return out;
  }

  uint64_t Decode(BitSpan bits) const {
    WT_ASSERT(bits.size() == width_);
    const uint64_t h = ReverseBits(bits.GetBits(0, width_), width_);
    return (a_inv_ * h) & Mask();
  }

  unsigned width() const { return width_; }
  uint64_t multiplier() const { return a_; }

 private:
  uint64_t Mask() const { return width_ >= 64 ? ~uint64_t(0) : (uint64_t(1) << width_) - 1; }

  static uint64_t Mix(uint64_t z) {
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // Inverse of an odd number mod 2^64 by Newton iteration.
  static uint64_t InverseOdd(uint64_t a) {
    uint64_t x = a;  // correct to 3 bits
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
  }

  unsigned width_;
  uint64_t a_;
  uint64_t a_inv_;
};

}  // namespace wt
