// Flat image format v5 — the library's one persistence format for static
// structures (DESIGN.md #8): engine segments and Sequence::Save both write
// it.
//
// A v5 image is ONE relocatable blob holding a frozen structure with *all*
// derived state persisted — RRR interleaved superblocks and select
// samples, the trie's packed node directory, codec state, encoded-bits
// budget — at offset-addressed, 8-byte-aligned positions. Nothing is
// rebuilt on open: the structure borrows (storage/vec.hpp) straight into
// the blob, so a segment is query-ready the instant its bytes are visible
// (mmap) and the OS page cache is the buffer pool.
//
// Layout (all offsets relative to the blob start, which must be 8-aligned):
//
//   [ImageHeader 56B][SectionEntry × section_count][section bodies ...]
//
// Each section body starts 8-aligned and holds scalars (raw PODs, packed)
// followed by arrays (each padded to the next 8-byte boundary). The header
// carries a fast word-at-a-time FNV hash of every byte of the image except
// the hash field itself, so any byte flip or truncation is a clean error at
// open (VerifyMode::kFull, the default) — never an abort or an OOB read.
// Section offsets/sizes are bounds-checked against the blob regardless of
// verification mode, and every Pod/Array read is bounds-checked against its
// section, so even a forged table cannot read out of bounds. Content
// *within* a verified image is trusted by the query paths (the hash is an
// integrity check, not authentication); VerifyMode::kNone (for datasets
// larger than RAM, where the verification pass would fault every page)
// extends that trust to the whole file and is only for storage you
// control.
//
// Version policy: v5 is the only version read or written. The magic's
// first seven bytes ("!WTIMGv") mark an image of any version, so a v4 file
// (flat 16-byte node headers, section tag 8) or a future one is a clean
// kBadVersion, and any other file a clean kBadMagic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace wt::storage {

inline constexpr uint64_t kImageMagic = 0x3576474D49545721ull;  // "!WTIMGv5"
inline constexpr uint32_t kImageVersion = 5;
inline constexpr uint32_t kMaxSections = 64;

/// True for the magic of an image of any version: all but its last byte,
/// the version digit, must match.
inline constexpr bool IsImageMagic(uint64_t magic) {
  return ((magic ^ kImageMagic) << 8) == 0;
}

/// Section tags of the static wavelet-trie image (wt_inspect prints them).
/// Retired tags must not be reused, since readers find sections by tag:
/// 3, 5 and 7 (a succinct shape and two Elias–Fano delimiters) and 8 (the
/// v4 flat 16-byte node headers, replaced by kSecDirectory).
enum SectionTag : uint32_t {
  kSecCodecState = 1,  // opaque codec SaveState bytes
  kSecTrie = 2,        // WaveletTrie scalars (n)
  kSecLabels = 4,      // concatenated labels BitArray
  kSecBeta = 6,        // global RRR (classes, offsets, superblocks, samples)
  kSecDirectory = 9,   // the packed node directory: DirectoryHeader + arrays
};

inline const char* SectionTagName(uint32_t tag) {
  switch (tag) {
    case kSecCodecState: return "codec-state";
    case kSecTrie: return "trie-meta";
    case kSecLabels: return "labels";
    case kSecBeta: return "beta-rrr";
    case kSecDirectory: return "node-directory";
  }
  return "unknown";
}

/// The scalars that open a kSecDirectory section (DESIGN.md #6): node and
/// field counts and the four field widths the builder picked for this
/// trie. Two word arrays follow: the label ends, PackedWords(label_ends +
/// 1, label_end_bits) words since a zero field (the root label's start)
/// precedes them, then the records, PackedWords(records, k_bits +
/// beta_start_bits + ones_start_bits) words.
struct DirectoryHeader {
  uint64_t nodes = 0;       // preorder nodes: 2d - 1 for d distinct strings
  uint64_t label_ends = 0;  // label-end fields, one per node
  uint64_t records = 0;     // records, one per internal node: (nodes - 1) / 2
  uint32_t label_end_bits = 0;  // the four field widths, each <= 32
  uint32_t k_bits = 0;
  uint32_t beta_start_bits = 0;
  uint32_t ones_start_bits = 0;
};
static_assert(sizeof(DirectoryHeader) == 40);

/// Words holding `count` fields of `width` bits plus two words of padding,
/// so that a 64-bit window at any field start reads inside the array.
inline constexpr uint64_t PackedWords(uint64_t count, uint64_t width) {
  return (count * width + 63) / 64 + 2;
}

struct ImageHeader {
  uint64_t magic = kImageMagic;
  uint32_t version = kImageVersion;
  uint32_t codec_id = 0;
  uint64_t total_bytes = 0;   // exact image size; must equal the blob size
  uint64_t n = 0;             // stored strings
  uint64_t encoded_bits = 0;  // capacity budget consumed (Sequence accounting)
  uint32_t section_count = 0;
  uint32_t reserved = 0;
  uint64_t body_hash = 0;  // ImageHash over the image minus this field
};
static_assert(sizeof(ImageHeader) == 56);

struct SectionEntry {
  uint32_t tag = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;  // from blob start; 8-aligned
  uint64_t bytes = 0;
};
static_assert(sizeof(SectionEntry) == 24);

/// Word-parallel FNV-1a variant: four independent lanes over 32-byte
/// strides (the multiply latency of a single FNV chain caps it near
/// 2.5 GB/s; four lanes pipeline to memory bandwidth), folded into one
/// 64-bit digest. The tail (< 32 bytes) runs word-at-a-time on lane 0 with
/// the residual length folded in, making the chained two-range use below
/// unambiguous.
inline uint64_t ImageHash(uint64_t h, const void* data, size_t len) {
  constexpr uint64_t kPrime = 0x100000001B3ull;
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t lane[4] = {h, h ^ 0x9E3779B97F4A7C15ull, h ^ 0xC2B2AE3D27D4EB4Full,
                      h ^ 0x165667B19E3779F9ull};
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    uint64_t w[4];
    std::memcpy(w, p + i, 32);
    lane[0] = (lane[0] ^ w[0]) * kPrime;
    lane[1] = (lane[1] ^ w[1]) * kPrime;
    lane[2] = (lane[2] ^ w[2]) * kPrime;
    lane[3] = (lane[3] ^ w[3]) * kPrime;
  }
  h = lane[0];
  for (int l = 1; l < 4; ++l) h = (h ^ lane[l]) * kPrime;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kPrime;
  }
  if (i < len) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, len - i);
    h = (h ^ w) * kPrime;
    h = (h ^ static_cast<uint64_t>(len & 7)) * kPrime;
  }
  return h;
}

inline constexpr uint64_t kImageHashSeed = 0xCBF29CE484222325ull;
inline constexpr size_t kBodyHashOffset = offsetof(ImageHeader, body_hash);

/// Hash of a finished image with the body_hash field itself skipped.
inline uint64_t HashImageBytes(const uint8_t* base, size_t len) {
  WT_DASSERT(len >= sizeof(ImageHeader));
  uint64_t h = ImageHash(kImageHashSeed, base, kBodyHashOffset);
  const size_t after = kBodyHashOffset + sizeof(uint64_t);
  return ImageHash(h, base + after, len - after);
}

// ----------------------------------------------------------------- writer

/// Builds a v5 image in memory: BeginSection/Pod/Array/EndSection, then
/// Finish() lays out header + table + body and seals the hash. Arrays are
/// 8-byte aligned (zero padding, covered by the hash); scalars are packed.
class ImageWriter {
 public:
  void BeginSection(uint32_t tag) {
    WT_DASSERT(!in_section_);
    Align8();
    sections_.push_back({tag, 0, body_.size(), 0});
    in_section_ = true;
  }

  void EndSection() {
    WT_DASSERT(in_section_);
    sections_.back().bytes = body_.size() - sections_.back().offset;
    in_section_ = false;
  }

  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WT_DASSERT(in_section_);
    body_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  template <typename T>
  void Array(const T* p, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    WT_DASSERT(in_section_);
    Align8();
    body_.append(reinterpret_cast<const char*>(p), count * sizeof(T));
  }

  /// Seals the image. The returned string IS the blob (write it to a file
  /// verbatim; it loads from any 8-aligned copy of these bytes).
  std::string Finish(uint32_t codec_id, uint64_t n, uint64_t encoded_bits) {
    WT_DASSERT(!in_section_);
    WT_ASSERT_MSG(sections_.size() <= kMaxSections, "image: too many sections");
    Align8();
    const size_t table_bytes = sections_.size() * sizeof(SectionEntry);
    const size_t body_base = sizeof(ImageHeader) + table_bytes;  // 8-aligned
    ImageHeader h;
    h.codec_id = codec_id;
    h.total_bytes = body_base + body_.size();
    h.n = n;
    h.encoded_bits = encoded_bits;
    h.section_count = static_cast<uint32_t>(sections_.size());
    std::string out;
    out.reserve(h.total_bytes);
    out.append(reinterpret_cast<const char*>(&h), sizeof(h));
    for (SectionEntry s : sections_) {
      s.offset += body_base;  // relative-to-body -> absolute
      out.append(reinterpret_cast<const char*>(&s), sizeof(s));
    }
    out += body_;
    const uint64_t hash =
        HashImageBytes(reinterpret_cast<const uint8_t*>(out.data()), out.size());
    std::memcpy(out.data() + kBodyHashOffset, &hash, sizeof(hash));
    return out;
  }

 private:
  void Align8() {
    while (body_.size() % 8 != 0) body_.push_back('\0');
  }

  std::string body_;
  std::vector<SectionEntry> sections_;
  bool in_section_ = false;
};

// ----------------------------------------------------------------- reader

enum class VerifyMode {
  kNone,  // structural bounds checks only; content trusted (see header note)
  kFull,  // one streaming hash pass over the whole image
};

enum class ImageError {
  kOk,
  kBadMagic,    // not an image
  kBadVersion,  // an image, but of a version this reader does not understand
  kTruncated,   // blob shorter than the header/table/total_bytes claim
  kBadLayout,   // section table inconsistent with the blob bounds
  kChecksumMismatch,
};

/// Zero-copy cursor over a parsed image. Parse() validates the header and
/// every table entry against the blob bounds (and the hash under kFull);
/// afterwards Pod/Array reads are bounds-checked against their section, so
/// no read ever leaves the blob. The reader borrows the blob — the caller
/// keeps it alive.
class ImageReader {
 public:
  /// `base` must be 8-byte aligned (mmap pages and uint64_t heap buffers
  /// both are).
  static ImageError Parse(const uint8_t* base, size_t len, VerifyMode verify,
                          ImageReader* out) {
    WT_DASSERT(reinterpret_cast<uintptr_t>(base) % 8 == 0);
    // Magic first, so a short file of another format reads as "not an
    // image" rather than as a truncated one.
    uint64_t magic = 0;
    if (len < sizeof(magic)) return ImageError::kTruncated;
    std::memcpy(&magic, base, sizeof(magic));
    if (!IsImageMagic(magic)) return ImageError::kBadMagic;
    if (len < sizeof(ImageHeader)) return ImageError::kTruncated;
    ImageHeader h;
    std::memcpy(&h, base, sizeof(h));
    if (h.magic != kImageMagic || h.version != kImageVersion) {
      return ImageError::kBadVersion;
    }
    if (h.total_bytes != len) return ImageError::kTruncated;
    if (h.section_count > kMaxSections) return ImageError::kBadLayout;
    const size_t table_end =
        sizeof(ImageHeader) + size_t(h.section_count) * sizeof(SectionEntry);
    if (table_end > len) return ImageError::kTruncated;
    std::vector<SectionEntry> sections(h.section_count);
    std::memcpy(sections.data(), base + sizeof(ImageHeader),
                sections.size() * sizeof(SectionEntry));
    for (const SectionEntry& s : sections) {
      if (s.offset % 8 != 0 || s.offset < table_end || s.offset > len ||
          s.bytes > len - s.offset) {
        return ImageError::kBadLayout;
      }
    }
    if (verify == VerifyMode::kFull && HashImageBytes(base, len) != h.body_hash) {
      return ImageError::kChecksumMismatch;
    }
    out->base_ = base;
    out->len_ = len;
    out->header_ = h;
    out->sections_ = std::move(sections);
    out->cursor_ = out->section_end_ = 0;
    return ImageError::kOk;
  }

  const ImageHeader& header() const { return header_; }
  const std::vector<SectionEntry>& sections() const { return sections_; }

  /// Positions the cursor at the start of the section with `tag`; false if
  /// the image has no such section.
  bool OpenSection(uint32_t tag) {
    for (const SectionEntry& s : sections_) {
      if (s.tag == tag) {
        cursor_ = s.offset;
        section_end_ = s.offset + s.bytes;
        return true;
      }
    }
    return false;
  }

  template <typename T>
  bool Pod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > section_end_ - cursor_) return false;
    std::memcpy(out, base_ + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return true;
  }

  /// Borrows `count` elements from the section (after 8-alignment); the
  /// returned pointer lives as long as the blob.
  template <typename T>
  bool Array(const T** out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    size_t at = (cursor_ + 7) & ~size_t(7);
    if (at > section_end_) return false;
    if (count > (section_end_ - at) / sizeof(T)) return false;
    *out = reinterpret_cast<const T*>(base_ + at);
    cursor_ = at + count * sizeof(T);
    return true;
  }

 private:
  const uint8_t* base_ = nullptr;
  size_t len_ = 0;
  ImageHeader header_;
  std::vector<SectionEntry> sections_;
  size_t cursor_ = 0;
  size_t section_end_ = 0;
};

}  // namespace wt::storage
