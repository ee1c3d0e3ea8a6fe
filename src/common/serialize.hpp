// Minimal binary serialization helpers for small metadata files (codec
// state, the engine manifest, the WAL), plus the versioned envelope that
// frames the manifest. Static succinct structures persist through the v5
// image instead (storage/image.hpp).
//
// Format: little-endian PODs.
//
// Every reader here parses untrusted bytes and never aborts: TryReadPod,
// TryReadBytes and VersionedEnvelope::Read report a short read, a bad
// magic or version, or a checksum mismatch to the caller, so the public
// API boundary can surface corrupt or truncated input as a recoverable
// error.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

namespace wt {

template <typename T>
void WritePod(std::ostream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Non-aborting POD read: returns false on a short or failed read instead of
/// aborting, leaving *v untouched on failure.
template <typename T>
bool TryReadPod(std::istream& in, T* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  T tmp{};
  in.read(reinterpret_cast<char*>(&tmp), sizeof(T));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(T))) return false;
  *v = tmp;
  return true;
}

/// Non-aborting read of `len` more bytes appended to *out. `len` may come
/// from untrusted input, so it is never allocated up front: the bytes
/// arrive in bounded chunks and a lying length surfaces as a short read
/// (false) when the stream runs dry.
inline bool TryReadBytes(std::istream& in, uint64_t len, std::string* out) {
  constexpr uint64_t kChunk = 1 << 20;
  while (len > 0) {
    const size_t want = static_cast<size_t>(std::min(kChunk, len));
    const size_t old_size = out->size();
    out->resize(old_size + want);
    in.read(out->data() + old_size, static_cast<std::streamsize>(want));
    if (in.gcount() != static_cast<std::streamsize>(want)) return false;
    len -= want;
  }
  return true;
}

/// FNV-1a over a byte range — the integrity check of the versioned envelope.
inline uint64_t Fnv1a(const void* data, size_t len,
                      uint64_t h = 0xCBF29CE484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

/// On-disk framing of a VersionedEnvelope, immediately followed by
/// `payload_len` payload bytes. Writers emit it as one POD, so this layout
/// IS the format; common/layout_contracts.hpp pins its size and every field
/// offset. (Read stays field-by-field: the error taxonomy distinguishes a
/// wrong magic from a stream too short to hold the rest of the header.)
struct EnvelopeHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t tag = 0;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;  // FNV-1a over the payload bytes
};
static_assert(sizeof(EnvelopeHeader) == 32);

/// Versioned, checksummed container for whole-structure persistence:
///
///   u64 magic | u32 format version | u32 tag | u64 payload bytes |
///   u64 FNV-1a(payload) | payload
///
/// `tag` is caller-defined metadata. Reading never aborts: every failure
/// mode (bad magic, unsupported version, truncation, checksum mismatch) is
/// reported through the returned enum so callers can translate it into
/// their error type.
struct VersionedEnvelope {
  enum class ReadError {
    kOk,
    kBadMagic,
    kBadVersion,
    kTruncated,
    kChecksumMismatch,
  };

  static void Write(std::ostream& out, uint64_t magic, uint32_t version,
                    uint32_t tag, const std::string& payload) {
    EnvelopeHeader hdr;
    hdr.magic = magic;
    hdr.version = version;
    hdr.tag = tag;
    hdr.payload_len = payload.size();
    hdr.checksum = Fnv1a(payload.data(), payload.size());
    WritePod(out, hdr);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }

  /// Reads and verifies one envelope. On kOk, `tag` and `payload` are set.
  /// Any version other than `version` is kBadVersion: a reader parses
  /// exactly one payload layout, so an older or newer file is a clean
  /// error, not a downstream parser abort.
  static ReadError Read(std::istream& in, uint64_t magic, uint32_t version,
                        uint32_t* tag, std::string* payload) {
    uint64_t m = 0;
    if (!TryReadPod(in, &m)) return ReadError::kTruncated;
    if (m != magic) return ReadError::kBadMagic;
    uint32_t v = 0;
    if (!TryReadPod(in, &v)) return ReadError::kTruncated;
    if (v != version) return ReadError::kBadVersion;
    uint32_t t = 0;
    uint64_t len = 0, sum = 0;
    if (!TryReadPod(in, &t) || !TryReadPod(in, &len) || !TryReadPod(in, &sum)) {
      return ReadError::kTruncated;
    }
    // The length field is untrusted (the checksum covers the payload only).
    std::string body;
    if (!TryReadBytes(in, len, &body)) return ReadError::kTruncated;
    if (Fnv1a(body.data(), body.size()) != sum) {
      return ReadError::kChecksumMismatch;
    }
    *tag = t;
    *payload = std::move(body);
    return ReadError::kOk;
  }
};

}  // namespace wt
