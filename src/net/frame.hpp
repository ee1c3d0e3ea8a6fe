// Wire framing for the serving layer (DESIGN.md #11).
//
// Length-prefixed binary frames in the same style as the WAL and the
// versioned envelope: a fixed 32-byte little-endian POD header whose
// layout IS the format (pinned in common/layout_contracts.hpp), followed
// by `payload_len` payload bytes covered by an FNV-1a checksum. Parsing
// follows the ParseWalBytes discipline — non-aborting, every length field
// untrusted until validated against the bytes actually present, bounded
// allocations — because this parser reads from the network, the least
// trusted input in the system. fuzz/fuzz_frame.cpp drives TryParseFrame
// and DecodeRequest directly.
//
// This header is portable (no sockets): the fuzzer, the tests, and the
// contracts TU compile it everywhere; only socket.hpp/server.hpp are
// Linux-gated.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "api/result.hpp"
#include "common/serialize.hpp"

namespace wt::net {

using wtrie::ErrorCode;
using wtrie::Result;
using wtrie::Status;

inline constexpr uint32_t kFrameMagic = 0x314E5457;  // "WTN1" little-endian
inline constexpr uint16_t kFrameVersion = 1;

/// Default payload ceiling for REQUEST frames. A frame announcing more
/// than this is rejected before any allocation — the length field is
/// attacker-controlled.
inline constexpr uint32_t kDefaultMaxPayload = 4u << 20;

/// Default payload ceiling clients apply to RESPONSE frames. Replies are
/// legitimately larger than requests: one Access frame of
/// kMaxItemsPerRequest positions fans out to that many length-prefixed
/// values, so the reply body scales with stored value sizes, not with the
/// request's bytes. 64 MiB covers kMaxItemsPerRequest values of ~1 KiB
/// each; clients talking to stores with larger values raise it via
/// Client::set_max_response_payload.
inline constexpr uint32_t kDefaultMaxResponsePayload = 64u << 20;

/// Request opcodes. A response echoes the request's type with kResponseBit
/// set, so a pipelined client can match replies by (type, request_id).
/// Opcode 8 is retired and parses as unknown (kBadType); it is never
/// reused, so a request from an older client fails typed instead of
/// meaning something else.
enum class MsgType : uint8_t {
  kPing = 1,         // liveness; served inline on the I/O thread
  kAccess = 2,       // positions -> values
  kRank = 3,         // (value, pos) pairs -> occurrence counts
  kSelect = 4,       // (value, k) pairs -> global positions
  kCountPrefix = 5,  // prefixes -> match counts
  kFrequent = 6,     // (range, threshold) -> heavy hitters
  kAppend = 7,       // strings -> durable ingest ack
  kMetrics = 9,      // serialized metrics snapshot (obs/snapshot.hpp);
                     // served inline on the I/O thread
  kTrace = 10,       // serialized span-trace snapshot (obs/trace.hpp);
                     // served inline on the I/O thread
};
inline constexpr uint8_t kResponseBit = 0x80;

inline bool IsKnownRequestType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kPing) &&
         t <= static_cast<uint8_t>(MsgType::kTrace) && t != 8;
}

/// First byte of every response payload. The wire status is deliberately
/// coarser than wtrie::ErrorCode: clients act on it (retry, back off,
/// re-resolve, give up), they do not debug from it.
enum class WireStatus : uint8_t {
  kOk = 0,
  kOverloaded = 1,        // shed at admission; payload carries retry-after ms
  kDeadlineExceeded = 2,  // expired in queue or before reply
  kShuttingDown = 3,      // server is draining; do not retry here
  kBadRequest = 4,        // malformed payload or unknown opcode
  kOutOfRange = 5,
  kNotFound = 6,
  kError = 7,             // engine-side failure (e.g. ingest I/O error)
};

/// On-wire framing of one message, immediately followed by `payload_len`
/// payload bytes. Written and read as one POD; layout_contracts.hpp pins
/// the size and every field offset.
struct FrameHeader {
  uint32_t magic = 0;
  uint16_t version = 0;
  uint8_t type = 0;
  uint8_t flags = 0;        // reserved; must be 0 in v1
  uint64_t request_id = 0;  // echoed verbatim in the response
  uint32_t deadline_ms = 0; // serve-by budget from receipt; 0 = none
  uint32_t payload_len = 0;
  uint64_t checksum = 0;    // FNV-1a over the payload bytes
};
static_assert(sizeof(FrameHeader) == 32);

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Outcome of one incremental parse attempt. Only kNeedMore waits for
/// bytes; every other non-kFrame outcome is fatal for the connection (the
/// stream offset can no longer be trusted).
enum class FrameParse : uint8_t {
  kFrame = 0,
  kNeedMore = 1,      // torn frame: keep the bytes, read more
  kBadMagic = 2,      // garbage stream
  kBadVersion = 3,
  kBadType = 4,       // unknown opcode or nonzero reserved flags
  kOversized = 5,     // payload_len exceeds the server's ceiling
  kBadChecksum = 6,
};

/// Tries to extract one frame from the front of [data, data+size).
/// On kFrame, *out is filled and *consumed says how many bytes to drop
/// from the buffer. On kNeedMore nothing is consumed. On any error,
/// *consumed is 0 and the caller should fail the connection — resyncing a
/// corrupt byte stream is guesswork this protocol refuses to do.
inline FrameParse TryParseFrame(const char* data, size_t size,
                                uint32_t max_payload, Frame* out,
                                size_t* consumed) {
  *consumed = 0;
  FrameHeader hdr;
  if (size < sizeof(hdr)) return FrameParse::kNeedMore;
  std::memcpy(&hdr, data, sizeof(hdr));
  if (hdr.magic != kFrameMagic) return FrameParse::kBadMagic;
  if (hdr.version != kFrameVersion) return FrameParse::kBadVersion;
  if (hdr.flags != 0) return FrameParse::kBadType;
  if (!IsKnownRequestType(hdr.type & ~kResponseBit)) return FrameParse::kBadType;
  // Reject the announced length before waiting for the body: an oversized
  // frame must produce a typed error now, not an unbounded read buffer.
  if (hdr.payload_len > max_payload) return FrameParse::kOversized;
  if (size - sizeof(hdr) < hdr.payload_len) return FrameParse::kNeedMore;
  const char* body = data + sizeof(hdr);
  if (wt::Fnv1a(body, hdr.payload_len) != hdr.checksum) {
    return FrameParse::kBadChecksum;
  }
  out->header = hdr;
  out->payload.assign(body, hdr.payload_len);
  *consumed = sizeof(hdr) + hdr.payload_len;
  return FrameParse::kFrame;
}

/// Serializes one frame (header + payload) APPENDING to `out`, computing
/// the checksum. The allocation-free core of EncodeFrame, for callers
/// that batch many frames into one buffer (the server's reply path).
inline void EncodeFrameTo(std::string& out, uint8_t type,
                          uint64_t request_id, uint32_t deadline_ms,
                          std::string_view payload) {
  FrameHeader hdr;
  hdr.magic = kFrameMagic;
  hdr.version = kFrameVersion;
  hdr.type = type;
  hdr.request_id = request_id;
  hdr.deadline_ms = deadline_ms;
  hdr.payload_len = static_cast<uint32_t>(payload.size());
  hdr.checksum = wt::Fnv1a(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  out.append(payload.data(), payload.size());
}

/// Serializes one frame (header + payload), computing the checksum.
inline std::string EncodeFrame(uint8_t type, uint64_t request_id,
                               uint32_t deadline_ms,
                               const std::string& payload) {
  std::string out;
  out.reserve(sizeof(FrameHeader) + payload.size());
  EncodeFrameTo(out, type, request_id, deadline_ms, payload);
  return out;
}

// ------------------------------------------------------- payload builders

/// Append-only payload serializer (little-endian PODs + length-prefixed
/// byte strings), mirroring serialize.hpp's WritePod for flat buffers.
class PayloadWriter {
 public:
  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  void Str(const std::string& s) {
    Pod<uint32_t>(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// In-place variants of PayloadWriter for reply paths that reuse one
/// buffer per request slot across dispatch batches: a cleared std::string
/// keeps its capacity, so the steady-state reply path allocates nothing.
template <typename T>
inline void AppendPod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

inline void AppendStr(std::string& out, const std::string& s) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked payload cursor: every read reports failure instead of
/// walking off the buffer, so a checksum-valid frame with a lying inner
/// length is a clean kBadRequest, never UB.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size) : p_(data), left_(size) {}
  explicit PayloadReader(const std::string& s) : p_(s.data()), left_(s.size()) {}

  template <typename T>
  bool Pod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (left_ < sizeof(T)) return false;
    std::memcpy(v, p_, sizeof(T));
    p_ += sizeof(T);
    left_ -= sizeof(T);
    return true;
  }
  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!Pod(&len) || left_ < len) return false;
    s->assign(p_, len);
    p_ += len;
    left_ -= len;
    return true;
  }
  bool AtEnd() const { return left_ == 0; }
  size_t remaining() const { return left_; }

 private:
  const char* p_;
  size_t left_;
};

// ------------------------------------------------------- request decoding

/// Per-request item ceiling: a 12-byte frame must not be able to request
/// megabytes of response work. Anything larger belongs in multiple frames.
inline constexpr uint32_t kMaxItemsPerRequest = 1u << 16;

/// One decoded request, normalized for the admission queue. The engine
/// opcodes all reduce to parallel (string, number) columns:
///   kAccess      — nums = positions
///   kRank        — strings = values, nums = positions
///   kSelect      — strings = values, nums = occurrence indices
///   kCountPrefix — strings = prefixes
///   kFrequent    — range_lo/range_hi/threshold
///   kAppend      — strings = values to ingest
struct RequestBody {
  MsgType type = MsgType::kPing;
  std::vector<std::string> strings;
  std::vector<uint64_t> nums;
  uint64_t range_lo = 0, range_hi = 0, threshold = 0;

  /// Admission-queue accounting weight: queued requests are bounded by
  /// bytes as well as count, so a few maximal frames cannot hide an
  /// unbounded memory queue behind a small entry limit.
  size_t CostBytes() const {
    size_t c = sizeof(*this) + nums.size() * sizeof(uint64_t);
    for (const std::string& s : strings) c += s.size() + sizeof(std::string);
    return c;
  }
};

/// Decodes a checksum-valid request payload. Failure means kBadRequest on
/// the wire; it never aborts and never allocates more than the payload's
/// own size in inner strings (item counts are validated against the bytes
/// actually present before any reserve).
inline bool DecodeRequest(MsgType type, const std::string& payload,
                          RequestBody* out) {
  out->type = type;
  out->strings.clear();
  out->nums.clear();
  PayloadReader r(payload);
  auto read_count = [&](uint32_t* n, size_t min_bytes_per_item) {
    if (!r.Pod(n)) return false;
    // An item needs at least min_bytes_per_item payload bytes, so a count
    // the remaining bytes cannot cover is a lie — reject before reserve.
    return *n <= kMaxItemsPerRequest &&
           static_cast<uint64_t>(*n) * min_bytes_per_item <= r.remaining();
  };
  switch (type) {
    case MsgType::kPing:
    case MsgType::kMetrics:
    case MsgType::kTrace:
      return r.AtEnd();
    case MsgType::kAccess: {
      uint32_t n = 0;
      if (!read_count(&n, sizeof(uint64_t))) return false;
      out->nums.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (!r.Pod(&out->nums[i])) return false;
      }
      return r.AtEnd();
    }
    case MsgType::kRank:
    case MsgType::kSelect: {
      uint32_t n = 0;
      if (!read_count(&n, sizeof(uint64_t) + sizeof(uint32_t))) return false;
      out->nums.resize(n);
      out->strings.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (!r.Pod(&out->nums[i]) || !r.Str(&out->strings[i])) return false;
      }
      return r.AtEnd();
    }
    case MsgType::kCountPrefix:
    case MsgType::kAppend: {
      uint32_t n = 0;
      if (!read_count(&n, sizeof(uint32_t))) return false;
      out->strings.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (!r.Str(&out->strings[i])) return false;
      }
      return r.AtEnd();
    }
    case MsgType::kFrequent: {
      if (!r.Pod(&out->range_lo) || !r.Pod(&out->range_hi) ||
          !r.Pod(&out->threshold)) {
        return false;
      }
      return r.AtEnd();
    }
  }
  return false;
}

/// Translates an engine Status into the coarse wire taxonomy.
inline WireStatus ToWireStatus(const Status& st) {
  if (st.ok()) return WireStatus::kOk;
  switch (st.code()) {
    case ErrorCode::kOutOfRange:
      return WireStatus::kOutOfRange;
    case ErrorCode::kNotFound:
      return WireStatus::kNotFound;
    case ErrorCode::kInvalidArgument:
      return WireStatus::kBadRequest;
    default:
      return WireStatus::kError;
  }
}

}  // namespace wt::net
