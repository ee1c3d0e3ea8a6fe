// Error model of the public wtrie API (src/api/sequence.hpp).
//
// The core structures treat precondition violations as programming errors
// and abort (common/assert.hpp). The public boundary must not: callers feed
// it untrusted positions, ranges, and serialized bytes. Every fallible
// operation on wtrie::Sequence therefore returns a Status or a Result<T> —
// a value-or-Status sum type in the absl/leveldb tradition — and the facade
// validates its arguments *before* touching the asserting core.
//
// No exceptions, no allocation on the success path: Status carries an enum
// plus a static message string.
#pragma once

#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/serialize.hpp"

namespace wtrie {

enum class ErrorCode {
  kOk = 0,
  kOutOfRange,       // position/range outside [0, size()]
  kInvalidArgument,  // e.g. l > r, threshold 0
  kNotFound,         // Select past the last occurrence, no majority, ...
  kCorruptStream,    // bad magic / checksum mismatch / garbage payload
  kVersionMismatch,  // format version outside what this reader supports
  kTruncatedStream,  // stream ended inside the envelope
  kIoError,          // underlying stream write failure
  kCapacityExceeded, // append would outgrow the 2^32-1-beta-bit static image
};

/// Human-readable name of an error code (static storage).
inline const char* ErrorCodeName(ErrorCode c) {
  switch (c) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kOutOfRange: return "out of range";
    case ErrorCode::kInvalidArgument: return "invalid argument";
    case ErrorCode::kNotFound: return "not found";
    case ErrorCode::kCorruptStream: return "corrupt stream";
    case ErrorCode::kVersionMismatch: return "version mismatch";
    case ErrorCode::kTruncatedStream: return "truncated stream";
    case ErrorCode::kIoError: return "i/o error";
    case ErrorCode::kCapacityExceeded: return "capacity exceeded";
  }
  return "unknown";
}

/// Outcome of a void operation. [[nodiscard]] so mutation failures cannot be
/// silently dropped.
class [[nodiscard]] Status {
 public:
  Status() = default;  // ok
  static Status Ok() { return Status(); }
  static Status Error(ErrorCode code, const char* message) {
    WT_DASSERT(code != ErrorCode::kOk);
    return Status(code, message);
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  /// Static explanatory string ("" when ok).
  const char* message() const { return message_; }

 private:
  Status(ErrorCode code, const char* message) : code_(code), message_(message) {}

  ErrorCode code_ = ErrorCode::kOk;
  const char* message_ = "";
};

/// The one translation from envelope read failures to API errors (the
/// engine manifest is the envelope's reader).
inline Status StatusFromEnvelopeError(wt::VersionedEnvelope::ReadError err) {
  using RE = wt::VersionedEnvelope::ReadError;
  switch (err) {
    case RE::kOk:
      return Status::Ok();
    case RE::kBadMagic:
      return Status::Error(ErrorCode::kCorruptStream,
                           "Load: stream magic mismatch");
    case RE::kBadVersion:
      return Status::Error(ErrorCode::kVersionMismatch,
                           "Load: format version not supported");
    case RE::kTruncated:
      return Status::Error(ErrorCode::kTruncatedStream,
                           "Load: stream ended inside the envelope");
    case RE::kChecksumMismatch:
      return Status::Error(ErrorCode::kCorruptStream,
                           "Load: payload checksum mismatch");
  }
  return Status::Error(ErrorCode::kCorruptStream, "Load: unknown read error");
}

/// Value-or-Status. Supports move-only T (Sequence<AppendOnly> and
/// Sequence<Dynamic> own move-only tries).
template <typename T>
class [[nodiscard]] Result {
 public:
  /*implicit*/ Result(T value)  // NOLINT: ergonomic returns
      : value_(std::move(value)) {}
  /*implicit*/ Result(Status status)  // NOLINT
      : status_(std::move(status)) {
    WT_DASSERT(!status_.ok());  // an ok Result must carry a value
  }

  bool ok() const { return status_.ok(); }
  ErrorCode code() const { return status_.code(); }
  const Status& status() const { return status_; }

  /// The contained value; asserts ok(). Check ok() (or value_or) first when
  /// the input was untrusted.
  const T& value() const& {
    WT_ASSERT_MSG(ok(), "Result: value() on an error");
    return *value_;
  }
  T& value() & {
    WT_ASSERT_MSG(ok(), "Result: value() on an error");
    return *value_;
  }
  T&& value() && {
    WT_ASSERT_MSG(ok(), "Result: value() on an error");
    return std::move(*value_);
  }

  T value_or(T fallback) && {
    return ok() ? std::move(*value_) : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace wtrie
