// Compile-time contracts for every serialized layout and static interface
// in the library (DESIGN.md #10).
//
// The binary formats — v5 image headers, WAL record framing, versioned
// envelopes, manifest fields — are defined by C++ structs (or field
// sequences) whose exact byte layout IS the on-disk format. A well-meaning
// edit that reorders a member, widens a type, or lets padding creep in
// would silently corrupt every store the old binary wrote. This header
// pins each layout with static_asserts (size, alignment, trivial
// copyability, the offset of every field), so such an edit is a compile
// error pointing at the contract, not a checksum mismatch in production.
//
// It also states the library's two template interfaces — codecs and
// sequence policies — as C++20 concepts and asserts every shipped type
// models them, so the interface a custom codec must satisfy is written
// down once, checkable, and breaks loudly when drifted from.
//
// This is a leaf "audit" header: it includes the format definitions and is
// included by the engine (and the lint/CI translation units), adding only
// compile-time checks — no code, no state. tests/contracts_compile_fail/
// proves the asserts actually fire.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "api/sequence.hpp"
#include "common/bit_string.hpp"
#include "common/serialize.hpp"
#include "core/codec.hpp"
#include "engine/manifest.hpp"
#include "engine/wal.hpp"
#include "net/frame.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "storage/image.hpp"

namespace wt::contracts {

// ------------------------------------------------------------- machinery

/// Pins a struct's gross layout. Usable from negative tests too:
/// `static_assert(PinnedLayout<T, 56>())` fails at instantiation when the
/// struct drifts, which is exactly what tests/contracts_compile_fail
/// exercises with a deliberately mis-sized header.
template <typename T, size_t Size, size_t Align>
constexpr bool PinnedLayout() {
  static_assert(sizeof(T) == Size,
                "serialized struct changed size: stores written by the "
                "previous layout would be unreadable");
  static_assert(alignof(T) == Align, "serialized struct changed alignment");
  static_assert(std::is_trivially_copyable_v<T>,
                "serialized structs are written/read with memcpy");
  static_assert(std::is_standard_layout_v<T>,
                "serialized structs need a defined member order");
  return true;
}

/// Pins one field: memcpy'd formats depend on every offset and width.
#define WT_PIN_FIELD(Struct, field, off, bytes)                        \
  static_assert(offsetof(Struct, field) == (off) &&                    \
                    sizeof(Struct::field) == (bytes),                  \
                #Struct "::" #field " moved or changed width — this "  \
                "is an on-disk format change")

// -------------------------------------------------------------- concepts

/// What Sequence<Policy, C> requires of a codec: a value type, Encode into
/// a prefix-free bit string, Decode back. (Prefix-freeness itself is a
/// semantic contract the codec must guarantee by construction; see
/// core/codec.hpp.)
template <typename C>
concept Codec =
    requires { typename C::Value; } &&
    requires(const C& c, const typename C::Value& v, wt::BitSpan bits) {
      { c.Encode(v) } -> std::convertible_to<wt::BitString>;
      { c.Decode(bits) } -> std::convertible_to<typename C::Value>;
    };

/// A codec whose EncodePrefix preserves prefix relations — what
/// RankPrefix/SelectPrefix need (Sequence gates them on this).
template <typename C>
concept PrefixCodec =
    Codec<C> && requires(const C& c, const typename C::Value& v) {
      { c.EncodePrefix(v) } -> std::convertible_to<wt::BitString>;
    };

/// A codec with a stable persisted id, so loading a file into the wrong
/// instantiation fails cleanly (codecs without one share id 0).
template <typename C>
concept IdentifiedCodec = Codec<C> && requires {
  { C::kCodecId } -> std::convertible_to<uint8_t>;
};

/// A codec with persisted state (e.g. a width or a hash multiplier) that
/// must round-trip through the image for decode to work after reload.
/// LoadState reports corrupt state as false instead of aborting.
template <typename C>
concept StatefulCodec =
    Codec<C> && requires(const C& c, C& m, std::ostream& o, std::istream& i) {
      c.SaveState(o);
      { m.LoadState(i) } -> std::same_as<bool>;
    };

/// What Sequence<P, Codec> requires of a policy: the trie it instantiates
/// plus the capability flags the facade's compile-time gates read.
template <typename P>
concept SequencePolicy = requires { typename P::Trie; } && requires {
  { P::kMutable } -> std::convertible_to<bool>;
  { P::kFullyDynamic } -> std::convertible_to<bool>;
  { P::kName } -> std::convertible_to<const char*>;
};

// ------------------------------------------- shipped types model them

static_assert(Codec<wt::ByteCodec>);
static_assert(Codec<wt::RawByteCodec>);
static_assert(Codec<wt::FixedIntCodec>);
static_assert(Codec<wt::HashedIntCodec>);

static_assert(PrefixCodec<wt::ByteCodec>);
static_assert(PrefixCodec<wt::RawByteCodec>);
// The int codecs deliberately have no EncodePrefix (a numeric "prefix
// query" has no meaning); Sequence's kHasPrefixCodec gate depends on the
// distinction, so pin it.
static_assert(!PrefixCodec<wt::FixedIntCodec>);
static_assert(!PrefixCodec<wt::HashedIntCodec>);

static_assert(IdentifiedCodec<wt::ByteCodec>);
static_assert(IdentifiedCodec<wt::RawByteCodec>);
static_assert(IdentifiedCodec<wt::FixedIntCodec>);
static_assert(IdentifiedCodec<wt::HashedIntCodec>);

static_assert(!StatefulCodec<wt::ByteCodec>);
static_assert(!StatefulCodec<wt::RawByteCodec>);
static_assert(StatefulCodec<wt::FixedIntCodec>);
static_assert(StatefulCodec<wt::HashedIntCodec>);

static_assert(SequencePolicy<wtrie::Static>);
static_assert(SequencePolicy<wtrie::AppendOnly>);
static_assert(SequencePolicy<wtrie::Dynamic>);

// -------------------------------------------------- v5 image (image.hpp)

static_assert(PinnedLayout<wt::storage::ImageHeader, 56, 8>());
WT_PIN_FIELD(wt::storage::ImageHeader, magic, 0, 8);
WT_PIN_FIELD(wt::storage::ImageHeader, version, 8, 4);
WT_PIN_FIELD(wt::storage::ImageHeader, codec_id, 12, 4);
WT_PIN_FIELD(wt::storage::ImageHeader, total_bytes, 16, 8);
WT_PIN_FIELD(wt::storage::ImageHeader, n, 24, 8);
WT_PIN_FIELD(wt::storage::ImageHeader, encoded_bits, 32, 8);
WT_PIN_FIELD(wt::storage::ImageHeader, section_count, 40, 4);
WT_PIN_FIELD(wt::storage::ImageHeader, reserved, 44, 4);
WT_PIN_FIELD(wt::storage::ImageHeader, body_hash, 48, 8);

static_assert(PinnedLayout<wt::storage::SectionEntry, 24, 8>());
WT_PIN_FIELD(wt::storage::SectionEntry, tag, 0, 4);
WT_PIN_FIELD(wt::storage::SectionEntry, reserved, 4, 4);
WT_PIN_FIELD(wt::storage::SectionEntry, offset, 8, 8);
WT_PIN_FIELD(wt::storage::SectionEntry, bytes, 16, 8);

// The kSecDirectory section's scalars: the packed node directory's counts
// and field widths, followed by its two padded word arrays (DESIGN.md
// #6/#8). wt_inspect reads them as this POD.
static_assert(PinnedLayout<wt::storage::DirectoryHeader, 40, 8>());
WT_PIN_FIELD(wt::storage::DirectoryHeader, nodes, 0, 8);
WT_PIN_FIELD(wt::storage::DirectoryHeader, label_ends, 8, 8);
WT_PIN_FIELD(wt::storage::DirectoryHeader, records, 16, 8);
WT_PIN_FIELD(wt::storage::DirectoryHeader, label_end_bits, 24, 4);
WT_PIN_FIELD(wt::storage::DirectoryHeader, k_bits, 28, 4);
WT_PIN_FIELD(wt::storage::DirectoryHeader, beta_start_bits, 32, 4);
WT_PIN_FIELD(wt::storage::DirectoryHeader, ones_start_bits, 36, 4);
static_assert(wt::storage::kSecDirectory == 9);
static_assert(wt::storage::PackedWords(7, 3) == 3);

// --------------------------------------- versioned envelope (serialize.hpp)

static_assert(PinnedLayout<wt::EnvelopeHeader, 32, 8>());
WT_PIN_FIELD(wt::EnvelopeHeader, magic, 0, 8);
WT_PIN_FIELD(wt::EnvelopeHeader, version, 8, 4);
WT_PIN_FIELD(wt::EnvelopeHeader, tag, 12, 4);
WT_PIN_FIELD(wt::EnvelopeHeader, payload_len, 16, 8);
WT_PIN_FIELD(wt::EnvelopeHeader, checksum, 24, 8);

// ------------------------------------------------- WAL framing (wal.hpp)

static_assert(PinnedLayout<wtrie::engine::WalRecordHeader, 32, 8>());
WT_PIN_FIELD(wtrie::engine::WalRecordHeader, first, 0, 8);
WT_PIN_FIELD(wtrie::engine::WalRecordHeader, string_count, 8, 8);
WT_PIN_FIELD(wtrie::engine::WalRecordHeader, payload_len, 16, 8);
WT_PIN_FIELD(wtrie::engine::WalRecordHeader, checksum, 24, 8);
// The checksum covers every header field before it, so the fields above
// cannot move past it unnoticed.
static_assert(wtrie::engine::kWalChecksummedHeaderBytes == 24);

// ---------------------------------------------- wire framing (net/frame.hpp)
//
// Not a disk format, but the same discipline applies: the serving
// protocol's frame header is written and parsed as one POD, so its layout
// IS the wire format — old clients talk to new servers only while these
// offsets hold.

static_assert(PinnedLayout<wt::net::FrameHeader, 32, 8>());
WT_PIN_FIELD(wt::net::FrameHeader, magic, 0, 4);
WT_PIN_FIELD(wt::net::FrameHeader, version, 4, 2);
WT_PIN_FIELD(wt::net::FrameHeader, type, 6, 1);
WT_PIN_FIELD(wt::net::FrameHeader, flags, 7, 1);
WT_PIN_FIELD(wt::net::FrameHeader, request_id, 8, 8);
WT_PIN_FIELD(wt::net::FrameHeader, deadline_ms, 16, 4);
WT_PIN_FIELD(wt::net::FrameHeader, payload_len, 20, 4);
WT_PIN_FIELD(wt::net::FrameHeader, checksum, 24, 8);

static_assert(wt::net::kFrameMagic == 0x314E5457u);
static_assert(wt::net::kFrameVersion == 1);

// ------------------------------------ metrics snapshot (obs/snapshot.hpp)
//
// The kMetrics reply body: wt_top and any external scraper parse this
// header as one POD, so its layout is a wire contract exactly like the
// frame header above. The opcode value itself is pinned too — a renumbered
// MsgType would silently turn metrics requests into something else.

static_assert(PinnedLayout<wt::obs::MetricsSnapshotHeader, 24, 8>());
WT_PIN_FIELD(wt::obs::MetricsSnapshotHeader, magic, 0, 8);
WT_PIN_FIELD(wt::obs::MetricsSnapshotHeader, version, 8, 4);
WT_PIN_FIELD(wt::obs::MetricsSnapshotHeader, metric_count, 12, 4);
WT_PIN_FIELD(wt::obs::MetricsSnapshotHeader, body_checksum, 16, 8);

static_assert(wt::obs::kMetricsSnapshotMagic == 0x31585254454D5457ull);
static_assert(wt::obs::kMetricsSnapshotVersion == 1);
static_assert(static_cast<uint8_t>(wt::net::MsgType::kMetrics) == 9);

// --------------------------------------- trace snapshot (obs/trace.hpp)
//
// The kTrace reply body: header plus a flat array of 40-byte events,
// parsed as PODs by wt_trace and the fuzzer — same wire-contract status
// as the metrics snapshot above.

static_assert(PinnedLayout<wt::obs::TraceSnapshotHeader, 32, 8>());
WT_PIN_FIELD(wt::obs::TraceSnapshotHeader, magic, 0, 8);
WT_PIN_FIELD(wt::obs::TraceSnapshotHeader, version, 8, 4);
WT_PIN_FIELD(wt::obs::TraceSnapshotHeader, event_count, 12, 4);
WT_PIN_FIELD(wt::obs::TraceSnapshotHeader, dropped, 16, 8);
WT_PIN_FIELD(wt::obs::TraceSnapshotHeader, body_checksum, 24, 8);

static_assert(PinnedLayout<wt::obs::TraceWireEvent, 40, 8>());
WT_PIN_FIELD(wt::obs::TraceWireEvent, ts_ns, 0, 8);
WT_PIN_FIELD(wt::obs::TraceWireEvent, span_id, 8, 8);
WT_PIN_FIELD(wt::obs::TraceWireEvent, parent_id, 16, 8);
WT_PIN_FIELD(wt::obs::TraceWireEvent, arg, 24, 8);
WT_PIN_FIELD(wt::obs::TraceWireEvent, tid, 32, 4);
WT_PIN_FIELD(wt::obs::TraceWireEvent, kind, 36, 1);
WT_PIN_FIELD(wt::obs::TraceWireEvent, name, 37, 1);
WT_PIN_FIELD(wt::obs::TraceWireEvent, reserved, 38, 2);

static_assert(wt::obs::kTraceSnapshotMagic == 0x3145434152545457ull);
static_assert(wt::obs::kTraceSnapshotVersion == 1);
static_assert(static_cast<uint8_t>(wt::net::MsgType::kTrace) == 10);

// ------------------------------------------------ manifest (manifest.hpp)
//
// The manifest body is written field-by-field (WritePod per scalar), so
// what the format depends on is each field's TYPE, not a struct image —
// pin those, plus SegmentMeta, whose two u64s are written back to back.

static_assert(PinnedLayout<wtrie::engine::SegmentMeta, 16, 8>());
WT_PIN_FIELD(wtrie::engine::SegmentMeta, seq, 0, 8);
WT_PIN_FIELD(wtrie::engine::SegmentMeta, count, 8, 8);

static_assert(std::is_same_v<decltype(wtrie::engine::Manifest::num_shards),
                             uint32_t>);
static_assert(std::is_same_v<decltype(wtrie::engine::ShardMeta::next_seg_seq),
                             uint64_t>);

// Format constants are part of the contract too: a changed magic or a
// version bump must be deliberate (new readers, compat plan), never a
// stray edit.
static_assert(wt::storage::kImageMagic == 0x3576474D49545721ull);
static_assert(wt::storage::kImageVersion == 5);
static_assert(wtrie::engine::Manifest::kMagic == 0x5754454E47494E31ull);
static_assert(wtrie::engine::Manifest::kVersion == 3);

}  // namespace wt::contracts
