// wtrie::Sequence<Policy, Codec> — the unified public API of the library.
//
// The paper (Grossi & Ottaviano, PODS 2012) defines ONE abstract interface —
// Access / Rank / Select, the prefix variants RankPrefix / SelectPrefix, the
// Section 5 range analytics, and Insert / Delete — realized by three
// structures: the static succinct representation (Theorem 3.7), the
// append-only Wavelet Trie (Theorem 4.3), and the fully-dynamic Wavelet Trie
// (Theorem 4.4). This header is that interface as a single facade:
//
//   wtrie::Sequence<wtrie::Static>      — Theorem 3.7 (immutable, smallest)
//   wtrie::Sequence<wtrie::AppendOnly>  — Theorem 4.3 (streaming ingest)
//   wtrie::Sequence<wtrie::Dynamic>     — Theorem 4.4 (Insert/Delete)
//
// One operation set across the policies; mutations are compile-time gated by
// the policy's capability flags (`requires Policy::kMutable`), everything
// else is uniform. Differences from the core classes it wraps:
//
//   * bounds-checked Result<T>/Status returns at the boundary (result.hpp)
//     instead of aborting asserts — untrusted positions, ranges, and bytes
//     are the caller's prerogative here;
//   * cursor-based enumeration (cursor.hpp) instead of std::function
//     visitors;
//   * explicit lifecycle transitions: Freeze() (any policy -> Static) and
//     Thaw<P>() (Static -> a mutable policy) read the source trie's leaf
//     dictionary (ExtractDict: each distinct string once, each position's
//     leaf id) and rebuild from it word-parallel — BuildFromDict or
//     AppendDict — with no hashing and no per-string copy; Concat() joins
//     static sequences the same way;
//   * whole-structure persistence for ALL policies in one format: Save/Load
//     stream the hash-checked v5 image (storage/image.hpp). Mutable
//     policies persist through their canonical static image and thaw on
//     load, so a file written by any policy can be loaded into any other.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/cursor.hpp"
#include "api/result.hpp"
#include "common/serialize.hpp"
#include "core/codec.hpp"
#include "core/dynamic_wavelet_trie.hpp"
#include "core/wavelet_trie.hpp"
#include "storage/image.hpp"
#include "storage/pager.hpp"

namespace wtrie {

// ----------------------------------------------------------------- policies

/// Theorem 3.7: immutable succinct representation. Smallest footprint,
/// O(|s| + h_s) queries, no updates.
struct Static {
  using Trie = wt::WaveletTrie;
  static constexpr bool kMutable = false;
  static constexpr bool kFullyDynamic = false;
  static constexpr const char* kName = "Static";
};

/// Theorem 4.3: append-only Wavelet Trie. O(|s| + h_s) Append, queries as
/// Static plus the streaming ingest path (AppendBatch).
struct AppendOnly {
  using Trie = wt::AppendOnlyWaveletTrie;
  static constexpr bool kMutable = true;
  static constexpr bool kFullyDynamic = false;
  static constexpr const char* kName = "AppendOnly";
};

/// Theorem 4.4: fully-dynamic Wavelet Trie. Insert/Delete at arbitrary
/// positions in O(|s| + h_s log n).
struct Dynamic {
  using Trie = wt::DynamicWaveletTrie;
  static constexpr bool kMutable = true;
  static constexpr bool kFullyDynamic = true;
  static constexpr const char* kName = "Dynamic";
};

namespace internal {

template <typename C>
constexpr uint8_t CodecIdOf() {
  if constexpr (requires { C::kCodecId; }) {
    return C::kCodecId;
  } else {
    return 0;  // custom codec: id 0, which a load still checks
  }
}

template <typename C>
constexpr bool kHasCodecState = requires(const C& c, std::ostream& o) {
  c.SaveState(o);
};

/// Overflow-safe test for "would appending `add` more encoded bits push the
/// running total past `max`". Kept as a pure function so the boundary
/// arithmetic is unit-testable without materializing 2^32 bits.
constexpr bool CapacityWouldOverflow(uint64_t current, uint64_t add,
                                     uint64_t max) {
  return current > max || add > max - current;
}

}  // namespace internal

// ----------------------------------------------------------------- Sequence

template <typename Policy, typename Codec = wt::ByteCodec>
class Sequence {
 public:
  using Value = typename Codec::Value;
  using Trie = typename Policy::Trie;
  using Cursor = ScanCursor<Trie, Codec>;

  static constexpr bool kMutable = Policy::kMutable;
  static constexpr bool kFullyDynamic = Policy::kFullyDynamic;
  static constexpr bool kHasPrefixCodec = requires(const Codec& c, Value v) {
    { c.EncodePrefix(v) } -> std::convertible_to<wt::BitString>;
  };

  Sequence() = default;
  explicit Sequence(Codec codec) : codec_(std::move(codec)) {}

  /// Uniform bulk construction for every policy: Static builds through the
  /// word-parallel BulkBuild, mutable policies through AppendBatch (one trie
  /// traversal per node per batch).
  explicit Sequence(const std::vector<Value>& values, Codec codec = {})
      : codec_(std::move(codec)) {
    std::vector<wt::BitString> enc = EncodeAll(values);
    encoded_bits_ = TotalBits(enc);
    if constexpr (kMutable) {
      trie_.AppendBatch(enc);
    } else {
      trie_ = Trie::BulkBuild(enc);
    }
  }

  /// Builds from strings already encoded by (an equal instantiation of)
  /// `codec`, for callers that hold values as bits. The distinct set must
  /// be prefix-free, as with every codec here.
  static Sequence FromEncoded(const std::vector<wt::BitString>& enc,
                              Codec codec = {}) {
    Sequence out(std::move(codec));
    out.encoded_bits_ = TotalBits(enc);
    if constexpr (kMutable) {
      out.trie_.AppendBatch(enc);
    } else {
      out.trie_ = Trie::BulkBuild(enc);
    }
    return out;
  }

  // ------------------------------------------------------------- mutations

  /// Appends v at the end (paper: Insert(s, n)). O(|s| + h_s), plus the
  /// log n factor under the Dynamic policy.
  Status Append(const Value& v)
    requires kMutable
  {
    wt::BitString enc = codec_.Encode(v);
    if (const Status s = ReserveBits(enc.size()); !s.ok()) return s;
    trie_.Append(enc);
    return Status::Ok();
  }

  /// Appends a whole batch in one word-parallel trie pass — observably
  /// identical to Append on each value, in order. All-or-nothing: a batch
  /// that would overflow the capacity budget is rejected whole.
  Status AppendBatch(const std::vector<Value>& values)
    requires kMutable
  {
    return AppendEncodedBatch(EncodeAll(values));
  }

  /// AppendBatch over strings already encoded by (an equal instantiation
  /// of) this sequence's codec — the engine layer's ingest hook: values are
  /// encoded once, logged to the WAL as bits, and land here without a
  /// second codec pass.
  Status AppendEncodedBatch(const std::vector<wt::BitString>& enc)
    requires kMutable
  {
    if (const Status s = ReserveBits(TotalBits(enc)); !s.ok()) return s;
    trie_.AppendBatch(enc);
    return Status::Ok();
  }

  /// Zero-copy variant: the spans must stay valid for the duration of the
  /// call. The engine's ingest path splits one batch across shards as
  /// spans over the caller's buffer, so nothing is moved or re-owned, and
  /// sums each slice's bits while splitting: `total_bits` must equal the
  /// sum of the span lengths.
  Status AppendEncodedSpans(std::span<const wt::BitSpan> enc,
                            uint64_t total_bits)
    requires kMutable
  {
    if (const Status s = ReserveBits(total_bits); !s.ok()) return s;
    trie_.AppendBatch(enc);
    return Status::Ok();
  }

  /// Inserts v before position pos (paper: Insert(s, pos)).
  Status Insert(const Value& v, size_t pos)
    requires kFullyDynamic
  {
    if (pos > size()) {
      return Status::Error(ErrorCode::kOutOfRange, "Insert: pos > size()");
    }
    wt::BitString enc = codec_.Encode(v);
    if (const Status s = ReserveBits(enc.size()); !s.ok()) return s;
    trie_.Insert(enc, pos);
    return Status::Ok();
  }

  /// Deletes the value at position pos (paper: Delete(pos)). Deleting the
  /// last occurrence shrinks the alphabet.
  Status Delete(size_t pos)
    requires kFullyDynamic
  {
    if (pos >= size()) {
      return Status::Error(ErrorCode::kOutOfRange, "Delete: pos >= size()");
    }
    trie_.Delete(pos);
    return Status::Ok();
  }

  // --------------------------------------------------------------- queries

  size_t size() const { return trie_.size(); }
  bool empty() const { return trie_.size() == 0; }
  /// Number of distinct values (the alphabet Sset).
  size_t NumDistinct() const { return trie_.NumDistinct(); }

  /// The value at position pos (paper: Access). O(|result| + h).
  Result<Value> Access(size_t pos) const {
    if (pos >= size()) {
      return Status::Error(ErrorCode::kOutOfRange, "Access: pos >= size()");
    }
    return codec_.Decode(trie_.Access(pos).Span());
  }

  /// Occurrences of v in positions [0, pos) (paper: Rank).
  Result<size_t> Rank(const Value& v, size_t pos) const {
    if (pos > size()) {
      return Status::Error(ErrorCode::kOutOfRange, "Rank: pos > size()");
    }
    return trie_.Rank(codec_.Encode(v), pos);
  }

  /// Position of the (idx+1)-th occurrence of v (paper: Select; idx
  /// 0-based). kNotFound when v occurs fewer than idx+1 times.
  Result<size_t> Select(const Value& v, size_t idx) const {
    const auto pos = trie_.Select(codec_.Encode(v), idx);
    if (!pos) {
      return Status::Error(ErrorCode::kNotFound,
                           "Select: fewer than idx+1 occurrences");
    }
    return *pos;
  }

  /// Total occurrences of v.
  size_t Count(const Value& v) const {
    return trie_.Rank(codec_.Encode(v), size());
  }

  /// Occurrences of v in [l, r).
  Result<size_t> RangeCount(const Value& v, size_t l, size_t r) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    const wt::BitString enc = codec_.Encode(v);
    return trie_.Rank(enc, r) - trie_.Rank(enc, l);
  }

  // -------------------------------------------------------- batched queries
  // Observably identical to the per-element loops, but executed as ONE
  // node-grouped trie traversal per batch (DESIGN.md #6) under the Static
  // policy: each touched node's directory lines are loaded once per batch
  // instead of once per query. Policies whose trie has no native batch path
  // (AppendOnly/Dynamic) fall back to the loop, so the API is uniform.

  /// out[i] == Access(positions[i]); positions in any order, duplicates ok.
  Result<std::vector<Value>> AccessBatch(
      const std::vector<size_t>& positions) const {
    for (const size_t p : positions) {
      if (p >= size()) {
        return Status::Error(ErrorCode::kOutOfRange,
                             "AccessBatch: pos >= size()");
      }
    }
    std::vector<Value> out;
    out.reserve(positions.size());
    if constexpr (requires { trie_.AccessBatch(std::span<const size_t>()); }) {
      for (const wt::BitString& s :
           trie_.AccessBatch(std::span<const size_t>(positions))) {
        out.push_back(codec_.Decode(s.Span()));
      }
    } else {
      for (const size_t p : positions) {
        out.push_back(codec_.Decode(trie_.Access(p).Span()));
      }
    }
    return out;
  }

  /// out[i] == Rank(values[i], positions[i]). values and positions must
  /// have equal lengths.
  Result<std::vector<size_t>> RankBatch(
      const std::vector<Value>& values,
      const std::vector<size_t>& positions) const {
    if (values.size() != positions.size()) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "RankBatch: values/positions length mismatch");
    }
    for (const size_t p : positions) {
      if (p > size()) {
        return Status::Error(ErrorCode::kOutOfRange, "RankBatch: pos > size()");
      }
    }
    const std::vector<wt::BitString> enc = EncodeAll(values);
    if constexpr (requires {
                    trie_.RankBatch(std::span<const wt::BitSpan>(),
                                    std::span<const size_t>());
                  }) {
      return trie_.RankBatch(Spans(enc), std::span<const size_t>(positions));
    } else {
      std::vector<size_t> out;
      out.reserve(values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        out.push_back(trie_.Rank(enc[i], positions[i]));
      }
      return out;
    }
  }

  /// out[i] == Select(values[i], indices[i]), with nullopt where the value
  /// occurs fewer than indices[i]+1 times (the batch analogue of the single
  /// query's kNotFound).
  Result<std::vector<std::optional<size_t>>> SelectBatch(
      const std::vector<Value>& values,
      const std::vector<size_t>& indices) const {
    if (values.size() != indices.size()) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "SelectBatch: values/indices length mismatch");
    }
    const std::vector<wt::BitString> enc = EncodeAll(values);
    if constexpr (requires {
                    trie_.SelectBatch(std::span<const wt::BitSpan>(),
                                      std::span<const size_t>());
                  }) {
      return trie_.SelectBatch(Spans(enc), std::span<const size_t>(indices));
    } else {
      std::vector<std::optional<size_t>> out;
      out.reserve(values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        out.push_back(trie_.Select(enc[i], indices[i]));
      }
      return out;
    }
  }

  // ------------------------------------------------------ prefix operations
  // Exposed when the codec preserves prefixes (ByteCodec / RawByteCodec);
  // Section 6's randomized codecs give them up by design.

  /// Values with prefix p in [0, pos) (paper: RankPrefix).
  Result<size_t> RankPrefix(const Value& p, size_t pos) const
    requires kHasPrefixCodec
  {
    if (pos > size()) {
      return Status::Error(ErrorCode::kOutOfRange, "RankPrefix: pos > size()");
    }
    return trie_.RankPrefix(codec_.EncodePrefix(p), pos);
  }

  /// Position of the (idx+1)-th value having prefix p (paper: SelectPrefix).
  Result<size_t> SelectPrefix(const Value& p, size_t idx) const
    requires kHasPrefixCodec
  {
    const auto pos = trie_.SelectPrefix(codec_.EncodePrefix(p), idx);
    if (!pos) {
      return Status::Error(ErrorCode::kNotFound,
                           "SelectPrefix: fewer than idx+1 matches");
    }
    return *pos;
  }

  /// Total values with prefix p.
  size_t CountPrefix(const Value& p) const
    requires kHasPrefixCodec
  {
    return trie_.RankPrefix(codec_.EncodePrefix(p), size());
  }

  /// Values with prefix p in [l, r).
  Result<size_t> RangeCountPrefix(const Value& p, size_t l, size_t r) const
    requires kHasPrefixCodec
  {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    const wt::BitString enc = codec_.EncodePrefix(p);
    return trie_.RankPrefix(enc, r) - trie_.RankPrefix(enc, l);
  }

  // ------------------------------------------------- Section 5 analytics

  /// Sequential access over [l, r) as a forward cursor — one Rank per
  /// traversed trie node per cursor chunk, not per element.
  Result<Cursor> Scan(size_t l, size_t r) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    return Cursor(&trie_, &codec_, l, r);
  }

  /// Distinct values in [l, r) with multiplicities, in lexicographic order
  /// of the encoded strings.
  Result<DistinctCursor<Value>> Distinct(size_t l, size_t r) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    std::vector<typename DistinctCursor<Value>::Entry> entries;
    trie_.DistinctInRange(l, r, [&](const wt::BitString& s, size_t c) {
      entries.push_back({codec_.Decode(s.Span()), c});
    });
    return DistinctCursor<Value>(std::move(entries));
  }

  /// Distinct values with prefix p in [l, r) ("the distinct hostnames in a
  /// given time range").
  Result<DistinctCursor<Value>> DistinctWithPrefix(const Value& p, size_t l,
                                                   size_t r) const
    requires kHasPrefixCodec
  {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    std::vector<typename DistinctCursor<Value>::Entry> entries;
    trie_.DistinctInRangeWithPrefix(codec_.EncodePrefix(p).Span(), l, r,
                                    [&](const wt::BitString& s, size_t c) {
                                      entries.push_back({codec_.Decode(s.Span()), c});
                                    });
    return DistinctCursor<Value>(std::move(entries));
  }

  /// The value occurring more than (r-l)/2 times in [l, r); kNotFound when
  /// no majority exists.
  Result<std::pair<Value, size_t>> Majority(size_t l, size_t r) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    auto m = trie_.RangeMajority(l, r);
    if (!m) {
      return Status::Error(ErrorCode::kNotFound, "Majority: no majority");
    }
    return std::make_pair(codec_.Decode(m->first.Span()), m->second);
  }

  /// Values occurring at least `threshold` times in [l, r) (threshold >= 1).
  Result<DistinctCursor<Value>> Frequent(size_t l, size_t r,
                                         size_t threshold) const {
    if (const Status s = CheckRange(l, r); !s.ok()) return s;
    if (threshold == 0) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "Frequent: threshold must be >= 1");
    }
    std::vector<typename DistinctCursor<Value>::Entry> entries;
    trie_.RangeFrequent(l, r, threshold, [&](const wt::BitString& s, size_t c) {
      entries.push_back({codec_.Decode(s.Span()), c});
    });
    return DistinctCursor<Value>(std::move(entries));
  }

  // -------------------------------------------------------------- lifecycle

  /// Snapshots this sequence into the Static policy (Theorem 3.7) — the
  /// "flush" of a streaming ingest path. The trie's leaf dictionary
  /// (ExtractDict) feeds the static builder directly: the image is
  /// byte-identical to BulkBuild over the extracted strings, without
  /// materializing or re-hashing them.
  Sequence<Static, Codec> Freeze() const {
    Sequence<Static, Codec> out(codec_);
    out.encoded_bits_ = encoded_bits_;
    if constexpr (kMutable) {
      wt::internal::LeafDict d = trie_.ExtractDict();
      out.trie_ = wt::WaveletTrie::BuildFromDict(std::move(d.dict));
    } else {
      out.trie_ = trie_;      // already static: plain copy
      out.storage_ = storage_;  // a borrowed trie needs its blob alive
    }
    return out;
  }

  /// Re-opens a Static sequence under a mutable policy — the inverse of
  /// Freeze. The static trie's leaf dictionary (ExtractDict) feeds
  /// AppendBatch's word-parallel trie pass (AppendDict) directly; the
  /// result equals AppendBatch over the extracted strings. Queries are
  /// identical before and after.
  template <typename P2>
  Sequence<P2, Codec> Thaw() const
    requires(!kMutable && P2::kMutable)
  {
    Sequence<P2, Codec> out(codec_);
    const wt::internal::LeafDict d = trie_.ExtractDict();
    out.encoded_bits_ = TotalBits(d.dict);
    out.trie_.AppendDict(d.dict);
    return out;
  }

  /// The static sequences `parts`, laid end to end in order, as one — the
  /// engine's segment compaction. Byte-identical to FromEncoded over the
  /// parts' strings concatenated, but built from the parts' leaf
  /// dictionaries: only their leaf strings are deduplicated (DedupBatch
  /// over the union of the parts' alphabets), each position is remapped to
  /// its global id, and the trie is built once (BuildFromDict). Like
  /// FromEncoded, it does not check kMaxEncodedBits; the caller keeps the
  /// parts' total within it.
  static Sequence Concat(std::span<const Sequence* const> parts,
                         Codec codec = {})
    requires(!kMutable)
  {
    std::vector<wt::internal::LeafDict> dicts;
    dicts.reserve(parts.size());
    std::vector<wt::BitSpan> leaves;  // every part's leaf strings, in order
    size_t n = 0;
    for (const Sequence* p : parts) {
      dicts.push_back(p->trie_.ExtractDict());
      const std::vector<wt::BitSpan>& d = dicts.back().dict.distinct;
      leaves.insert(leaves.end(), d.begin(), d.end());
      n += p->size();
    }
    // The union alphabet. DedupBatch's id_of gives the union id of the
    // k-th entry of `leaves`; it is then replaced by one id per position.
    wt::internal::BatchDict all = wt::internal::DedupBatch(leaves);
    const std::vector<uint32_t> leaf_union_id = std::move(all.id_of);
    all.id_of.clear();
    all.id_of.reserve(n);
    size_t base = 0;  // offset of the current part's leaves in `leaves`
    for (const wt::internal::LeafDict& d : dicts) {
      for (const uint32_t id : d.dict.id_of) {
        all.id_of.push_back(leaf_union_id[base + id]);
      }
      base += d.dict.distinct.size();
    }
    Sequence out(std::move(codec));
    out.encoded_bits_ = TotalBits(all);
    out.trie_ = Trie::BuildFromDict(std::move(all));
    return out;
  }

  // ------------------------------------------------------------ persistence
  // One format (DESIGN.md #8): the v5 flat image. It persists ALL derived
  // state at aligned, offset-addressed positions, so loading borrows
  // straight into the blob with no per-element work — and the blob can be
  // a mapped file, so the engine's restart is O(#segments), not O(data).

  /// Writes SerializeImage() to `out`. Every policy writes the same image,
  /// so a file saved under any policy loads under any other.
  Status Save(std::ostream& out) const {
    const std::string img = SerializeImage();
    out.write(img.data(), static_cast<std::streamsize>(img.size()));
    if (!out.good()) {
      return Status::Error(ErrorCode::kIoError, "Save: stream write failed");
    }
    return Status::Ok();
  }

  /// Reads one image written by Save (under any policy) from `in`, leaving
  /// the stream just past it, so images can be embedded in larger streams.
  /// Corrupt, truncated, or mismatched input is an error, never an abort:
  /// the bytes go through LoadImage with full hash verification. Static
  /// sequences borrow the heap copy; mutable policies thaw out of it.
  static Result<Sequence> Load(std::istream& in) {
    namespace stor = wt::storage;
    // Magic first, so short input of another format reads as "not an
    // image" rather than as a truncated one.
    stor::ImageHeader h;
    if (!wt::TryReadPod(in, &h.magic)) {
      return Status::Error(ErrorCode::kTruncatedStream,
                           "Load: stream ended inside the image header");
    }
    if (!stor::IsImageMagic(h.magic)) {
      return Status::Error(ErrorCode::kCorruptStream, "Load: not an image");
    }
    const size_t rest = sizeof(h) - sizeof(h.magic);
    in.read(reinterpret_cast<char*>(&h) + sizeof(h.magic),
            static_cast<std::streamsize>(rest));
    if (in.gcount() != static_cast<std::streamsize>(rest)) {
      return Status::Error(ErrorCode::kTruncatedStream,
                           "Load: stream ended inside the image header");
    }
    if (h.total_bytes < sizeof(h)) {
      return Status::Error(ErrorCode::kCorruptStream,
                           "Load: image size below its header");
    }
    // total_bytes is untrusted until the hash checks out.
    std::string bytes(reinterpret_cast<const char*>(&h), sizeof(h));
    if (!wt::TryReadBytes(in, h.total_bytes - sizeof(h), &bytes)) {
      return Status::Error(ErrorCode::kTruncatedStream,
                           "Load: stream ended inside the image");
    }
    auto blob = std::make_shared<stor::HeapBlob>(bytes.size());
    std::memcpy(blob->mutable_data(), bytes.data(), bytes.size());
    Result<Sequence<Static, Codec>> image =
        Sequence<Static, Codec>::LoadImage(std::move(blob), Codec());
    if (!image.ok()) return image.status();
    if constexpr (kMutable) {
      return image->template Thaw<Policy>();
    } else {
      return std::move(image).value();
    }
  }

  /// The image bytes of this sequence (codec state + trie with all
  /// directories + the encoded-bits budget). Mutable policies are frozen
  /// into the canonical static image first. Write the bytes to a file
  /// verbatim; they load from any 8-aligned copy.
  std::string SerializeImage() const {
    if constexpr (kMutable) {
      return Freeze().SerializeImage();
    } else {
      wt::storage::ImageWriter w;
      if constexpr (internal::kHasCodecState<Codec>) {
        std::ostringstream st;
        codec_.SaveState(st);
        const std::string bytes = std::move(st).str();
        w.BeginSection(wt::storage::kSecCodecState);
        w.Pod<uint64_t>(bytes.size());
        w.Array(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
        w.EndSection();
      }
      trie_.SaveImage(w);
      return w.Finish(internal::CodecIdOf<Codec>(), size(), encoded_bits_);
    }
  }

  /// Borrows a static sequence out of an image blob (mapped or heap) —
  /// zero-copy, no rebuild; the sequence pins the blob for its lifetime.
  /// VerifyMode::kFull (default) hashes the whole image first, so corrupt
  /// or truncated blobs fail with a clean Status; kNone skips that pass
  /// (trusted storage / datasets larger than RAM) while still
  /// bounds-checking the layout.
  static Result<Sequence> LoadImage(
      std::shared_ptr<const wt::storage::Blob> blob, Codec codec = {},
      wt::storage::VerifyMode verify = wt::storage::VerifyMode::kFull)
    requires(!kMutable)
  {
    namespace stor = wt::storage;
    if (blob == nullptr) {
      return Status::Error(ErrorCode::kInvalidArgument, "LoadImage: null blob");
    }
    stor::ImageReader r;
    switch (stor::ImageReader::Parse(blob->data(), blob->size(), verify, &r)) {
      case stor::ImageError::kOk:
        break;
      case stor::ImageError::kBadMagic:
        return Status::Error(ErrorCode::kCorruptStream,
                             "LoadImage: not an image");
      case stor::ImageError::kBadVersion:
        return Status::Error(ErrorCode::kVersionMismatch,
                             "LoadImage: image version not supported");
      case stor::ImageError::kTruncated:
        return Status::Error(ErrorCode::kTruncatedStream,
                             "LoadImage: image truncated");
      case stor::ImageError::kBadLayout:
        return Status::Error(ErrorCode::kCorruptStream,
                             "LoadImage: section table out of bounds");
      case stor::ImageError::kChecksumMismatch:
        return Status::Error(ErrorCode::kCorruptStream,
                             "LoadImage: image checksum mismatch");
    }
    if ((r.header().codec_id & 0xFF) != internal::CodecIdOf<Codec>()) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "LoadImage: image was saved with a different codec");
    }
    Sequence out(std::move(codec));
    if constexpr (internal::kHasCodecState<Codec>) {
      uint64_t len = 0;
      const uint8_t* bytes = nullptr;
      if (!r.OpenSection(stor::kSecCodecState) || !r.Pod(&len) ||
          !r.Array(&bytes, len)) {
        return Status::Error(ErrorCode::kCorruptStream,
                             "LoadImage: bad codec-state section");
      }
      std::istringstream ss(
          std::string(reinterpret_cast<const char*>(bytes), len));
      if (!out.codec_.LoadState(ss)) {
        return Status::Error(ErrorCode::kCorruptStream,
                             "LoadImage: corrupt codec state");
      }
    }
    if (!out.trie_.LoadImage(r) || out.trie_.size() != r.header().n) {
      return Status::Error(ErrorCode::kCorruptStream,
                           "LoadImage: inconsistent trie sections");
    }
    out.encoded_bits_ = r.header().encoded_bits;
    out.storage_ = std::move(blob);
    return out;
  }

  /// The blob this sequence borrows from (null when heap-owned). Exposed
  /// for lifetime observability: engine snapshots pin segments, segments
  /// pin blobs, so a mapping unmaps exactly when the last snapshot drops.
  const std::shared_ptr<const wt::storage::Blob>& storage() const {
    return storage_;
  }

  // ------------------------------------------------------------------ admin

  /// Compressed footprint in bits (trie representation + codec state).
  size_t SizeInBits() const { return trie_.SizeInBits() + 8 * sizeof(Codec); }

  const Trie& trie() const { return trie_; }
  const Codec& codec() const { return codec_; }

  // ------------------------------------------------------------- capacity
  //
  // A static image (Freeze, Save, the Static constructor) stores all branch
  // bitvectors in one RRR capped at 2^32-1 total beta bits (DESIGN.md #6).
  // Each string contributes at most one beta bit per encoded bit, so the
  // facade budgets *encoded* bits — a conservative, cheaply-maintained
  // upper bound — and rejects mutations that could make the sequence
  // unfreezable, as kCapacityExceeded at the boundary instead of the core
  // loader's abort. Delete does not refund budget (the deleted length is
  // not known without an extra Access); sequences that churn near the
  // limit should shard through the engine layer instead.

  /// Upper bound on the summed encoded length this sequence accepts.
  static constexpr uint64_t kMaxEncodedBits = wt::WaveletTrie::kMaxBetaBits;

  /// Encoded bits appended so far (the budget consumed against
  /// kMaxEncodedBits). An upper bound on the static image's beta bits.
  uint64_t EncodedBits() const { return encoded_bits_; }

 private:
  template <typename P2, typename C2>
  friend class Sequence;  // Freeze/Thaw build sibling instantiations

  Status CheckRange(size_t l, size_t r) const {
    if (l > r) {
      return Status::Error(ErrorCode::kInvalidArgument, "range: l > r");
    }
    if (r > size()) {
      return Status::Error(ErrorCode::kOutOfRange, "range: r > size()");
    }
    return Status::Ok();
  }

  std::vector<wt::BitString> EncodeAll(const std::vector<Value>& values) const {
    std::vector<wt::BitString> enc;
    enc.reserve(values.size());
    for (const auto& v : values) enc.push_back(codec_.Encode(v));
    return enc;
  }

  static std::vector<wt::BitSpan> Spans(const std::vector<wt::BitString>& enc) {
    std::vector<wt::BitSpan> spans;
    spans.reserve(enc.size());
    for (const auto& s : enc) spans.push_back(s.Span());
    return spans;
  }

  static uint64_t TotalBits(const std::vector<wt::BitString>& enc) {
    uint64_t bits = 0;
    for (const auto& s : enc) bits += s.size();
    return bits;
  }

  /// The summed length of the strings a dictionary spells.
  static uint64_t TotalBits(const wt::internal::BatchDict& dict) {
    uint64_t bits = 0;
    for (const uint32_t id : dict.id_of) bits += dict.distinct[id].size();
    return bits;
  }

  /// Charges `bits` against the capacity budget, or reports
  /// kCapacityExceeded without mutating anything.
  Status ReserveBits(uint64_t bits) {
    if (internal::CapacityWouldOverflow(encoded_bits_, bits,
                                        kMaxEncodedBits)) {
      return Status::Error(
          ErrorCode::kCapacityExceeded,
          "append: sequence would exceed the 2^32-1-beta-bit static image "
          "capacity; shard through the engine layer");
    }
    encoded_bits_ += bits;
    return Status::Ok();
  }

  Codec codec_;
  Trie trie_;
  uint64_t encoded_bits_ = 0;
  // Pins the mapped/heap image blob a borrowed static trie points into;
  // null for heap-owned structures (set only by LoadImage, carried by
  // copies and Freeze).
  std::shared_ptr<const wt::storage::Blob> storage_;
};

}  // namespace wtrie
