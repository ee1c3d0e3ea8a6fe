// Tests for the zero-copy storage subsystem (src/storage/, DESIGN.md #8):
//   * image plumbing: writer/reader alignment and bounds discipline;
//   * the corruption property suite: a byte-flip sweep and a truncation
//     sweep over a saved v5 image, asserting every mutation yields a clean
//     Status (never an abort or an out-of-bounds read — CI runs this file
//     under ASan/UBSan), mirroring the WAL robustness suite;
//   * the mapped-vs-heap-vs-stream differential: Access/Rank/Select,
//     prefix ops, Section 5 analytics, batch forms, EncodedBits and
//     SizeInBits byte-identical across a mmap-loaded image, the same image
//     heap-loaded, the image read back through Sequence::Load, and the
//     originally built sequence;
//   * pager lifetime: one shared mapping per file, snapshots pinning a
//     compacted-away segment's mapping past its file deletion;
//   * engine integration: restart round-trip, segment files that are not
//     images (e.g. the retired stream format) and corrupt segment files
//     failing Open cleanly, and a manifest of another version refused;
//   * Sequence::Save writes exactly the image, for every policy, and
//     Sequence::Load reads one image out of a longer stream.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/sequence.hpp"
#include "engine/engine.hpp"
#include "image_roundtrip.hpp"
#include "storage/image.hpp"
#include "storage/pager.hpp"
#include "storage/vec.hpp"
#include "util/workloads.hpp"

namespace wtrie {
namespace {

namespace fs = std::filesystem;
namespace stor = wt::storage;

using StrSequence = Sequence<Static, wt::ByteCodec>;

std::vector<std::string> UrlWorkload(size_t n, uint64_t seed) {
  wt::UrlLogOptions opt;
  opt.num_domains = 24;
  opt.paths_per_domain = 12;
  opt.seed = seed;
  wt::UrlLogGenerator gen(opt);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

/// A scratch directory removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name) {
    path = fs::temp_directory_path() / ("wtrie_storage_test_" + name + "_" +
                                        std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

void WriteFile(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

using wt::test_util::BlobOf;  // the in-memory loading path

/// The opening bytes of a file in the retired stream format: a checksummed
/// envelope under the old Sequence magic ("WTSEQAP1"), version 3.
std::string RetiredStreamFile() {
  std::ostringstream os;
  wt::VersionedEnvelope::Write(os, 0x5754534551415031ull, /*version=*/3,
                               /*tag=*/0, "payload");
  return os.str();
}

// ----------------------------------------------------------------- Vec

TEST(StorageVec, OwnedGrowsAndComparesLikeVector) {
  stor::Vec<uint32_t> v;
  EXPECT_TRUE(v.empty());
  for (uint32_t i = 0; i < 1000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i * 3);
  v.shrink_to_fit();
  EXPECT_EQ(v.capacity(), 1000u);
  stor::Vec<uint32_t> copy = v;
  EXPECT_TRUE(copy == v);
  copy[0] = 7;
  EXPECT_FALSE(copy == v);
}

TEST(StorageVec, BorrowSharesBytesAndReportsExactCapacity) {
  std::vector<uint64_t> backing = {1, 2, 3, 4};
  auto b = stor::Vec<uint64_t>::Borrow(backing.data(), backing.size());
  EXPECT_TRUE(b.borrowed());
  EXPECT_EQ(b.data(), backing.data());
  EXPECT_EQ(b.capacity(), 4u);
  stor::Vec<uint64_t> copy = b;  // copies the borrow, not the bytes
  EXPECT_EQ(copy.data(), backing.data());
  copy.clear();  // detaches
  EXPECT_FALSE(copy.borrowed());
  EXPECT_EQ(copy.size(), 0u);
}

// --------------------------------------------------------- image plumbing

TEST(StorageImage, WriterAlignsArraysAndReaderRoundTrips) {
  stor::ImageWriter w;
  w.BeginSection(77);
  w.Pod<uint32_t>(0xABCD);  // deliberately misaligns the cursor
  const uint64_t words[3] = {10, 20, 30};
  w.Array(words, 3);
  w.EndSection();
  const std::string img = w.Finish(/*codec_id=*/5, /*n=*/3, /*encoded_bits=*/99);

  auto blob = BlobOf(img);
  stor::ImageReader r;
  ASSERT_EQ(stor::ImageReader::Parse(blob->data(), blob->size(),
                                     stor::VerifyMode::kFull, &r),
            stor::ImageError::kOk);
  EXPECT_EQ(r.header().codec_id, 5u);
  EXPECT_EQ(r.header().n, 3u);
  EXPECT_EQ(r.header().encoded_bits, 99u);
  ASSERT_EQ(r.sections().size(), 1u);
  EXPECT_EQ(r.sections()[0].offset % 8, 0u);
  ASSERT_TRUE(r.OpenSection(77));
  EXPECT_FALSE(r.OpenSection(78));
  ASSERT_TRUE(r.OpenSection(77));
  uint32_t pod = 0;
  ASSERT_TRUE(r.Pod(&pod));
  EXPECT_EQ(pod, 0xABCDu);
  const uint64_t* arr = nullptr;
  ASSERT_TRUE(r.Array(&arr, 3));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(arr) % 8, 0u);  // aligned borrow
  EXPECT_EQ(arr[0], 10u);
  EXPECT_EQ(arr[2], 30u);
  // Reading past the section is refused, not overrun.
  uint64_t extra = 0;
  EXPECT_FALSE(r.Pod(&extra));
  const uint64_t* overrun = nullptr;
  EXPECT_FALSE(r.Array(&overrun, 1));
}

TEST(StorageImage, OversizedSectionTableIsRejected) {
  stor::ImageWriter w;
  w.BeginSection(1);
  w.Pod<uint64_t>(42);
  w.EndSection();
  std::string img = w.Finish(0, 0, 0);
  // Inflate the claimed section byte count past the blob.
  stor::SectionEntry entry;
  std::memcpy(&entry, img.data() + sizeof(stor::ImageHeader), sizeof(entry));
  entry.bytes = img.size();  // offset + bytes now exceeds the blob
  std::memcpy(img.data() + sizeof(stor::ImageHeader), &entry, sizeof(entry));
  auto blob = BlobOf(img);
  stor::ImageReader r;
  EXPECT_EQ(stor::ImageReader::Parse(blob->data(), blob->size(),
                                     stor::VerifyMode::kNone, &r),
            stor::ImageError::kBadLayout);
}

// ------------------------------------------------------ corruption sweeps

/// Every single-byte flip over a full v5 image must surface as a clean
/// Status error — the whole-image hash leaves no undetected byte, and the
/// bounds discipline means even the pre-hash header/table parse never
/// reads outside the blob (ASan-verified in CI).
TEST(StorageCorruption, ByteFlipSweepYieldsCleanErrors) {
  const auto values = UrlWorkload(300, 5);
  const StrSequence seq(values);
  const std::string img = seq.SerializeImage();
  ASSERT_LT(img.size(), 64u * 1024);  // keep the sweep exhaustive but fast
  for (size_t i = 0; i < img.size(); ++i) {
    std::string bad = img;
    bad[i] = static_cast<char>(bad[i] ^ 0xFF);
    Result<StrSequence> loaded = StrSequence::LoadImage(BlobOf(bad));
    EXPECT_FALSE(loaded.ok()) << "byte " << i << " flip went undetected";
  }
}

TEST(StorageCorruption, TruncationSweepYieldsCleanErrors) {
  const auto values = UrlWorkload(200, 6);
  const StrSequence seq(values);
  const std::string img = seq.SerializeImage();
  for (size_t len = 0; len < img.size(); ++len) {
    Result<StrSequence> loaded =
        StrSequence::LoadImage(BlobOf(img.substr(0, len)));
    EXPECT_FALSE(loaded.ok()) << "truncation at " << len << " went undetected";
  }
  // Trailing garbage is equally rejected (total_bytes must match exactly).
  Result<StrSequence> padded = StrSequence::LoadImage(BlobOf(img + "xx"));
  EXPECT_FALSE(padded.ok());
}

TEST(StorageCorruption, WrongCodecAndWrongFormatAreCleanErrors) {
  const StrSequence seq(UrlWorkload(50, 7));
  const std::string img = seq.SerializeImage();
  // Wrong codec instantiation.
  using RawSequence = Sequence<Static, wt::RawByteCodec>;
  Result<RawSequence> wrong = RawSequence::LoadImage(BlobOf(img));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.code(), ErrorCode::kInvalidArgument);
  // A file in the retired stream format is not an image, on either path.
  Result<StrSequence> not_image =
      StrSequence::LoadImage(BlobOf(RetiredStreamFile()));
  ASSERT_FALSE(not_image.ok());
  EXPECT_EQ(not_image.code(), ErrorCode::kCorruptStream);
  std::istringstream retired(RetiredStreamFile());
  Result<StrSequence> not_loaded = StrSequence::Load(retired);
  ASSERT_FALSE(not_loaded.ok());
  EXPECT_EQ(not_loaded.code(), ErrorCode::kCorruptStream);
  // A future image version is a clean version error.
  std::string future = img;
  const uint32_t v = stor::kImageVersion + 1;
  std::memcpy(future.data() + offsetof(stor::ImageHeader, version), &v,
              sizeof(v));
  Result<StrSequence> newer = StrSequence::LoadImage(BlobOf(future));
  ASSERT_FALSE(newer.ok());
  EXPECT_EQ(newer.code(), ErrorCode::kVersionMismatch);
}

// v4 images (flat 16-byte node headers in section 8) are not read: there is
// one format and no second loader. Their magic still names an image, so
// both load paths refuse them as a clean version mismatch, never as
// garbage and never by aborting.
TEST(StorageCorruption, V4ImagesAreAVersionMismatch) {
  const StrSequence seq(UrlWorkload(50, 7));
  std::string v4 = seq.SerializeImage();
  const uint64_t magic = 0x3476474D49545721ull;  // "!WTIMGv4"
  const uint32_t version = 4;
  ASSERT_TRUE(stor::IsImageMagic(magic));
  std::memcpy(v4.data() + offsetof(stor::ImageHeader, magic), &magic,
              sizeof(magic));
  std::memcpy(v4.data() + offsetof(stor::ImageHeader, version), &version,
              sizeof(version));
  Result<StrSequence> mapped = StrSequence::LoadImage(BlobOf(v4));
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.code(), ErrorCode::kVersionMismatch);
  std::istringstream in(v4);
  Result<StrSequence> streamed = StrSequence::Load(in);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.code(), ErrorCode::kVersionMismatch);
  // The version field alone says so too.
  std::string v4_field_only = seq.SerializeImage();
  std::memcpy(v4_field_only.data() + offsetof(stor::ImageHeader, version),
              &version, sizeof(version));
  EXPECT_EQ(StrSequence::LoadImage(BlobOf(v4_field_only)).code(),
            ErrorCode::kVersionMismatch);
}

// ----------------------------------------- mapped / heap / stream equivalence

struct LoadedAllWays {
  StrSequence built;
  StrSequence stream;
  StrSequence heap;
  StrSequence mapped;
};

LoadedAllWays LoadAllWays(const std::vector<std::string>& values,
                          const TempDir& dir) {
  StrSequence built(values);
  // Save/Load through a stream.
  std::ostringstream os;
  EXPECT_TRUE(built.Save(os).ok());
  std::istringstream is(os.str());
  Result<StrSequence> stream = StrSequence::Load(is);
  EXPECT_TRUE(stream.ok());
  // The image, heap-loaded and mmap-loaded.
  const std::string img = built.SerializeImage();
  Result<StrSequence> heap = StrSequence::LoadImage(BlobOf(img));
  EXPECT_TRUE(heap.ok());
  const fs::path file = dir.path / "seq.img";
  WriteFile(file, img);
  std::string err;
  auto blob = stor::MapFileBlob(file.string(), /*prefer_mmap=*/true,
                                stor::Advise::kNormal, &err);
  EXPECT_NE(blob, nullptr) << err;
  Result<StrSequence> mapped = StrSequence::LoadImage(blob);
  EXPECT_TRUE(mapped.ok());
  EXPECT_TRUE(mapped->storage() != nullptr);
  return {std::move(built), std::move(stream).value(), std::move(heap).value(),
          std::move(mapped).value()};
}

void ExpectAllAnswersIdentical(const StrSequence& a, const StrSequence& b,
                               const std::vector<std::string>& values,
                               uint64_t seed) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.NumDistinct(), b.NumDistinct());
  EXPECT_EQ(a.EncodedBits(), b.EncodedBits());
  EXPECT_EQ(a.SizeInBits(), b.SizeInBits());
  std::mt19937_64 rng(seed);
  const size_t n = a.size();
  std::vector<size_t> positions;
  std::vector<std::string> queries;
  std::vector<size_t> ranks, indices;
  for (size_t i = 0; i < 400; ++i) {
    positions.push_back(rng() % n);
    queries.push_back(i % 5 == 4 ? "absent.example/none"
                                 : values[rng() % values.size()]);
    ranks.push_back(rng() % (n + 1));
    indices.push_back(rng() % 40);
  }
  for (size_t i = 0; i < positions.size(); ++i) {
    EXPECT_EQ(a.Access(positions[i]).value(), b.Access(positions[i]).value());
    EXPECT_EQ(a.Rank(queries[i], ranks[i]).value(),
              b.Rank(queries[i], ranks[i]).value());
    const auto sa = a.Select(queries[i], indices[i]);
    const auto sb = b.Select(queries[i], indices[i]);
    ASSERT_EQ(sa.ok(), sb.ok());
    if (sa.ok()) {
      EXPECT_EQ(sa.value(), sb.value());
    }
    EXPECT_EQ(a.RankPrefix(queries[i].substr(0, 4), ranks[i]).value(),
              b.RankPrefix(queries[i].substr(0, 4), ranks[i]).value());
    const auto pa = a.SelectPrefix(queries[i].substr(0, 4), indices[i]);
    const auto pb = b.SelectPrefix(queries[i].substr(0, 4), indices[i]);
    ASSERT_EQ(pa.ok(), pb.ok());
    if (pa.ok()) {
      EXPECT_EQ(pa.value(), pb.value());
    }
  }
  // Batch forms.
  EXPECT_EQ(a.AccessBatch(positions).value(), b.AccessBatch(positions).value());
  EXPECT_EQ(a.RankBatch(queries, ranks).value(),
            b.RankBatch(queries, ranks).value());
  EXPECT_EQ(a.SelectBatch(queries, indices).value(),
            b.SelectBatch(queries, indices).value());
  // Section 5 analytics over a few windows.
  for (size_t i = 0; i < 8; ++i) {
    size_t l = rng() % n, r = rng() % (n + 1);
    if (l > r) std::swap(l, r);
    auto da = a.Distinct(l, r).value();
    auto db = b.Distinct(l, r).value();
    for (;;) {
      const bool ha = da.Next();
      const bool hb = db.Next();
      ASSERT_EQ(ha, hb);
      if (!ha) break;
      EXPECT_EQ(da.value(), db.value());
      EXPECT_EQ(da.count(), db.count());
    }
    const auto ma = a.Majority(l, r);
    const auto mb = b.Majority(l, r);
    ASSERT_EQ(ma.ok(), mb.ok());
    if (ma.ok()) {
      EXPECT_EQ(ma.value(), mb.value());
    }
    auto ca = a.Scan(l, std::min(n, l + 50)).value();
    auto cb = b.Scan(l, std::min(n, l + 50)).value();
    for (;;) {
      const bool ha = ca.Next();
      const bool hb = cb.Next();
      ASSERT_EQ(ha, hb);
      if (!ha) break;
      EXPECT_EQ(ca.position(), cb.position());
      EXPECT_EQ(ca.value(), cb.value());
    }
  }
}

TEST(StorageEquivalence, MappedHeapAndStreamAnswerByteIdentical) {
  TempDir dir("equiv");
  const auto values = UrlWorkload(6000, 17);
  LoadedAllWays t = LoadAllWays(values, dir);
  ExpectAllAnswersIdentical(t.built, t.stream, values, 101);
  ExpectAllAnswersIdentical(t.built, t.heap, values, 102);
  ExpectAllAnswersIdentical(t.built, t.mapped, values, 103);
}

TEST(StorageEquivalence, SingleDistinctAndEmptyEdgeCases) {
  TempDir dir("edge");
  // Single distinct string: zero internal nodes, empty beta delimiters.
  const std::vector<std::string> same(100, "only.example/path");
  LoadedAllWays t = LoadAllWays(same, dir);
  ExpectAllAnswersIdentical(t.built, t.mapped, same, 104);
  ExpectAllAnswersIdentical(t.built, t.stream, same, 105);
  // Empty sequence.
  const StrSequence empty{};
  const std::string img = empty.SerializeImage();
  Result<StrSequence> loaded = StrSequence::LoadImage(BlobOf(img));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->EncodedBits(), 0u);
}

TEST(StorageEquivalence, FreezeOfMappedSequenceKeepsBlobAlive) {
  TempDir dir("freeze");
  const auto values = UrlWorkload(500, 23);
  LoadedAllWays t = LoadAllWays(values, dir);
  StrSequence frozen = t.mapped.Freeze();  // static->static copies the borrow
  EXPECT_EQ(frozen.storage(), t.mapped.storage());
  EXPECT_EQ(frozen.Access(7).value(), t.built.Access(7).value());
}

TEST(StorageEquivalence, StatefulCodecRoundTripsThroughImage) {
  using IntSequence = Sequence<Static, wt::FixedIntCodec>;
  std::vector<uint64_t> ints;
  std::mt19937_64 rng(3);
  for (size_t i = 0; i < 2000; ++i) ints.push_back(rng() % 1000);
  const IntSequence seq(ints, wt::FixedIntCodec(10));
  const std::string img = seq.SerializeImage();
  Result<IntSequence> loaded =
      IntSequence::LoadImage(BlobOf(img), wt::FixedIntCodec(64));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->codec().width(), 10u);  // state came from the image
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(loaded->Access(i).value(), ints[i]);
  }
}

// ----------------------------------------------------------------- pager

TEST(StoragePager, MappingSurvivesFileDeletion) {
  TempDir dir("unlink");
  const auto values = UrlWorkload(300, 37);
  const StrSequence seq(values);
  const fs::path file = dir.path / "seq.img";
  WriteFile(file, seq.SerializeImage());
  std::string err;
  Result<StrSequence> mapped = StrSequence::LoadImage(stor::MapFileBlob(
      file.string(), /*prefer_mmap=*/true, stor::Advise::kNormal, &err));
  ASSERT_TRUE(mapped.ok());
  fs::remove(file);
  // POSIX keeps unlinked-but-mapped bytes readable: the borrowed sequence
  // still answers (this is exactly how snapshots outlive compaction).
  for (size_t i = 0; i < values.size(); i += 17) {
    EXPECT_EQ(mapped->Access(i).value(), values[i]);
  }
}

// ------------------------------------------------------- engine integration

using StrEngine = Engine<wt::ByteCodec>;

TEST(StorageEngine, RestartServesMappedSegmentsIdentically) {
  TempDir dir("restart");
  const auto values = UrlWorkload(20000, 41);
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 1 << 11;  // many freezes and compactions
  opt.dir = dir.path.string();
  std::vector<std::string> expect_answers;
  {
    auto eng = StrEngine::Open(opt).value();
    ASSERT_TRUE(eng->AppendBatch(values).ok());
    ASSERT_TRUE(eng->Flush().ok());
    auto snap = eng->GetSnapshot();
    ASSERT_EQ(snap.size(), values.size());
    for (size_t i = 0; i < values.size(); i += 997) {
      expect_answers.push_back(snap.Access(i).value());
    }
  }
  // Segment files on disk are v5 images.
  size_t seg_files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("seg-", 0) != 0) continue;
    ++seg_files;
    std::string err;
    auto blob = stor::ReadFileBlob(e.path().string(), &err);
    ASSERT_NE(blob, nullptr);
    stor::ImageReader r;
    EXPECT_EQ(stor::ImageReader::Parse(blob->data(), blob->size(),
                                       stor::VerifyMode::kFull, &r),
              stor::ImageError::kOk)
        << name;
  }
  ASSERT_GT(seg_files, 0u);
  // Reopen: segments are mapped (no deserialization) and answer the same.
  auto eng = StrEngine::Open(opt).value();
  EXPECT_EQ(eng->size(), values.size());
  // Each segment file the manifest lists is mapped exactly once.
  Result<engine::Manifest> manifest = engine::ReadManifest(dir.path.string());
  ASSERT_TRUE(manifest.ok());
  size_t listed = 0;
  for (const auto& sh : manifest->shards) listed += sh.segments.size();
  const wt::obs::MetricsSnapshot ms = eng->metrics()->Snapshot();
  const uint64_t* maps = ms.FindCounter("wt_pager_maps_total");
  ASSERT_NE(maps, nullptr);
  EXPECT_EQ(*maps, listed);
  auto snap = eng->GetSnapshot();
  size_t k = 0;
  for (size_t i = 0; i < values.size(); i += 997) {
    EXPECT_EQ(snap.Access(i).value(), expect_answers[k++]);
  }
}

TEST(StorageEngine, NonImageSegmentFileFailsOpenCleanly) {
  TempDir dir("notimage");
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 1 << 30;
  opt.dir = dir.path.string();
  {
    auto eng = StrEngine::Open(opt).value();
    ASSERT_TRUE(eng->AppendBatch(UrlWorkload(4000, 43)).ok());
    ASSERT_TRUE(eng->Flush().ok());
  }
  // Replace every segment file with the retired stream format (what a
  // store written before the image format would hold). The engine reads
  // images only: Open must refuse cleanly.
  size_t replaced = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().filename().string().rfind("seg-", 0) != 0) continue;
    WriteFile(e.path(), RetiredStreamFile());
    ++replaced;
  }
  ASSERT_GT(replaced, 0u);
  auto opened = StrEngine::Open(opt);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kCorruptStream);
}

TEST(StorageEngine, ManifestRoundTripsAndRejectsOtherVersions) {
  TempDir dir("manifest");
  engine::Manifest m;
  m.num_shards = 2;
  m.shards.resize(2);
  m.shards[0].next_seg_seq = 5;
  m.shards[1].segments.push_back({/*seq=*/3, /*count=*/77});
  ASSERT_TRUE(engine::WriteManifest(dir.path.string(), m).ok());
  Result<engine::Manifest> back = engine::ReadManifest(dir.path.string());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_shards, 2u);
  EXPECT_EQ(back->shards[0].next_seg_seq, 5u);
  EXPECT_TRUE(back->shards[0].segments.empty());
  ASSERT_EQ(back->shards[1].segments.size(), 1u);
  EXPECT_EQ(back->shards[1].segments[0].seq, 3u);
  EXPECT_EQ(back->shards[1].segments[0].count, 77u);
  // Stamp the file as version 1 (the pre-watermark layout) and as version
  // 2 (per-shard WAL floors and watermarks, batch ids): the reader parses
  // one layout only, so it must refuse both rather than misparse, and
  // opening such a store fails with the same clean Status.
  const fs::path file = dir.path / "MANIFEST";
  std::string bytes;
  {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  for (const uint32_t old_version : {1u, 2u}) {
    std::memcpy(bytes.data() + offsetof(wt::EnvelopeHeader, version),
                &old_version, sizeof(old_version));
    WriteFile(file, bytes);
    Result<engine::Manifest> stale = engine::ReadManifest(dir.path.string());
    ASSERT_FALSE(stale.ok()) << old_version;
    EXPECT_EQ(stale.status().code(), ErrorCode::kVersionMismatch);
    StrEngine::Options opt;
    opt.dir = dir.path.string();
    auto opened = StrEngine::Open(opt);
    ASSERT_FALSE(opened.ok()) << old_version;
    EXPECT_EQ(opened.status().code(), ErrorCode::kVersionMismatch);
  }
}

TEST(StorageEngine, CorruptSegmentFailsOpenCleanly) {
  TempDir dir("corrupt");
  StrEngine::Options opt;
  opt.num_shards = 1;
  opt.memtable_limit = 1 << 30;
  opt.dir = dir.path.string();
  // The paranoid open: full-image hashing (off by default — instant open
  // skips the pass; this is the flag an operator flips on suspect disks).
  opt.verify_segment_checksums = true;
  {
    auto eng = StrEngine::Open(opt).value();
    ASSERT_TRUE(eng->AppendBatch(UrlWorkload(2000, 47)).ok());
    ASSERT_TRUE(eng->Flush().ok());
  }
  fs::path seg_path;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().filename().string().rfind("seg-", 0) == 0) seg_path = e.path();
  }
  ASSERT_FALSE(seg_path.empty());
  // Flip one byte in the middle of the image.
  std::string bytes;
  {
    std::ifstream in(seg_path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  WriteFile(seg_path, bytes);
  auto opened = StrEngine::Open(opt);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kCorruptStream);
}

TEST(StorageEngine, SnapshotPinsMappingAcrossCompactionDeletion) {
  TempDir dir("pin");
  const auto values = UrlWorkload(8000, 53);
  StrEngine::Options opt;
  opt.num_shards = 1;
  opt.memtable_limit = 1 << 30;
  opt.dir = dir.path.string();
  {
    // Two separate flushed batches -> two segments on disk.
    auto eng = StrEngine::Open(opt).value();
    ASSERT_TRUE(
        eng->AppendBatch({values.begin(), values.begin() + 4000}).ok());
    ASSERT_TRUE(eng->Flush().ok());
    ASSERT_TRUE(eng->AppendBatch({values.begin() + 4000, values.end()}).ok());
    ASSERT_TRUE(eng->Flush().ok());
  }
  auto eng = StrEngine::Open(opt).value();
  auto pinned = eng->GetSnapshot();  // pins the mapped pre-compaction stack
  ASSERT_EQ(pinned.size(), values.size());
  ASSERT_TRUE(eng->Compact().ok());  // merges, deletes victim files
  // The victims' files are gone (only the merged segment remains)...
  size_t seg_files = 0;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    seg_files += e.path().filename().string().rfind("seg-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(seg_files, 1u);
  // ...yet the pinned snapshot still answers from the unlinked mappings.
  for (size_t i = 0; i < values.size(); i += 211) {
    EXPECT_EQ(pinned.Access(i).value(), values[i]);
  }
  auto fresh = eng->GetSnapshot();
  for (size_t i = 0; i < values.size(); i += 211) {
    EXPECT_EQ(fresh.Access(i).value(), values[i]);
  }
}

// Builds a small flushed durable store at $WT_DEMO_STORE_DIR (and leaves
// it there) so CI can point wt_inspect at a real manifest + v5 segment
// images. A plain no-op without the env var.
TEST(StorageEngine, BuildDemoStoreForInspect) {
  const char* dest = std::getenv("WT_DEMO_STORE_DIR");
  if (dest == nullptr) GTEST_SKIP() << "set WT_DEMO_STORE_DIR to build";
  StrEngine::Options opt;
  opt.num_shards = 2;
  opt.memtable_limit = 1 << 12;
  opt.dir = dest;
  fs::remove_all(opt.dir);
  auto eng = StrEngine::Open(opt).value();
  ASSERT_TRUE(eng->AppendBatch(UrlWorkload(10000, 67)).ok());
  ASSERT_TRUE(eng->Flush().ok());
}

// ------------------------------------------------------ Sequence::Save

TEST(SequenceSave, WritesTheImageForEveryPolicy) {
  const auto values = UrlWorkload(1500, 59);
  const StrSequence seq(values);
  ASSERT_GT(seq.EncodedBits(), 0u);
  std::ostringstream os;
  ASSERT_TRUE(seq.Save(os).ok());
  EXPECT_EQ(os.str(), seq.SerializeImage());
  // A mutable policy saves the canonical static image of its contents.
  const Sequence<AppendOnly, wt::ByteCodec> stream(values);
  std::ostringstream os2;
  ASSERT_TRUE(stream.Save(os2).ok());
  EXPECT_EQ(os2.str(), os.str());
  // The header carries the budget, so nothing is recomputed on load.
  std::istringstream is(os.str());
  Result<StrSequence> loaded = StrSequence::Load(is);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->EncodedBits(), seq.EncodedBits());
  EXPECT_NE(loaded->storage(), nullptr);  // borrowed from the read buffer
}

TEST(SequenceSave, LoadReadsOneImageOutOfALongerStream) {
  const StrSequence a(UrlWorkload(300, 61));
  const StrSequence b(std::vector<std::string>{"x", "y", "x"});
  std::stringstream file;
  ASSERT_TRUE(a.Save(file).ok());
  ASSERT_TRUE(b.Save(file).ok());
  file << "tail";
  Result<StrSequence> la = StrSequence::Load(file);
  Result<StrSequence> lb = StrSequence::Load(file);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  EXPECT_EQ(la->size(), a.size());
  EXPECT_EQ(lb->Access(2).value(), "x");
  std::string rest;
  file >> rest;
  EXPECT_EQ(rest, "tail");
}

}  // namespace
}  // namespace wtrie
