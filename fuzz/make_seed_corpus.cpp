// Regenerates the committed seed corpora under fuzz/corpus/{image,wal,
// envelope,frame,metrics,trace}/ — run after any deliberate format
// change, never silently.
//
//   make_seed_corpus <repo-root>/fuzz/corpus
//
// Every format's seeds are produced by the REAL writers (ImageWriter,
// Sequence::Save, WalWriter, WriteManifest), so a seed is exactly what
// production code persists. Each family gets:
//   ok-*        valid files — the replay driver requires these accepted
//               (a refactor that stops reading them broke the format);
//   corrupt-*   the same bytes with one byte flipped inside the payload —
//               required REJECTED (checksum/bounds must catch the flip);
//   raw-*       edge shapes with no expectation beyond "don't crash".
// Some families also keep seeds this tool no longer writes, files of
// retired formats that must now be refused: corrupt-v4-flat-headers*.img
// (v4 images, flat node headers: a version mismatch), and
// corrupt-v2-two-records.log and corrupt-v2-manifest.env (the per-shard
// WAL records, whose checksum covered the payload only, and the v2
// manifest).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/sequence.hpp"
#include "core/codec.hpp"
#include "core/wavelet_trie.hpp"
#include "engine/manifest.hpp"
#include "engine/wal.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "storage/image.hpp"

namespace fs = std::filesystem;

namespace {

void WriteFile(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    std::fprintf(stderr, "write failed: %s\n", p.string().c_str());
    std::exit(1);
  }
  std::printf("%8zu  %s\n", bytes.size(), p.string().c_str());
}

std::string FlipByte(std::string bytes, size_t pos) {
  bytes.at(pos) ^= 0x5A;
  return bytes;
}

std::string ImageSeed() {
  const std::vector<std::string> keys = {"app", "apple", "apply",
                                         "banana", "band"};
  std::vector<wt::BitString> encoded;
  uint64_t bits = 0;
  for (const std::string& k : keys) {
    encoded.push_back(wt::ByteCodec::Encode(k));
    bits += encoded.back().size();
  }
  wt::WaveletTrie trie(encoded);
  wt::storage::ImageWriter w;
  trie.SaveImage(w);
  return w.Finish(wt::ByteCodec::kCodecId, keys.size(), bits);
}

std::string WalSeed() {
  const fs::path tmp =
      fs::temp_directory_path() / "wt_fuzz_seed_wal.log";
  fs::remove(tmp);
  {
    wtrie::engine::WalWriter w;
    if (!w.Open(wt::io::RealVfs::Instance(), tmp.string(), /*sync=*/false)
             .ok()) {
      std::exit(1);
    }
    std::vector<wt::BitString> batch;
    for (const char* s : {"alpha", "beta", "gamma"}) {
      batch.push_back(wt::ByteCodec::Encode(s));
    }
    // Two batches of one log: positions [0, 3), then [3, 4).
    if (!w.Append(/*first=*/0, batch).ok()) std::exit(1);
    if (!w.Append(/*first=*/3, {batch.data(), 1}).ok()) std::exit(1);
    if (!w.Close().ok()) std::exit(1);
  }
  std::ifstream in(tmp, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  fs::remove(tmp);
  return bytes;
}

// What Sequence::Save writes: the whole-sequence image.
std::string SequenceSaveSeed() {
  wtrie::Sequence<wtrie::Static> seq(
      std::vector<std::string>{"get", "put", "delete", "scan"});
  std::ostringstream out;
  if (!seq.Save(out).ok()) std::exit(1);
  return std::move(out).str();
}

// A real MANIFEST (the envelope's remaining production user): two shards,
// one listing a segment, written by the engine's own writer.
std::string EnvelopeSeed() {
  const fs::path dir = fs::temp_directory_path() / "wt_fuzz_seed_manifest";
  fs::remove_all(dir);
  fs::create_directories(dir);
  wtrie::engine::Manifest m;
  m.num_shards = 2;
  m.shards.resize(2);
  m.shards[0].next_seg_seq = 2;
  m.shards[0].segments.push_back({/*seq=*/1, /*count=*/40});
  m.shards[1].next_seg_seq = 1;
  if (!wtrie::engine::WriteManifest(dir.string(), m).ok()) std::exit(1);
  std::ifstream in(dir / "MANIFEST", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  fs::remove_all(dir);
  return bytes;
}

// A realistic client conversation: several request frames back to back,
// built with the REAL encoder — exactly what a session buffer receives.
std::string FrameSeedStream() {
  std::string stream;
  {
    wt::net::PayloadWriter w;
    w.Pod<uint32_t>(3);
    for (const uint64_t pos : {0ull, 7ull, 41ull}) w.Pod<uint64_t>(pos);
    stream += wt::net::EncodeFrame(static_cast<uint8_t>(wt::net::MsgType::kAccess),
                                   /*request_id=*/1, /*deadline_ms=*/0,
                                   w.Take());
  }
  {
    wt::net::PayloadWriter w;
    w.Pod<uint32_t>(2);
    w.Pod<uint64_t>(5);
    w.Str("www.example.com/a");
    w.Pod<uint64_t>(9);
    w.Str("www.example.com/b");
    stream += wt::net::EncodeFrame(static_cast<uint8_t>(wt::net::MsgType::kRank),
                                   /*request_id=*/2, /*deadline_ms=*/25,
                                   w.Take());
  }
  {
    wt::net::PayloadWriter w;
    w.Pod<uint32_t>(2);
    w.Str("alpha");
    w.Str("beta");
    stream += wt::net::EncodeFrame(static_cast<uint8_t>(wt::net::MsgType::kAppend),
                                   /*request_id=*/3, /*deadline_ms=*/0,
                                   w.Take());
  }
  stream += wt::net::EncodeFrame(static_cast<uint8_t>(wt::net::MsgType::kPing),
                                 /*request_id=*/4, /*deadline_ms=*/0, "");
  return stream;
}

// Single frame, so a byte flip anywhere in its payload must fail the
// WHOLE input (a flip in frame 2 of a stream would leave frame 1 valid).
std::string FrameSeedSingle() {
  wt::net::PayloadWriter w;
  w.Pod<uint64_t>(0);
  w.Pod<uint64_t>(100);
  w.Pod<uint64_t>(3);
  return wt::net::EncodeFrame(static_cast<uint8_t>(wt::net::MsgType::kFrequent),
                              /*request_id=*/9, /*deadline_ms=*/50,
                              w.Take());
}

// A real registry snapshot — one instrument of each kind with the live
// serializer, so the seed is exactly what a kMetrics reply carries.
// Deterministic values: regenerating the corpus must not churn the file.
std::string MetricsSeed() {
  wt::obs::MetricsRegistry reg;
  reg.GetCounter("wt_admission_admitted_total")->Add(12345);
  reg.GetGauge("wt_admission_queue_depth")->Set(-3);
  wt::obs::Histogram* h = reg.GetHistogram("wt_serving_admit_wait_us");
  for (uint64_t v : {0ull, 5ull, 17ull, 900ull, 1048576ull}) h->Record(v);
  return wt::obs::SerializeMetricsSnapshot(reg.Snapshot());
}

// A hand-built span timeline through the live serializer: a freeze with a
// nested compaction, a WAL fsync on another thread, and a pager-unmap
// instant — the nesting ValidateTraceSnapshot checks, with fixed
// timestamps so regenerating the corpus must not churn the file.
std::string TraceSeed() {
  wt::obs::TraceSnapshot s;
  auto ev = [&s](uint64_t ts, wt::obs::TraceKind k, wt::obs::TraceName n,
                 uint64_t span, uint64_t parent, uint64_t arg, uint32_t tid) {
    wt::obs::TraceWireEvent e;
    e.ts_ns = ts;
    e.span_id = span;
    e.parent_id = parent;
    e.arg = arg;
    e.tid = tid;
    e.kind = static_cast<uint8_t>(k);
    e.name = static_cast<uint8_t>(n);
    s.events.push_back(e);
  };
  using K = wt::obs::TraceKind;
  using N = wt::obs::TraceName;
  ev(1000, K::kBegin, N::kFreeze, 0x101, 0, 0, 2);
  ev(2000, K::kBegin, N::kCompaction, 0x102, 0x101, 0, 2);
  ev(3000, K::kEnd, N::kCompaction, 0x102, 0x101, 0, 2);
  ev(4000, K::kEnd, N::kFreeze, 0x101, 0, 0, 2);
  ev(5000, K::kBegin, N::kWalFsync, 0x103, 0, 1, 3);
  ev(6000, K::kEnd, N::kWalFsync, 0x103, 0, 1, 3);
  ev(7000, K::kInstant, N::kPagerUnmap, 0, 0, 4096, 3);
  return wt::obs::SerializeTraceSnapshot(s);
}

std::string TinyEnvelopeSeed() {
  std::ostringstream out;
  wt::VersionedEnvelope::Write(out, wtrie::engine::Manifest::kMagic,
                               wtrie::engine::Manifest::kVersion,
                               /*tag=*/0x0102, "payload");
  return std::move(out).str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  for (const char* d :
       {"image", "wal", "envelope", "frame", "metrics", "trace"}) {
    fs::create_directories(root / d);
  }

  const std::string image = ImageSeed();
  WriteFile(root / "image" / "ok-small-trie.img", image);
  // Flip inside the section bodies (past header + table) so kFull dies at
  // the hash and kNone exercises the structural checks.
  WriteFile(root / "image" / "corrupt-bodyflip.img",
            FlipByte(image, image.size() - 9));
  WriteFile(root / "image" / "raw-header-only.img",
            image.substr(0, sizeof(wt::storage::ImageHeader)));
  const std::string saved = SequenceSaveSeed();
  WriteFile(root / "image" / "ok-sequence-save.img", saved);
  WriteFile(root / "image" / "corrupt-sequence-save-flip.img",
            FlipByte(saved, saved.size() / 2));

  const std::string wal = WalSeed();
  WriteFile(root / "wal" / "ok-two-records.log", wal);
  WriteFile(root / "wal" / "corrupt-payloadflip.log",
            FlipByte(wal, sizeof(wtrie::engine::WalRecordHeader) + 4));
  // A flipped bit in the first record's position: the checksum covers the
  // header fields too, so the record (and the one behind it) is refused.
  {
    std::string flipped = wal;
    flipped.at(offsetof(wtrie::engine::WalRecordHeader, first)) ^= 0x01;
    WriteFile(root / "wal" / "corrupt-position-flip.log", flipped);
  }
  WriteFile(root / "wal" / "raw-torn-tail.log",
            wal.substr(0, wal.size() - 7));

  const std::string env = EnvelopeSeed();
  WriteFile(root / "envelope" / "ok-manifest.env", env);
  WriteFile(root / "envelope" / "corrupt-payloadflip.env",
            FlipByte(env, sizeof(wt::EnvelopeHeader) + 3));
  WriteFile(root / "envelope" / "ok-tiny.env", TinyEnvelopeSeed());
  WriteFile(root / "envelope" / "raw-empty.env", "");

  const std::string stream = FrameSeedStream();
  WriteFile(root / "frame" / "ok-request-stream.bin", stream);
  const std::string single = FrameSeedSingle();
  WriteFile(root / "frame" / "ok-frequent.bin", single);
  // Flip inside the payload: the FNV checksum must reject the frame.
  WriteFile(root / "frame" / "corrupt-payloadflip.bin",
            FlipByte(single, sizeof(wt::net::FrameHeader) + 2));
  // Flip inside the header's magic: stream error before any payload read.
  WriteFile(root / "frame" / "corrupt-magicflip.bin", FlipByte(single, 1));
  // Torn tail: a session must wait (kNeedMore), never crash or accept.
  WriteFile(root / "frame" / "raw-torn-tail.bin",
            stream.substr(0, stream.size() - 5));

  const std::string metrics = MetricsSeed();
  WriteFile(root / "metrics" / "ok-registry-snapshot.bin", metrics);
  // Flip inside the entry body: the FNV checksum must reject it.
  WriteFile(root / "metrics" / "corrupt-bodyflip.bin",
            FlipByte(metrics, metrics.size() - 3));
  // Flip inside the magic: rejected before the body is even hashed.
  WriteFile(root / "metrics" / "corrupt-magicflip.bin",
            FlipByte(metrics, 2));
  // Truncated mid-entry: checksum/lengths must fail, never over-read.
  WriteFile(root / "metrics" / "raw-truncated.bin",
            metrics.substr(0, metrics.size() / 2));

  const std::string trace = TraceSeed();
  WriteFile(root / "trace" / "ok-span-timeline.bin", trace);
  // Flip inside an event body: the FNV checksum must reject it.
  WriteFile(root / "trace" / "corrupt-bodyflip.bin",
            FlipByte(trace, trace.size() - 5));
  // Flip inside the magic: rejected before the body is even hashed.
  WriteFile(root / "trace" / "corrupt-magicflip.bin", FlipByte(trace, 2));
  // Truncated mid-event: the exact-size check must fail, never over-read.
  WriteFile(root / "trace" / "raw-truncated.bin",
            trace.substr(0, trace.size() - 13));
  return 0;
}
