// wtbench: the repo's end-to-end benchmark (see README.md).
//
// One process runs the daemon — wtrie::Engine<ByteCodec> with 4 shards and
// otherwise default options over a durable directory (sync_wal=false: an
// ack means the WAL record reached the OS) plus a wt::net::Server with
// default options — and ONE load-generator thread that talks to it over
// four loopback connections.
//
//   wtbench --workload=<name> --seed=<u64> --seconds=<s> --rate=<ops/s>
//           [--trace=0|1] [--trace-dir=<dir>] [--work-dir=<dir>]
//   wtbench --selftest
//
// Phases, in order:
//   1. set-up, timed as setup_s: Engine::Open, AppendBatch of the store in
//      two batches, Flush, Compact, close and reopen (the restart and mmap
//      path), Server::Start. Run kSetups times; the median
//      is reported and the last daemon serves the load. Generating the
//      strings is not part of it.
//   2. warm-up at the open-loop rate, discarded;
//   3. kRounds rounds of an open-loop segment at --rate (p50_us, p90_us)
//      and a closed-loop segment (capacity_ops_s), each started once the
//      background work the previous one queued has finished — see Phases
//      and DriveLoad — and a last wait for the work the final one queued;
//   4. verification, off the clock.
// --trace=1 adds a closed-loop segment with sampled client spans to each
// round (for trace.overhead_ratio), then the per-layer replay
// (replay.hpp), the daemon's kTrace snapshot, and a Chrome trace of the
// bench's own spans.
//
// Every metric prints as `name value unit`; the last stdout line is one
// JSON object {correct, attempted, failed, hardware_threads, rate_ops_s,
// metrics}. Exit status: 0 when every answer checked out, 1 when not,
// 2 on a usage or set-up error.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "io/vfs.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"
#include "obs/snapshot.hpp"
#include "readout.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

namespace {

using namespace wtbench;
using Server = wt::net::Server<wt::ByteCodec>;
namespace fs = std::filesystem;

/// Set-up loads the store in two batches, so it freezes twice per shard
/// and tiers the two segments into one compaction before Compact().
constexpr size_t kSetupBatch = size_t{1} << 19;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
constexpr double kMiB = 1024.0 * 1024.0;
/// What a failed request's infinite latency reads as when a quantile
/// lands on it.
constexpr double kFailedLatencyUs = 1e9;

// ------------------------------------------------------------ io readout

/// Forwards to the real filesystem, counting bytes written and fsyncs
/// (files and directories) with their time: the io layer's readout,
/// passed to the engine through Engine::Options::vfs.
class CountingVfs final : public wt::io::Vfs {
 public:
  wtrie::Result<std::unique_ptr<wt::io::VfsFile>> OpenWrite(
      const std::string& path, bool truncate) override {
    auto f = Real().OpenWrite(path, truncate);
    if (!f.ok()) return f.status();
    return std::unique_ptr<wt::io::VfsFile>(new File(std::move(*f), this));
  }
  wtrie::Result<std::string> ReadFile(const std::string& path) override {
    return Real().ReadFile(path);
  }
  wtrie::Status Rename(const std::string& from,
                       const std::string& to) override {
    return Real().Rename(from, to);
  }
  wtrie::Status Remove(const std::string& path) override {
    return Real().Remove(path);
  }
  wtrie::Status SyncDir(const std::string& dir) override {
    const uint64_t t0 = wt::obs::NowNanos();
    wtrie::Status st = Real().SyncDir(dir);
    NoteSync(wt::obs::NowNanos() - t0);
    return st;
  }
  wtrie::Status CreateDirs(const std::string& dir) override {
    return Real().CreateDirs(dir);
  }
  bool Exists(const std::string& path) override { return Real().Exists(path); }
  wtrie::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return Real().ListDir(dir);
  }
  std::shared_ptr<const wt::storage::Blob> MapOrRead(
      const std::string& path, bool prefer_mmap, wt::storage::Advise adv,
      std::string* err) override {
    return Real().MapOrRead(path, prefer_mmap, adv, err);
  }

  uint64_t bytes_written() const { return bytes_.load(); }
  uint64_t fsyncs() const { return fsyncs_.load(); }
  uint64_t fsync_ns() const { return fsync_ns_.load(); }

 private:
  class File final : public wt::io::VfsFile {
   public:
    File(std::unique_ptr<wt::io::VfsFile> f, CountingVfs* owner)
        : f_(std::move(f)), owner_(owner) {}
    wtrie::Status Append(const void* data, size_t n) override {
      owner_->bytes_ += n;
      return f_->Append(data, n);
    }
    wtrie::Status Sync() override {
      const uint64_t t0 = wt::obs::NowNanos();
      wtrie::Status st = f_->Sync();
      owner_->NoteSync(wt::obs::NowNanos() - t0);
      return st;
    }
    wtrie::Status Close() override { return f_->Close(); }

   private:
    std::unique_ptr<wt::io::VfsFile> f_;
    CountingVfs* owner_;
  };

  static wt::io::RealVfs& Real() { return wt::io::RealVfs::Instance(); }
  void NoteSync(uint64_t ns) {
    fsyncs_ += 1;
    fsync_ns_ += ns;
  }

  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> fsync_ns_{0};
};

// ------------------------------------------------------------ RSS readout

/// Samples the process's resident set every 2ms from construction until
/// Stop(), keeping the peak.
class RssSampler {
 public:
  RssSampler() : fd_(::open("/proc/self/statm", O_RDONLY | O_CLOEXEC)) {
    base_ = Read();
    peak_ = base_;
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        peak_ = std::max(peak_.load(), Read());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  ~RssSampler() {
    Stop();
    if (fd_ >= 0) ::close(fd_);
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  uint64_t base() const { return base_; }

  /// Stops sampling; returns the peak resident bytes seen.
  uint64_t Stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
      peak_ = std::max(peak_.load(), Read());
    }
    return peak_;
  }

 private:
  uint64_t Read() const {
    char buf[128] = {};
    const ssize_t n = ::pread(fd_, buf, sizeof(buf) - 1, 0);
    if (n <= 0) return 0;
    unsigned long long size = 0, resident = 0;
    if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0;
    return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  }

  const int fd_;
  uint64_t base_ = 0;
  std::atomic<uint64_t> peak_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------- daemon

/// The system under test: engine, server, and the directory they own.
struct Daemon {
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (server != nullptr) (void)server->Stop();
    server.reset();
    engine.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  std::string dir;
  std::shared_ptr<CountingVfs> vfs;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
};

struct SetupSample {
  double setup_s = 0;
  double cold_open_ms = 0;
  uint64_t store_bytes = 0;
  uint64_t segment_bytes = 0;
};

void DirBytes(const fs::path& dir, uint64_t* all, uint64_t* segments) {
  *all = 0;
  *segments = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const uint64_t n = e.file_size(ec);
    *all += n;
    if (e.path().filename().string().rfind("seg-", 0) == 0) *segments += n;
  }
}

wtrie::Result<std::unique_ptr<Daemon>> SetUp(
    const std::vector<std::vector<std::string>>& batches, const fs::path& dir,
    SpanLog& spans, uint64_t parent, SetupSample* out) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto d = std::make_unique<Daemon>();
  d->dir = dir.string();
  d->vfs = std::make_shared<CountingVfs>();
  Engine::Options opt;
  opt.num_shards = 4;
  opt.dir = d->dir;
  opt.sync_wal = false;
  opt.vfs = d->vfs;
  // One registry across the close/reopen, so the daemon's kMetrics covers
  // the set-up's freezes and compactions too.
  opt.metrics = std::make_shared<wt::obs::MetricsRegistry>();
  ScopedBenchSpan setup_span(spans, "setup.run", parent);
  const uint64_t t0 = NowNs();
  {
    std::unique_ptr<Engine> first;
    {
      ScopedBenchSpan s(spans, "engine.open", setup_span.id());
      auto e = Engine::Open(opt);
      if (!e.ok()) return e.status();
      first = std::move(*e);
    }
    for (const auto& batch : batches) {
      ScopedBenchSpan s(spans, "engine.append_batch", setup_span.id());
      if (auto st = first->AppendBatch(batch); !st.ok()) return st;
    }
    {
      ScopedBenchSpan s(spans, "engine.flush", setup_span.id());
      if (auto st = first->Flush(); !st.ok()) return st;
    }
    {
      ScopedBenchSpan s(spans, "engine.compact", setup_span.id());
      if (auto st = first->Compact(); !st.ok()) return st;
    }
    DirBytes(dir, &out->store_bytes, &out->segment_bytes);
    ScopedBenchSpan s(spans, "engine.close", setup_span.id());
    first.reset();
  }
  {
    ScopedBenchSpan s(spans, "storage.reopen", setup_span.id());
    const uint64_t t_open = NowNs();
    auto e = Engine::Open(opt);
    if (!e.ok()) return e.status();
    d->engine = std::move(*e);
    out->cold_open_ms = double(NowNs() - t_open) / 1e6;
  }
  {
    ScopedBenchSpan s(spans, "net.server_start", setup_span.id());
    auto srv = Server::Start(d->engine.get(), Server::Options{});
    if (!srv.ok()) return srv.status();
    d->server = std::move(*srv);
  }
  out->setup_s = double(NowNs() - t0) / 1e9;
  return d;
}

// --------------------------------------------------------------- helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank quantile of ns samples [begin, end), in µs; a failed
/// request (kFailedLatency) reads as kFailedLatencyUs.
double QuantileUs(std::vector<uint64_t>::const_iterator begin,
                  std::vector<uint64_t>::const_iterator end, double q) {
  if (begin == end) return 0;
  wt::LatencyRecorder r;
  r.Reserve(static_cast<size_t>(end - begin));
  for (auto it = begin; it != end; ++it) r.Record(*it);
  const uint64_t x = r.Percentile(q);
  return x == kFailedLatency ? kFailedLatencyUs : double(x) / 1e3;
}

double QuantileUs(const std::vector<uint64_t>& v, double q) {
  return QuantileUs(v.begin(), v.end(), q);
}

/// The rate (ops/s) of the 90th-percentile full slice of the phases: the
/// pace the system sustains when nothing else on the machine interferes.
/// Interference only ever slows a slice, so this reads steadier across
/// runs than a mean or median, and still moves with the code.
double SustainedRate(const std::vector<PhaseResult>& phases) {
  wt::LatencyRecorder ops;
  for (const PhaseResult& p : phases) {
    const size_t full = static_cast<size_t>(p.seconds * 1e9) / kSliceNs;
    for (size_t i = 0; i < full && i < p.slice_ops.size(); ++i) {
      ops.Record(p.slice_ops[i]);
    }
  }
  if (ops.count() == 0) return 0;
  return double(ops.Percentile(0.9)) * 1e9 / double(kSliceNs);
}

wtrie::Result<MetricsSnapshot> FetchMetrics(LoadGen& gen) {
  // The ping gives the I/O thread a pass that publishes reply-flush
  // samples it deferred while busy, before the snapshot is taken.
  if (auto p = gen.Admin(wt::net::MsgType::kPing); !p.ok()) return p.status();
  auto body = gen.Admin(wt::net::MsgType::kMetrics);
  if (!body.ok()) return body.status();
  std::string bytes;
  MetricsSnapshot s;
  if (!wt::net::PayloadReader(*body).Str(&bytes) ||
      !wt::obs::ParseMetricsSnapshot(bytes.data(), bytes.size(), &s)) {
    return wtrie::Status::Error(wtrie::ErrorCode::kCorruptStream,
                                "unreadable kMetrics snapshot");
  }
  return s;
}

// ------------------------------------------------------------------ load

/// Phase lengths, from --seconds S: a warm-up of 0.2 S, then kRounds
/// rounds of an open-loop segment (0.1 S) and a closed-loop segment
/// (0.06 S, a whole number of slices). Measured segments spread over the
/// run, so a slow stretch of a few seconds on a shared machine (another
/// tenant's cache or CPU pressure) cannot cover all of them.
constexpr int kRounds = 5;
constexpr uint64_t kDrainTimeoutNs = 10'000'000'000ull;

struct Phases {
  explicit Phases(double seconds)
      : warm_s(0.2 * seconds),
        open_s(0.1 * seconds),
        closed_s(std::max(1.0, std::round(0.06 * seconds * 1e9 / kSliceNs)) *
                 double(kSliceNs) / 1e9) {}
  double warm_s, open_s, closed_s;
};

struct LoadRun {
  Tally tally;  // every phase, warm-up included
  std::vector<PhaseResult> open, closed, traced;
  std::vector<MetricsSnapshot> snaps;  // at every phase boundary
  MetricsSnapshot open_delta;          // daemon instruments, open segments
  bool ok = true;
};

/// Append frames one closed-loop segment may send: 131,072 strings.
/// ingest sends them in about half a segment, so every untraced ingest run
/// appends the same strings — the open loops' fixed share plus 5 x 131,072
/// — and goes through the same freezes and compactions. Without the cap
/// the volume followed the machine's speed, and some runs reached each
/// shard's 7th freeze (1.84M strings, a ~720k-string merge per shard)
/// while others did not, moving rss_mb by ~10%.
constexpr size_t kClosedAppendFrames = 2048;

/// Append frames a closed-loop segment may send: kClosedAppendFrames, or
/// less when the pool is short. The open loops take what their rate needs
/// (with a margin); the closed-loop segments share the rest equally.
size_t ClosedAppendShare(const Workload& w, const Phases& ph,
                         double frames_per_s, int closed_segments) {
  const double open = frames_per_s * (ph.warm_s + kRounds * ph.open_s) *
                      w.AppendShare();
  const size_t reserve = static_cast<size_t>(open * 1.1) + 1024;
  const size_t pool = w.appends.size();
  return std::min(kClosedAppendFrames,
                  (pool - std::min(pool, reserve)) / size_t(closed_segments));
}

/// Drives the phases. With `trace`, every round also runs a closed-loop
/// segment with client spans, interleaved so trace.overhead_ratio
/// compares like with like.
LoadRun DriveLoad(LoadGen& gen, const Workload& w, const Phases& ph,
                  double frames_per_s, bool trace, SpanLog& spans,
                  uint64_t run_span) {
  const WorkloadSpec& spec = *w.spec;
  const size_t appends =
      ClosedAppendShare(w, ph, frames_per_s, kRounds * (trace ? 2 : 1));
  LoadRun r;
  auto boundary = [&]() {
    auto s = FetchMetrics(gen);
    if (!s.ok()) r.ok = false;
    r.snaps.push_back(s.ok() ? std::move(*s)
                             : (r.snaps.empty() ? MetricsSnapshot{}
                                                : r.snaps.back()));
  };
  auto run = [&](const char* name, auto&& body) {
    ScopedBenchSpan span(spans, name, run_span);
    PhaseResult p = body(span.id());
    r.tally.Add(p.tally);
    boundary();
    return p;
  };
  // Before each measured segment, let the freezes and compactions the
  // previous one queued finish: an open-loop segment then measures the
  // open-loop rate's own background work, not the aftermath of a
  // saturating burst, and every segment starts from the same state. The
  // pool is idle when the freeze-queue gauge (a freeze job includes its
  // tail compactions) reads 0.
  auto drain = [&]() {
    ScopedBenchSpan span(spans, "phase.drain", run_span);
    const uint64_t deadline = NowNs() + kDrainTimeoutNs;
    while (r.ok &&
           GaugeValue(r.snaps.back(), "wt_engine_freeze_queue_depth") != 0 &&
           NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      boundary();
    }
  };
  boundary();
  run("phase.warmup", [&](uint64_t id) {
    return gen.OpenLoop(frames_per_s, ph.warm_s, false, &spans, id);
  });
  for (int i = 0; i < kRounds; ++i) {
    drain();
    r.open.push_back(run("phase.open_loop", [&](uint64_t id) {
      return gen.OpenLoop(frames_per_s, ph.open_s, true, &spans, id);
    }));
    AccumulateDelta(r.snaps[r.snaps.size() - 2], r.snaps.back(),
                    &r.open_delta);
    drain();
    r.closed.push_back(run("phase.closed_loop", [&](uint64_t) {
      return gen.ClosedLoop(spec.closed_window, ph.closed_s, appends, nullptr,
                            0);
    }));
    if (trace) {
      drain();
      r.traced.push_back(run("phase.closed_loop_traced", [&](uint64_t id) {
        return gen.ClosedLoop(spec.closed_window, ph.closed_s, appends, &spans,
                              id);
      }));
    }
  }
  // The work the last segment queued belongs to the run too: without this
  // drain, whether its compactions land inside the RSS and engine readings
  // depends on how fast the machine happened to run.
  drain();
  for (const auto* segments : {&r.closed, &r.traced}) {
    for (const PhaseResult& p : *segments) {
      if (p.cut_short) {
        std::fprintf(stderr,
                     "wtbench: a closed-loop segment sent its %zu append "
                     "frames in %.2fs of %.2fs\n",
                     appends, p.seconds, ph.closed_s);
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------- report

/// p50_us and p90_us are the lowest of the open-loop segments' quantiles:
/// like SustainedRate, the best segment is the one least disturbed by
/// the rest of the machine. p99 and p99.9 pool every segment's samples.
void ReportLatency(const LoadGen& gen, const LoadRun& load, Report* rep) {
  const std::vector<uint64_t>& lat = gen.latency_ns();
  double p50 = kFailedLatencyUs, p90 = kFailedLatencyUs;
  for (const PhaseResult& p : load.open) {
    const auto b = lat.begin() + p.samples_begin;
    const auto e = lat.begin() + p.samples_end;
    p50 = std::min(p50, QuantileUs(b, e, 0.5));
    p90 = std::min(p90, QuantileUs(b, e, 0.9));
  }
  rep->Add("p50_us", p50, "us");
  rep->Add("p90_us", p90, "us");
  rep->Add("p99_us", QuantileUs(lat, 0.99), "us");
  rep->Add("p999_us", QuantileUs(lat, 0.999), "us");
  rep->Add("samples", double(lat.size()), "count");
  rep->Add("gen.late_us.p99", QuantileUs(gen.late_ns(), 0.99), "us");
}

/// The daemon's serving stages over the open-loop segments.
void ReportNet(const LoadGen& gen, const MetricsSnapshot& d, Report* rep) {
  const MetricsSnapshot none;
  auto counter = [&](const char* n) {
    return double(CounterDelta(none, d, n));
  };
  auto hist = [&](const char* n) { return HistogramDelta(none, d, n); };
  const double positions = counter("wt_serving_access_positions_total");
  rep->Add("net.memo_hit_ratio",
           Ratio(counter("wt_serving_access_memo_hits_total"), positions),
           "ratio");
  rep->Add("net.dedup_ratio",
           Ratio(counter("wt_serving_coalesced_dup_hits_total"), positions),
           "ratio");
  rep->Add("net.coalesce_us.mean", Mean(hist("wt_serving_coalesce_us")), "us");
  const HistogramSnapshot admit = hist("wt_serving_admit_wait_us");
  rep->Add("net.admit_wait_us.mean", Mean(admit), "us");
  rep->Add("net.admit_wait_us.p99", double(ClampedQuantile(admit, 0.99)),
           "us");
  rep->Add("net.batch_size.mean", Mean(hist("wt_serving_batch_size")),
           "requests");
  const double flush = Mean(hist("wt_serving_reply_flush_us"));
  rep->Add("net.reply_flush_us.mean", flush, "us");
  const HistogramSnapshot eb = hist("wt_serving_engine_batch_us");
  rep->Add("net.engine_batch_us.mean", Mean(eb), "us");
  rep->Add("net.engine_batch_us.p99", double(ClampedQuantile(eb, 0.99)), "us");
  rep->Add("net.shed_ratio",
           Ratio(counter("wt_admission_shed_total"),
                 counter("wt_admission_offered_total")),
           "ratio");
  // Client-side mean minus what the server accounts for: the kernel,
  // the sockets, and the generator's own lateness.
  double client_us = 0;
  uint64_t ok = 0;
  for (uint64_t v : gen.latency_ns()) {
    if (v == kFailedLatency) continue;
    client_us += double(v) / 1e3;
    ok++;
  }
  rep->Add("net.unaccounted_us",
           Ratio(client_us, double(ok)) -
               Mean(hist("wt_serving_total_us")) - flush,
           "us");
}

/// Background work: counts over the load phases and the work they queued;
/// durations over the daemon's whole life (set-up included), so every
/// workload reads a real mean.
void ReportEngine(const LoadRun& load, Report* rep) {
  const MetricsSnapshot& first = load.snaps.front();
  const MetricsSnapshot& last = load.snaps.back();
  rep->Add("engine.freezes",
           double(CounterDelta(first, last, "wt_engine_freezes_total")),
           "count");
  rep->Add("engine.compactions",
           double(CounterDelta(first, last, "wt_engine_compactions_total")),
           "count");
  rep->Add("engine.publishes",
           double(GaugeValue(last, "wt_engine_publish_epoch") -
                  GaugeValue(first, "wt_engine_publish_epoch")),
           "count");
  rep->Add("engine.freeze_ms.mean",
           Mean(HistogramDelta({}, last, "wt_engine_freeze_ms")), "ms");
  rep->Add("engine.compaction_ms.mean",
           Mean(HistogramDelta({}, last, "wt_engine_compaction_ms")), "ms");
  int64_t debt = 0;
  for (const MetricsSnapshot& s : load.snaps) {
    debt = std::max(debt, GaugeValue(s, "wt_engine_compaction_debt"));
  }
  rep->Add("engine.compaction_debt.max", double(debt), "segments");
  rep->Add("pager.mapped_bytes",
           double(GaugeValue(last, "wt_pager_mapped_bytes")), "bytes");
}

/// Every reply was checked as it arrived; what remains is the store's
/// size and the admission accounting identity.
bool Verify(const LoadGen& gen, const LoadRun& load, const Workload& w,
            const Engine& engine) {
  bool ok = load.ok;
  if (gen.broken()) {
    std::fprintf(stderr, "wtbench: load generator: %s\n", gen.error().c_str());
    ok = false;
  }
  for (const std::string& m : gen.mismatches()) {
    std::fprintf(stderr, "wtbench: wrong answer: %s\n", m.c_str());
  }
  if (load.tally.wrong_ops != 0) ok = false;
  const uint64_t expect = w.values.size() + load.tally.acked_strings;
  if (engine.size() != expect) {
    std::fprintf(stderr,
                 "wtbench: engine holds %llu strings, expected %llu "
                 "(initial + acknowledged appends)\n",
                 (unsigned long long)engine.size(),
                 (unsigned long long)expect);
    ok = false;
  }
  const MetricsSnapshot& a = load.snaps.front();
  const MetricsSnapshot& b = load.snaps.back();
  const uint64_t admitted = CounterDelta(a, b, "wt_admission_admitted_total");
  const uint64_t finished =
      CounterDelta(a, b, "wt_admission_completed_total") +
      CounterDelta(a, b, "wt_admission_expired_at_dequeue_total") +
      CounterDelta(a, b, "wt_admission_expired_before_reply_total");
  if (admitted != finished) {
    std::fprintf(stderr, "wtbench: admitted %llu != completed + expired %llu\n",
                 (unsigned long long)admitted, (unsigned long long)finished);
    ok = false;
  }
  return ok;
}

/// Writes the bench's spans, which must validate, and the daemon's raw
/// kTrace snapshot, which run.py checks with `wt_trace --validate`.
bool WriteTraces(LoadGen& gen, const SpanLog& spans, const std::string& dir) {
  bool ok = true;
  std::string why;
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string span_file = dir + "/spans.json";
  const std::string ktrace_file = dir + "/ktrace.bin";
  if (!spans.Validate(&why) || !spans.WriteChromeJson(span_file)) {
    std::fprintf(stderr, "wtbench: bench spans: %s\n", why.c_str());
    ok = false;
  }
  std::string ktrace;
  auto body = gen.Admin(wt::net::MsgType::kTrace);
  if (!body.ok() || !wt::net::PayloadReader(*body).Str(&ktrace)) {
    std::fprintf(stderr, "wtbench: no kTrace snapshot\n");
    ok = false;
  }
  std::FILE* f = std::fopen(ktrace_file.c_str(), "wb");
  if (f == nullptr ||
      std::fwrite(ktrace.data(), 1, ktrace.size(), f) != ktrace.size()) {
    ok = false;
  }
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  std::fprintf(stderr, "wtbench: %zu bench spans -> %s; kTrace -> %s\n",
               spans.size(), span_file.c_str(), ktrace_file.c_str());
  return ok;
}

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  double rate = 0;
  bool trace = false;
  std::string trace_dir = "wtbench-trace";
  std::string work_dir = "wtbench-work";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--selftest") {
      a->selftest = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (arg == "--workload") {
      a->workload = value;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (arg == "--rate") {
      a->rate = std::atof(value.c_str());
    } else if (arg == "--trace") {
      a->trace = value == "1";
    } else if (arg == "--trace-dir") {
      a->trace_dir = value;
    } else if (arg == "--work-dir") {
      a->work_dir = value;
    } else {
      return false;
    }
  }
  return a->selftest ||
         (FindWorkload(a->workload) != nullptr && a->seconds > 0 &&
          a->rate > 0);
}

// ------------------------------------------------------------------- run

int Run(const Args& a) {
  const WorkloadSpec& spec = *FindWorkload(a.workload);

  // Inputs, off the clock: store, request pool, expected answers.
  const uint64_t t_inputs = NowNs();
  Oracle oracle;
  const Workload w = WorkloadGenerator(spec, a.seed).Build(&oracle);
  std::fprintf(stderr, "wtbench: %s seed %llu: inputs in %.2fs\n", spec.name,
               (unsigned long long)a.seed, double(NowNs() - t_inputs) / 1e9);
  const Phases ph(a.seconds);
  const double frames_per_s = a.rate / w.OpsPerDraw();
  std::vector<std::vector<std::string>> setup_batches;
  for (size_t i = 0; i < w.values.size(); i += kSetupBatch) {
    setup_batches.emplace_back(
        w.values.begin() + i,
        w.values.begin() + std::min(w.values.size(), i + kSetupBatch));
  }
  LoadGen gen(w, static_cast<size_t>(frames_per_s * ph.open_s * kRounds *
                                     1.05) + 1024);
  SpanLog spans(a.trace);
  const uint64_t run_span = spans.Begin("wtbench.run", 0);

  // Set-up; resident memory is measured from here on.
  RssSampler rss;
  std::vector<double> setup_s, cold_open_ms;
  SetupSample last;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    auto d = SetUp(setup_batches, fs::path(a.work_dir) / "store", spans,
                   run_span, &last);
    if (!d.ok()) {
      std::fprintf(stderr, "wtbench: set-up failed: %s\n",
                   d.status().message());
      return 2;
    }
    daemon = std::move(*d);
    setup_s.push_back(last.setup_s);
    cold_open_ms.push_back(last.cold_open_ms);
  }
  Engine& engine = *daemon->engine;
  if (auto st = gen.Connect(daemon->server->port()); !st.ok()) {
    std::fprintf(stderr, "wtbench: connect failed: %s\n", st.message());
    return 2;
  }

  const LoadRun load =
      DriveLoad(gen, w, ph, frames_per_s, a.trace, spans, run_span);
  const uint64_t peak_rss = rss.Stop();
  bool correct = Verify(gen, load, w, engine);

  const double n0 = double(w.values.size());
  const double capacity = SustainedRate(load.closed);
  Report rep;
  rep.Add("capacity_ops_s", capacity, "ops/s");
  ReportLatency(gen, load, &rep);
  rep.Add("space_bits_per_string", double(last.store_bytes) * 8 / n0, "bits");
  rep.Add("rss_mb", double(peak_rss - std::min(peak_rss, rss.base())) / kMiB,
          "MiB");
  rep.Add("setup_s", Median(setup_s), "s");
  rep.Add("error_ratio",
          Ratio(double(load.tally.failed_ops()),
                double(load.tally.attempted_ops)),
          "ratio");
  ReportNet(gen, load.open_delta, &rep);
  ReportEngine(load, &rep);
  rep.Add("storage.cold_open_ms", Median(cold_open_ms), "ms");
  rep.Add("storage.segment_bits_per_string",
          double(last.segment_bytes) * 8 / n0, "bits");
  const CountingVfs& vfs = *daemon->vfs;
  rep.Add("io.write_amp",
          double(vfs.bytes_written()) /
              double(w.value_bytes + load.tally.acked_bytes),
          "ratio");
  rep.Add("io.fsyncs", double(vfs.fsyncs()), "count");
  rep.Add("io.fsync_us.mean",
          Ratio(double(vfs.fsync_ns()) / 1e3, double(vfs.fsyncs())), "us");

  if (a.trace) {
    rep.Add("trace.overhead_ratio",
            Ratio(SustainedRate(load.traced), capacity), "ratio");
    const uint64_t replay_span = spans.Begin("phase.replay", run_span);
    const double batch =
        Mean(HistogramDelta({}, load.open_delta, "wt_serving_batch_size"));
    ReplayLayers(w, oracle, engine,
                 static_cast<size_t>(std::llround(std::max(1.0, batch))),
                 a.seed, spans, replay_span, &rep);
    ReplaySpace(w, oracle, spans, replay_span, &rep);
    ReplayAppends(w, &engine, spans, replay_span, &rep);
    spans.End(replay_span);
    spans.End(run_span);
    correct = WriteTraces(gen, spans, a.trace_dir) && correct;
  }

  rep.PrintLines();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"hardware_threads\": %u, \"rate_ops_s\": %.17g, \"metrics\": %s}\n",
      correct ? "true" : "false",
      (unsigned long long)load.tally.attempted_ops,
      (unsigned long long)load.tally.failed_ops(),
      std::thread::hardware_concurrency(), a.rate, rep.Json().c_str());
  std::fflush(stdout);
  daemon.reset();
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: wtbench --workload=<access_zipf|access_uniform|"
                 "mixed_rw|ingest> --seed=<u64> --seconds=<s> --rate=<ops/s> "
                 "[--trace=0|1] [--trace-dir=<dir>] [--work-dir=<dir>]\n"
                 "       wtbench --selftest\n");
    return 2;
  }
  if (a.selftest) {
    std::string why;
    const bool ok = SelfTest(&why);
    std::printf("selftest %s%s\n", ok ? "passed" : "FAILED: ",
                ok ? "" : why.c_str());
    return ok ? 0 : 1;
  }
  return Run(a);
}
