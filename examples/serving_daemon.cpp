// serving_daemon: the wavelet-trie store as a network service.
//
// Opens (or creates) a durable engine directory and serves the binary
// frame protocol (src/net/) on loopback: coalesced Access/Rank/Select/
// prefix/analytics queries, durable appends, admission control with
// load shedding, per-request deadlines, slow-client backpressure.
//
//   ./example_serving_daemon --dir=/tmp/store --port=7411
//   ./example_serving_daemon --dir=/tmp/store --port=0 --port-file=/tmp/p \
//       --preload=1000000
//
// --port=0 picks an ephemeral port; --port-file writes the chosen port so
// harnesses (tests, CI smoke, the bench) can find it. --preload seeds the
// store with N synthetic URL-log strings and flushes, so read benchmarks
// have a frozen corpus to query. SIGINT/SIGTERM trigger the graceful
// drain: admitted requests finish, replies flush, ingest is frozen and the
// WAL fsynced — the directory reopens clean. SIGKILL at any moment is the
// crash-recovery path: acknowledged appends survive via the WAL
// (tests/serving_crash_test.cpp proves it).
//
// Linux-only (epoll). Elsewhere it prints a notice and exits 0.

#if !defined(__linux__)
#include <cstdio>
int main() {
  std::printf("serving_daemon: requires Linux (epoll)\n");
  return 0;
}
#else

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "util/workloads.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

struct Flags {
  std::string dir;
  std::string port_file;
  uint16_t port = 0;
  size_t shards = 4;
  size_t memtable_limit = 1 << 16;
  size_t preload = 0;
  size_t max_queue = 1024;
  size_t max_batch = 1024;
  bool sync_wal = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--dir", &v)) {
      f->dir = v;
    } else if (ParseFlag(argv[i], "--port", &v)) {
      f->port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--port-file", &v)) {
      f->port_file = v;
    } else if (ParseFlag(argv[i], "--shards", &v)) {
      f->shards = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--memtable-limit", &v)) {
      f->memtable_limit = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--preload", &v)) {
      f->preload = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--max-queue", &v)) {
      f->max_queue = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--max-batch", &v)) {
      f->max_batch = std::strtoull(v.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--sync-wal") == 0) {
      f->sync_wal = true;
    } else {
      std::fprintf(stderr, "serving_daemon: unknown flag %s\n", argv[i]);
      return false;
    }
  }
  if (f->dir.empty()) {
    std::fprintf(stderr,
                 "usage: serving_daemon --dir=PATH [--port=N] "
                 "[--port-file=PATH] [--shards=N] [--memtable-limit=N] "
                 "[--preload=N] [--max-queue=N] [--max-batch=N] "
                 "[--sync-wal]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  wtrie::Engine<wt::ByteCodec>::Options opt;
  opt.dir = flags.dir;
  opt.num_shards = flags.shards;
  opt.memtable_limit = flags.memtable_limit;
  opt.sync_wal = flags.sync_wal;
  auto engine = wtrie::Engine<wt::ByteCodec>::Open(opt);
  if (!engine.ok()) {
    std::fprintf(stderr, "serving_daemon: open failed: %s\n",
                 engine.status().message());
    return 1;
  }

  if (flags.preload > (*engine)->size()) {
    const size_t need = flags.preload - (*engine)->size();
    std::fprintf(stderr, "serving_daemon: preloading %zu strings...\n", need);
    wt::UrlLogGenerator gen;
    size_t left = need;
    while (left > 0) {
      const size_t chunk = left < 65536 ? left : 65536;
      if (wtrie::Status st = (*engine)->AppendBatch(gen.Take(chunk));
          !st.ok()) {
        std::fprintf(stderr, "serving_daemon: preload failed: %s\n",
                     st.message());
        return 1;
      }
      left -= chunk;
    }
    if (wtrie::Status st = (*engine)->Flush(); !st.ok()) {
      std::fprintf(stderr, "serving_daemon: flush failed: %s\n",
                   st.message());
      return 1;
    }
  }

  wt::net::Server<wt::ByteCodec>::Options sopt;
  sopt.port = flags.port;
  sopt.admission.max_requests = flags.max_queue;
  sopt.max_dispatch_batch = flags.max_batch;
  auto server = wt::net::Server<wt::ByteCodec>::Start(engine->get(), sopt);
  if (!server.ok()) {
    std::fprintf(stderr, "serving_daemon: listen failed: %s\n",
                 server.status().message());
    return 1;
  }

  if (!flags.port_file.empty()) {
    // tmp+rename so a reader never sees a half-written port number.
    const std::string tmp = flags.port_file + ".tmp";
    std::FILE* pf = std::fopen(tmp.c_str(), "w");
    if (pf == nullptr) {
      std::fprintf(stderr, "serving_daemon: cannot write port file\n");
      return 1;
    }
    std::fprintf(pf, "%u\n", (*server)->port());
    std::fclose(pf);
    if (std::rename(tmp.c_str(), flags.port_file.c_str()) != 0) {
      std::fprintf(stderr, "serving_daemon: cannot publish port file\n");
      return 1;
    }
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::fprintf(stderr, "serving_daemon: serving %s on 127.0.0.1:%u (%llu strings)\n",
               flags.dir.c_str(), (*server)->port(),
               static_cast<unsigned long long>((*engine)->size()));

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "serving_daemon: draining...\n");
  if (wtrie::Status st = (*server)->Stop(); !st.ok()) {
    std::fprintf(stderr, "serving_daemon: shutdown error: %s\n",
                 st.message());
    return 1;
  }
  // The same registry counters kMetrics serves, read in process.
  const wt::obs::MetricsSnapshot snap = (*server)->metrics()->Snapshot();
  auto count = [&snap](const char* name) -> unsigned long long {
    const uint64_t* v = snap.FindCounter(name);
    return v != nullptr ? *v : 0;
  };
  std::fprintf(stderr,
               "serving_daemon: done. admitted=%llu completed=%llu shed=%llu "
               "expired=%llu\n",
               count("wt_admission_admitted_total"),
               count("wt_admission_completed_total"),
               count("wt_admission_shed_total"),
               count("wt_admission_expired_at_dequeue_total") +
                   count("wt_admission_expired_before_reply_total"));
  return 0;
}

#endif  // __linux__
