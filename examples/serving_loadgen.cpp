// serving_loadgen: closed-loop load generator for serving_daemon.
//
// Opens N connections, keeps W requests pipelined on each (closed loop:
// a new request is sent only when a response comes back, so offered load
// tracks service capacity instead of ballooning unboundedly), and reports
// throughput, latency percentiles, and the shed/deadline counts that show
// the admission policy working.
//
//   ./example_serving_loadgen --port=7411 --connections=4 --pipeline=8
//   ./example_serving_loadgen --port=7411 --mix=read --key-space=100000
//
// --mix=read     kAccess/kRank/kSelect/kCountPrefix round-robin
// --mix=mixed    reads plus ~10% kAppend frames
// --mix=append   kAppend only
// --batch=N      queries packed per frame (the client-side batching knob)
// --deadline-ms  per-request deadline sent in the frame header
//
// Exit code 0 when every connection ran to the end of the duration; 1 on
// connect/protocol failure.
//
// Linux-only (epoll server); prints a notice elsewhere.

#if !defined(__linux__)
#include <cstdio>
int main() {
  std::printf("serving_loadgen: requires Linux\n");
  return 0;
}
#else

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "util/workloads.hpp"

namespace {

struct Flags {
  uint16_t port = 0;
  size_t connections = 4;
  size_t pipeline = 8;
  size_t batch = 16;
  size_t duration_s = 5;
  size_t key_space = 100000;
  uint32_t deadline_ms = 0;
  std::string mix = "read";
};

struct WorkerResult {
  uint64_t frames_ok = 0;
  uint64_t queries_ok = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t other_error = 0;
  bool io_failed = false;
  std::vector<uint64_t> latencies_us;
};

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Worker(const Flags& flags, size_t worker_id, std::atomic<bool>* stop,
            WorkerResult* out) {
  auto client = wt::net::Client::Connect(flags.port);
  if (!client.ok()) {
    out->io_failed = true;
    return;
  }
  std::mt19937_64 rng(0x9E3779B97F4A7C15ull ^ worker_id);
  wt::UrlLogGenerator gen({.seed = 1000 + worker_id});
  const bool do_append = flags.mix == "append" || flags.mix == "mixed";
  const bool do_read = flags.mix != "append";

  uint64_t next_id = 1;
  // request_id -> send time; responses echo the id, so pipelined latencies
  // are matched exactly even if a reply type is unexpected.
  std::vector<std::pair<uint64_t, uint64_t>> inflight;

  auto send_one = [&]() -> bool {
    const uint64_t id = next_id++;
    wt::net::MsgType type;
    std::string payload;
    const int roll = static_cast<int>(rng() % 10);
    if (do_append && (!do_read || roll == 0)) {
      std::vector<std::string> vals;
      vals.reserve(flags.batch);
      for (size_t i = 0; i < flags.batch; ++i) vals.push_back(gen.Next());
      type = wt::net::MsgType::kAppend;
      payload = wt::net::Client::StringsPayload(vals);
    } else {
      switch (roll % 4) {
        case 0: {
          std::vector<uint64_t> pos(flags.batch);
          for (auto& p : pos) p = rng() % flags.key_space;
          type = wt::net::MsgType::kAccess;
          payload = wt::net::Client::AccessPayload(pos);
          break;
        }
        case 1: {
          std::vector<std::string> vals;
          std::vector<uint64_t> pos(flags.batch);
          for (size_t i = 0; i < flags.batch; ++i) {
            vals.push_back(gen.Next());
            pos[i] = rng() % flags.key_space;
          }
          type = wt::net::MsgType::kRank;
          payload = wt::net::Client::RankPayload(vals, pos);
          break;
        }
        case 2: {
          std::vector<std::string> vals;
          std::vector<uint64_t> idx(flags.batch);
          for (size_t i = 0; i < flags.batch; ++i) {
            vals.push_back(gen.Next());
            idx[i] = rng() % 4;
          }
          type = wt::net::MsgType::kSelect;
          payload = wt::net::Client::SelectPayload(vals, idx);
          break;
        }
        default: {
          std::vector<std::string> prefixes;
          for (size_t i = 0; i < flags.batch; ++i) {
            prefixes.push_back("www.site" + std::to_string(rng() % 50));
          }
          type = wt::net::MsgType::kCountPrefix;
          payload = wt::net::Client::StringsPayload(prefixes);
          break;
        }
      }
    }
    if (!client->Send(type, id, flags.deadline_ms, payload).ok()) {
      out->io_failed = true;
      return false;
    }
    inflight.push_back({id, NowUs()});
    return true;
  };

  for (size_t i = 0; i < flags.pipeline; ++i) {
    if (!send_one()) return;
  }
  while (!stop->load(std::memory_order_relaxed)) {
    auto resp = client->Recv();
    if (!resp.ok()) {
      out->io_failed = true;
      return;
    }
    const uint64_t done_us = NowUs();
    for (size_t i = 0; i < inflight.size(); ++i) {
      if (inflight[i].first == resp->header.request_id) {
        out->latencies_us.push_back(done_us - inflight[i].second);
        inflight.erase(inflight.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    wt::net::WireStatus st;
    wt::net::PayloadReader r(nullptr, 0);
    if (!wt::net::Client::DecodeStatus(*resp, &st, &r)) {
      out->other_error++;
    } else if (st == wt::net::WireStatus::kOk) {
      out->frames_ok++;
      out->queries_ok += flags.batch;
    } else if (st == wt::net::WireStatus::kOverloaded) {
      out->shed++;
    } else if (st == wt::net::WireStatus::kDeadlineExceeded) {
      out->deadline++;
    } else {
      out->other_error++;
    }
    if (!send_one()) return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const auto eat = [&](const char* name, std::string* v) {
      const size_t n = std::strlen(name);
      if (std::strncmp(argv[i], name, n) != 0 || argv[i][n] != '=') {
        return false;
      }
      *v = argv[i] + n + 1;
      return true;
    };
    std::string v;
    if (eat("--port", &v)) {
      flags.port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (eat("--connections", &v)) {
      flags.connections = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--pipeline", &v)) {
      flags.pipeline = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--batch", &v)) {
      flags.batch = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--duration-s", &v)) {
      flags.duration_s = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--key-space", &v)) {
      flags.key_space = std::strtoull(v.c_str(), nullptr, 10);
    } else if (eat("--deadline-ms", &v)) {
      flags.deadline_ms =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (eat("--mix", &v)) {
      flags.mix = v;
    } else {
      std::fprintf(stderr, "serving_loadgen: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (flags.port == 0) {
    std::fprintf(stderr,
                 "usage: serving_loadgen --port=N [--connections=N] "
                 "[--pipeline=N] [--batch=N] [--duration-s=N] "
                 "[--key-space=N] [--deadline-ms=N] [--mix=read|mixed|append]\n");
    return 2;
  }

  std::atomic<bool> stop{false};
  std::vector<WorkerResult> results(flags.connections);
  std::vector<std::thread> workers;
  const uint64_t t0 = NowUs();
  workers.reserve(flags.connections);
  for (size_t i = 0; i < flags.connections; ++i) {
    workers.emplace_back(Worker, std::cref(flags), i, &stop, &results[i]);
  }
  std::this_thread::sleep_for(std::chrono::seconds(flags.duration_s));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();
  const double secs = double(NowUs() - t0) / 1e6;

  WorkerResult total;
  bool failed = false;
  for (WorkerResult& r : results) {
    total.frames_ok += r.frames_ok;
    total.queries_ok += r.queries_ok;
    total.shed += r.shed;
    total.deadline += r.deadline;
    total.other_error += r.other_error;
    failed = failed || r.io_failed;
    total.latencies_us.insert(total.latencies_us.end(),
                              r.latencies_us.begin(), r.latencies_us.end());
  }
  std::sort(total.latencies_us.begin(), total.latencies_us.end());
  const auto pct = [&](double p) -> uint64_t {
    if (total.latencies_us.empty()) return 0;
    const size_t i = static_cast<size_t>(p * double(total.latencies_us.size() - 1));
    return total.latencies_us[i];
  };
  std::printf(
      "serving_loadgen: %.1fs  frames_ok=%llu  qps=%.0f  shed=%llu  "
      "deadline=%llu  errors=%llu\n",
      secs, static_cast<unsigned long long>(total.frames_ok),
      double(total.queries_ok) / secs,
      static_cast<unsigned long long>(total.shed),
      static_cast<unsigned long long>(total.deadline),
      static_cast<unsigned long long>(total.other_error));
  std::printf("serving_loadgen: latency_us p50=%llu p99=%llu p999=%llu\n",
              static_cast<unsigned long long>(pct(0.50)),
              static_cast<unsigned long long>(pct(0.99)),
              static_cast<unsigned long long>(pct(0.999)));
  return failed ? 1 : 0;
}

#endif  // __linux__
