// wt_top — live serving-daemon monitor (DESIGN.md #12).
//
// Polls a running daemon's kMetrics endpoint and renders a refreshing
// top-style view: throughput (derived from counter deltas between polls),
// admission/queue state, engine shape, and the per-stage latency
// histograms the request-lifecycle tracing feeds (admit wait, coalesce,
// engine batch, reply flush, end-to-end).
//
//   wt_top --port N [--interval-ms 1000] [--iterations 0] [--plain]
//          [--require-stages] [--pane=serving|background|all]
//
//   --iterations 0     poll forever (Ctrl-C to quit); N polls otherwise
//   --plain            no screen clearing — append one block per poll
//                      (what CI logs want)
//   --require-stages   exit 1 unless the admit-wait, engine-batch and
//                      reply-flush histograms all have samples by the
//                      final poll — the smoke check that tracing is
//                      actually wired through a live daemon
//   --pane             which panel(s) to render (default all): "serving"
//                      is the request-side view (admission, coalescing,
//                      stage histograms); "background" is the engine's
//                      own work — compaction debt, per-shard segment
//                      stacks, WAL append bytes + fsync latency, pager
//                      mapped bytes (DESIGN.md #13)
//
// Reconnects on every poll, so a daemon restart mid-watch shows up as one
// failed poll, not a dead tool.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#if defined(__linux__)

#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace {

using wt::obs::HistogramSnapshot;
using wt::obs::MetricsSnapshot;

bool FetchSnapshot(uint16_t port, MetricsSnapshot* out, std::string* err) {
  wtrie::Result<wt::net::Client> c = wt::net::Client::Connect(port);
  if (!c.ok()) {
    *err = c.status().message();
    return false;
  }
  wtrie::Result<wt::net::Frame> f =
      c->Call(wt::net::MsgType::kMetrics, /*request_id=*/1,
              /*deadline_ms=*/0, "");
  if (!f.ok()) {
    *err = f.status().message();
    return false;
  }
  wt::net::WireStatus st{};
  wt::net::PayloadReader r("", 0);
  std::string bytes;
  if (!wt::net::Client::DecodeStatus(*f, &st, &r) ||
      st != wt::net::WireStatus::kOk || !r.Str(&bytes)) {
    *err = "malformed kMetrics reply";
    return false;
  }
  if (!wt::obs::ParseMetricsSnapshot(bytes.data(), bytes.size(), out)) {
    *err = "metrics snapshot failed to parse (version skew?)";
    return false;
  }
  return true;
}

uint64_t CounterOr0(const MetricsSnapshot& s, const char* name) {
  const uint64_t* v = s.FindCounter(name);
  return v != nullptr ? *v : 0;
}

int64_t GaugeOr0(const MetricsSnapshot& s, const char* name) {
  const int64_t* v = s.FindGauge(name);
  return v != nullptr ? *v : 0;
}

/// "12us" / "3.4ms" / "1.2s" — quantiles are microseconds in-protocol.
std::string HumanUs(uint64_t us) {
  char buf[32];
  if (us < 1000) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "us", us);
  } else if (us < 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(us) / 1e6);
  }
  return buf;
}

void PrintStageRow(const MetricsSnapshot& s, const char* label,
                   const char* metric, bool is_duration) {
  const HistogramSnapshot* h = s.FindHistogram(metric);
  if (h == nullptr || h->count == 0) {
    std::printf("  %-14s %10s %10s %10s %12s\n", label, "-", "-", "-", "0");
    return;
  }
  auto cell = [is_duration](uint64_t v) {
    return is_duration ? HumanUs(v) : std::to_string(v);
  };
  std::printf("  %-14s %10s %10s %10s %12" PRIu64 "\n", label,
              cell(h->Quantile(0.5)).c_str(), cell(h->Quantile(0.99)).c_str(),
              cell(h->max).c_str(), h->count);
}

struct Totals {
  uint64_t completed = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
};

Totals TotalsOf(const MetricsSnapshot& s) {
  Totals t;
  t.completed = CounterOr0(s, "wt_admission_completed_total");
  t.admitted = CounterOr0(s, "wt_admission_admitted_total");
  t.shed = CounterOr0(s, "wt_admission_shed_total");
  return t;
}

enum class Pane { kServing, kBackground, kAll };

void RenderServing(const MetricsSnapshot& s, const Totals& cur) {
  std::printf("  admission         %" PRIu64 " offered, %" PRIu64
              " admitted, %" PRIu64 " shed, %" PRIu64 " expired\n",
              CounterOr0(s, "wt_admission_offered_total"), cur.admitted,
              cur.shed,
              CounterOr0(s, "wt_admission_expired_at_dequeue_total") +
                  CounterOr0(s, "wt_admission_expired_before_reply_total"));
  std::printf("  queue             depth %" PRId64 ", %" PRId64 " bytes\n",
              GaugeOr0(s, "wt_admission_queue_depth"),
              GaugeOr0(s, "wt_admission_queued_bytes"));
  std::printf("  conns             %" PRIu64 " accepted, %" PRIu64
              " closed, %" PRIu64 " slow-client drops\n",
              CounterOr0(s, "wt_serving_conns_accepted_total"),
              CounterOr0(s, "wt_serving_conns_closed_total"),
              CounterOr0(s, "wt_serving_slow_client_disconnects_total"));
  std::printf("  coalescing        %" PRIu64 " dup hits, %" PRIu64
              " memo hits / %" PRIu64 " access positions\n",
              CounterOr0(s, "wt_serving_coalesced_dup_hits_total"),
              CounterOr0(s, "wt_serving_access_memo_hits_total"),
              CounterOr0(s, "wt_serving_access_positions_total"));
  std::printf("  engine            %" PRId64 " segments, %" PRId64
              " frozen strings, epoch %" PRId64 " (age %" PRId64
              " ms), freeze queue %" PRId64 "\n",
              GaugeOr0(s, "wt_engine_segments"),
              GaugeOr0(s, "wt_engine_frozen_strings"),
              GaugeOr0(s, "wt_engine_publish_epoch"),
              GaugeOr0(s, "wt_engine_snapshot_epoch_age_ms"),
              GaugeOr0(s, "wt_engine_freeze_queue_depth"));
  std::printf("  wal               %" PRIu64 " appends, %" PRIu64
              " fsyncs; pager %" PRIu64 " maps, %" PRIu64 " unmaps\n\n",
              CounterOr0(s, "wt_wal_appends_total"),
              CounterOr0(s, "wt_wal_fsyncs_total"),
              CounterOr0(s, "wt_pager_maps_total"),
              CounterOr0(s, "wt_pager_unmaps_total"));
  std::printf("  %-14s %10s %10s %10s %12s\n", "stage", "p50", "p99", "max",
              "samples");
  PrintStageRow(s, "admit_wait", "wt_serving_admit_wait_us", true);
  PrintStageRow(s, "coalesce", "wt_serving_coalesce_us", true);
  PrintStageRow(s, "engine_batch", "wt_serving_engine_batch_us", true);
  PrintStageRow(s, "reply_flush", "wt_serving_reply_flush_us", true);
  PrintStageRow(s, "total", "wt_serving_total_us", true);
  PrintStageRow(s, "batch_size", "wt_serving_batch_size", false);
  PrintStageRow(s, "wal_append", "wt_wal_append_us", true);
}

/// The engine's own work: what it owes (compaction debt, per-shard stack
/// heights), what the WAL is costing (append bytes, fsync tail), and what
/// the pager holds mapped. The trace timeline (wt_trace) shows WHEN this
/// work ran; this panel shows HOW MUCH is outstanding right now.
void RenderBackground(const MetricsSnapshot& s) {
  std::printf("  background work\n");
  std::printf("  compaction debt   %" PRId64
              " segment(s) over target, %" PRIu64 " freezes, %" PRIu64
              " compactions\n",
              GaugeOr0(s, "wt_engine_compaction_debt"),
              CounterOr0(s, "wt_engine_freezes_total"),
              CounterOr0(s, "wt_engine_compactions_total"));
  // Per-shard stack heights, in shard order (the gauges were registered
  // shard 0..N-1 and the snapshot preserves registration order).
  std::printf("  shard segments   ");
  bool any = false;
  for (const auto& [name, v] : s.gauges) {
    constexpr std::string_view kPrefix = "wt_engine_segments{shard=\"";
    if (std::string_view(name).substr(0, kPrefix.size()) != kPrefix) continue;
    std::printf(" %s:%" PRId64,
                std::string(name.begin() + static_cast<long>(kPrefix.size()),
                            name.end() - 2)
                    .c_str(),
                v);
    any = true;
  }
  std::printf(any ? "\n" : " -\n");
  const HistogramSnapshot* fsync = s.FindHistogram("wt_wal_fsync_us");
  std::printf("  wal fsync p99     %s (%" PRIu64 " fsyncs)\n",
              fsync != nullptr && fsync->count > 0
                  ? HumanUs(fsync->Quantile(0.99)).c_str()
                  : "-",
              CounterOr0(s, "wt_wal_fsyncs_total"));
  std::printf("  pager mapped      %" PRId64 " bytes\n",
              GaugeOr0(s, "wt_pager_mapped_bytes"));
  std::printf("  %-14s %10s %10s %10s %12s\n", "background", "p50", "p99",
              "max", "samples");
  PrintStageRow(s, "freeze_ms", "wt_engine_freeze_ms", false);
  PrintStageRow(s, "compaction_ms", "wt_engine_compaction_ms", false);
  PrintStageRow(s, "wal_bytes", "wt_wal_append_bytes", false);
  PrintStageRow(s, "wal_fsync", "wt_wal_fsync_us", true);
}

void Render(const MetricsSnapshot& s, const Totals& prev, double dt_s,
            uint16_t port, uint64_t poll, bool plain, Pane pane) {
  if (!plain) std::printf("\x1b[H\x1b[2J");
  const Totals cur = TotalsOf(s);
  const double qps =
      dt_s > 0 ? static_cast<double>(cur.completed - prev.completed) / dt_s
               : 0.0;
  const double shed_ps =
      dt_s > 0 ? static_cast<double>(cur.shed - prev.shed) / dt_s : 0.0;
  std::printf("wt_top — port %u, poll %" PRIu64 "\n\n", port, poll);
  std::printf("  qps (completed)   %12.1f      shed/s %10.1f\n", qps, shed_ps);
  if (pane != Pane::kBackground) RenderServing(s, cur);
  if (pane == Pane::kAll) std::printf("\n");
  if (pane != Pane::kServing) RenderBackground(s);
  std::fflush(stdout);
}

bool StagesLive(const MetricsSnapshot& s) {
  for (const char* name :
       {"wt_serving_admit_wait_us", "wt_serving_engine_batch_us",
        "wt_serving_reply_flush_us"}) {
    const HistogramSnapshot* h = s.FindHistogram(name);
    if (h == nullptr || h->count == 0) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  uint64_t interval_ms = 1000;
  uint64_t iterations = 0;  // 0 = forever
  bool plain = false;
  bool require_stages = false;
  Pane pane = Pane::kAll;
  bool bad = false;
  for (int i = 1; i < argc; ++i) {
    // Both spellings, matching the daemon/loadgen flags: --port 7411
    // and --port=7411.
    std::string a = argv[i];
    std::string inline_v;
    bool has_inline = false;
    if (const size_t eq = a.find('='); eq != std::string::npos) {
      inline_v = a.substr(eq + 1);
      a = a.substr(0, eq);
      has_inline = true;
    }
    auto value = [&]() -> std::string {
      if (has_inline) return inline_v;
      if (i + 1 < argc) return argv[++i];
      bad = true;
      return "0";
    };
    if (a == "--port") {
      port = static_cast<uint16_t>(std::stoul(value()));
    } else if (a == "--interval-ms") {
      interval_ms = std::stoull(value());
    } else if (a == "--iterations") {
      iterations = std::stoull(value());
    } else if (a == "--plain") {
      plain = true;
    } else if (a == "--require-stages") {
      require_stages = true;
    } else if (a == "--pane") {
      const std::string v = value();
      if (v == "serving") {
        pane = Pane::kServing;
      } else if (v == "background") {
        pane = Pane::kBackground;
      } else if (v == "all") {
        pane = Pane::kAll;
      } else {
        bad = true;
      }
    } else {
      bad = true;
    }
    if (bad) {
      std::fprintf(stderr,
                   "usage: %s --port N [--interval-ms 1000] [--iterations 0] "
                   "[--plain] [--require-stages] "
                   "[--pane=serving|background|all]\n",
                   argv[0]);
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "%s: --port is required\n", argv[0]);
    return 2;
  }
  Totals prev;
  bool have_prev = false;
  bool stages_live = false;
  for (uint64_t poll = 1; iterations == 0 || poll <= iterations; ++poll) {
    MetricsSnapshot snap;
    std::string err;
    if (!FetchSnapshot(port, &snap, &err)) {
      std::fprintf(stderr, "wt_top: poll %" PRIu64 " failed: %s\n", poll,
                   err.c_str());
      if (iterations != 0 && poll == iterations) return 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      continue;
    }
    Render(snap, have_prev ? prev : TotalsOf(snap),
           have_prev ? static_cast<double>(interval_ms) / 1e3 : 0.0, port,
           poll, plain, pane);
    prev = TotalsOf(snap);
    have_prev = true;
    stages_live = StagesLive(snap);
    if (iterations == 0 || poll < iterations) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  if (require_stages && !stages_live) {
    std::fprintf(stderr,
                 "wt_top: --require-stages: a per-stage histogram is empty "
                 "(tracing not live)\n");
    return 1;
  }
  return 0;
}

#else  // !__linux__

int main() {
  std::fprintf(stderr, "wt_top: the serving layer is Linux-only\n");
  return 2;
}

#endif
