// Query-path throughput (DESIGN.md #6): single-query Access/Rank/Select
// latency on the static wavelet trie — the paper's headline O(|s| + h_s)
// operations (Theorem 3.7) — and the batched AccessBatch/RankBatch/
// SelectBatch variants that amortize one node-grouped traversal per batch.
//
// Verified shapes:
//   * single queries: flat node headers + fused RRR rank-and-get make each
//     level one header load and one directory walk (no EF selects, no shape
//     excess search, no paired ranks);
//   * batches: each touched trie node is located once per batch and its
//     beta positions are walked monotonically, so throughput scales with
//     nodes-touched, not queries x height.
//
// Besides the google-benchmark tables, the binary always writes
// BENCH_query.json (ns/query single vs batched, batch-vs-loop speedups,
// size accounting against the seed baseline, the machine's hardware
// threads) so the perf trajectory is tracked across PRs. The binary exits
// nonzero if batched and per-query results ever disagree, or if the query
// fast path costs more than 5% extra space on the 1M-string acceptance
// workload (speedups themselves are reported, not gated, because container
// timing jitters).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/codec.hpp"
#include "core/wavelet_trie.hpp"
#include "util/workloads.hpp"

namespace {

using namespace wt;

// Seed-commit baseline, measured on the same container with the same
// workload (url_log_zipf, 1M strings, 64 domains x 32 paths, seed 7) before
// this fast path landed; BENCH_query.json reports current numbers as
// multiples of these.
constexpr double kSeedAccessNs = 11375;
constexpr double kSeedRankNs = 9074;
constexpr double kSeedSelectNs = 8909;
constexpr double kSeedSizeBits = 10775200;

/// URL log over `domains` x `paths` URLs: Zipf popularity (UrlLogGenerator)
/// or uniform. 64 x 32 is the tables' and the seed baseline's shape;
/// url_log_large's 4,096 x 256 is wtbench's url_large store (~244k distinct
/// of 1M), where the node directory is most of the trie.
std::vector<BitString> MakeLog(size_t n, bool zipf, size_t domains = 64,
                               size_t paths = 32) {
  UrlLogOptions opt;
  opt.num_domains = domains;
  opt.paths_per_domain = paths;
  opt.seed = 7;
  UrlLogGenerator gen(opt);
  std::vector<BitString> seq;
  seq.reserve(n);
  if (zipf) {
    for (size_t i = 0; i < n; ++i) seq.push_back(ByteCodec::Encode(gen.Next()));
  } else {
    // Uniform popularity over the same URL universe.
    std::mt19937_64 rng(opt.seed);
    for (size_t i = 0; i < n; ++i) {
      seq.push_back(ByteCodec::Encode(gen.Url(rng() % domains, rng() % paths)));
    }
  }
  return seq;
}

struct QuerySet {
  std::vector<size_t> access_pos;
  std::vector<size_t> rank_pos;
  std::vector<size_t> select_idx;
  std::vector<BitString> values;   // storage for the value strings
  std::vector<BitSpan> value_spans;
};

QuerySet MakeQueries(const std::vector<BitString>& seq, size_t q,
                     uint64_t seed) {
  QuerySet qs;
  std::mt19937_64 rng(seed);
  const size_t n = seq.size();
  // Value mix: strings drawn from the sequence itself (so their frequency
  // follows the workload), plus a few absent strings.
  const size_t distinct_pool = 256;
  for (size_t i = 0; i < distinct_pool; ++i) {
    qs.values.push_back(seq[rng() % n]);
  }
  qs.values.push_back(ByteCodec::Encode("www.absent.example/none"));
  qs.values.push_back(ByteCodec::Encode("www.absent.example/other"));
  qs.access_pos.reserve(q);
  qs.rank_pos.reserve(q);
  qs.select_idx.reserve(q);
  qs.value_spans.reserve(q);
  for (size_t i = 0; i < q; ++i) {
    qs.access_pos.push_back(rng() % n);
    qs.rank_pos.push_back(rng() % (n + 1));
    qs.select_idx.push_back(rng() % 1000);
    qs.value_spans.push_back(qs.values[rng() % qs.values.size()].Span());
  }
  return qs;
}

// ------------------------------------------------------ benchmark tables

void BM_AccessSingle(benchmark::State& state) {
  const size_t n = size_t(1) << state.range(0);
  const auto seq = MakeLog(n, /*zipf=*/true);
  const WaveletTrie trie = WaveletTrie::BulkBuild(seq);
  const QuerySet qs = MakeQueries(seq, 4096, 13);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.Access(qs.access_pos[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AccessSingle)->DenseRange(14, 20, 3)->Unit(benchmark::kMicrosecond);

void BM_RankSingle(benchmark::State& state) {
  const size_t n = size_t(1) << state.range(0);
  const auto seq = MakeLog(n, true);
  const WaveletTrie trie = WaveletTrie::BulkBuild(seq);
  const QuerySet qs = MakeQueries(seq, 4096, 13);
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ & 4095;
    benchmark::DoNotOptimize(trie.Rank(qs.value_spans[j], qs.rank_pos[j]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankSingle)->DenseRange(14, 20, 3)->Unit(benchmark::kMicrosecond);

void BM_SelectSingle(benchmark::State& state) {
  const size_t n = size_t(1) << state.range(0);
  const auto seq = MakeLog(n, true);
  const WaveletTrie trie = WaveletTrie::BulkBuild(seq);
  const QuerySet qs = MakeQueries(seq, 4096, 13);
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ & 4095;
    benchmark::DoNotOptimize(trie.Select(qs.value_spans[j], qs.select_idx[j]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectSingle)->DenseRange(14, 20, 3)->Unit(benchmark::kMicrosecond);

void BM_AccessBatch(benchmark::State& state) {
  const size_t n = size_t(1) << state.range(0);
  const auto seq = MakeLog(n, true);
  const WaveletTrie trie = WaveletTrie::BulkBuild(seq);
  const QuerySet qs = MakeQueries(seq, 8192, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.AccessBatch(qs.access_pos));
  }
  state.SetItemsProcessed(state.iterations() * qs.access_pos.size());
  state.SetLabel("one node-grouped traversal per batch");
}
BENCHMARK(BM_AccessBatch)->DenseRange(14, 20, 3)->Unit(benchmark::kMillisecond);

void BM_RankBatch(benchmark::State& state) {
  const size_t n = size_t(1) << state.range(0);
  const auto seq = MakeLog(n, true);
  const WaveletTrie trie = WaveletTrie::BulkBuild(seq);
  const QuerySet qs = MakeQueries(seq, 8192, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.RankBatch(qs.value_spans, qs.rank_pos));
  }
  state.SetItemsProcessed(state.iterations() * qs.rank_pos.size());
}
BENCHMARK(BM_RankBatch)->DenseRange(14, 20, 3)->Unit(benchmark::kMillisecond);

void BM_SelectBatch(benchmark::State& state) {
  const size_t n = size_t(1) << state.range(0);
  const auto seq = MakeLog(n, true);
  const WaveletTrie trie = WaveletTrie::BulkBuild(seq);
  const QuerySet qs = MakeQueries(seq, 8192, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.SelectBatch(qs.value_spans, qs.select_idx));
  }
  state.SetItemsProcessed(state.iterations() * qs.select_idx.size());
}
BENCHMARK(BM_SelectBatch)->DenseRange(14, 20, 3)->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------------- the gate
//
// Single-shot comparison written to BENCH_query.json — the acceptance
// numbers the PR trajectory tracks.

using clock_type = std::chrono::steady_clock;

double NsPer(clock_type::time_point a, clock_type::time_point b, size_t q) {
  return std::chrono::duration<double, std::nano>(b - a).count() /
         static_cast<double>(q);
}

struct RunResult {
  const char* workload;
  size_t n;
  size_t size_bits;
  double single_access_ns, single_rank_ns, single_select_ns;
  double batch_access_ns, batch_rank_ns, batch_select_ns;
  bool identical;
};

RunResult RunOne(const char* workload, bool zipf, size_t n, size_t q,
                 size_t domains = 64, size_t paths = 32) {
  const auto seq = MakeLog(n, zipf, domains, paths);
  const WaveletTrie trie = WaveletTrie::BulkBuild(seq);
  const QuerySet qs = MakeQueries(seq, q, 17);

  RunResult r{};
  r.workload = workload;
  r.n = n;
  r.size_bits = trie.SizeInBits();

  auto t0 = clock_type::now();
  std::vector<BitString> access_loop;
  access_loop.reserve(q);
  for (size_t i = 0; i < q; ++i) access_loop.push_back(trie.Access(qs.access_pos[i]));
  auto t1 = clock_type::now();
  std::vector<size_t> rank_loop(q);
  for (size_t i = 0; i < q; ++i) {
    rank_loop[i] = trie.Rank(qs.value_spans[i], qs.rank_pos[i]);
  }
  auto t2 = clock_type::now();
  std::vector<std::optional<size_t>> select_loop(q);
  for (size_t i = 0; i < q; ++i) {
    select_loop[i] = trie.Select(qs.value_spans[i], qs.select_idx[i]);
  }
  auto t3 = clock_type::now();
  const auto access_batch = trie.AccessBatch(qs.access_pos);
  auto t4 = clock_type::now();
  const auto rank_batch = trie.RankBatch(qs.value_spans, qs.rank_pos);
  auto t5 = clock_type::now();
  const auto select_batch = trie.SelectBatch(qs.value_spans, qs.select_idx);
  auto t6 = clock_type::now();

  r.single_access_ns = NsPer(t0, t1, q);
  r.single_rank_ns = NsPer(t1, t2, q);
  r.single_select_ns = NsPer(t2, t3, q);
  r.batch_access_ns = NsPer(t3, t4, q);
  r.batch_rank_ns = NsPer(t4, t5, q);
  r.batch_select_ns = NsPer(t5, t6, q);
  r.identical = access_batch == access_loop && rank_batch == rank_loop &&
                select_batch == select_loop;
  return r;
}

bool WriteAcceptanceJson() {
  // WT_BENCH_SMOKE shrinks the run so CI exercises the whole path (build +
  // queries + batch-vs-loop identity) in seconds; the tracked perf numbers
  // come from full runs without it.
  const bool smoke = std::getenv("WT_BENCH_SMOKE") != nullptr;
  const size_t small_n = smoke ? 20'000 : 100'000;
  const size_t big_n = smoke ? 50'000 : 1'000'000;
  // Batch size: one analytics burst. Batch-vs-loop amortization scales with
  // queries-per-node (the google-benchmark tables cover smaller batches).
  const size_t q = smoke ? 8'192 : 131'072;

  std::vector<RunResult> runs;
  runs.push_back(RunOne("url_log_zipf", true, small_n, q));
  runs.push_back(RunOne("url_log_uniform", false, small_n, q));
  runs.push_back(RunOne("url_log_zipf", true, big_n, q));
  runs.push_back(RunOne("url_log_uniform", false, big_n, q));
  runs.push_back(RunOne("url_log_large", true, big_n, q, 4096, 256));
  const RunResult& gate = runs[2];  // zipf at the largest size

  bool ok = true;
  for (const auto& r : runs) ok = ok && r.identical;
  // Space gate: only meaningful against the seed baseline at the full
  // acceptance size (deterministic — same workload, same seed).
  double size_regression_pct = 0.0;
  if (!smoke) {
    size_regression_pct =
        100.0 * (static_cast<double>(gate.size_bits) / kSeedSizeBits - 1.0);
    ok = ok && size_regression_pct <= 5.0;
  }

  FILE* f = std::fopen("BENCH_query.json", "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"seed_baseline\": {\n");
  std::fprintf(f, "    \"note\": \"seed commit, same container, url_log_zipf 1M\",\n");
  std::fprintf(f, "    \"access_ns\": %.0f, \"rank_ns\": %.0f, \"select_ns\": %.0f,\n",
               kSeedAccessNs, kSeedRankNs, kSeedSelectNs);
  std::fprintf(f, "    \"size_in_bits\": %.0f\n", kSeedSizeBits);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"workload\": \"%s\", \"num_strings\": %zu,\n",
                 r.workload, r.n);
    std::fprintf(f, "      \"size_in_bits\": %zu,\n", r.size_bits);
    std::fprintf(f,
                 "      \"single_ns\": {\"access\": %.0f, \"rank\": %.0f, "
                 "\"select\": %.0f},\n",
                 r.single_access_ns, r.single_rank_ns, r.single_select_ns);
    std::fprintf(f,
                 "      \"batch_ns\": {\"access\": %.0f, \"rank\": %.0f, "
                 "\"select\": %.0f},\n",
                 r.batch_access_ns, r.batch_rank_ns, r.batch_select_ns);
    std::fprintf(f,
                 "      \"batch_vs_loop_speedup\": {\"access\": %.2f, "
                 "\"rank\": %.2f, \"select\": %.2f},\n",
                 r.single_access_ns / r.batch_access_ns,
                 r.single_rank_ns / r.batch_rank_ns,
                 r.single_select_ns / r.batch_select_ns);
    std::fprintf(f, "      \"batch_identical_to_loop\": %s\n",
                 r.identical ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"gate\": {\n");
  std::fprintf(f, "    \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "    \"results_identical\": %s,\n", ok ? "true" : "false");
  if (!smoke) {
    std::fprintf(f, "    \"size_regression_pct_vs_seed\": %.2f,\n",
                 size_regression_pct);
    std::fprintf(f, "    \"single_speedup_vs_seed\": {\"access\": %.2f, "
                 "\"rank\": %.2f, \"select\": %.2f},\n",
                 kSeedAccessNs / gate.single_access_ns,
                 kSeedRankNs / gate.single_rank_ns,
                 kSeedSelectNs / gate.single_select_ns);
  }
  std::fprintf(f, "    \"batch_vs_loop_speedup_at_gate\": {\"access\": %.2f, "
               "\"rank\": %.2f, \"select\": %.2f}\n",
               gate.single_access_ns / gate.batch_access_ns,
               gate.single_rank_ns / gate.batch_rank_ns,
               gate.single_select_ns / gate.batch_select_ns);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf(
      "BENCH_query.json: single A/R/S %.0f/%.0f/%.0f ns (seed %.0f/%.0f/%.0f), "
      "batch speedup %.1fx/%.1fx/%.1fx, size %+.2f%%, identical=%s\n",
      gate.single_access_ns, gate.single_rank_ns, gate.single_select_ns,
      kSeedAccessNs, kSeedRankNs, kSeedSelectNs,
      gate.single_access_ns / gate.batch_access_ns,
      gate.single_rank_ns / gate.batch_rank_ns,
      gate.single_select_ns / gate.batch_select_ns, size_regression_pct,
      ok ? "yes" : "no");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return WriteAcceptanceJson() ? 0 : 1;
}
