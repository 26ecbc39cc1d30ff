// §8 "Computation Costs": micro-benchmarks of the per-monitor pipeline.
//
// The paper reports each monitor comfortably sustaining 300 Mbps — i.e.
// SVD + k-means is not the bottleneck.  These google-benchmark timings
// report packets/second for each stage and the full summarize path.
#include <benchmark/benchmark.h>

#include <random>

#include "linalg/simd.hpp"
#include "linalg/svd.hpp"
#include "packet/wire.hpp"
#include "rules/raw_matcher.hpp"
#include "summarize/summarizer.hpp"
#include "trace/background.hpp"

namespace {

using namespace jaal;

std::vector<packet::PacketRecord> batch(std::size_t n) {
  trace::BackgroundTraffic gen(trace::trace1_profile(), 7);
  return trace::take(gen, n);
}

void BM_Normalize(benchmark::State& state) {
  const auto packets = batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(summarize::to_normalized_matrix(packets));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Normalize)->Arg(1000)->Arg(2000);

void BM_TruncatedSvd(benchmark::State& state) {
  const auto packets = batch(static_cast<std::size_t>(state.range(0)));
  const linalg::Matrix x = summarize::to_normalized_matrix(packets);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::truncated_svd(x, 12));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TruncatedSvd)->Arg(1000)->Arg(2000);

void BM_KMeans(benchmark::State& state) {
  const auto packets = batch(1000);
  const linalg::Matrix x = summarize::to_normalized_matrix(packets);
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        summarize::kmeans(x, static_cast<std::size_t>(state.range(0)), rng));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_KMeans)->Arg(100)->Arg(200)->Arg(500);

void BM_FullSummarize(benchmark::State& state) {
  const auto packets = batch(static_cast<std::size_t>(state.range(0)));
  summarize::SummarizerConfig cfg;
  cfg.batch_size = packets.size();
  cfg.min_batch = 1;
  cfg.rank = 12;
  cfg.centroids = packets.size() / 5;  // k/n = 0.2
  summarize::Summarizer summarizer(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(summarizer.summarize(packets));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // Headline number: packets/s * 40 header bytes * 8 -> sustained bps on
  // the headers-only stream the monitor actually processes.
}
BENCHMARK(BM_FullSummarize)->Arg(1000)->Arg(2000);

/// The SIMD acceptance pair: the same full pipeline with the kernels pinned
/// to scalar vs the best level this host supports.  The items/s ratio of the
/// two is the single-thread speedup the CI regression gate tracks.
void BM_FullSummarizeForcedLevel(benchmark::State& state,
                                 linalg::simd::Level level) {
  const auto packets = batch(static_cast<std::size_t>(state.range(0)));
  summarize::SummarizerConfig cfg;
  cfg.batch_size = packets.size();
  cfg.min_batch = 1;
  cfg.rank = 12;
  cfg.centroids = packets.size() / 5;
  summarize::Summarizer summarizer(cfg);
  const linalg::simd::Level prev = linalg::simd::active();
  linalg::simd::force_level(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(summarizer.summarize(packets));
  }
  linalg::simd::force_level(prev);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_FullSummarizeScalar(benchmark::State& state) {
  BM_FullSummarizeForcedLevel(state, linalg::simd::Level::kScalar);
}
void BM_FullSummarizeSimd(benchmark::State& state) {
  BM_FullSummarizeForcedLevel(state, linalg::simd::detected());
}
BENCHMARK(BM_FullSummarizeScalar)->Arg(1000)->Arg(2000);
BENCHMARK(BM_FullSummarizeSimd)->Arg(1000)->Arg(2000);

void BM_SerializeSummary(benchmark::State& state) {
  const auto packets = batch(1000);
  summarize::SummarizerConfig cfg;
  cfg.batch_size = 1000;
  cfg.min_batch = 1;
  cfg.rank = 12;
  cfg.centroids = 200;
  summarize::Summarizer summarizer(cfg);
  const auto out = summarizer.summarize(packets);
  for (auto _ : state) {
    benchmark::DoNotOptimize(summarize::serialize(out.summary));
  }
}
BENCHMARK(BM_SerializeSummary);

void BM_WireParse(benchmark::State& state) {
  const auto packets = batch(1);
  const auto bytes = packet::serialize_headers(packets[0].ip, packets[0].tcp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packet::parse_headers(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireParse);

void BM_RawMatcher(benchmark::State& state) {
  const auto rules = rules::parse_rules(rules::default_ruleset_text(), [] {
    rules::RuleVars vars;
    vars.home_net = rules::AddrSpec::cidr(packet::make_ip(203, 0, 0, 0), 16);
    return vars;
  }());
  const rules::RawMatcher matcher(rules);
  const auto packets = batch(2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.analyze(packets, 2.0));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RawMatcher);

}  // namespace

BENCHMARK_MAIN();
