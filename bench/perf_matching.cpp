/// Performance of the matching engines: the O(n³) blossom matcher (the
/// paper quotes O(n²m) for Edmonds; our dense implementation is O(n³)),
/// the serial-aware blossom entry the scheduler runs (blossom over the
/// pairs that beat serial), the greedy heuristic, and the exponential
/// oracle. Also reports greedy's exact-vs-heuristic quality gap as a
/// counter (schedule cost ratio).
///
/// Unlike the other perf binaries this one emits an *extended* one-line
/// JSON summary: besides wall_ms/throughput it carries samples/sec at
/// n = 256 for the dense blossom entry on uniform random costs and for the
/// serial-aware entry on a seeded WLAN upload, so the bench gate can pin
/// each matcher's own throughput.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "channel/link.hpp"
#include "core/scheduler.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/oracle.hpp"
#include "phy/rate_adapter.hpp"
#include "util/rng.hpp"

namespace {

using namespace sic;
using namespace sic::matching;

CostMatrix random_costs(int n, std::uint64_t seed) {
  Rng rng{seed};
  CostMatrix costs{n};
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) costs.set(i, j, rng.uniform(1.0, 100.0));
  }
  return costs;
}

void BM_BlossomPerfectMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto costs = random_costs(n, 42);
  for (auto _ : state) {
    const auto m = min_weight_perfect_matching(costs);
    benchmark::DoNotOptimize(m.total_cost);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BlossomPerfectMatching)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity(benchmark::oNCubed);

void BM_GreedyPerfectMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto costs = random_costs(n, 42);
  for (auto _ : state) {
    const auto m = greedy_min_weight_perfect_matching(costs);
    benchmark::DoNotOptimize(m.total_cost);
  }
}
BENCHMARK(BM_GreedyPerfectMatching)->RangeMultiplier(2)->Range(8, 128);

/// The scheduler's instance: a seeded 256-client Shannon upload at SNRs
/// uniform in [0, 30] dB. Pair costs come from best_pair_plan and serial
/// costs from solo_airtime, exactly as the pair-cost engine builds them;
/// the first n clients form the n-vertex instance.
struct GainInstance {
  CostMatrix costs{0};
  std::vector<double> serial;
};

GainInstance upload_instance(int n) {
  const phy::ShannonRateAdapter adapter{megahertz(20.0)};
  Rng rng{1};
  std::vector<channel::LinkBudget> clients;
  for (int i = 0; i < 256; ++i) {
    clients.push_back(channel::LinkBudget{
        Milliwatts{Decibels{rng.uniform(0.0, 30.0)}.linear()},
        Milliwatts{1.0}});
  }
  const core::SchedulerOptions options;
  GainInstance out{CostMatrix{n}, {}};
  for (int i = 0; i < n; ++i) {
    out.serial.push_back(
        core::solo_airtime(clients[i], adapter, options.packet_bits));
    for (int j = i + 1; j < n; ++j) {
      out.costs.set(
          i, j,
          core::best_pair_plan(clients[i], clients[j], adapter, options)
              .airtime);
    }
  }
  return out;
}

void BM_GainBlossomPerfectMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GainInstance instance = upload_instance(n);
  for (auto _ : state) {
    const auto m = min_weight_perfect_matching(instance.costs, instance.serial);
    benchmark::DoNotOptimize(m.total_cost);
  }
}
BENCHMARK(BM_GainBlossomPerfectMatching)->Arg(64)->Arg(128)->Arg(256);

void BM_OraclePerfectMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto costs = random_costs(n, 42);
  for (auto _ : state) {
    const auto m = min_weight_perfect_matching_oracle(costs);
    benchmark::DoNotOptimize(m.total_cost);
  }
}
BENCHMARK(BM_OraclePerfectMatching)->DenseRange(8, 16, 4);

void BM_GreedyQualityGap(benchmark::State& state) {
  // Not a speed benchmark: reports how much schedule cost greedy leaves on
  // the table vs the exact matcher, averaged over instances.
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  double ratio_sum = 0.0;
  int count = 0;
  for (auto _ : state) {
    const auto costs = random_costs(n, seed++);
    const double exact = min_weight_perfect_matching(costs).total_cost;
    const double greedy = greedy_min_weight_perfect_matching(costs).total_cost;
    ratio_sum += greedy / exact;
    ++count;
    benchmark::DoNotOptimize(greedy);
  }
  state.counters["greedy/optimal"] = ratio_sum / count;
}
BENCHMARK(BM_GreedyQualityGap)->Arg(16)->Arg(64);

// ---------------------------------------------------------------------------
// Summary measurements behind the one-line JSON (bench-gate pins).
// ---------------------------------------------------------------------------

/// Iterations/second of \p run: one warm-up call, then at least 3 timed
/// iterations and at least 0.25 s of wall clock.
template <typename F>
double samples_per_sec(F&& run) {
  using clock = std::chrono::steady_clock;
  run();
  const auto start = clock::now();
  int iters = 0;
  double elapsed = 0.0;
  do {
    run();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (iters < 3 || elapsed < 0.25);
  return static_cast<double>(iters) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  // Accept (and drop) the repo-wide `--threads N` flag like the other perf
  // binaries (see perf_util.hpp); the matching benches are single-threaded.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 < argc && argv[i + 1][0] != '-') ++i;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n_run = benchmark::RunSpecifiedBenchmarks();

  // Headline throughputs at n = 256: the dense entry on uniform random
  // costs, and the serial-aware entry on the scheduler's own instance.
  const auto costs = random_costs(256, 42);
  const double blossom_sps = samples_per_sec([&costs] {
    benchmark::DoNotOptimize(min_weight_perfect_matching(costs).total_cost);
  });
  const GainInstance upload = upload_instance(256);
  const double gain_blossom_sps = samples_per_sec([&upload] {
    benchmark::DoNotOptimize(
        min_weight_perfect_matching(upload.costs, upload.serial).total_cost);
  });

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const double throughput =
      wall_ms > 0.0 ? 1e3 * static_cast<double>(n_run) / wall_ms : 0.0;
  std::printf(
      "{\"bench\":\"perf_matching\",\"wall_ms\":%.1f,\"throughput\":%.3f,"
      "\"blossom_samples_per_sec_n256\":%.2f,"
      "\"gain_blossom_samples_per_sec_n256\":%.2f}\n",
      wall_ms, throughput, blossom_sps, gain_blossom_sps);
  benchmark::Shutdown();
  return 0;
}
