/// Performance of the matching engines: the O(n³) blossom matcher (the
/// paper quotes O(n²m) for Edmonds; our dense implementation is O(n³)),
/// the serial-aware blossom entry the scheduler runs (blossom over the
/// pairs that beat serial), the greedy heuristic, and the exponential
/// oracle. Also reports greedy's exact-vs-heuristic quality gap as a
/// counter (schedule cost ratio).
///
/// The one-line JSON summary also carries samples/sec at n = 256 for the
/// dense blossom entry on uniform random costs and for the serial-aware
/// entry on a seeded WLAN upload, so the bench gate can pin each matcher's
/// own throughput, and the serial-aware solve's edge visits on that upload
/// (a count of the search's work, the same on every host).

#include <benchmark/benchmark.h>

#include "perf_util.hpp"

#include "channel/link.hpp"
#include "core/scheduler.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/oracle.hpp"
#include "obs/metrics.hpp"
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
/// costs from solo_airtime, exactly as schedule_upload builds them;
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

/// Stage-scan edge visits of one serial-aware solve on the 256-client
/// upload, from the counter the matcher publishes.
double gain_blossom_edge_visits() {
  const GainInstance upload = upload_instance(256);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* const previous = obs::set_metrics(&registry);
  benchmark::DoNotOptimize(
      min_weight_perfect_matching(upload.costs, upload.serial).total_cost);
  (void)obs::set_metrics(previous);
  return static_cast<double>(
      registry.counter("matching.blossom.edge_visits").value());
}

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

}  // namespace

int main(int argc, char** argv) {
  // Headline throughputs at n = 256: the dense entry on uniform random
  // costs, and the serial-aware entry on the scheduler's own instance,
  // plus that serial-aware solve's exact edge visits.
  using sic::bench::samples_per_sec;
  return sic::bench::run_perf_main(
      "perf_matching", argc, argv,
      {{"blossom_samples_per_sec_n256",
        [] {
          const auto costs = random_costs(256, 42);
          return samples_per_sec([&costs] {
            benchmark::DoNotOptimize(
                min_weight_perfect_matching(costs).total_cost);
          });
        }},
       {"gain_blossom_samples_per_sec_n256",
        [] {
          const GainInstance upload = upload_instance(256);
          return samples_per_sec([&upload] {
            benchmark::DoNotOptimize(
                min_weight_perfect_matching(upload.costs, upload.serial)
                    .total_cost);
          });
        }},
       {"gain_blossom_edge_visits_n256", gain_blossom_edge_visits}});
}
