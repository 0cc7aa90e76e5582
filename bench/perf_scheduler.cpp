/// Performance and quality of the SIC-aware scheduler (Section 6): end-to-
/// end schedule construction (pair costs + blossom matching) versus client
/// count, the greedy-pairing ablation, and the cost of enabling the
/// Section 5 techniques in the pair-cost model. The one-line JSON summary
/// also carries schedule builds/sec at n = 256 with both techniques on, so
/// the bench gate can pin the scheduler's own throughput.

#include <benchmark/benchmark.h>

#include "perf_util.hpp"

#include <vector>

#include "core/scheduler.hpp"
#include "topology/samplers.hpp"
#include "util/rng.hpp"

namespace {

using namespace sic;

std::vector<channel::LinkBudget> random_clients(int n, std::uint64_t seed) {
  Rng rng{seed};
  topology::SamplerConfig config;
  return topology::sample_upload_clients(rng, config, n);
}

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};

void BM_ScheduleUpload(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto clients = random_clients(n, 7);
  core::SchedulerOptions options;
  double gain = 0.0;
  for (auto _ : state) {
    const auto schedule = core::schedule_upload(clients, kShannon, options);
    gain = core::serial_upload_airtime(clients, kShannon,
                                       options.packet_bits) /
           schedule.total_airtime;
    benchmark::DoNotOptimize(schedule.total_airtime);
  }
  state.counters["gain_vs_serial"] = gain;
}
BENCHMARK(BM_ScheduleUpload)->RangeMultiplier(2)->Range(4, 64);

void BM_ScheduleUploadGreedy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto clients = random_clients(n, 7);
  core::SchedulerOptions options;
  options.pairing = core::SchedulerOptions::Pairing::kGreedy;
  for (auto _ : state) {
    const auto schedule = core::schedule_upload(clients, kShannon, options);
    benchmark::DoNotOptimize(schedule.total_airtime);
  }
}
BENCHMARK(BM_ScheduleUploadGreedy)->RangeMultiplier(2)->Range(4, 64);

void BM_ScheduleUploadWithTechniques(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto clients = random_clients(n, 7);
  core::SchedulerOptions options;
  options.enable_power_control = true;
  options.enable_multirate = true;
  double gain = 0.0;
  for (auto _ : state) {
    const auto schedule = core::schedule_upload(clients, kShannon, options);
    gain = core::serial_upload_airtime(clients, kShannon,
                                       options.packet_bits) /
           schedule.total_airtime;
    benchmark::DoNotOptimize(schedule.total_airtime);
  }
  state.counters["gain_vs_serial"] = gain;
}
BENCHMARK(BM_ScheduleUploadWithTechniques)->RangeMultiplier(2)->Range(4, 256);

// The discrete-rate scheduler with both techniques on — the configuration
// whose pair kernel is dominated by the power-control grid search.
void BM_ScheduleUploadDiscretePc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto clients = random_clients(n, 7);
  const phy::DiscreteRateAdapter adapter{phy::RateTable::dot11g()};
  core::SchedulerOptions options;
  options.enable_power_control = true;
  options.enable_multirate = true;
  double gain = 0.0;
  for (auto _ : state) {
    const auto schedule = core::schedule_upload(clients, adapter, options);
    gain = core::serial_upload_airtime(clients, adapter,
                                       options.packet_bits) /
           schedule.total_airtime;
    benchmark::DoNotOptimize(schedule.total_airtime);
  }
  state.counters["gain_vs_serial"] = gain;
}
BENCHMARK(BM_ScheduleUploadDiscretePc)->RangeMultiplier(2)->Range(16, 64);

void BM_PairPlan(benchmark::State& state) {
  const auto clients = random_clients(2, 11);
  core::SchedulerOptions options;
  options.enable_power_control = true;
  options.enable_multirate = true;
  for (auto _ : state) {
    const auto plan =
        core::best_pair_plan(clients[0], clients[1], kShannon, options);
    benchmark::DoNotOptimize(plan.airtime);
  }
}
BENCHMARK(BM_PairPlan);

}  // namespace

int main(int argc, char** argv) {
  // Headline: schedule builds per second at n = 256 with both techniques
  // on Shannon — the pair-cost pass plus the blossom matching.
  return sic::bench::run_perf_main(
      "perf_scheduler", argc, argv,
      {{"schedule_builds_per_sec_n256", [] {
          const auto clients = random_clients(256, 7);
          core::SchedulerOptions options;
          options.enable_power_control = true;
          options.enable_multirate = true;
          return sic::bench::samples_per_sec([&] {
            benchmark::DoNotOptimize(
                core::schedule_upload(clients, kShannon, options)
                    .total_airtime);
          });
        }}});
}
