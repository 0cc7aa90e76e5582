/// Performance and quality of the SIC-aware scheduler (Section 6): end-to-
/// end schedule construction (pair costs + blossom matching) versus client
/// count, the greedy-pairing ablation, and the cost of enabling the
/// Section 5 techniques in the pair-cost model. The one-line JSON summary
/// also carries schedule builds/sec at n = 256 with both techniques on, so
/// the bench gate can pin the scheduler's own throughput, and two keys of
/// the discrete power-control search on seeded 802.11g cells of 32
/// clients with both techniques: its exact probes per search (a count,
/// the same on every host) and builds/sec.

#include <benchmark/benchmark.h>

#include "perf_util.hpp"

#include <vector>

#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
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

/// The seeded 802.11g cells of the discrete power-control keys: 16 cells
/// of 32 clients, about the size of a deployment AP's cell.
std::vector<std::vector<channel::LinkBudget>> discrete_cells() {
  std::vector<std::vector<channel::LinkBudget>> cells;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    cells.push_back(random_clients(32, seed));
  }
  return cells;
}

core::SchedulerOptions both_techniques() {
  core::SchedulerOptions options;
  options.enable_power_control = true;
  options.enable_multirate = true;
  return options;
}

const phy::DiscreteRateAdapter kDot11g{phy::RateTable::dot11g()};

/// Exact probes per power-control search over one build of every cell,
/// from the counters schedule_upload publishes.
double pc_probes_per_search() {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* const previous = obs::set_metrics(&registry);
  for (const auto& cell : discrete_cells()) {
    benchmark::DoNotOptimize(
        core::schedule_upload(cell, kDot11g, both_techniques()).total_airtime);
  }
  (void)obs::set_metrics(previous);
  const double searches = static_cast<double>(
      registry.counter("scheduler.pair_engine.pc_searches").value());
  const double probes = static_cast<double>(
      registry.counter("scheduler.pair_engine.pc_probes").value());
  return searches > 0.0 ? probes / searches : 0.0;
}

double discrete_builds_per_sec() {
  const auto cells = discrete_cells();
  return static_cast<double>(cells.size()) *
         sic::bench::samples_per_sec([&] {
           for (const auto& cell : cells) {
             benchmark::DoNotOptimize(
                 core::schedule_upload(cell, kDot11g, both_techniques())
                     .total_airtime);
           }
         });
}

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
        }},
       {"pc_probes_per_search_11g", pc_probes_per_search},
       {"discrete_builds_per_sec_n32", discrete_builds_per_sec}});
}
