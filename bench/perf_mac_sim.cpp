/// Performance of the MAC simulators — the discrete-event medium that
/// runs contention (run_dcf_upload) and the slot-timeline executor of a
/// Section 6 schedule (run_scheduled_upload) — and the headline end-to-end
/// ablation: backlogged upload under plain DCF (with and without an
/// SIC-capable AP) versus the scheduled upload, on the same receiver
/// model. Two summary keys gate the scheduled executor on the cell the
/// deployment engine serves per AP and epoch: its frame throughput, and
/// its exact heap allocations per run, which this file counts by
/// replacing the global operator new.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/scheduler.hpp"
#include "mac/upload_sim.hpp"
#include "perf_util.hpp"
#include "topology/samplers.hpp"
#include "util/rng.hpp"

/// Heap allocations made on this thread so far. Every new expression
/// and allocator in the binary goes through the replacement below.
thread_local std::uint64_t g_allocations = 0;

// Out of line, so the compiler never pairs an inlined malloc() or free()
// with the new or delete expression around it.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace sic;

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};

std::vector<channel::LinkBudget> ridge_clients(int pairs) {
  // Clients placed pairwise on the Fig. 4 ridge so SIC has real work.
  std::vector<channel::LinkBudget> out;
  for (int i = 0; i < pairs; ++i) {
    const double weak_db = 11.0 + i;
    out.push_back(channel::LinkBudget{
        Milliwatts{Decibels{2 * weak_db}.linear()}, Milliwatts{1.0}});
    out.push_back(channel::LinkBudget{Milliwatts{Decibels{weak_db}.linear()},
                                      Milliwatts{1.0}});
  }
  return out;
}

void BM_DcfUpload(benchmark::State& state) {
  const auto clients = ridge_clients(static_cast<int>(state.range(0)));
  mac::UploadSimConfig config;
  config.frames_per_client = 4;
  double completion = 0.0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    config.seed++;
    const auto result = mac::run_dcf_upload(clients, kShannon, config);
    completion = result.completion_s;
    delivered = result.delivered;
    benchmark::DoNotOptimize(result.delivered);
  }
  state.counters["completion_s"] = completion;
  state.counters["delivered"] = static_cast<double>(delivered);
}
BENCHMARK(BM_DcfUpload)->Arg(2)->Arg(4)->Arg(8);

void BM_ScheduledUpload(benchmark::State& state) {
  const auto clients = ridge_clients(static_cast<int>(state.range(0)));
  core::SchedulerOptions options;
  const auto schedule = core::schedule_upload(clients, kShannon, options);
  mac::UploadSimConfig config;
  double completion = 0.0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const auto result =
        mac::run_scheduled_upload(clients, kShannon, schedule, config);
    completion = result.completion_s;
    delivered = result.delivered;
    benchmark::DoNotOptimize(result.delivered);
  }
  state.counters["completion_s"] = completion;
  state.counters["delivered"] = static_cast<double>(delivered);
}
BENCHMARK(BM_ScheduledUpload)->Arg(2)->Arg(4)->Arg(8);

void BM_SicVsPlainApAblation(benchmark::State& state) {
  // The paper's thesis as an executable ablation: with stations at their
  // ideal rates (margin 100%), collisions are never SIC-decodable and the
  // SIC-capable AP salvages nothing; as the rate margin grows (practical
  // adapters leave slack), SIC starts recovering collided frames. The arg
  // is the rate margin in percent.
  const auto clients = ridge_clients(4);
  mac::UploadSimConfig with_sic;
  with_sic.frames_per_client = 4;
  with_sic.rate_margin = static_cast<double>(state.range(0)) / 100.0;
  double sic_recovered = 0.0;
  double captures = 0.0;
  std::uint64_t trials = 0;
  for (auto _ : state) {
    with_sic.seed++;
    const auto a = mac::run_dcf_upload(clients, kShannon, with_sic);
    sic_recovered += static_cast<double>(a.medium.sic_decodes);
    captures += static_cast<double>(a.medium.capture_decodes);
    ++trials;
    benchmark::DoNotOptimize(a.delivered);
  }
  state.counters["sic_decodes_per_run"] =
      sic_recovered / static_cast<double>(trials);
  state.counters["captures_per_run"] =
      captures / static_cast<double>(trials);
}
BENCHMARK(BM_SicVsPlainApAblation)->Arg(100)->Arg(80)->Arg(60)->Arg(40);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    mac::EventQueue queue;
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      queue.schedule_at(i, [&fired] { ++fired; });
    }
    queue.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

/// A 40-client Shannon cell (AP-side SNRs uniform in [4, 36] dB) whose
/// schedule was planned on estimates that are 4 dB stale: the run
/// retransmits, demotes modes and re-matches, so it exercises the whole
/// closed-loop serve path the deployment engine runs per AP and epoch.
struct StaleCell {
  std::vector<channel::LinkBudget> clients;
  core::Schedule schedule;
  mac::UploadSimConfig config;

  StaleCell() {
    Rng rng{40};
    for (int i = 0; i < 40; ++i) {
      clients.push_back(channel::LinkBudget{
          Milliwatts{Decibels{rng.uniform(4.0, 36.0)}.linear()},
          Milliwatts{1.0}});
    }
    schedule = core::schedule_upload(clients, kShannon, {});
    config.faults.stale_rss_sigma = Decibels{4.0};
  }
  [[nodiscard]] mac::UploadSimResult run() const {
    return mac::run_scheduled_upload(clients, kShannon, schedule, config);
  }
};

/// Transmissions per second of run_scheduled_upload on the stale cell.
double serve_frames_per_sec_n40() {
  const StaleCell cell;
  std::uint64_t transmissions = 0;
  const double runs_per_sec = sic::bench::samples_per_sec([&] {
    transmissions = cell.run().medium.transmissions;
  });
  return runs_per_sec * static_cast<double>(transmissions);
}

/// Heap allocations of one run_scheduled_upload call on the stale cell,
/// after a warm-up call: exact for a given standard library.
double serve_allocs_per_run_n40() {
  const StaleCell cell;
  benchmark::DoNotOptimize(cell.run().delivered);
  const std::uint64_t before = g_allocations;
  const mac::UploadSimResult result = cell.run();
  const std::uint64_t allocations = g_allocations - before;
  benchmark::DoNotOptimize(result.delivered);
  return static_cast<double>(allocations);
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_perf_main(
      "perf_mac_sim", argc, argv,
      {{"serve_frames_per_sec_n40", serve_frames_per_sec_n40},
       {"serve_allocs_per_run_n40", serve_allocs_per_run_n40}});
}
