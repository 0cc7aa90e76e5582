/// Large-deployment fast-path scaling sweep: association planning at
/// clients ∈ {1k, 10k, 100k} × APs ∈ {16, 256, 1024} for the spatial-grid
/// walk vs the brute-force all-AP scan, the batched rate_span lanes vs
/// the scalar per-element loop, and whole deployment-engine epochs at
/// 10k clients × 256 APs.
///
/// Like perf_matching this emits an *extended* one-line JSON summary so
/// the bench gate can pin the headline numbers from day one:
///
///   assoc_clients_per_sec       grid planning throughput, 100k × 1024
///   assoc_brute_clients_per_sec brute reference at the same scale
///   assoc_speedup_100kx1024     grid / brute (the ≥10× acceptance bar)
///   assoc_candidates_per_client mean APs actually scored by the walk
///   epoch_per_sec               engine epochs at 10k clients × 256 APs
///   rate_span_speedup_n256      batched DiscreteRateAdapter lanes vs the
///                               scalar dB-domain lookup (one log10 each)
///
/// Both sides of every ratio run on the same thread count (a pool of 1),
/// so the speedups are algorithmic, not parallelism in disguise.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "channel/pathloss.hpp"
#include "mac/association.hpp"
#include "mac/deployment_engine.hpp"
#include "phy/rate_adapter.hpp"
#include "topology/geometry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sic;

/// One association problem: a jittered AP lattice (pitch 50 m — realistic
/// enterprise density) with a few dead APs and snapshot loads, and
/// clients uniform over the fleet's extent, most with a live incumbent.
struct AssocInstance {
  std::vector<topology::Point> sites;
  std::vector<std::uint8_t> alive;
  std::vector<int> members;
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::uint8_t> eligible;
  std::vector<int> incumbent;
};

AssocInstance make_instance(int n_clients, int n_aps, std::uint64_t seed) {
  Rng rng{seed};
  AssocInstance ins;
  const int side =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n_aps))));
  const double pitch = 50.0;
  for (int i = 0; i < n_aps; ++i) {
    const double x = static_cast<double>(i % side) * pitch;
    const double y = static_cast<double>(i / side) * pitch;
    ins.sites.push_back(topology::Point{x + rng.uniform(-10.0, 10.0),
                                        y + rng.uniform(-10.0, 10.0)});
    ins.alive.push_back(rng.uniform(0.0, 1.0) < 0.05 ? 0 : 1);
    ins.members.push_back(
        rng.uniform_int(0, std::max(1, 2 * n_clients / n_aps)));
  }
  const double extent = static_cast<double>(side) * pitch;
  for (int c = 0; c < n_clients; ++c) {
    ins.xs.push_back(rng.uniform(0.0, extent));
    ins.ys.push_back(rng.uniform(0.0, extent));
    ins.eligible.push_back(1);
    int inc = -1;
    if (rng.uniform(0.0, 1.0) < 0.8) {
      const int cand = rng.uniform_int(0, n_aps - 1);
      if (ins.alive[static_cast<std::size_t>(cand)] != 0) inc = cand;
    }
    ins.incumbent.push_back(inc);
  }
  return ins;
}

void run_plan(const mac::AssociationPlanner& planner, mac::AssociationMode mode,
              const AssocInstance& ins, ThreadPool& pool,
              std::vector<mac::AssociationProposal>& out) {
  planner.plan(mode, ins.xs, ins.ys, ins.eligible, ins.incumbent, ins.alive,
               ins.members, pool, out);
}

void BM_AssociationPlanGrid(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int aps = static_cast<int>(state.range(1));
  const AssocInstance ins = make_instance(clients, aps, 42);
  const channel::LogDistancePathLoss pathloss =
      channel::LogDistancePathLoss::for_carrier(3.0);
  const mac::AssociationPlanner planner{ins.sites, pathloss, Dbm{15.0},
                                        Decibels{0.5}};
  ThreadPool pool{1};
  std::vector<mac::AssociationProposal> out;
  for (auto _ : state) {
    run_plan(planner, mac::AssociationMode::kGrid, ins, pool, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * clients);
}
BENCHMARK(BM_AssociationPlanGrid)
    ->ArgNames({"clients", "aps"})
    ->Args({1000, 16})
    ->Args({1000, 256})
    ->Args({1000, 1024})
    ->Args({10000, 16})
    ->Args({10000, 256})
    ->Args({10000, 1024})
    ->Args({100000, 16})
    ->Args({100000, 256})
    ->Args({100000, 1024});

void BM_AssociationPlanBrute(benchmark::State& state) {
  // The O(clients × APs) reference. Registered only up to ~25M score
  // evaluations per iteration so the sweep stays affordable; the full
  // 100k × 1024 brute point is measured once for the summary ratio.
  const int clients = static_cast<int>(state.range(0));
  const int aps = static_cast<int>(state.range(1));
  const AssocInstance ins = make_instance(clients, aps, 42);
  const channel::LogDistancePathLoss pathloss =
      channel::LogDistancePathLoss::for_carrier(3.0);
  const mac::AssociationPlanner planner{ins.sites, pathloss, Dbm{15.0},
                                        Decibels{0.5}};
  ThreadPool pool{1};
  std::vector<mac::AssociationProposal> out;
  for (auto _ : state) {
    run_plan(planner, mac::AssociationMode::kBruteForce, ins, pool, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * clients);
}
BENCHMARK(BM_AssociationPlanBrute)
    ->ArgNames({"clients", "aps"})
    ->Args({1000, 16})
    ->Args({1000, 256})
    ->Args({1000, 1024})
    ->Args({10000, 16})
    ->Args({10000, 256})
    ->Args({100000, 16});

void BM_RateSpanDiscreteBatched(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const phy::DiscreteRateAdapter adapter{phy::RateTable::dot11n()};
  Rng rng{7};
  std::vector<double> sinrs;
  for (int i = 0; i < n; ++i) sinrs.push_back(rng.uniform(-1.0, 3000.0));
  std::vector<BitsPerSecond> out(sinrs.size());
  for (auto _ : state) {
    adapter.rate_span(sinrs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RateSpanDiscreteBatched)->Arg(16)->Arg(256)->Arg(4096);

/// The lookup the linear cutovers replaced: the dB-domain threshold scan,
/// one log10 per lane. DiscreteRateAdapter::rate() itself no longer takes
/// this path, so the scalar baseline spells it out.
BitsPerSecond db_domain_rate(const phy::RateTable& table, double sinr) {
  if (sinr <= 0.0) return BitsPerSecond{0.0};
  return table.best_rate(Decibels::from_linear(sinr));
}

void BM_RateSpanDiscreteScalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const phy::RateTable& table = phy::RateTable::dot11n();
  Rng rng{7};
  std::vector<double> sinrs;
  for (int i = 0; i < n; ++i) sinrs.push_back(rng.uniform(-1.0, 3000.0));
  std::vector<BitsPerSecond> out(sinrs.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < sinrs.size(); ++i) {
      out[i] = db_domain_rate(table, sinrs[i]);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RateSpanDiscreteScalar)->Arg(256);

void BM_RateSpanShannon(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const phy::ShannonRateAdapter adapter{megahertz(20.0)};
  Rng rng{7};
  std::vector<double> sinrs;
  for (int i = 0; i < n; ++i) sinrs.push_back(rng.uniform(-1.0, 3000.0));
  std::vector<BitsPerSecond> out(sinrs.size());
  for (auto _ : state) {
    adapter.rate_span(sinrs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RateSpanShannon)->Arg(256);

/// A steady-state deployment: clients pre-placed around a jittered AP
/// lattice, no chaos, epoch drift keeping channels (and therefore the
/// dirty-row updates) alive.
std::unique_ptr<mac::DeploymentEngine> make_engine(
    int n_clients, int n_aps, const phy::RateAdapter& adapter) {
  mac::DeploymentEngineConfig config;
  config.seed = 9;
  config.epoch_drift_sigma = Decibels{1.0};
  AssocInstance ins = make_instance(n_clients, n_aps, 9);
  auto engine = std::make_unique<mac::DeploymentEngine>(
      ins.sites, adapter, config, mac::FaultSchedule{});
  for (int c = 0; c < n_clients; ++c) {
    (void)engine->add_client(topology::Point{ins.xs[static_cast<std::size_t>(c)],
                                             ins.ys[static_cast<std::size_t>(c)]});
  }
  return engine;
}

void BM_DeploymentEpoch(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const int aps = static_cast<int>(state.range(1));
  const phy::ShannonRateAdapter adapter{megahertz(20.0)};
  auto engine = make_engine(clients, aps, adapter);
  (void)engine->run_epoch();  // absorb the first-epoch association storm
  for (auto _ : state) {
    const mac::EpochStats stats = engine->run_epoch();
    benchmark::DoNotOptimize(stats.offered);
  }
  state.SetItemsProcessed(state.iterations() * clients);
}
BENCHMARK(BM_DeploymentEpoch)
    ->ArgNames({"clients", "aps"})
    ->Args({1000, 64})
    ->Args({10000, 256});

// ---------------------------------------------------------------------------
// Summary measurements behind the one-line JSON (bench-gate pins).
// ---------------------------------------------------------------------------

/// Iterations/second of \p run: one warm-up call, then at least
/// \p min_iters timed iterations and \p min_elapsed seconds of wall clock.
template <typename F>
double samples_per_sec(F&& run, int min_iters = 3,
                       double min_elapsed = 0.25) {
  using clock = std::chrono::steady_clock;
  run();
  const auto start = clock::now();
  int iters = 0;
  double elapsed = 0.0;
  do {
    run();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (iters < min_iters || elapsed < min_elapsed);
  return static_cast<double>(iters) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  // Accept (and drop) the repo-wide `--threads N` flag like the other perf
  // binaries (see perf_util.hpp); both sides of every speedup here run on
  // a pool of 1 so the ratios stay algorithmic.
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

  // Headline A/B at 100k clients × 1024 APs — the acceptance scale.
  const AssocInstance ins = make_instance(100000, 1024, 42);
  const channel::LogDistancePathLoss pathloss =
      channel::LogDistancePathLoss::for_carrier(3.0);
  const mac::AssociationPlanner planner{ins.sites, pathloss, Dbm{15.0},
                                        Decibels{0.5}};
  ThreadPool pool{1};
  std::vector<mac::AssociationProposal> out;
  const double grid_pps = samples_per_sec([&] {
    run_plan(planner, mac::AssociationMode::kGrid, ins, pool, out);
    benchmark::DoNotOptimize(out.data());
  });
  std::uint64_t cand_sum = 0;
  for (const mac::AssociationProposal& p : out) cand_sum += p.candidates;
  const double cand_per_client =
      static_cast<double>(cand_sum) / static_cast<double>(out.size());
  // The brute reference costs ~100M score evaluations per pass; one
  // warm-up plus one timed pass keeps the binary's wall clock sane.
  const double brute_pps = samples_per_sec(
      [&] {
        run_plan(planner, mac::AssociationMode::kBruteForce, ins, pool, out);
        benchmark::DoNotOptimize(out.data());
      },
      /*min_iters=*/1, /*min_elapsed=*/0.0);

  // Engine epochs at 10k clients × 256 APs (steady state, drift only).
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  auto engine = make_engine(10000, 256, shannon);
  const double epoch_pps = samples_per_sec([&] {
    benchmark::DoNotOptimize(engine->run_epoch().offered);
  });

  // Batched discrete rate lanes vs the scalar dB-domain lookup at n = 256
  // (dot11n, the widest ladder). Each sample is 1000 spans so the clock
  // reads milliseconds.
  const phy::DiscreteRateAdapter dot11n{phy::RateTable::dot11n()};
  Rng rng{7};
  std::vector<double> sinrs;
  for (int i = 0; i < 256; ++i) sinrs.push_back(rng.uniform(-1.0, 3000.0));
  std::vector<BitsPerSecond> rates(sinrs.size());
  const double span_sps = samples_per_sec([&] {
    for (int rep = 0; rep < 1000; ++rep) {
      dot11n.rate_span(sinrs, rates);
      benchmark::DoNotOptimize(rates.data());
    }
  });
  const double scalar_sps = samples_per_sec([&] {
    for (int rep = 0; rep < 1000; ++rep) {
      for (std::size_t i = 0; i < sinrs.size(); ++i) {
        rates[i] = db_domain_rate(dot11n.table(), sinrs[i]);
      }
      benchmark::DoNotOptimize(rates.data());
    }
  });

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const double throughput =
      wall_ms > 0.0 ? 1e3 * static_cast<double>(n_run) / wall_ms : 0.0;
  std::printf(
      "{\"bench\":\"perf_deployment\",\"wall_ms\":%.1f,\"throughput\":%.3f,"
      "\"assoc_clients_per_sec\":%.0f,"
      "\"assoc_brute_clients_per_sec\":%.0f,"
      "\"assoc_speedup_100kx1024\":%.2f,"
      "\"assoc_candidates_per_client\":%.2f,"
      "\"epoch_per_sec\":%.3f,"
      "\"rate_span_speedup_n256\":%.2f}\n",
      wall_ms, throughput, grid_pps * 100000.0, brute_pps * 100000.0,
      brute_pps > 0.0 ? grid_pps / brute_pps : 0.0, cand_per_client,
      epoch_pps, scalar_sps > 0.0 ? span_sps / scalar_sps : 0.0);
  benchmark::Shutdown();
  return 0;
}
