/// Ablation — rate-set granularity (the paper's Section 1 thesis): "this
/// slack is fast disappearing with more finegrain bitrates (4 in 802.11b
/// vs 8 in 802.11g vs 32 in 802.11n) and the recent advances in bitrate
/// adaptation." Runs the Fig. 11a upload Monte Carlo under each rate
/// policy, from the coarsest discrete ladder to ideal Shannon adaptation,
/// and reports how much of the SIC opportunity each one leaves.

#include <cstdio>

#include "analysis/montecarlo.hpp"
#include "analysis/stats.hpp"
#include "bench_util.hpp"

namespace {

int run(int, char**) {
  using namespace sic;
  bench::header("Ablation — bitrate granularity squeezes SIC",
                "coarser rate ladders leave more slack for SIC to harvest; "
                "ideal adaptation leaves the least");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  const phy::DiscreteRateAdapter b{phy::RateTable::dot11b()};
  const phy::DiscreteRateAdapter g{phy::RateTable::dot11g()};
  const phy::DiscreteRateAdapter n{phy::RateTable::dot11n()};

  topology::SamplerConfig config;
  constexpr int kTrials = 8000;
  constexpr std::uint64_t kSeed = 4242;

  struct Entry {
    const char* name;
    const phy::RateAdapter* adapter;
    std::size_t ladder;
  };
  const Entry entries[] = {
      {"802.11b (4 rates)", &b, phy::RateTable::dot11b().entries().size()},
      {"802.11g (8 rates)", &g, phy::RateTable::dot11g().entries().size()},
      {"802.11n (fine)", &n, phy::RateTable::dot11n().entries().size()},
      {"Shannon (ideal)", &shannon, 0},
  };

  std::printf("%-20s %-8s %-14s %-14s %-14s\n", "rate policy", "ladder",
              "SIC >20%", "mean gain", "+power >20%");
  for (const auto& entry : entries) {
    const auto samples = analysis::run_two_to_one_techniques(
        config, *entry.adapter, kTrials, kSeed);
    const analysis::EmpiricalCdf sic{samples.sic};
    const analysis::EmpiricalCdf pc{samples.power_control};
    const auto summary = analysis::summarize(samples.sic);
    std::printf("%-20s %-8zu %-14.3f %-14.4f %-14.3f\n", entry.name,
                entry.ladder, sic.fraction_above(1.2), summary.mean,
                pc.fraction_above(1.2));
  }

  std::printf("\n(Reading: across the discrete ladders the SIC-alone "
              "fraction falls monotonically — 802.11b leaves roughly 4x the "
              "slack 802.11n does, the paper's '4 vs 8 vs 32' argument. The "
              "Shannon row is not on that axis: its gains come from the "
              "pure eq(5)/eq(6) ratio rather than quantization slack, and "
              "land near the 802.11g level.)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
