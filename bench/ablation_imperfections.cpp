/// Ablation — practical-receiver imperfections (Section 9; [13]): sweeps
/// the cancellation residual and the ADC dynamic-range limit over the
/// Fig. 11a Monte Carlo and reports how the SIC gain CDF collapses. The
/// paper: "imperfections in interference cancellation will sharply cut
/// down SIC's usefulness" and "if the stronger signal is significantly
/// stronger ... due to ADC saturation issues, recovering the weaker signal
/// becomes difficult."

#include <cstdio>
#include <vector>

#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "core/upload_pair.hpp"
#include "topology/samplers.hpp"
#include "util/rng.hpp"

namespace {

int run(int, char**) {
  using namespace sic;
  bench::header("Ablation — imperfect cancellation and ADC saturation",
                "Section 9: imperfections sharply cut down SIC's usefulness");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  topology::SamplerConfig config;
  constexpr int kTrials = 8000;
  constexpr std::uint64_t kSeed = 99;

  const auto run = [&](const core::SicImpairments& impairments) {
    Rng rng{kSeed};
    std::vector<double> gains;
    gains.reserve(kTrials);
    for (int i = 0; i < kTrials; ++i) {
      const auto sample = topology::sample_two_to_one(rng, config);
      const auto ctx = core::UploadPairContext::make(sample.s1, sample.s2,
                                                     sample.noise, shannon);
      gains.push_back(core::realized_gain(ctx, impairments));
    }
    return analysis::EmpiricalCdf{std::move(gains)};
  };

  std::printf("cancellation residual sweep (no ADC limit):\n");
  for (const double residual : {0.0, 0.001, 0.003, 0.01, 0.03, 0.1}) {
    core::SicImpairments impairments;
    impairments.cancellation_residual = residual;
    const auto cdf = run(impairments);
    char label[64];
    std::snprintf(label, sizeof(label), "residual %.3f", residual);
    bench::print_fractions(label, cdf);
  }

  std::printf("\nADC dynamic-range sweep (perfect cancellation):\n");
  for (const double limit_db : {40.0, 30.0, 25.0, 20.0, 15.0, 10.0}) {
    core::SicImpairments impairments;
    impairments.max_decodable_disparity = Decibels{limit_db};
    const auto cdf = run(impairments);
    char label[64];
    std::snprintf(label, sizeof(label), "ADC limit %.0f dB", limit_db);
    bench::print_fractions(label, cdf);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
