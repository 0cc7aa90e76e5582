/// Reproduces Fig. 4: Z(−SIC)/Z(+SIC) for two transmitters to the same
/// receiver. "SIC gains most when RSSs are such that the resulting
/// bitrates are the same for both transmissions" — the ridge at
/// SNR1 ≈ 2·SNR2 in dB.

#include <cstdio>

#include "analysis/grid.hpp"
#include "bench_util.hpp"
#include "core/upload_pair.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sic;
  const bench::RunTimer timer;
  bench::header("Fig. 4 — same-receiver completion-time gain heatmap",
                "gain ridge follows SNR1 = 2*SNR2 (dB); peak gain ~2x");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  analysis::Grid2D grid{{"S1 (dB)", 0.0, 40.0, 41}, {"S2 (dB)", 0.0, 40.0, 41}};
  grid.fill([&](double s1_db, double s2_db) {
    const auto ctx = core::UploadPairContext::make(
        Milliwatts{Decibels{s1_db}.linear()},
        Milliwatts{Decibels{s2_db}.linear()}, Milliwatts{1.0}, shannon);
    return core::sic_gain(ctx);
  });
  std::printf("%s\n", grid.render_ascii().c_str());

  std::printf("ridge location (argmax over S1 for each S2):\n");
  std::printf("%-10s %-12s %-10s %-14s\n", "S2 (dB)", "best S1 (dB)",
              "2*S2 (dB)", "gain at ridge");
  for (double s2 = 6.0; s2 <= 20.0; s2 += 2.0) {
    double best_gain = 0.0;
    double best_s1 = 0.0;
    for (double s1 = s2; s1 <= 45.0; s1 += 0.05) {
      const auto ctx = core::UploadPairContext::make(
          Milliwatts{Decibels{s1}.linear()}, Milliwatts{Decibels{s2}.linear()},
          Milliwatts{1.0}, shannon);
      const double g = core::sic_gain(ctx);
      if (g > best_gain) {
        best_gain = g;
        best_s1 = s1;
      }
    }
    std::printf("%-10.1f %-12.2f %-10.1f %-14.4f\n", s2, best_s1, 2.0 * s2,
                best_gain);
  }
  if (const auto prefix = bench::csv_prefix(argc, argv)) {
    bench::write_text_file(
        *prefix + "fig04_gain_grid.csv",
        bench::manifest(/*seed=*/0, timer, 41 * 41) + grid.to_csv());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
