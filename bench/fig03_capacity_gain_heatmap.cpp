/// Reproduces Fig. 3: relative capacity gain C(+SIC)/C(−SIC) over the
/// (S1, S2) plane. "SIC capacity gains are not high in general but are
/// larger when RSSs are smaller and similar."

#include <cstdio>

#include "analysis/grid.hpp"
#include "bench_util.hpp"
#include "phy/capacity.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sic;
  const bench::RunTimer timer;
  bench::header("Fig. 3 — capacity gain heatmap",
                "gain in (1,2); peaks where RSSs are small and similar");

  const Hertz b = megahertz(20.0);
  analysis::Grid2D grid{{"S1 (dB)", 0.0, 40.0, 41}, {"S2 (dB)", 0.0, 40.0, 41}};
  grid.fill([&](double s1_db, double s2_db) {
    const auto arrival = phy::TwoSignalArrival::make(
        Milliwatts{Decibels{s1_db}.linear()},
        Milliwatts{Decibels{s2_db}.linear()}, Milliwatts{1.0});
    return phy::capacity_gain(b, arrival);
  });

  std::printf("%s\n", grid.render_ascii().c_str());
  std::printf("max gain %.4f (at the low-SNR equal-RSS corner)\n",
              grid.max_value());
  std::printf("min gain %.4f (high disparate SNRs)\n", grid.min_value());
  std::printf("gain on the diagonal: ");
  for (double s : {0.0, 10.0, 20.0, 30.0, 40.0}) {
    std::printf(" S=%g:%.3f", s, grid.nearest(s, s));
  }
  std::printf("\ngain off-diagonal (S2 = S1 - 20 dB): ");
  for (double s : {20.0, 30.0, 40.0}) {
    std::printf(" S1=%g:%.3f", s, grid.nearest(s, s - 20.0));
  }
  std::printf("\n");
  if (const auto prefix = bench::csv_prefix(argc, argv)) {
    bench::write_text_file(
        *prefix + "fig03_gain_grid.csv",
        bench::manifest(/*seed=*/0, timer, 41 * 41) + grid.to_csv());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
