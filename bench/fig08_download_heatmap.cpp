/// Reproduces Fig. 8: download traffic from two APs to one client in an
/// enterprise WLAN — eq (10) / eq (6). "Very little benefit from SIC."

#include <cstdio>

#include "analysis/grid.hpp"
#include "bench_util.hpp"
#include "core/download.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sic;
  const bench::RunTimer timer;
  bench::header("Fig. 8 — two APs to one client (download)",
                "modest gain only where one RSS ~ square of the other; "
                "overall gains quite limited");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  analysis::Grid2D grid{{"S1 (dB)", 0.0, 40.0, 41}, {"S2 (dB)", 0.0, 40.0, 41}};
  double max_gain = 0.0;
  double at_s1 = 0.0;
  double at_s2 = 0.0;
  grid.fill([&](double s1_db, double s2_db) {
    const auto ctx = core::UploadPairContext::make(
        Milliwatts{Decibels{s1_db}.linear()},
        Milliwatts{Decibels{s2_db}.linear()}, Milliwatts{1.0}, shannon);
    const double g = core::evaluate_download(ctx).gain;
    if (g > max_gain) {
      max_gain = g;
      at_s1 = s1_db;
      at_s2 = s2_db;
    }
    return g;
  });
  std::printf("%s\n", grid.render_ascii().c_str());
  std::printf("max gain %.4f at S1=%.0f dB, S2=%.0f dB "
              "(square relationship: S1 ~ 2*S2 in dB)\n",
              max_gain, std::max(at_s1, at_s2), std::min(at_s1, at_s2));
  std::printf("fraction of grid with gain > 1.1: ");
  int over = 0;
  int total = 0;
  for (int ix = 0; ix < 41; ++ix) {
    for (int iy = 0; iy < 41; ++iy) {
      ++total;
      if (grid.at(ix, iy) > 1.1) ++over;
    }
  }
  std::printf("%.1f%%\n", 100.0 * over / total);
  if (const auto prefix = bench::csv_prefix(argc, argv)) {
    bench::write_text_file(
        *prefix + "fig08_download_grid.csv",
        bench::manifest(/*seed=*/0, timer, 41 * 41) + grid.to_csv());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
