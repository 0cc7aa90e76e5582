/// Reproduces Fig. 14: trace-based evaluation of two AP→client link pairs
/// under (a) arbitrary (Shannon) bitrates and (b) the discrete 802.11g
/// rate set, each with and without packet packing. Paper: under arbitrary
/// bitrates even packing leaves limited gains; discrete bitrates leave
/// quantization slack for SIC, and packing then yields >20% gain in a
/// substantially larger fraction of scenarios.

#include <cstdio>

#include "analysis/trace_eval.hpp"
#include "bench_util.hpp"
#include "trace/link_trace.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sic;
  const bench::RunTimer timer;
  // Flags first: a usage error prints nothing on stdout.
  const int threads = bench::threads(argc, argv);
  bench::header("Fig. 14 — trace-driven download link pairs",
                "(a) arbitrary bitrates: limited gains; (b) discrete "
                "802.11g bitrates: SIC improves, packing unlocks more");

  trace::LinkTraceConfig config;  // 5 APs x 100 locations
  constexpr std::uint64_t kSeed = 777;
  const auto link_trace = generate_link_trace(config, kSeed);
  analysis::DownloadTraceEvalConfig eval;
  eval.pair_samples = 10000;
  eval.threads = threads;
  std::printf("campaign: %d APs, %d client locations, %d link-pair "
              "scenarios, seed=%llu\n\n",
              link_trace.n_aps(), link_trace.n_locations(), eval.pair_samples,
              static_cast<unsigned long long>(kSeed));

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  const phy::DiscreteRateAdapter g{phy::RateTable::dot11g()};

  std::printf("--- (a) arbitrary bitrates ---\n");
  const auto arb = analysis::evaluate_download_trace(link_trace, shannon, eval);
  const analysis::EmpiricalCdf arb_plain{arb.plain};
  const analysis::EmpiricalCdf arb_pack{arb.packing};
  bench::print_fractions("SIC", arb_plain);
  bench::print_fractions("SIC + packing", arb_pack);
  bench::print_cdf("SIC", arb_plain);
  bench::print_cdf("SIC + packing", arb_pack);

  std::printf("\n--- (b) discrete 802.11g bitrates ---\n");
  const auto disc = analysis::evaluate_download_trace(link_trace, g, eval);
  const analysis::EmpiricalCdf disc_plain{disc.plain};
  const analysis::EmpiricalCdf disc_pack{disc.packing};
  bench::print_fractions("SIC", disc_plain);
  bench::print_fractions("SIC + packing", disc_pack);
  bench::print_cdf("SIC", disc_plain);
  bench::print_cdf("SIC + packing", disc_pack);

  std::printf("\nheadline comparison (fraction of scenarios with >20%% gain):\n");
  std::printf("  arbitrary + packing : %.1f%%\n",
              100.0 * arb_pack.fraction_above(1.2));
  std::printf("  discrete  + packing : %.1f%%   (paper: ~40%%)\n",
              100.0 * disc_pack.fraction_above(1.2));
  if (const auto prefix = bench::csv_prefix(argc, argv)) {
    const std::string man = bench::manifest(
        kSeed, timer, 2 * static_cast<std::uint64_t>(eval.pair_samples));
    bench::write_text_file(*prefix + "fig14a_sic.csv",
                           man + bench::cdf_csv(arb_plain));
    bench::write_text_file(*prefix + "fig14a_packing.csv",
                           man + bench::cdf_csv(arb_pack));
    bench::write_text_file(*prefix + "fig14b_sic.csv",
                           man + bench::cdf_csv(disc_plain));
    bench::write_text_file(*prefix + "fig14b_packing.csv",
                           man + bench::cdf_csv(disc_pack));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
