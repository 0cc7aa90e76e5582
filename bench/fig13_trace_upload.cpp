/// Reproduces Fig. 13: trace-based evaluation of SIC-aware link pairing on
/// upload traffic. The paper collected two weeks of 802.11g RSSI traces in
/// a Duke building and evaluated per-snapshot pairing gains; we run the
/// identical pipeline on the synthetic building trace (DESIGN.md,
/// substitution 1). Paper: "relative gains from SIC are enhanced when used
/// in conjunction with power control or multi-rate packetization; trends
/// are similar to Fig. 11a."

#include <cstdio>

#include "analysis/trace_eval.hpp"
#include "bench_util.hpp"
#include "trace/generator.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace sic;
  const bench::RunTimer timer;
  // Flags first: a usage error prints nothing on stdout.
  const int threads = bench::threads(argc, argv);
  bench::header("Fig. 13 — trace-driven upload pairing",
                "pairing gains real; power control / multirate enhance them; "
                "ordering mirrors Fig. 11a");

  trace::BuildingConfig config;  // two weeks, 15-minute snapshots
  constexpr std::uint64_t kSeed = 2026;
  const auto trace = generate_building_trace(config, kSeed);
  std::printf("synthetic building: %dx%d APs, %d clients, %zu snapshots, "
              "%zu observations, seed=%llu\n",
              config.ap_grid_x, config.ap_grid_y, config.client_population,
              trace.snapshots.size(), trace.total_observations(),
              static_cast<unsigned long long>(kSeed));

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  analysis::UploadTraceEvalConfig eval;
  eval.threads = threads;
  const auto gains = analysis::evaluate_upload_trace(trace, shannon, eval);
  std::printf("(snapshot, AP) cells with >= 2 backlogged clients: %d\n\n",
              gains.cells_evaluated);

  const analysis::EmpiricalCdf pairing{gains.pairing};
  const analysis::EmpiricalCdf pc{gains.power_control};
  const analysis::EmpiricalCdf mr{gains.multirate};
  const analysis::EmpiricalCdf greedy{gains.greedy_pairing};
  bench::print_fractions("pairing (blossom)", pairing);
  bench::print_fractions("pairing + power ctl", pc);
  bench::print_fractions("pairing + multirate", mr);
  bench::print_fractions("greedy pairing", greedy);
  bench::print_cdf("pairing (blossom)", pairing);
  bench::print_cdf("pairing + power ctl", pc);
  bench::print_cdf("pairing + multirate", mr);
  bench::print_cdf("greedy pairing", greedy);
  if (const auto prefix = bench::csv_prefix(argc, argv)) {
    const std::string man = bench::manifest(
        kSeed, timer, static_cast<std::uint64_t>(gains.cells_evaluated));
    bench::write_text_file(*prefix + "fig13_pairing.csv",
                           man + bench::cdf_csv(pairing));
    bench::write_text_file(*prefix + "fig13_power.csv",
                           man + bench::cdf_csv(pc));
    bench::write_text_file(*prefix + "fig13_multirate.csv",
                           man + bench::cdf_csv(mr));
    bench::write_text_file(*prefix + "fig13_greedy.csv",
                           man + bench::cdf_csv(greedy));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
