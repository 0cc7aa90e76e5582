/// Ablation — closed-loop robust scheduling under injected faults. The
/// Section 6 scheduler plans on a frozen, perfect channel snapshot; the
/// open-loop executor of the seed simply flew the plan and silently lost
/// whatever reality disagreed with. This bench injects the three fault
/// families of mac/fault_model.hpp (stale AR(1) RSS, probabilistic
/// cancellation failures, ACK loss) and compares:
///
///   open    — recovery disabled: every failed exchange is a silent drop
///             (the seed's behavior under faults)
///   closed  — bounded retries, mode degradation, demotion, and periodic
///             re-estimation + re-matching of the residual backlog
///   closed+margin — the same, planned with a 3 dB admission margin
///
/// Headline: at the acceptance point (1% cancellation failures, 4 dB stale
/// RSS, 1% ACK loss) the closed loop confirms 100% of the backlog (zero
/// unrecovered drops) while the open loop loses a large fraction outright;
/// the admission margin then buys back most of the retry overhead.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/scheduler.hpp"
#include "mac/upload_sim.hpp"
#include "phy/rate_adapter.hpp"

namespace {

struct Scenario {
  const char* name;
  sic::mac::FaultConfig faults;
};

struct Row {
  double confirmed_frac = 0.0;
  double unrecovered = 0.0;
  double retries = 0.0;
  double duplicates = 0.0;
  double rate_misses = 0.0;
  double cancel_fails = 0.0;
  double ack_losses = 0.0;
  double rematch_rounds = 0.0;
  double completion_s = 0.0;
};

int run(int argc, char** argv) {
  using namespace sic;
  const bench::RunTimer timer;
  const auto csv = bench::csv_prefix(argc, argv);
  bench::header(
      "Ablation — closed-loop robust scheduling under injected faults",
      "the schedule is a plan, not a guarantee; confirmation + retry turn "
      "silent losses into bounded extra airtime");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  const Milliwatts noise{1.0};
  std::vector<channel::LinkBudget> clients;
  for (const double snr_db : {27.0, 24.0, 21.0, 18.0, 15.0, 12.0, 9.0, 6.0}) {
    clients.push_back(
        channel::LinkBudget{noise * Decibels{snr_db}.linear(), noise});
  }

  const Scenario scenarios[] = {
      {"no-faults", {}},
      {"cancel-10%", {Decibels{0.0}, 0.9, 0.1, 0.0, {}}},
      {"stale-4dB", {Decibels{4.0}, 0.9, 0.0, 0.0, {}}},
      {"ack-loss-1%", {Decibels{0.0}, 0.9, 0.0, 0.01, {}}},
      {"combined", {Decibels{4.0}, 0.9, 0.01, 0.01, {}}},
  };
  constexpr int kSeeds = 25;

  std::ostringstream csv_rows;
  csv_rows << "scenario,loop,confirmed_frac,unrecovered,retries,duplicates,"
              "rate_misses,cancellation_failures,ack_losses,rematch_rounds,"
              "completion_s\n";
  std::printf("%-12s %-14s %-10s %-8s %-8s %-8s %-8s %-8s %-8s %-8s\n",
              "scenario", "loop", "confirmed", "unrec", "retries", "dups",
              "r-miss", "cancel", "ackloss", "time_s");

  for (const Scenario& scenario : scenarios) {
    struct Variant {
      const char* name;
      bool recovery;
      double margin_db;
    };
    const Variant variants[] = {
        {"open", false, 0.0},
        {"closed", true, 0.0},
        {"closed+margin", true, 3.0},
    };
    for (const Variant& variant : variants) {
      core::SchedulerOptions options;
      options.admission_margin_db = Decibels{variant.margin_db};
      const core::Schedule schedule =
          core::schedule_upload(clients, shannon, options);

      Row mean;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        mac::UploadSimConfig config;
        config.faults = scenario.faults;
        config.recovery.enabled = variant.recovery;
        config.recovery.rematch_options = options;
        config.seed = static_cast<std::uint64_t>(seed);
        const auto r =
            mac::run_scheduled_upload(clients, shannon, schedule, config);
        const double offered = static_cast<double>(r.offered);
        mean.confirmed_frac +=
            (offered - static_cast<double>(r.failures.unrecovered)) / offered;
        mean.unrecovered += static_cast<double>(r.failures.unrecovered);
        mean.retries += static_cast<double>(r.failures.retransmissions);
        mean.duplicates += static_cast<double>(r.failures.duplicate_deliveries);
        mean.rate_misses += static_cast<double>(r.failures.rate_misses);
        mean.cancel_fails +=
            static_cast<double>(r.failures.cancellation_failures);
        mean.ack_losses += static_cast<double>(r.failures.ack_losses);
        mean.rematch_rounds += static_cast<double>(r.failures.rematch_rounds);
        mean.completion_s += r.completion_s;
      }
      const double k = static_cast<double>(kSeeds);
      mean.confirmed_frac /= k;
      mean.unrecovered /= k;
      mean.retries /= k;
      mean.duplicates /= k;
      mean.rate_misses /= k;
      mean.cancel_fails /= k;
      mean.ack_losses /= k;
      mean.rematch_rounds /= k;
      mean.completion_s /= k;

      std::printf(
          "%-12s %-14s %-10.4f %-8.2f %-8.2f %-8.2f %-8.2f %-8.2f %-8.2f "
          "%-8.4f\n",
          scenario.name, variant.name, mean.confirmed_frac, mean.unrecovered,
          mean.retries, mean.duplicates, mean.rate_misses, mean.cancel_fails,
          mean.ack_losses, mean.completion_s);
      csv_rows << scenario.name << ',' << variant.name << ','
               << mean.confirmed_frac << ',' << mean.unrecovered << ','
               << mean.retries << ',' << mean.duplicates << ','
               << mean.rate_misses << ',' << mean.cancel_fails << ','
               << mean.ack_losses << ',' << mean.rematch_rounds << ','
               << mean.completion_s << '\n';
    }
  }

  std::printf(
      "\n(8 clients, 6-27 dB SNR, %d seeds per cell. confirmed = frames the "
      "station got an ACK for / offered; unrec = frames abandoned. The open "
      "loop drops every fault-hit frame; the closed loop confirms all of "
      "them, paying in retries and duplicates. A 3 dB admission margin "
      "absorbs most 4 dB-sigma drift at plan time, cutting the retries the "
      "closed loop needs.)\n",
      kSeeds);
  if (csv) {
    // 5 scenarios x 3 variants x kSeeds simulated runs went into the file.
    bench::write_text_file(
        *csv + "robust_scheduler.csv",
        bench::manifest(/*seed=*/1, timer,
                        static_cast<std::uint64_t>(5 * 3 * kSeeds)) +
            csv_rows.str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
