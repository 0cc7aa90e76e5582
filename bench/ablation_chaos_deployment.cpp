/// Ablation — deployment-wide chaos: the multi-AP engine under AP
/// outages, client churn, and correlated interference bursts. PR 1's
/// closed loop recovers a single cell from per-run faults; this bench
/// asks what survives fleet-scale faults, sweeping outage x churn x burst
/// across three control variants:
///
///   open       — open-loop deployment: no inner recovery, no ladder, no
///                watchdog, no quarantine (the seed's posture at scale)
///   closed     — inner closed loop + degradation ladder + watchdog, but
///                hopeless clients are retried forever
///   closed+qr  — the same plus client quarantine with exponential-
///                backoff re-admission
///
/// Headline: under the acceptance profile (1% AP outage/epoch, 2% churn,
/// 5% 20 dB bursts) closed+qr holds steady-state confirmation at >= 95%
/// while the open loop degrades; quarantine's margin over plain closed
/// grows with fault rate because it stops burning epoch budget on links
/// that cannot confirm. Also reports planning decisions/sec and the mean
/// epochs an AP outage needs before confirmation is back at the
/// steady-state level (recovery epochs), the two numbers the CI chaos
/// smoke tracks (BENCH_deployment.json).

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mac/deployment_engine.hpp"
#include "phy/rate_adapter.hpp"
#include "util/cli_args.hpp"

namespace {

struct ChaosCell {
  const char* name;
  double outage;
  double churn;
  double burst;
  double burst_depth_db;
  double arrival_radius_m;  ///< > ~1 km puts arrivals out of coverage
};

struct VariantOutcome {
  double steady_frac = 0.0;    ///< mean confirmation over the last half
  double overall_frac = 0.0;   ///< mean confirmation over every epoch
  double recovery_epochs = 0.0;
  double mean_health = 0.0;    ///< mean epoch health score (see obs docs)
  double decisions = 0.0;
  double quarantines = 0.0;
  double watchdogs = 0.0;
  bool audited = true;
};

/// Mean epochs from each outage start until the epoch confirmation rate
/// is back above `target`; outages with no recovery in the run count the
/// remaining horizon (an honest penalty, not a dropped sample).
double mean_recovery_epochs(const std::vector<sic::mac::EpochStats>& epochs,
                            double target) {
  double total = 0.0;
  int outages = 0;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    if (epochs[e].outages_started == 0) continue;
    ++outages;
    std::size_t back = epochs.size();
    for (std::size_t f = e; f < epochs.size(); ++f) {
      if (epochs[f].confirmation_rate() >= target) {
        back = f;
        break;
      }
    }
    total += static_cast<double>(back - e);
  }
  return outages == 0 ? 0.0 : total / static_cast<double>(outages);
}

int run(int argc, char** argv) {
  using namespace sic;
  const bench::RunTimer timer;
  const auto csv = bench::csv_prefix(argc, argv);
  const ArgParser args{argc, argv};
  const int n_aps = args.get_int("aps", 4);
  const int n_clients = args.get_int("clients", 32);
  const int n_epochs = args.get_int("epochs", 50);
  const int n_seeds = args.get_int("seeds", 2);
  const int threads = args.get_threads(1);

  bench::header(
      "Ablation — deployment-wide chaos: outages x churn x bursts",
      "a fleet needs fleet-scale recovery: the inner closed loop alone "
      "keeps burning airtime on dead links; quarantine + watchdog hold "
      "steady-state confirmation through sustained faults");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};

  const ChaosCell cells[] = {
      {"calm", 0.0, 0.0, 0.0, 0.0, 40.0},
      {"default", 0.01, 0.02, 0.05, 20.0, 40.0},
      {"outage-heavy", 0.05, 0.02, 0.05, 20.0, 40.0},
      {"burst-heavy", 0.01, 0.02, 0.20, 60.0, 40.0},
      // Floor-wide arrivals: a slice lands outside every AP's coverage,
      // the persistently-hopeless population quarantine exists for. One
      // such member's ~100 kbps slot overruns the epoch budget and
      // starves its whole cell, so exiling it is worth whole epochs.
      {"coverage-churn", 0.01, 0.08, 0.05, 20.0, 1500.0},
  };
  struct Variant {
    const char* name;
    bool closed;
    bool quarantine;
  };
  const Variant variants[] = {
      {"open", false, false},
      {"closed", true, false},
      {"closed+qr", true, true},
  };

  std::ostringstream csv_rows;
  csv_rows << "chaos,variant,steady_frac,overall_frac,recovery_epochs,"
              "mean_health,quarantines,watchdog_fires,audited\n";
  std::printf("%-14s %-10s %-8s %-8s %-9s %-7s %-7s %-6s %-7s\n", "chaos",
              "variant", "steady", "overall", "recov_ep", "health", "quar",
              "wdog", "audit");

  double smoke_decisions = 0.0;
  double smoke_elapsed_s = 0.0;
  double smoke_recovery = 0.0;
  double smoke_steady = 0.0;
  double smoke_health = 0.0;
  std::uint64_t samples = 0;

  for (const ChaosCell& cell : cells) {
    for (const Variant& variant : variants) {
      VariantOutcome mean;
      double elapsed_s = 0.0;
      for (int seed = 1; seed <= n_seeds; ++seed) {
        mac::ChaosProfile profile;
        profile.ap_outage_prob = cell.outage;
        profile.outage_epochs = 3;
        profile.departure_prob = cell.churn;
        profile.arrival_rate = cell.churn * static_cast<double>(n_clients);
        profile.burst_prob = cell.burst;
        profile.burst_depth = Decibels{cell.burst_depth_db};
        profile.burst_epochs = 2;

        mac::DeploymentEngineConfig config;
        config.scheduler.enable_power_control = true;
        config.scheduler.enable_multirate = true;
        config.closed_loop = variant.closed;
        config.enable_quarantine = variant.quarantine;
        config.epoch_drift_sigma = Decibels{2.0};
        // Tight epoch budget: a link buried by a burst cannot confirm
        // inside the epoch, so faults actually cost confirmation.
        config.upload.horizon = mac::from_seconds(0.05);
        config.arrival_radius_m = cell.arrival_radius_m;
        config.threads = threads;
        config.seed = static_cast<std::uint64_t>(seed);

        std::vector<topology::Point> sites;
        for (int a = 0; a < n_aps; ++a) {
          sites.push_back({60.0 * a, 0.0});
        }
        mac::DeploymentEngine engine{
            sites, shannon, config,
            profile.any() ? mac::FaultSchedule{profile}
                          : mac::FaultSchedule{}};
        for (int c = 0; c < n_clients; ++c) {
          const int ap = c % n_aps;
          engine.add_client({60.0 * ap + 4.0 + 1.5 * (c / n_aps),
                             (c % 2 == 0) ? 6.0 : -6.0});
        }
        mac::InvariantAuditor auditor;
        engine.set_auditor(&auditor);

        const bench::RunTimer run_timer;
        const mac::DeploymentResult r = engine.run_epochs(n_epochs);
        elapsed_s += run_timer.elapsed_s();
        ++samples;

        const std::size_t half = r.epochs.size() / 2;
        double steady = 0.0;
        for (std::size_t e = half; e < r.epochs.size(); ++e) {
          steady += r.epochs[e].confirmation_rate();
        }
        mean.steady_frac +=
            steady / static_cast<double>(r.epochs.size() - half);
        mean.overall_frac += r.confirmation_rate();
        mean.recovery_epochs += mean_recovery_epochs(r.epochs, 0.95);
        double health = 0.0;
        for (const mac::EpochStats& e : r.epochs) health += e.mean_health;
        mean.mean_health +=
            r.epochs.empty()
                ? 1.0
                : health / static_cast<double>(r.epochs.size());
        mean.decisions += static_cast<double>(r.decisions);
        mean.quarantines += static_cast<double>(r.quarantines);
        mean.watchdogs += static_cast<double>(r.watchdog_fires);
        mean.audited = mean.audited && auditor.ok();
      }
      const double k = static_cast<double>(n_seeds);
      mean.steady_frac /= k;
      mean.overall_frac /= k;
      mean.recovery_epochs /= k;
      mean.mean_health /= k;
      mean.quarantines /= k;
      mean.watchdogs /= k;

      std::printf(
          "%-14s %-10s %-8.4f %-8.4f %-9.2f %-7.4f %-7.1f %-6.1f %-7s\n",
          cell.name, variant.name, mean.steady_frac, mean.overall_frac,
          mean.recovery_epochs, mean.mean_health, mean.quarantines,
          mean.watchdogs, mean.audited ? "ok" : "FAIL");
      csv_rows << cell.name << ',' << variant.name << ',' << mean.steady_frac
               << ',' << mean.overall_frac << ',' << mean.recovery_epochs
               << ',' << mean.mean_health << ',' << mean.quarantines << ','
               << mean.watchdogs << ',' << (mean.audited ? "ok" : "FAIL")
               << '\n';

      if (std::string(cell.name) == "default" &&
          std::string(variant.name) == "closed+qr") {
        smoke_decisions = mean.decisions;
        smoke_elapsed_s = elapsed_s;
        smoke_recovery = mean.recovery_epochs;
        smoke_steady = mean.steady_frac;
        smoke_health = mean.mean_health;
      }
    }
  }

  std::printf(
      "\n(%d APs, %d clients, %d epochs, %d seeds per cell, threads=%d. "
      "steady = mean epoch confirmation over the last half; recov_ep = mean "
      "epochs from an AP outage until confirmation is back over 95%%. The "
      "open loop never quarantines, so one out-of-coverage or buried link "
      "drags every later epoch; closed+qr exiles it after a losing streak "
      "and probes it back with exponential backoff.)\n",
      n_aps, n_clients, n_epochs, n_seeds, threads);

  if (csv) {
    bench::write_text_file(*csv + "chaos_deployment.csv",
                           bench::manifest(/*seed=*/1, timer, samples) +
                               csv_rows.str());
  }

  // Final line: the CI chaos-smoke contract (BENCH_deployment.json) —
  // planning throughput and recovery latency of the headline variant.
  const double dps =
      smoke_elapsed_s > 0.0 ? smoke_decisions / smoke_elapsed_s : 0.0;
  std::printf(
      "{\"bench\":\"deployment\",\"variant\":\"closed+qr\",\"chaos\":"
      "\"default\",\"decisions_per_sec\":%.0f,\"recovery_epochs\":%.2f,"
      "\"confirmed_frac\":%.4f,\"mean_health\":%.4f}\n",
      dps, smoke_recovery, smoke_steady, smoke_health);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
