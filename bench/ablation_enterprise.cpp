/// Ablation — multi-AP coordination (Section 4.1 operationalized): joint
/// association + SIC pairing versus strongest-AP association with per-cell
/// pairing, over random enterprise floors. Shows (a) the makespan win from
/// load-balancing orthogonal-channel cells and (b) the subtler co-channel
/// win from pairing-aware association (moving a client to a slightly
/// weaker AP can land it on the Fig. 4 ridge).

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/enterprise.hpp"
#include "util/rng.hpp"

namespace {

int run(int, char**) {
  using namespace sic;
  bench::header("Ablation — enterprise multi-AP coordination",
                "joint association + pairing vs strongest-AP association");

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  constexpr int kTrials = 100;

  const auto run = [&](int n_aps, int n_clients, core::ChannelModel model,
                       bool skew) {
    Rng rng{91};
    double base_total = 0.0;
    double tuned_total = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      std::vector<core::EnterpriseClient> clients;
      for (int c = 0; c < n_clients; ++c) {
        core::EnterpriseClient client;
        for (int a = 0; a < n_aps; ++a) {
          // Skewed floors put most clients near AP 0 (hotspot).
          const double bias = skew && a == 0 ? 4.0 : 0.0;
          client.rss_at_ap.push_back(
              Milliwatts{Decibels{rng.uniform(10.0, 32.0) + bias}.linear()});
        }
        clients.push_back(std::move(client));
      }
      core::EnterpriseOptions options;
      options.channel_model = model;
      base_total += core::strongest_ap_assignment(clients, n_aps, shannon,
                                                  options)
                        .objective;
      tuned_total += core::schedule_enterprise_upload(clients, n_aps, shannon,
                                                      options)
                         .objective;
    }
    return base_total / tuned_total;
  };

  std::printf("%-34s %-12s\n", "configuration", "coordination gain");
  std::printf("%-34s %-12.4f\n", "2 APs, 8 clients, orthogonal",
              run(2, 8, core::ChannelModel::kOrthogonal, false));
  std::printf("%-34s %-12.4f\n", "2 APs, 8 clients, orthogonal+skew",
              run(2, 8, core::ChannelModel::kOrthogonal, true));
  std::printf("%-34s %-12.4f\n", "3 APs, 12 clients, orthogonal",
              run(3, 12, core::ChannelModel::kOrthogonal, false));
  std::printf("%-34s %-12.4f\n", "2 APs, 8 clients, shared channel",
              run(2, 8, core::ChannelModel::kShared, false));
  std::printf("\n(gain = strongest-AP objective / coordinated objective; the "
              "orthogonal rows are makespan, the shared row is total "
              "airtime)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
