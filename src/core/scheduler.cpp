#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/multirate.hpp"
#include "core/pair_cost_engine.hpp"
#include "core/power_control.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "util/check.hpp"

namespace sic::core {

double solo_airtime(const channel::LinkBudget& client,
                    const phy::RateAdapter& adapter, double packet_bits) {
  return airtime_seconds(packet_bits, adapter.rate(client.snr()));
}

PairPlan best_pair_plan_from_context(const UploadPairContext& ctx,
                                     double serial_airtime,
                                     const SchedulerOptions& options) {
  PairPlan best;
  best.mode = PairMode::kSerial;
  best.airtime = serial_airtime;

  const double t_sic = sic_airtime(ctx);
  if (t_sic < best.airtime) {
    best = PairPlan{PairMode::kSic, t_sic, 1.0};
  }
  if (options.enable_power_control) {
    const auto pc = optimize_weaker_power(ctx);
    if (pc.applied && pc.airtime < best.airtime) {
      best = PairPlan{PairMode::kSicPowerControl, pc.airtime, pc.scale};
    }
  }
  if (options.enable_multirate) {
    const auto mr = multirate_airtime_detailed(ctx);
    if (mr.boosted && mr.airtime < best.airtime) {
      best = PairPlan{PairMode::kSicMultirate, mr.airtime, 1.0};
    }
  }
  return best;
}

PairPlan best_pair_plan(const channel::LinkBudget& a,
                        const channel::LinkBudget& b,
                        const phy::RateAdapter& adapter,
                        const SchedulerOptions& options) {
  SIC_CHECK_MSG(a.noise == b.noise,
                "pair plan assumes a common receiver noise floor");
  SIC_CHECK_MSG(options.admission_margin_db.value() >= 0.0,
                "admission margin must be >= 0 dB");
  // Concurrent candidates are evaluated on a derated view of the channel
  // (both RSS backed off by the admission margin); the serial baseline
  // keeps the clean rates. A margined pair is therefore only admitted when
  // it beats serial *with headroom to spare*, and its recorded airtime is
  // the conservative one the executor realizes.
  const double derate = Decibels{-options.admission_margin_db.value()}.linear();
  const auto ctx = UploadPairContext::make(a.rss * derate, b.rss * derate,
                                           a.noise, adapter,
                                           options.packet_bits);
  return best_pair_plan_from_context(
      ctx,
      solo_airtime(a, adapter, options.packet_bits) +
          solo_airtime(b, adapter, options.packet_bits),
      options);
}

matching::Matching run_pairing(
    const matching::CostMatrix& costs, SchedulerOptions::Pairing pairing,
    std::span<const double> serial,
    std::vector<matching::WeightedEdge>& edge_scratch) {
  if (pairing == SchedulerOptions::Pairing::kGreedy) {
    return matching::greedy_min_weight_perfect_matching(costs, edge_scratch);
  }
  return matching::min_weight_perfect_matching(costs, serial);
}

double serial_upload_airtime(std::span<const channel::LinkBudget> clients,
                             const phy::RateAdapter& adapter,
                             double packet_bits) {
  double total = 0.0;
  for (const auto& c : clients) total += solo_airtime(c, adapter, packet_bits);
  return total;
}

Schedule schedule_upload(std::span<const channel::LinkBudget> clients,
                         const phy::RateAdapter& adapter,
                         const SchedulerOptions& options) {
  // One-shot use of the incremental engine: a full build with every row
  // dirty reproduces the historical from-scratch construction exactly (the
  // engine's cache only ever short-circuits identical recomputations).
  PairCostEngine engine{adapter, options};
  engine.set_clients(clients);
  return engine.schedule();
}

}  // namespace sic::core
