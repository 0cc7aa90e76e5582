#include "core/backlog.hpp"

#include <algorithm>
#include <cmath>

#include "core/upload_pair.hpp"
#include "util/check.hpp"
#include "util/mathx.hpp"

namespace sic::core {

double solo_drain_airtime(const BacklogClient& client,
                          const phy::RateAdapter& adapter,
                          double packet_bits) {
  SIC_CHECK(client.packets >= 0);
  return client.packets * solo_airtime(client.link, adapter, packet_bits);
}

DrainPlan best_drain_plan(const BacklogClient& a, const BacklogClient& b,
                          const phy::RateAdapter& adapter,
                          const BacklogOptions& options) {
  SIC_CHECK_MSG(a.link.noise == b.link.noise,
                "drain plan assumes a common receiver noise floor");
  SIC_CHECK(a.packets >= 0 && b.packets >= 0);
  const double bits = options.packet_bits;
  const double ta = solo_airtime(a.link, adapter, bits);
  const double tb = solo_airtime(b.link, adapter, bits);

  DrainPlan best;
  best.mode = DrainMode::kSerial;
  best.airtime = a.packets * ta + b.packets * tb;

  const auto ctx =
      UploadPairContext::make(a.link.rss, b.link.rss, a.link.noise, adapter,
                              bits);
  const auto rates = sic_rates(ctx);
  const double z_plus = sic_airtime(ctx);
  if (!std::isfinite(z_plus)) return best;

  // Per-packet concurrent times by client role.
  const bool a_is_stronger = a.link.rss >= b.link.rss;
  const double t_sic_a = airtime_seconds(
      bits, a_is_stronger ? rates.stronger : rates.weaker);
  const double t_sic_b = airtime_seconds(
      bits, a_is_stronger ? rates.weaker : rates.stronger);

  // Discipline 2: lockstep SIC rounds, leftovers serial.
  {
    const int m = std::min(a.packets, b.packets);
    const double time = m * z_plus + (a.packets - m) * ta +
                        (b.packets - m) * tb;
    if (time < best.airtime) {
      best = DrainPlan{DrainMode::kSicRounds, time, m};
    }
  }

  // Discipline 3: packed trains — the faster concurrent link stuffs
  // multiple packets under each slower packet.
  if (options.enable_packing) {
    const bool a_is_fast = t_sic_a <= t_sic_b;
    const double t_fast = a_is_fast ? t_sic_a : t_sic_b;
    const double t_slow = a_is_fast ? t_sic_b : t_sic_a;
    const double t_fast_clean = a_is_fast ? ta : tb;
    const double t_slow_clean = a_is_fast ? tb : ta;
    int q_fast = a_is_fast ? a.packets : b.packets;
    int q_slow = a_is_fast ? b.packets : a.packets;
    double time = 0.0;
    int trains = 0;
    while (q_slow > 0 && q_fast > 0) {
      const int k = std::clamp(
          static_cast<int>(std::floor(t_slow / t_fast)), 1, q_fast);
      time += std::max(t_slow, k * t_fast);
      q_slow -= 1;
      q_fast -= k;
      ++trains;
    }
    time += q_slow * t_slow_clean + q_fast * t_fast_clean;
    if (time < best.airtime) {
      best = DrainPlan{DrainMode::kPackedTrains, time, trains};
    }
  }
  return best;
}

double serial_backlog_airtime(std::span<const BacklogClient> clients,
                              const phy::RateAdapter& adapter,
                              double packet_bits) {
  double total = 0.0;
  for (const auto& c : clients) {
    total += solo_drain_airtime(c, adapter, packet_bits);
  }
  return total;
}

BacklogSchedule schedule_backlog_upload(std::span<const BacklogClient> clients,
                                        const phy::RateAdapter& adapter,
                                        const BacklogOptions& options) {
  BacklogSchedule schedule;
  const int n = static_cast<int>(clients.size());
  if (n == 0) return schedule;
  if (n == 1) {
    const double t =
        solo_drain_airtime(clients[0], adapter, options.packet_bits);
    schedule.slots.push_back(
        BacklogSlot{0, -1, DrainPlan{DrainMode::kSerial, t, 0}});
    schedule.total_airtime = t;
    return schedule;
  }

  const bool odd = (n % 2) != 0;
  const int m = odd ? n + 1 : n;
  const int dummy = odd ? n : -1;
  std::vector<DrainPlan> plans(static_cast<std::size_t>(m) * m);
  // Solo drain times are the serial costs (0 for the dummy): a drain plan
  // starts at their sum and moves only on a strict <.
  std::vector<double> solo(static_cast<std::size_t>(m), 0.0);
  matching::CostMatrix costs{m};
  for (int i = 0; i < n; ++i) {
    solo[static_cast<std::size_t>(i)] =
        solo_drain_airtime(clients[i], adapter, options.packet_bits);
    for (int j = i + 1; j < n; ++j) {
      const DrainPlan plan =
          best_drain_plan(clients[i], clients[j], adapter, options);
      costs.set(i, j, plan.airtime);
      plans[static_cast<std::size_t>(i) * m + j] = plan;
    }
    if (odd) {
      costs.set(i, dummy, solo[static_cast<std::size_t>(i)]);
      plans[static_cast<std::size_t>(i) * m + dummy] =
          DrainPlan{DrainMode::kSerial, solo[static_cast<std::size_t>(i)], 0};
    }
  }

  std::vector<matching::WeightedEdge> edge_scratch;
  const matching::Matching matching =
      run_pairing(costs, options.pairing, solo, edge_scratch);

  for (const auto& [u, v] : matching.pairs) {
    const int i = std::min(u, v);
    const int j = std::max(u, v);
    BacklogSlot slot;
    slot.first = i;
    slot.second = (j == dummy) ? -1 : j;
    slot.plan = plans[static_cast<std::size_t>(i) * m + j];
    schedule.slots.push_back(slot);
    schedule.total_airtime += slot.plan.airtime;
  }
  std::sort(schedule.slots.begin(), schedule.slots.end(),
            [](const BacklogSlot& x, const BacklogSlot& y) {
              // Bit-exact tie detection keeps the sort stable across
              // platforms; airtimes are computed identically on all paths.
              if (!bitwise_equal(x.plan.airtime, y.plan.airtime)) {
                return x.plan.airtime > y.plan.airtime;
              }
              return x.first < y.first;
            });
  return schedule;
}

}  // namespace sic::core
