#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "core/multirate.hpp"
#include "core/power_control.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/mathx.hpp"

namespace sic::core {

namespace {

/// The one mode-selection rule behind every t_ij: a pair starts at its
/// serial sum and moves to SIC, SIC + power control, then SIC + multirate,
/// each only on a strict <, so no plan is slower than serial. \p rates are
/// the pair's SIC rates at its margin-derated RSS, \p pc the power-control
/// search's result there (unapplied when power control is off), and
/// \p stronger_clean_rate r(S¹/N₀) of the derated stronger RSS, which
/// multirate reads only when the stronger client lags.
PairPlan select_plan(double serial_airtime, const SicRatePair& rates,
                     const PowerControlResult& pc,
                     BitsPerSecond stronger_clean_rate,
                     const SchedulerOptions& options) {
  const double bits = options.packet_bits;
  PairPlan best{PairMode::kSerial, serial_airtime, 1.0};
  const double t_sic = std::max(airtime_seconds(bits, rates.stronger),
                                airtime_seconds(bits, rates.weaker));
  if (t_sic < best.airtime) {
    best = PairPlan{PairMode::kSic, t_sic, 1.0};
  }
  if (pc.applied && pc.airtime < best.airtime) {
    best = PairPlan{PairMode::kSicPowerControl, pc.airtime, pc.scale};
  }
  if (options.enable_multirate) {
    const auto mr =
        multirate_airtime_detailed(bits, rates, stronger_clean_rate);
    if (mr.boosted && mr.airtime < best.airtime) {
      best = PairPlan{PairMode::kSicMultirate, mr.airtime, 1.0};
    }
  }
  return best;
}

/// The all-pairs t_ij of one Fig. 12 build. Per-client state depends on
/// one endpoint only, so it is derived once per client, SoA so the row
/// kernel streams it.
class PairKernel {
 public:
  PairKernel(std::span<const channel::LinkBudget> clients,
             const phy::RateAdapter& adapter, const SchedulerOptions& options)
      : adapter_(adapter),
        options_(options),
        noise_(clients.front().noise) {
    if (options.enable_power_control) {
      search_.emplace(adapter, options.packet_bits);
    }
    const double derate =
        Decibels{-options.admission_margin_db.value()}.linear();
    for (const channel::LinkBudget& c : clients) {
      SIC_CHECK_MSG(c.noise == noise_,
                    "pair plan assumes a common receiver noise floor");
      derated_rss_.push_back(c.rss * derate);
      solo_airtime_.push_back(
          solo_airtime(c, adapter, options.packet_bits));
      derated_clean_rate_.push_back(
          adapter.rate(derated_rss_.back() / noise_));
    }
  }

  [[nodiscard]] double solo(std::size_t c) const { return solo_airtime_[c]; }

  /// Plans client \p i against every client j > i into row[j], in three
  /// passes: (1) stronger/weaker normalization and the stronger client's
  /// SIC SINR, (2) one rate_span() call for those rates (a single virtual
  /// dispatch per row), (3) select_plan on them and the weaker client's
  /// SIC rate, which decodes against noise alone and so is its
  /// per-client clean rate. Only power control looks up further rates,
  /// and only for pairs whose stronger client is the strict bottleneck at
  /// full power.
  void plan_row(std::size_t i, std::span<PairPlan> row) {
    const std::size_t first = i + 1;
    const std::size_t count = row.size() - first;
    // Hoisted TwoSignalArrival::make precondition: one check per row.
    SIC_CHECK_MSG(noise_.value() > 0.0, "noise floor must be positive");
    const double noise_mw = noise_.value();

    // Pass 1. Lane t holds pair (i, first + t)'s stronger SINR. The
    // (s1 >= s2 → s1 is stronger) rule with s1 the lower client index is
    // TwoSignalArrival::make's.
    sinr_.resize(count);
    rates_.resize(count);
    const double s1 = derated_rss_[i].value();
    for (std::size_t t = 0; t < count; ++t) {
      const double s2 = derated_rss_[first + t].value();
      SIC_CHECK_MSG(s1 >= 0.0 && s2 >= 0.0, "linear RSS must be non-negative");
      const double stronger = s1 >= s2 ? s1 : s2;
      const double weaker = s1 >= s2 ? s2 : s1;
      sinr_[t] = stronger / (weaker + noise_mw);
    }

    // Pass 2.
    adapter_.rate_span(sinr_, rates_);

    // Pass 3.
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t j = first + t;
      const bool i_stronger =
          derated_rss_[i].value() >= derated_rss_[j].value();
      const std::size_t stronger = i_stronger ? i : j;
      const std::size_t weaker = i_stronger ? j : i;
      const SicRatePair rates{rates_[t], derated_clean_rate_[weaker]};
      PowerControlResult pc;
      if (search_) {
        pc = search_->optimize(
            phy::TwoSignalArrival{derated_rss_[stronger],
                                  derated_rss_[weaker], noise_},
            rates);
      }
      row[j] = select_plan(solo_airtime_[i] + solo_airtime_[j], rates, pc,
                           options_.enable_multirate
                               ? derated_clean_rate_[stronger]
                               : BitsPerSecond{0.0},
                           options_);
    }
  }

  /// The power-control search shared by every pair of the build; empty
  /// with power control off.
  [[nodiscard]] const std::optional<WeakerPowerSearch>& search() const {
    return search_;
  }

 private:
  const phy::RateAdapter& adapter_;
  const SchedulerOptions& options_;
  Milliwatts noise_;
  std::vector<Milliwatts> derated_rss_;  ///< rss × margin derate
  std::vector<double> solo_airtime_;     ///< clean solo airtime
  /// Clean rate of the derated RSS: a weaker client's SIC rate, and with
  /// multirate on the rate a lagging stronger client switches to.
  std::vector<BitsPerSecond> derated_clean_rate_;
  std::vector<double> sinr_;            ///< row scratch: stronger SINRs
  std::vector<BitsPerSecond> rates_;    ///< row scratch: rate_span results
  std::optional<WeakerPowerSearch> search_;
};

void publish_build(obs::MetricsRegistry* reg, std::uint64_t pair_evals,
                   const std::optional<WeakerPowerSearch>& search) {
  if (reg == nullptr) return;
  reg->counter("scheduler.pair_engine.builds").inc();
  reg->counter("scheduler.pair_engine.pair_evals").inc(pair_evals);
  if (search) {
    reg->counter("scheduler.pair_engine.pc_searches").inc(search->searches());
    reg->counter("scheduler.pair_engine.pc_probes").inc(search->probes());
  }
}

}  // namespace

void SchedulerOptions::validate() const {
  SIC_CHECK_MSG(std::isfinite(packet_bits) && packet_bits > 0.0,
                "SchedulerOptions::packet_bits must be finite and > 0");
  SIC_CHECK_MSG(std::isfinite(admission_margin_db.value()) &&
                    admission_margin_db.value() >= 0.0,
                "SchedulerOptions::admission_margin_db must be finite and "
                ">= 0 dB");
}

double solo_airtime(const channel::LinkBudget& client,
                    const phy::RateAdapter& adapter, double packet_bits) {
  return airtime_seconds(packet_bits, adapter.rate(client.snr()));
}

PairPlan best_pair_plan(const channel::LinkBudget& a,
                        const channel::LinkBudget& b,
                        const phy::RateAdapter& adapter,
                        const SchedulerOptions& options) {
  SIC_CHECK_MSG(a.noise == b.noise,
                "pair plan assumes a common receiver noise floor");
  options.validate();
  // Concurrent candidates are evaluated on a derated view of the channel
  // (both RSS backed off by the admission margin); the serial baseline
  // keeps the clean rates. A margined pair is therefore only admitted when
  // it beats serial *with headroom to spare*, and its recorded airtime is
  // the conservative one the executor realizes.
  const double derate = Decibels{-options.admission_margin_db.value()}.linear();
  const Milliwatts s1 = a.rss * derate;
  const Milliwatts s2 = b.rss * derate;
  const auto ctx =
      UploadPairContext::make(s1, s2, a.noise, adapter, options.packet_bits);
  const SicRatePair rates = sic_rates(ctx);
  const PowerControlResult pc =
      options.enable_power_control
          ? WeakerPowerSearch{adapter, options.packet_bits}.optimize(
                ctx.arrival, rates)
          : PowerControlResult{};
  const BitsPerSecond clean =
      options.enable_multirate && rates.stronger < rates.weaker
          ? adapter.rate(ctx.arrival.stronger / ctx.arrival.noise)
          : BitsPerSecond{0.0};
  return select_plan(solo_airtime(a, adapter, options.packet_bits) +
                         solo_airtime(b, adapter, options.packet_bits),
                     rates, pc, clean, options);
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
  options.validate();
  Schedule schedule;
  schedule.admission_margin_db = options.admission_margin_db;
  const int n = static_cast<int>(clients.size());
  if (n == 0) return schedule;
  PairKernel kernel{clients, adapter, options};
  obs::MetricsRegistry* reg = obs::metrics();
  if (n == 1) {
    const double t = kernel.solo(0);
    schedule.slots.push_back(
        ScheduledSlot{0, -1, PairPlan{PairMode::kSolo, t, 1.0}});
    schedule.total_airtime = t;
    publish_build(reg, 0, kernel.search());
    return schedule;
  }

  // Fig. 12 reduction: complete graph over the clients, dummy vertex for
  // odd counts.
  const bool odd = (n % 2) != 0;
  const int m = odd ? n + 1 : n;
  const int dummy = odd ? n : -1;
  const std::size_t un = clients.size();
  std::vector<PairPlan> plans(un * un);  // row u holds pairs (u, v > u)
  matching::CostMatrix costs{m};
  // Serial costs for run_pairing: solo airtimes, 0 for the dummy.
  std::vector<double> serial(static_cast<std::size_t>(m), 0.0);
  {
    obs::ScopedTimer kernel_timer{
        reg != nullptr
            ? &reg->histogram("scheduler.pair_engine.kernel_wall_s")
            : nullptr};
    for (int u = 0; u < n; ++u) {
      const std::size_t su = static_cast<std::size_t>(u);
      serial[su] = kernel.solo(su);
      const std::span<PairPlan> row{plans.data() + su * un, un};
      kernel.plan_row(su, row);
      for (int v = u + 1; v < n; ++v) {
        costs.set(u, v, row[static_cast<std::size_t>(v)].airtime);
      }
      if (odd) costs.set(u, dummy, serial[su]);
    }
  }

  std::vector<matching::WeightedEdge> edge_scratch;
  const matching::Matching matching =
      run_pairing(costs, options.pairing, serial, edge_scratch);

  for (const auto& [a, b] : matching.pairs) {
    const int u = std::min(a, b);
    const int v = std::max(a, b);
    const std::size_t su = static_cast<std::size_t>(u);
    ScheduledSlot slot;
    slot.first = u;
    slot.second = (v == dummy) ? -1 : v;
    slot.plan = (v == dummy)
                    ? PairPlan{PairMode::kSolo, serial[su], 1.0}
                    : plans[su * un + static_cast<std::size_t>(v)];
    schedule.slots.push_back(slot);
    schedule.total_airtime += slot.plan.airtime;
  }
  // Deterministic presentation: longest slot first (the AP may use any
  // order; tests rely on a stable one).
  std::sort(schedule.slots.begin(), schedule.slots.end(),
            [](const ScheduledSlot& a, const ScheduledSlot& b) {
              // Bit-exact tie detection keeps the sort stable across
              // platforms; airtimes are computed identically on all paths.
              if (!bitwise_equal(a.plan.airtime, b.plan.airtime)) {
                return a.plan.airtime > b.plan.airtime;
              }
              return a.first < b.first;
            });
  const std::uint64_t pairs = static_cast<std::uint64_t>(n) *
                              static_cast<std::uint64_t>(n - 1) / 2;
  publish_build(reg, pairs, kernel.search());
  return schedule;
}

}  // namespace sic::core
