#include "core/pair_cost_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/multirate.hpp"
#include "core/power_control.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/mathx.hpp"

namespace sic::core {

PairCostEngine::PairCostEngine(const phy::RateAdapter& adapter,
                               SchedulerOptions options,
                               Decibels invalidation_epsilon)
    : adapter_(&adapter),
      options_(options),
      derate_(Decibels{-options.admission_margin_db.value()}.linear()),
      epsilon_(invalidation_epsilon) {
  SIC_CHECK_MSG(epsilon_.value() >= 0.0,
                "invalidation epsilon must be >= 0 dB");
}

void PairCostEngine::refresh_derived(int client) {
  const std::size_t c = static_cast<std::size_t>(client);
  derated_rss_[c] = rss_[c] * derate_;
  solo_airtime_[c] = solo_airtime(channel::LinkBudget{rss_[c], noise_},
                                  *adapter_, options_.packet_bits);
  if (options_.enable_multirate) {
    derated_clean_rate_[c] = adapter_->rate(derated_rss_[c] / noise_);
  }
}

void PairCostEngine::set_clients(
    std::span<const channel::LinkBudget> clients) {
  n_ = static_cast<int>(clients.size());
  const std::size_t n = clients.size();
  noise_ = clients.empty() ? Milliwatts{0.0} : clients.front().noise;
  if (n_ >= 2) {
    SIC_CHECK_MSG(options_.admission_margin_db.value() >= 0.0,
                  "admission margin must be >= 0 dB");
    for (const auto& c : clients) {
      SIC_CHECK_MSG(c.noise == noise_,
                    "pair plan assumes a common receiver noise floor");
    }
  }
  rss_.resize(n);
  derated_rss_.resize(n);
  solo_airtime_.resize(n);
  if (options_.enable_multirate) derated_clean_rate_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    rss_[c] = clients[c].rss;
    refresh_derived(static_cast<int>(c));
  }
  plans_.assign(n * n, PairPlan{});
  valid_.assign(n * n, 0);
  all_indices_.resize(n);
  std::iota(all_indices_.begin(), all_indices_.end(), 0);
}

void PairCostEngine::update_client(int client, Milliwatts rss) {
  if (client < 0 || client >= n_) {
    throw std::out_of_range(
        "PairCostEngine::update_client: client index " +
        std::to_string(client) + " outside [0, " + std::to_string(n_) +
        ") — stale handoff against a changed topology?");
  }
  const std::size_t c = static_cast<std::size_t>(client);
  const double old_mw = rss_[c].value();
  const double new_mw = rss.value();
  // Bit-exact fast path: an unchanged RSS must not touch the fingerprint.
  if (bitwise_equal(new_mw, old_mw)) return;
  if (epsilon_ > Decibels{0.0} && old_mw > 0.0 && new_mw > 0.0) {
    const Decibels drift = Decibels::from_linear(new_mw / old_mw);
    // Within tolerance: the row keeps serving plans of the fingerprinted
    // estimate, so the fingerprint itself must not move either.
    if (std::abs(drift.value()) <= epsilon_.value()) return;
  }
  rss_[c] = rss;
  refresh_derived(client);
  invalidate_row(client);
  ++stats_.row_invalidations;
}

void PairCostEngine::invalidate_row(int client) {
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t c = static_cast<std::size_t>(client);
  for (std::size_t j = 0; j < n; ++j) {
    valid_[c * n + j] = 0;
    valid_[j * n + c] = 0;
  }
}

void PairCostEngine::compute_row(int gi, std::span<const int> cols) {
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t count = cols.size();
  // Hoisted TwoSignalArrival::make preconditions: one noise check per row,
  // not one per pair.
  SIC_CHECK_MSG(noise_.value() > 0.0, "noise floor must be positive");
  const double noise_mw = noise_.value();

  // Pass 1 — stronger/weaker normalization and both SIC SINRs, streaming
  // the SoA arrays. Lane layout: [0, count) stronger, [count, 2·count)
  // weaker. The (s1 >= s2 → s1 is stronger) rule with s1 the lower client
  // index replicates TwoSignalArrival::make called on (min, max) exactly.
  row_sinr_.resize(2 * count);
  row_rates_.resize(2 * count);
  for (std::size_t t = 0; t < count; ++t) {
    const int gj = cols[t];
    const std::size_t a = static_cast<std::size_t>(std::min(gi, gj));
    const std::size_t b = static_cast<std::size_t>(std::max(gi, gj));
    const double s1 = derated_rss_[a].value();
    const double s2 = derated_rss_[b].value();
    SIC_CHECK_MSG(s1 >= 0.0 && s2 >= 0.0, "linear RSS must be non-negative");
    const double stronger = s1 >= s2 ? s1 : s2;
    const double weaker = s1 >= s2 ? s2 : s1;
    row_sinr_[t] = stronger / (weaker + noise_mw);
    row_sinr_[count + t] = weaker / noise_mw;
  }

  // Pass 2 — both SIC rates of every pair in one batched call: a single
  // virtual dispatch instead of two per pair.
  adapter_->rate_span(row_sinr_, row_rates_);

  // Pass 3 — plan selection. This replicates best_pair_plan_from_context
  // decision-for-decision (same candidate order, same strict-< rules) so
  // the batched row is bit-identical to the scalar path; the engine's
  // bit-identity tests pin the two together. Plain SIC and multirate read
  // the rates pass 2 looked up, multirate also the stronger client's clean
  // rate from refresh_derived; only power control looks up more rates.
  const double packet_bits = options_.packet_bits;
  for (std::size_t t = 0; t < count; ++t) {
    const int gj = cols[t];
    const std::size_t a = static_cast<std::size_t>(std::min(gi, gj));
    const std::size_t b = static_cast<std::size_t>(std::max(gi, gj));
    const SicRatePair rates{row_rates_[t], row_rates_[count + t]};
    PairPlan best;
    best.mode = PairMode::kSerial;
    best.airtime = solo_airtime_[a] + solo_airtime_[b];
    const double t_sic = std::max(airtime_seconds(packet_bits, rates.stronger),
                                  airtime_seconds(packet_bits, rates.weaker));
    if (t_sic < best.airtime) {
      best = PairPlan{PairMode::kSic, t_sic, 1.0};
    }
    if (options_.enable_power_control) {
      const auto pc = optimize_weaker_power(
          UploadPairContext::make(derated_rss_[a], derated_rss_[b], noise_,
                                  *adapter_, packet_bits));
      if (pc.applied && pc.airtime < best.airtime) {
        best = PairPlan{PairMode::kSicPowerControl, pc.airtime, pc.scale};
      }
    }
    if (options_.enable_multirate) {
      // Pass 1's stronger-client rule.
      const std::size_t stronger =
          derated_rss_[a].value() >= derated_rss_[b].value() ? a : b;
      const auto mr = multirate_airtime_detailed(
          packet_bits, rates, derated_clean_rate_[stronger]);
      if (mr.boosted && mr.airtime < best.airtime) {
        best = PairPlan{PairMode::kSicMultirate, mr.airtime, 1.0};
      }
    }
    plans_[a * n + b] = best;
    plans_[b * n + a] = best;
    valid_[a * n + b] = 1;
    valid_[b * n + a] = 1;
    ++stats_.pair_evals;
  }
}

Schedule PairCostEngine::schedule() { return schedule_indices(all_indices_); }

Schedule PairCostEngine::schedule_subset(std::span<const int> clients) {
  for (const int c : clients) SIC_CHECK(c >= 0 && c < n_);
  return schedule_indices(clients);
}

Schedule PairCostEngine::schedule_indices(std::span<const int> idx) {
  Schedule schedule;
  schedule.admission_margin_db = options_.admission_margin_db;
  const int k = static_cast<int>(idx.size());
  if (k == 0) return schedule;
  ++stats_.builds;
  if (k == 1) {
    const double t = solo_airtime_[static_cast<std::size_t>(idx[0])];
    schedule.slots.push_back(
        ScheduledSlot{0, -1, PairPlan{PairMode::kSolo, t, 1.0}});
    schedule.total_airtime = t;
    publish_stats();
    return schedule;
  }

  // Fig. 12 reduction: complete graph over the (sub)set, dummy vertex for
  // odd counts. Only dirty pairs reach the kernel — a row at a time, so
  // the batched passes amortize — everything else is a cache read.
  const bool odd = (k % 2) != 0;
  const int m = odd ? k + 1 : k;
  const int dummy = odd ? k : -1;
  const std::size_t n = static_cast<std::size_t>(n_);
  obs::MetricsRegistry* reg = obs::metrics();
  costs_.reset(m);
  {
    obs::ScopedTimer kernel_timer{
        reg != nullptr
            ? &reg->histogram("scheduler.pair_engine.kernel_wall_s")
            : nullptr};
    for (int u = 0; u < k; ++u) {
      const int gi = idx[static_cast<std::size_t>(u)];
      row_cols_.clear();
      for (int v = u + 1; v < k; ++v) {
        const int gj = idx[static_cast<std::size_t>(v)];
        const std::size_t a = static_cast<std::size_t>(std::min(gi, gj));
        const std::size_t b = static_cast<std::size_t>(std::max(gi, gj));
        if (valid_[a * n + b] != 0) {
          ++stats_.pair_cache_hits;
        } else {
          row_cols_.push_back(gj);
        }
      }
      if (!row_cols_.empty()) compute_row(gi, row_cols_);
      for (int v = u + 1; v < k; ++v) {
        const int gj = idx[static_cast<std::size_t>(v)];
        const std::size_t a = static_cast<std::size_t>(std::min(gi, gj));
        const std::size_t b = static_cast<std::size_t>(std::max(gi, gj));
        costs_.set(u, v, plans_[a * n + b].airtime);
      }
      if (odd) {
        costs_.set(u, dummy, solo_airtime_[static_cast<std::size_t>(gi)]);
      }
    }
  }

  // Per-vertex serial (solo) cost feeding the approximate tier's
  // sparsification; the dummy's is 0 so its edges are always dropped and
  // the fallback pairs it.
  serial_scratch_.resize(static_cast<std::size_t>(m));
  for (int u = 0; u < k; ++u) {
    serial_scratch_[static_cast<std::size_t>(u)] =
        solo_airtime_[static_cast<std::size_t>(idx[static_cast<std::size_t>(u)])];
  }
  if (odd) serial_scratch_[static_cast<std::size_t>(dummy)] = 0.0;

  const MatchingTier tier =
      resolve_matching_tier(options_.pairing, k, options_.auto_tier_threshold);
  last_tier_ = tier;
  const matching::Matching matching =
      run_matching_tier(costs_, tier, serial_scratch_,
                        options_.admission_margin_db, edge_scratch_);
  // kAuto below the threshold: also run the approximate matcher
  // observationally and publish the relative total-airtime gap — the
  // calibration signal for choosing the crossover. Observer-pure: the
  // schedule is built from the exact matching either way, and this branch
  // only runs with a registry attached.
  if (options_.pairing == SchedulerOptions::Pairing::kAuto &&
      tier == MatchingTier::kBlossom && reg != nullptr &&
      matching.total_cost > 0.0 && std::isfinite(matching.total_cost)) {
    const matching::Matching shadow =
        run_matching_tier(costs_, MatchingTier::kApprox, serial_scratch_,
                          options_.admission_margin_db, edge_scratch_);
    if (std::isfinite(shadow.total_cost)) {
      reg->histogram("scheduler.matching.gap")
          .observe((shadow.total_cost - matching.total_cost) /
                   matching.total_cost);
    }
  }

  for (const auto& [a, b] : matching.pairs) {
    const int u = std::min(a, b);
    const int v = std::max(a, b);
    ScheduledSlot slot;
    slot.first = u;
    slot.second = (v == dummy) ? -1 : v;
    if (v == dummy) {
      const std::size_t gu = static_cast<std::size_t>(idx[static_cast<std::size_t>(u)]);
      slot.plan = PairPlan{PairMode::kSolo, solo_airtime_[gu], 1.0};
    } else {
      const std::size_t gu = static_cast<std::size_t>(idx[static_cast<std::size_t>(u)]);
      const std::size_t gv = static_cast<std::size_t>(idx[static_cast<std::size_t>(v)]);
      slot.plan = plans_[gu * n + gv];
    }
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
  publish_stats();
  return schedule;
}

void PairCostEngine::publish_stats() {
  obs::MetricsRegistry* reg = obs::metrics();
  if (reg == nullptr) return;
  reg->counter("scheduler.pair_engine.builds")
      .inc(stats_.builds - published_.builds);
  reg->counter("scheduler.pair_engine.row_invalidations")
      .inc(stats_.row_invalidations - published_.row_invalidations);
  reg->counter("scheduler.pair_engine.pair_evals")
      .inc(stats_.pair_evals - published_.pair_evals);
  reg->counter("scheduler.pair_engine.cache_hits")
      .inc(stats_.pair_cache_hits - published_.pair_cache_hits);
  published_ = stats_;
}

}  // namespace sic::core
