#include "analysis/montecarlo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "analysis/parallel.hpp"
#include "core/cross_link.hpp"
#include "core/multirate.hpp"
#include "core/packing.hpp"
#include "core/power_control.hpp"
#include "core/scheduler.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"

namespace sic::analysis {

namespace {

/// Batch boundary for one Monte-Carlo sweep: on destruction, wall time and
/// samples/sec go into the registry and one progress line is logged at
/// info level. The clock is only read when someone is listening (registry
/// attached or info logging on) — the sweep loops themselves stay clean.
/// Lives on the sweep's calling thread; the per-trial work underneath runs
/// on the parallel engine with its own per-chunk registries.
class SweepTimer {
 public:
  SweepTimer(const char* sweep, int trials, int threads)
      : sweep_(sweep),
        trials_(trials),
        threads_(threads),
        active_(obs::metrics() != nullptr ||
                obs::log_enabled(obs::LogLevel::kInfo)) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  SweepTimer(const SweepTimer&) = delete;
  SweepTimer& operator=(const SweepTimer&) = delete;

  ~SweepTimer() {
    if (!active_) return;
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double rate = elapsed_s > 0.0 ? trials_ / elapsed_s : 0.0;
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      const std::string prefix = std::string("analysis.montecarlo.") + sweep_;
      reg->counter(prefix + ".trials")
          .inc(static_cast<std::uint64_t>(trials_));
      reg->histogram(prefix + ".wall_s").observe(elapsed_s);
      reg->gauge(prefix + ".samples_per_sec").set(rate);
      reg->gauge(prefix + ".threads").set(threads_);
    }
    SIC_LOG_INFO(
        "montecarlo %s: %d trials on %d threads in %.3f s (%.0f samples/sec)",
        sweep_, trials_, threads_, elapsed_s, rate);
  }

 private:
  const char* sweep_;
  int trials_;
  int threads_;
  bool active_;
  std::chrono::steady_clock::time_point start_{};
};

/// Splits per-trial TechniqueGains into the per-technique vectors. Every
/// populated vector is reserved up front; multirate is filled only when
/// requested (it stays intentionally empty for the two-receiver sweep).
TechniqueSamples split_samples(const std::vector<TechniqueGains>& gains,
                               bool with_multirate) {
  TechniqueSamples out;
  out.sic.reserve(gains.size());
  out.power_control.reserve(gains.size());
  out.packing.reserve(gains.size());
  if (with_multirate) out.multirate.reserve(gains.size());
  for (const auto& g : gains) {
    out.sic.push_back(g.sic);
    out.power_control.push_back(g.power_control);
    out.packing.push_back(g.packing);
    if (with_multirate) out.multirate.push_back(g.multirate);
  }
  return out;
}

}  // namespace

TechniqueGains evaluate_upload_pair_techniques(
    const core::UploadPairContext& ctx) {
  TechniqueGains out;
  const double serial = core::serial_airtime(ctx);
  out.sic = core::realized_gain(ctx);
  if (std::isfinite(serial)) {
    const double pc = core::power_controlled_airtime(ctx);
    if (pc > 0.0) out.power_control = std::max(1.0, serial / pc);
    const double mr = core::multirate_airtime(ctx);
    if (mr > 0.0 && std::isfinite(mr)) {
      out.multirate = std::max(1.0, serial / mr);
    }
  }
  out.packing = core::packing_two_to_one(ctx).gain;
  return out;
}

std::vector<double> run_two_link_gains(const topology::SamplerConfig& config,
                                       const phy::RateAdapter& adapter,
                                       int trials, std::uint64_t seed,
                                       double packet_bits, int threads) {
  SIC_CHECK(trials > 0);
  ParallelRunner runner{{.threads = threads}};
  SweepTimer sweep{"two_link_gains", trials, runner.threads()};
  SIC_SPAN("montecarlo.two_link_gains");
  return runner.map_trials<double>(
      trials, seed, [&](Rng& rng, std::int64_t) {
        const auto sample = topology::sample_two_link(rng, config);
        return core::evaluate_cross_link(sample.rss, adapter, packet_bits)
            .gain;
      });
}

TechniqueSamples run_two_to_one_techniques(
    const topology::SamplerConfig& config, const phy::RateAdapter& adapter,
    int trials, std::uint64_t seed, double packet_bits, int threads) {
  SIC_CHECK(trials > 0);
  ParallelRunner runner{{.threads = threads}};
  SweepTimer sweep{"two_to_one_techniques", trials, runner.threads()};
  SIC_SPAN("montecarlo.two_to_one_techniques");
  const auto gains = runner.map_trials<TechniqueGains>(
      trials, seed, [&](Rng& rng, std::int64_t) {
        const auto sample = topology::sample_two_to_one(rng, config);
        const auto ctx = core::UploadPairContext::make(
            sample.s1, sample.s2, sample.noise, adapter, packet_bits);
        return evaluate_upload_pair_techniques(ctx);
      });
  return split_samples(gains, /*with_multirate=*/true);
}

TechniqueSamples run_two_link_techniques(const topology::SamplerConfig& config,
                                         const phy::RateAdapter& adapter,
                                         int trials, std::uint64_t seed,
                                         double packet_bits, int threads) {
  SIC_CHECK(trials > 0);
  ParallelRunner runner{{.threads = threads}};
  SweepTimer sweep{"two_link_techniques", trials, runner.threads()};
  SIC_SPAN("montecarlo.two_link_techniques");
  const auto gains = runner.map_trials<TechniqueGains>(
      trials, seed, [&](Rng& rng, std::int64_t) {
        const auto sample = topology::sample_two_link(rng, config);
        TechniqueGains g;
        g.sic = core::evaluate_cross_link(sample.rss, adapter, packet_bits)
                    .gain;
        g.power_control = core::cross_link_power_control_gain(
            sample.rss, adapter, packet_bits);
        g.packing =
            core::cross_link_packing_gain(sample.rss, adapter, packet_bits);
        return g;
      });
  // Multirate is N/A with two receivers (Section 5.5): left empty.
  return split_samples(gains, /*with_multirate=*/false);
}

std::vector<double> run_upload_deployment_gains(
    const topology::SamplerConfig& config, const phy::RateAdapter& adapter,
    int trials, int n_clients, std::uint64_t seed, double packet_bits,
    int threads) {
  SIC_CHECK(trials > 0);
  SIC_CHECK(n_clients >= 2);
  ParallelRunner runner{{.threads = threads}};
  SweepTimer sweep{"upload_deployment_gains", trials, runner.threads()};
  SIC_SPAN("montecarlo.upload_deployment_gains");
  core::SchedulerOptions options;
  options.packet_bits = packet_bits;
  return runner.map_trials<double>(
      trials, seed, [&](Rng& rng, std::int64_t) {
        const auto clients =
            topology::sample_upload_clients(rng, config, n_clients);
        const double serial =
            core::serial_upload_airtime(clients, adapter, packet_bits);
        if (!std::isfinite(serial) || serial <= 0.0) return 1.0;
        const auto schedule =
            core::schedule_upload(clients, adapter, options);
        return schedule.total_airtime > 0.0 ? serial / schedule.total_airtime
                                            : 1.0;
      });
}

}  // namespace sic::analysis
