/// Bit-for-bit pins of the discrete-event simulator. Each test folds every
/// field of many seeded runs into one FNV-1a digest and compares it with a
/// recorded value, so any change to event order, decode verdicts, RNG draw
/// order or result accounting in mac/ shows up as a digest mismatch. The
/// grids cover both executors, Shannon and 802.11g rates, plain and
/// power-control + multirate plans, every injected fault class, scheduled
/// runs cut short by a horizon at every kind of event and runs traced
/// event by event, and three chaotic multi-AP deployments: load-aware and
/// strongest-AP association, one whose population the caller edits
/// between epochs, and one whose out-of-coverage clients keep being
/// exiled, probed back and removed.
///
/// A deliberate behaviour change re-records the constants: run the suite,
/// read the "actual" digest from the failure message, and say why in the
/// change's notes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "mac/deployment_engine.hpp"
#include "mac/upload_sim.hpp"
#include "obs/trace_sink.hpp"
#include "phy/rate_table.hpp"
#include "util/rng.hpp"

namespace sic::mac {
namespace {

/// FNV-1a over 64-bit words, fed least-significant byte first so the
/// digest does not depend on the host's byte order.
class Fnv1a {
 public:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void words(const std::vector<std::uint64_t>& v) {
    word(v.size());
    for (const std::uint64_t x : v) word(x);
  }
  void text(std::string_view s) {
    word(s.size());
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void fold(Fnv1a& d, const UploadSimResult& r) {
  d.real(r.completion_s);
  d.word(r.offered);
  d.word(r.delivered);
  d.word(r.retries);
  d.word(r.drops);
  const MediumStats& m = r.medium;
  for (const std::uint64_t v :
       {m.transmissions, m.delivered, m.failed_clean, m.failed_collision,
        m.sic_decodes, m.capture_decodes, m.injected_failures}) {
    d.word(v);
  }
  const FailureTelemetry& f = r.failures;
  for (const std::uint64_t v :
       {f.rate_misses, f.cancellation_failures, f.ack_losses,
        f.duplicate_deliveries, f.retransmissions, f.mode_demotions,
        f.client_demotions, f.rematch_rounds, f.recovered, f.unrecovered,
        f.gave_up_rate_miss, f.gave_up_cancellation, f.gave_up_ack_loss,
        f.gave_up_unattempted}) {
    d.word(v);
  }
  d.words(f.retry_histogram);
  d.words(r.unrecovered_per_client);
}

/// n clients with AP-side SNRs drawn uniformly from [4, 36] dB.
std::vector<channel::LinkBudget> seeded_cell(int n, std::uint64_t seed) {
  Rng rng{seed * 7919 + static_cast<std::uint64_t>(n)};
  std::vector<channel::LinkBudget> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(channel::LinkBudget{
        Milliwatts{Decibels{rng.uniform(4.0, 36.0)}.linear()},
        Milliwatts{1.0}});
  }
  return out;
}

/// The run-wide counters summed over a grid, so the test can show which
/// recovery paths the digest actually covers.
struct Coverage {
  std::uint64_t runs = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t sic_decodes = 0;
  std::uint64_t capture_decodes = 0;
  std::uint64_t failed_collision = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t rematch_rounds = 0;
  std::uint64_t cancellation_failures = 0;
  std::uint64_t ack_losses = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t mode_demotions = 0;
  std::uint64_t injected_failures = 0;
  std::uint64_t unattempted = 0;

  void add(const UploadSimResult& r) {
    ++runs;
    transmissions += r.medium.transmissions;
    sic_decodes += r.medium.sic_decodes;
    capture_decodes += r.medium.capture_decodes;
    failed_collision += r.medium.failed_collision;
    retransmissions += r.failures.retransmissions;
    rematch_rounds += r.failures.rematch_rounds;
    cancellation_failures += r.failures.cancellation_failures;
    ack_losses += r.failures.ack_losses;
    duplicates += r.failures.duplicate_deliveries;
    mode_demotions += r.failures.mode_demotions;
    injected_failures += r.medium.injected_failures;
    unattempted += r.failures.gave_up_unattempted;
  }
};

/// One cell of the horizon and trace pins: Shannon rates with the plain
/// planner, or 802.11g with power control and multirate.
struct PinCell {
  const phy::RateAdapter* adapter;
  core::SchedulerOptions options;
};

std::vector<PinCell> pin_cells(const phy::RateAdapter& shannon,
                               const phy::RateAdapter& dot11g) {
  core::SchedulerOptions techniques;
  techniques.enable_power_control = true;
  techniques.enable_multirate = true;
  return {{&shannon, {}}, {&dot11g, techniques}};
}

/// The pins' fault mix: 4 dB stale RSS, 20 % cancellation failures and
/// 20 % ACK loss, or none.
UploadSimConfig pin_config(bool faulty, std::uint64_t seed) {
  UploadSimConfig config;
  config.seed = seed;
  if (faulty) {
    config.faults.stale_rss_sigma = Decibels{4.0};
    config.faults.cancellation_failure_prob = 0.2;
    config.faults.ack_loss_prob = 0.2;
  }
  return config;
}

/// Simulation time of a result's last event, exact: completion_s is that
/// time in seconds.
SimTime last_event(const UploadSimResult& r) {
  return static_cast<SimTime>(std::llround(r.completion_s * 1e9));
}

/// Folds one epoch's stats and every AP's liveness, ladder level, member
/// list and inner-run result; returns the epoch's transmissions.
std::uint64_t fold_epoch(Fnv1a& d, const EpochStats& s,
                         const DeploymentEngine& engine) {
  for (const std::uint64_t v :
       {s.offered, s.confirmed, s.unrecovered, s.deferred, s.decisions}) {
    d.word(v);
  }
  for (const int v :
       {s.epoch, s.live_aps, s.active_clients, s.quarantined_clients,
        s.handoffs, s.rematched_aps, s.outages_started, s.bursts_started,
        s.arrivals, s.departures, s.quarantines, s.readmissions,
        s.ladder_steps, s.watchdog_fires}) {
    d.word(static_cast<std::uint64_t>(v));
  }
  d.real(s.mean_health);
  std::uint64_t transmissions = 0;
  for (int ap = 0; ap < engine.n_aps(); ++ap) {
    d.word(engine.ap_alive(ap) ? 1 : 0);
    d.word(static_cast<std::uint64_t>(engine.ladder_level(ap)));
    d.word(engine.ap_members(ap).size());
    for (const int m : engine.ap_members(ap)) {
      d.word(static_cast<std::uint64_t>(m));
    }
    const UploadSimResult& r = engine.last_ap_result(ap);
    fold(d, r);
    transmissions += r.medium.transmissions;
  }
  return transmissions;
}

constexpr std::uint64_t kScheduledDigest = 0x25d0e5ce8118549dULL;
constexpr std::uint64_t kDcfDigest = 0x0daf3d53239e55c2ULL;
constexpr std::uint64_t kHorizonCutDigest = 0xe4af630ec359d375ULL;
constexpr std::uint64_t kTracedDigest = 0x679e01bfd9b955a5ULL;
constexpr std::uint64_t kEngineDigest = 0x038420f3c44b974dULL;
constexpr std::uint64_t kStrongestApDigest = 0x3a5bdb6af199968eULL;
constexpr std::uint64_t kPopulationEditsDigest = 0xa144887eaddfac03ULL;
constexpr std::uint64_t kQuarantineChurnDigest = 0xf5e7b0d1e500294cULL;

TEST(UploadSim, SeededRunsMatchRecordedDigest) {
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  const phy::DiscreteRateAdapter dot11g{phy::RateTable::dot11g()};
  const phy::RateAdapter* adapters[] = {&shannon, &dot11g};

  Fnv1a scheduled;
  Coverage sched_cov;
  for (const phy::RateAdapter* adapter : adapters) {
    for (const bool techniques : {false, true}) {
      core::SchedulerOptions options;
      options.enable_power_control = techniques;
      options.enable_multirate = techniques;
      for (const int faults : {0, 1, 2}) {
        for (const int n : {2, 7, 40}) {
          for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
            const auto clients = seeded_cell(n, seed);
            const core::Schedule schedule =
                core::schedule_upload(clients, *adapter, options);
            UploadSimConfig config;
            config.seed = seed;
            if (faults == 1) {
              config.faults.stale_rss_sigma = Decibels{4.0};
              config.faults.cancellation_failure_prob = 0.01;
              config.faults.ack_loss_prob = 0.01;
            } else if (faults == 2) {
              Rng drift{seed + 100};
              for (int i = 0; i < n; ++i) {
                config.faults.initial_drift.push_back(
                    Decibels{drift.uniform(-6.0, 3.0)});
              }
            }
            const UploadSimResult r =
                run_scheduled_upload(clients, *adapter, schedule, config);
            fold(scheduled, r);
            sched_cov.add(r);
          }
        }
      }
    }
  }
  EXPECT_EQ(sched_cov.runs, 108u);
  EXPECT_GT(sched_cov.sic_decodes, 0u);
  EXPECT_GT(sched_cov.capture_decodes, 0u);
  EXPECT_GT(sched_cov.retransmissions, 0u);
  EXPECT_GT(sched_cov.rematch_rounds, 0u);
  EXPECT_GT(sched_cov.mode_demotions, 0u);
  EXPECT_GT(sched_cov.cancellation_failures, 0u);
  EXPECT_GT(sched_cov.ack_losses, 0u);
  EXPECT_GT(sched_cov.duplicates, 0u);
  EXPECT_EQ(scheduled.value(), kScheduledDigest)
      << std::hex << "actual 0x" << scheduled.value();

  // Contention: every station is a medium listener, so carrier sense,
  // overhearing (NAV) and the RTS/CTS handshake all run. Hidden clients
  // (mutual SNR below carrier sense) make collisions the AP must resolve.
  Fnv1a dcf;
  Coverage dcf_cov;
  for (const phy::RateAdapter* adapter : adapters) {
    for (const bool rts_cts : {false, true}) {
      for (const double mutual_db : {25.0, -5.0}) {
        for (const int n : {2, 7}) {
          for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
            UploadSimConfig config;
            config.seed = seed;
            config.frames_per_client = 3;
            config.rate_margin = 0.8;
            config.use_rts_cts = rts_cts;
            config.client_mutual_snr = Decibels{mutual_db};
            const UploadSimResult r =
                run_dcf_upload(seeded_cell(n, seed), *adapter, config);
            fold(dcf, r);
            dcf_cov.add(r);
          }
        }
      }
    }
  }
  EXPECT_EQ(dcf_cov.runs, 48u);
  EXPECT_GT(dcf_cov.failed_collision, 0u);
  EXPECT_GT(dcf_cov.sic_decodes + dcf_cov.capture_decodes, 0u);
  EXPECT_EQ(dcf.value(), kDcfDigest) << std::hex << "actual 0x" << dcf.value();
}

TEST(UploadSim, HorizonCutRunsMatchRecordedDigest) {
  // Scheduled runs cut short by a horizon. A 4,999 ns step, a multiple of
  // no PHY constant, walks each run from start to finish at 400 horizons
  // or more, so cuts fall between every kind of consecutive events: frame
  // ends, ACK starts and deferred retries, ACK ends, tail starts and slot
  // checks. The last event of each cut run then becomes a horizon of its
  // own, where that event must not run, and one nanosecond later, where
  // it must.
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  const phy::DiscreteRateAdapter dot11g{phy::RateTable::dot11g()};
  constexpr SimTime kStep = 4999;
  Fnv1a d;
  Coverage cov;
  for (const PinCell& cell : pin_cells(shannon, dot11g)) {
    for (const bool faulty : {false, true}) {
      for (const int n : {2, 7, 16}) {
        const std::uint64_t seed = 40 + static_cast<std::uint64_t>(n);
        const auto clients = seeded_cell(n, seed);
        const core::Schedule schedule =
            core::schedule_upload(clients, *cell.adapter, cell.options);
        UploadSimConfig config = pin_config(faulty, seed);
        const auto run = [&](SimTime horizon) {
          config.horizon = horizon;
          const UploadSimResult r =
              run_scheduled_upload(clients, *cell.adapter, schedule, config);
          fold(d, r);
          cov.add(r);
          return r;
        };
        const SimTime end = last_event(run(from_seconds(300.0)));
        const SimTime steps = std::max<SimTime>(400, end / kStep + 2);
        std::vector<SimTime> last;
        for (SimTime k = 1; k <= steps; ++k) {
          last.push_back(last_event(run(k * kStep)));
        }
        std::sort(last.begin(), last.end());
        last.erase(std::unique(last.begin(), last.end()), last.end());
        for (const SimTime t : last) {
          if (t == 0) continue;  // the run's start is no event
          EXPECT_LT(last_event(run(t)), t);
          EXPECT_EQ(last_event(run(t + 1)), t);
        }
      }
    }
  }
  EXPECT_GT(cov.runs, 12u * 401u);
  EXPECT_GT(cov.sic_decodes, 0u);
  EXPECT_GT(cov.capture_decodes, 0u);
  EXPECT_GT(cov.rematch_rounds, 0u);
  EXPECT_GT(cov.mode_demotions, 0u);
  EXPECT_GT(cov.injected_failures, 0u);
  EXPECT_GT(cov.ack_losses, 0u);
  EXPECT_GT(cov.duplicates, 0u);
  EXPECT_GT(cov.unattempted, 0u);
  EXPECT_EQ(d.value(), kHorizonCutDigest)
      << std::hex << "actual 0x" << d.value();
}

TEST(UploadSim, TracedFaultyRunsMatchRecordedDigest) {
  // The horizon pin's faulty cells with a trace sink attached: every frame
  // and ACK span, slot and round span and recovery instant, in the order
  // recorded, for whole runs and for runs cut at a third and two thirds
  // of their length.
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  const phy::DiscreteRateAdapter dot11g{phy::RateTable::dot11g()};
  std::ostringstream trace;
  obs::TraceSink sink{trace};
  obs::TraceSink* prev = obs::set_trace(&sink);
  Fnv1a d;
  Coverage cov;
  for (const PinCell& cell : pin_cells(shannon, dot11g)) {
    for (const int n : {2, 7, 16}) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        const auto clients = seeded_cell(n, seed);
        const core::Schedule schedule =
            core::schedule_upload(clients, *cell.adapter, cell.options);
        UploadSimConfig config = pin_config(true, seed);
        const UploadSimResult full =
            run_scheduled_upload(clients, *cell.adapter, schedule, config);
        fold(d, full);
        cov.add(full);
        const SimTime end = last_event(full);
        for (const SimTime horizon : {end / 3, 2 * end / 3}) {
          config.horizon = horizon;
          const UploadSimResult r =
              run_scheduled_upload(clients, *cell.adapter, schedule, config);
          fold(d, r);
          cov.add(r);
        }
      }
    }
  }
  (void)obs::set_trace(prev);
  sink.flush();
  d.text(trace.str());
  EXPECT_EQ(cov.runs, 54u);
  EXPECT_GT(cov.injected_failures, 0u);
  EXPECT_GT(cov.ack_losses, 0u);
  EXPECT_GT(cov.mode_demotions, 0u);
  EXPECT_GT(cov.rematch_rounds, 0u);
  EXPECT_GT(cov.unattempted, 0u);
  EXPECT_EQ(d.value(), kTracedDigest) << std::hex << "actual 0x" << d.value();
}

TEST(DeploymentEngine, SeededEpochsMatchRecordedDigest) {
  // 300 clients over a 4 x 3 lattice of APs under the default chaos
  // profile (outages, bursts, churn) with in-run faults on top, so the
  // ladder, quarantine and every inner recovery path can move the digest.
  // The scheduled executor spaces its slots so that no result depends on
  // the order of equal-time events; the Perfetto trace, which records
  // every frame in the order its end event ran, is folded in as well, so
  // the digest also pins that order.
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  DeploymentEngineConfig config;
  config.scheduler.enable_power_control = true;
  config.scheduler.enable_multirate = true;
  config.epoch_drift_sigma = Decibels{2.0};
  config.upload.faults.stale_rss_sigma = Decibels{2.0};
  config.upload.faults.cancellation_failure_prob = 0.01;
  config.upload.faults.ack_loss_prob = 0.01;
  config.seed = 19;
  std::vector<topology::Point> sites;
  for (int i = 0; i < 12; ++i) {
    sites.push_back({50.0 * (i % 4), 50.0 * (i / 4)});
  }
  DeploymentEngine engine{sites, shannon, config,
                          FaultSchedule::preset("default", 300)};
  Rng place{config.seed};
  for (int c = 0; c < 300; ++c) {
    (void)engine.add_client(
        {place.uniform(-20.0, 170.0), place.uniform(-20.0, 120.0)});
  }

  std::ostringstream trace;
  obs::TraceSink sink{trace};
  obs::TraceSink* prev = obs::set_trace(&sink);
  Fnv1a d;
  std::uint64_t transmissions = 0;
  for (int e = 0; e < 4; ++e) {
    transmissions += fold_epoch(d, engine.run_epoch(), engine);
  }
  (void)obs::set_trace(prev);
  sink.flush();
  d.text(trace.str());
  EXPECT_GT(transmissions, 0u);
  EXPECT_EQ(d.value(), kEngineDigest) << std::hex << "actual 0x" << d.value();
}

TEST(DeploymentEngine, StrongestApEpochsMatchRecordedDigest) {
  // Strongest-AP association (no load penalty) with 1 dB epoch drift, on
  // 802.11g with power control and multirate. Chaos brings stochastic
  // outages and restarts, one scripted outage cut short by a scripted
  // restart, bursts, departures and arrivals; between them many epochs
  // keep every AP's liveness, so the digest covers both epochs that
  // disturb association and planning and epochs that disturb neither.
  // Every thread count must produce the same digest.
  const phy::DiscreteRateAdapter dot11g{phy::RateTable::dot11g()};
  ChaosProfile profile;
  profile.ap_outage_prob = 0.02;
  profile.outage_epochs = 3;
  profile.burst_prob = 0.04;
  profile.burst_epochs = 2;
  profile.departure_prob = 0.01;
  profile.arrival_rate = 2.0;
  std::vector<topology::Point> sites;
  for (int i = 0; i < 16; ++i) {
    sites.push_back({50.0 * (i % 4), 50.0 * (i / 4)});
  }
  for (const int threads : {1, 4, 7}) {
    DeploymentEngineConfig config;
    config.scheduler.enable_power_control = true;
    config.scheduler.enable_multirate = true;
    config.load_penalty_per_client = Decibels{0.0};
    config.epoch_drift_sigma = Decibels{1.0};
    config.threads = threads;
    config.seed = 23;
    FaultSchedule chaos{profile};
    chaos.add({.epoch = 4, .kind = ChaosEventKind::kApOutage, .ap = 5,
               .duration_epochs = 12});
    chaos.add({.epoch = 9, .kind = ChaosEventKind::kApRestart, .ap = 5});
    DeploymentEngine engine{sites, dot11g, config, std::move(chaos)};
    Rng place{config.seed};
    for (int c = 0; c < 240; ++c) {
      (void)engine.add_client(
          {place.uniform(-20.0, 170.0), place.uniform(-20.0, 170.0)});
    }

    Fnv1a d;
    std::uint64_t transmissions = 0;
    int outages = 0;
    int bursts = 0;
    int departures = 0;
    int arrivals = 0;
    int handoffs = 0;
    int restarts = 0;
    int steady_epochs = 0;
    std::vector<std::uint8_t> alive_before;
    for (int e = 0; e < 30; ++e) {
      const EpochStats s = engine.run_epoch();
      transmissions += fold_epoch(d, s, engine);
      outages += s.outages_started;
      bursts += s.bursts_started;
      departures += s.departures;
      arrivals += s.arrivals;
      handoffs += s.handoffs;
      for (int c = 0; c < 240 + arrivals; ++c) {
        d.word(static_cast<std::uint64_t>(engine.assignment(c) + 1));
      }
      std::vector<std::uint8_t> alive;
      for (int ap = 0; ap < engine.n_aps(); ++ap) {
        alive.push_back(engine.ap_alive(ap) ? 1 : 0);
        if (e > 0 && alive.back() > alive_before[alive.size() - 1]) {
          ++restarts;
        }
      }
      if (alive == alive_before) ++steady_epochs;
      alive_before = std::move(alive);
    }
    EXPECT_GT(transmissions, 0u);
    EXPECT_GE(outages, 3);
    EXPECT_GE(restarts, 3);
    EXPECT_GT(bursts, 0);
    EXPECT_GT(departures, 0);
    EXPECT_GT(arrivals, 0);
    EXPECT_GT(handoffs, 0);
    EXPECT_GE(steady_epochs, 10);
    EXPECT_EQ(d.value(), kStrongestApDigest)
        << "threads " << threads << std::hex << " actual 0x" << d.value();
  }
}

TEST(DeploymentEngine, BetweenEpochPopulationEditsMatchRecordedDigest) {
  // The caller edits the population between epochs: at one boundary it
  // removes one client and adds one, at others it adds two or removes
  // three, and every fourth boundary leaves it alone. Epoch drift (1 dB),
  // bursts, departures and arrivals all draw from the engine's epoch
  // stream, so the digest pins both the drift each active client gets and
  // every draw after it. Every thread count must produce the same digest,
  // and the auditor must find every epoch conserved.
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  ChaosProfile profile;
  profile.burst_prob = 0.05;
  profile.burst_epochs = 2;
  profile.departure_prob = 0.005;
  profile.arrival_rate = 1.0;
  std::vector<topology::Point> sites;
  for (int i = 0; i < 9; ++i) {
    sites.push_back({50.0 * (i % 3), 50.0 * (i / 3)});
  }
  for (const int threads : {1, 4, 7}) {
    DeploymentEngineConfig config;
    config.epoch_drift_sigma = Decibels{1.0};
    config.upload.faults.stale_rss_sigma = Decibels{2.0};
    config.threads = threads;
    config.seed = 29;
    DeploymentEngine engine{sites, shannon, config, FaultSchedule{profile}};
    InvariantAuditor auditor;
    engine.set_auditor(&auditor);
    Rng edits{config.seed};
    const auto spot = [&edits] {
      return topology::Point{edits.uniform(-20.0, 120.0),
                             edits.uniform(-20.0, 120.0)};
    };
    int clients = 0;  // ids are dense: one past the largest so far
    while (clients < 160) clients = engine.add_client(spot()) + 1;
    const auto remove_one = [&] {
      for (;;) {
        const int c = edits.uniform_int(0, clients - 1);
        if (engine.client_active(c)) {
          engine.remove_client(c);
          return;
        }
      }
    };

    Fnv1a d;
    std::uint64_t transmissions = 0;
    int departures = 0;
    int arrivals = 0;
    int bursts = 0;
    for (int e = 0; e < 24; ++e) {
      const EpochStats s = engine.run_epoch();
      transmissions += fold_epoch(d, s, engine);
      departures += s.departures;
      arrivals += s.arrivals;
      bursts += s.bursts_started;
      clients += s.arrivals;
      for (int c = 0; c < clients; ++c) {
        d.word(static_cast<std::uint64_t>(engine.assignment(c) + 1));
      }
      switch (e % 4) {
        case 1:
          remove_one();
          clients = engine.add_client(spot()) + 1;
          break;
        case 2:
          (void)engine.add_client(spot());
          clients = engine.add_client(spot()) + 1;
          break;
        case 3:
          for (int k = 0; k < 3; ++k) remove_one();
          break;
        default:
          break;
      }
    }
    EXPECT_GT(transmissions, 0u);
    EXPECT_GT(departures, 0);
    EXPECT_GT(arrivals, 0);
    EXPECT_GT(bursts, 0);
    EXPECT_EQ(auditor.epochs_checked(), 24u);
    EXPECT_TRUE(auditor.ok());
    EXPECT_EQ(d.value(), kPopulationEditsDigest)
        << "threads " << threads << std::hex << " actual 0x" << d.value();
  }
}

TEST(DeploymentEngine, QuarantineChurnMatchesRecordedDigest) {
  // Out-of-coverage clients beyond each of four APs fail every epoch, so
  // they are exiled, probed back and exiled again; between epochs the
  // caller removes a quarantined one or adds another, and chaos departs
  // and adds clients too. Each AP's health divides its exiles by its
  // members plus exiles, so the digest, which folds every epoch's mean
  // health and each AP's lifetime health, pins who counts as whose exile
  // at every entry, probe and removal. Every thread count must produce
  // the same digest.
  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  ChaosProfile profile;
  profile.departure_prob = 0.02;
  profile.arrival_rate = 0.5;
  const std::vector<topology::Point> sites{
      {0.0, 0.0}, {50.0, 0.0}, {0.0, 50.0}, {50.0, 50.0}};
  const std::vector<topology::Point> far{
      {-3000.0, -3000.0}, {3050.0, -3000.0}, {-3000.0, 3050.0},
      {3050.0, 3050.0}};
  for (const int threads : {1, 4}) {
    DeploymentEngineConfig config;
    config.quarantine_after = 2;
    config.quarantine_base_epochs = 1;
    config.epoch_drift_sigma = Decibels{1.0};
    // Near clients confirm in microseconds; an out-of-coverage link
    // cannot finish a frame within the epoch.
    config.upload.horizon = from_seconds(0.05);
    config.threads = threads;
    config.seed = 31;
    DeploymentEngine engine{sites, shannon, config, FaultSchedule{profile}};
    Rng place{config.seed};
    for (int c = 0; c < 40; ++c) {
      (void)engine.add_client(
          {place.uniform(-10.0, 60.0), place.uniform(-10.0, 60.0)});
    }
    std::vector<int> hopeless;
    for (int k = 0; k < 8; ++k) {
      const topology::Point& p = far[static_cast<std::size_t>(k % 4)];
      hopeless.push_back(engine.add_client({p.x + 7.0 * k, p.y}));
    }

    Fnv1a d;
    int quarantines = 0;
    int readmissions = 0;
    int removed_quarantined = 0;
    for (int e = 0; e < 30; ++e) {
      const EpochStats s = engine.run_epoch();
      (void)fold_epoch(d, s, engine);
      quarantines += s.quarantines;
      readmissions += s.readmissions;
      if (e % 5 == 3) {
        for (const int c : hopeless) {
          if (engine.client_active(c) && engine.quarantined(c)) {
            engine.remove_client(c);
            ++removed_quarantined;
            break;
          }
        }
      } else if (e % 7 == 4) {
        const topology::Point& p = far[static_cast<std::size_t>(e % 4)];
        hopeless.push_back(engine.add_client({p.x - 5.0 * e, p.y}));
      }
    }
    for (const ApHealthSummary& h : engine.health_summary()) {
      d.word(h.epochs_served);
      d.real(h.mean_health);
      d.real(h.min_health);
      d.real(h.mean_confirmation);
    }
    EXPECT_GT(quarantines, 8);
    EXPECT_GT(readmissions, 8);
    EXPECT_GE(removed_quarantined, 4);
    EXPECT_EQ(d.value(), kQuarantineChurnDigest)
        << "threads " << threads << std::hex << " actual 0x" << d.value();
  }
}

}  // namespace
}  // namespace sic::mac
