/// sicbench — the sicmac benchmark program.
///
///   sicbench --workload W --seed N --seconds S --trace 0|1
///
/// Runs one seeded workload as a closed loop (the next epoch or sweep pass
/// starts only after the previous one returned) and prints, as the last
/// line of stdout, one JSON object:
///
///   {"correct":true,"attempted":N,"failed":0,"metrics":{name:{value,unit}}}
///
/// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
/// Every layer is measured from outside the library: calls into public
/// functions are timed here, and the counters and wall-time histograms the
/// library already publishes are read from an attached obs registry.
/// perfbench/README.md lists every metric and the workload it belongs to.
///
/// Exit codes: 0 ok, 1 a correctness check failed, 2 usage error.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "channel/pathloss.hpp"
#include "core/scheduler.hpp"
#include "mac/association.hpp"
#include "mac/chaos.hpp"
#include "mac/deployment_engine.hpp"
#include "mac/upload_sim.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "phy/rate_adapter.hpp"
#include "phy/rate_table.hpp"
#include "topology/geometry.hpp"
#include "topology/samplers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sic;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile that leaves at least ten samples beyond it: the
/// eleventh-largest sample, at percentile 100·(n−10)/n. With ten or fewer
/// samples no such percentile exists and the maximum is reported.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

/// Live heap in MiB: bytes the allocator has handed out and not got back.
/// Read between steps only, so the allocator is untouched while the
/// program runs.
double live_heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// FNV-1a over 64-bit words: the digest the thread-count and
/// repeat-determinism checks compare.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(int x) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(x))); }
};

// ---------------------------------------------------------------------------
// Result assembly
// ---------------------------------------------------------------------------

struct MetricDecl {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (--trace 0). Every workload reports all of them;
/// README.md gives each one's meaning per workload.
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},           {"epochs_per_s", "1/s"},
    {"epoch_p50_ms", "ms"},     {"epoch_tail_ms", "ms"},
    {"completed_frac", "ratio"}, {"drain_ms", "ms"},
    {"peak_heap_mb", "MB"},
};

/// The per-layer metrics (--trace 1). A layer the workload does not run
/// reports 0.
constexpr MetricDecl kPerLayer[] = {
    {"phy.rate_span.ns_per_lane", "ns"},
    {"core.kernel_busy_s", "s"},
    {"core.kernel_frac", "ratio"},
    {"core.pair_evals", "count"},
    {"core.builds", "count"},
    {"core.cache_hit_frac", "ratio"},
    {"matching.busy_s", "s"},
    {"matching.frac", "ratio"},
    {"matching.calls", "count"},
    {"matching.mean_vertices", "count"},
    {"matching.max_call_ms", "ms"},
    {"matching.blossom.edge_visits", "count"},
    {"serve.replay_busy_s", "s"},
    {"serve.frac", "ratio"},
    {"serve.transmissions", "count"},
    {"serve.retransmissions", "count"},
    {"serve.rematch_rounds", "count"},
    {"serve.first_try_frac", "ratio"},
    {"serve.parallel_eff", "ratio"},
    {"serve.unrecovered_frac", "ratio"},
    {"serve.ladder_steps", "count"},
    {"serve.quarantines", "count"},
    {"serve.watchdog_fires", "count"},
    {"assoc.busy_s", "s"},
    {"assoc.frac", "ratio"},
    {"assoc.candidates_per_client", "count"},
    {"assoc.handoffs", "count"},
    {"assoc.handoff_frac", "ratio"},
    {"engine.rematch_frac", "ratio"},
    {"engine.unattributed_frac", "ratio"},
    {"engine.audit_violations", "count"},
    {"obs.overhead_frac", "ratio"},
    {"analysis.sic_gain_mean", "ratio"},
    {"analysis.sweep_samples_per_s", "1/s"},
    {"analysis.two_link_gains.samples_per_s", "1/s"},
    {"analysis.two_link_gains.parallel_eff", "ratio"},
    {"analysis.two_to_one_techniques.samples_per_s", "1/s"},
    {"analysis.two_to_one_techniques.parallel_eff", "ratio"},
    {"analysis.two_link_techniques.samples_per_s", "1/s"},
    {"analysis.two_link_techniques.parallel_eff", "ratio"},
    {"analysis.upload_deployment_gains.samples_per_s", "1/s"},
    {"analysis.upload_deployment_gains.parallel_eff", "ratio"},
};

struct Report {
  explicit Report(bool traced) : traced_(traced) {}

  std::map<std::string, double, std::less<>> values;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(std::string_view name, double value) {
    values.insert_or_assign(std::string(name), value);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }

  /// Prints the result line and returns the exit code. Every declared
  /// metric of the mode is printed in declaration order; an end-to-end
  /// metric left unset, or any metric not declared, is a bug here.
  int emit() {
    const auto decls = traced_ ? std::span<const MetricDecl>(kPerLayer)
                               : std::span<const MetricDecl>(kEndToEnd);
    std::string body;
    std::size_t used = 0;
    for (const MetricDecl& d : decls) {
      const auto it = values.find(d.name);
      double v = 0.0;
      if (it != values.end()) {
        v = it->second;
        ++used;
      } else if (!traced_) {
        check(false, std::string("metric not measured: ") + d.name);
      }
      if (!std::isfinite(v)) {
        check(false, std::string("metric not finite: ") + d.name);
        v = 0.0;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (!body.empty()) body += ",";
      body += "\"" + std::string(d.name) + "\":{\"value\":" + buf +
              ",\"unit\":\"" + d.unit + "\"}";
    }
    check(used == values.size(), "a measured metric is not declared");
    for (const std::string& e : errors) {
      std::fprintf(stderr, "sicbench: check failed: %s\n", e.c_str());
    }
    if (!errors.empty() && failed == 0) failed = 1;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                errors.empty() ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    attempted, 1)),
                static_cast<unsigned long long>(failed), body.c_str());
    std::fflush(stdout);
    return errors.empty() ? 0 : 1;
  }

 private:
  bool traced_;
};

// ---------------------------------------------------------------------------
// Deployment workloads
// ---------------------------------------------------------------------------

constexpr double kWarmupS = 1.5;
/// The multi-threaded workloads run every timed step twice and count its
/// faster run: four busy threads on a shared host are the first to be
/// slowed by load from outside the process. The single-thread workloads
/// spend the time on twice the instances instead: halving them to fit a
/// second run widened the seed-to-seed spread more than the faster-run
/// rule narrowed it, and a 4-instance dense_churn run has too few epochs
/// for a tail above the median.
constexpr int kRepeats = 2;

/// Moves the calling thread round the CPUs the process may use. On a
/// shared host one CPU can stay slower than the others for a whole run;
/// a single-thread engine that steps to the next CPU before its set-up and
/// before every timed epoch spreads each run's steps evenly over them.
/// Only untraced single-thread runs step: a thread pool created on a
/// pinned thread would inherit the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  void step() {
    if (!enabled || cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }
  bool enabled = false;

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

CpuRotation g_rotation;

struct DeploySpec {
  const char* name;
  int clients;
  int aps;
  bool dot11g;          ///< discrete 802.11g rates instead of Shannon
  bool pc_multirate;    ///< power control + multirate on
  const char* chaos;    ///< FaultSchedule preset name
  double load_penalty;  ///< dB per member; 0 = strongest-AP association
  int threads;
  int epochs;     ///< timed epochs 1..epochs after the set-up epoch 0
  int instances;  ///< seeded instances per measured cycle
  int repeats;    ///< runs of each instance per cycle (fastest counts)
};

/// dense_churn times an odd number of epochs per engine. Its epoch cost
/// rises with the epoch index, so the pooled epoch times cluster by index;
/// with an even count the median falls in the gap between two clusters
/// and jumps from run to run.
constexpr DeploySpec kDeploySpecs[] = {
    {"dense_churn", 10000, 256, false, false, "none", 0.5, 1, 5, 8, 1},
    {"pcmr_chaos", 1000, 32, true, true, "default", 0.5, 1, 8, 8, 1},
    {"nearest_serve", 10000, 256, false, false, "none", 0.0, 4, 20, 24,
     kRepeats},
};

/// Seed of instance \p i of a run with workload seed \p seed.
std::uint64_t instance_seed(std::uint64_t seed, int i) {
  return SplitMix64{seed * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(i)}
      .next();
}

/// The seeded instance the program receives: a jittered 50 m AP lattice
/// with clients placed uniformly over its extent (positions only).
struct Instance {
  std::vector<topology::Point> sites;
  std::vector<topology::Point> clients;
};

Instance make_instance(int n_clients, int n_aps, std::uint64_t seed) {
  Rng rng{seed};
  Instance ins;
  const int side =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n_aps))));
  const double pitch = 50.0;
  for (int i = 0; i < n_aps; ++i) {
    const double x = static_cast<double>(i % side) * pitch;
    const double y = static_cast<double>(i / side) * pitch;
    ins.sites.push_back(topology::Point{x + rng.uniform(-10.0, 10.0),
                                        y + rng.uniform(-10.0, 10.0)});
  }
  const double extent = static_cast<double>(side) * pitch;
  for (int c = 0; c < n_clients; ++c) {
    ins.clients.push_back(
        topology::Point{rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
  }
  return ins;
}

mac::DeploymentEngineConfig engine_config(const DeploySpec& spec,
                                          std::uint64_t seed, int threads) {
  mac::DeploymentEngineConfig config;
  config.scheduler.pairing = core::SchedulerOptions::Pairing::kBlossom;
  config.scheduler.enable_power_control = spec.pc_multirate;
  config.scheduler.enable_multirate = spec.pc_multirate;
  config.epoch_drift_sigma = Decibels{1.0};
  config.load_penalty_per_client = Decibels{spec.load_penalty};
  config.threads = threads;
  config.seed = seed;
  return config;
}

/// The engine's per-ladder-level planning options (deployment_engine.hpp:
/// level 1 drops multirate, level 2 also power control).
core::SchedulerOptions ladder_options(const mac::DeploymentEngineConfig& c,
                                      int level) {
  core::SchedulerOptions o = c.scheduler;
  o.packet_bits = c.upload.packet_bits;
  if (level >= 1) o.enable_multirate = false;
  if (level >= 2) o.enable_power_control = false;
  return o;
}

/// Everything one fresh engine did over epochs 0..spec.epochs.
struct DeploySample {
  double setup_s = 0.0;
  std::vector<double> epoch_s;  ///< wall time of each timed epoch
  std::uint64_t offered = 0;
  std::uint64_t unrecovered = 0;
  std::vector<double> drain_s;  ///< completion_s of each served AP-epoch
  std::uint64_t served_ap_epochs = 0;
  std::uint64_t active_client_epochs = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t rematched_aps = 0;
  std::uint64_t ladder_steps = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t watchdog_fires = 0;
  double heap_mb = 0.0;  ///< peak live heap over the engine's steps, net
  std::uint64_t digest = 0;
  std::uint64_t digest_e2 = 0;  ///< digest through epoch 2
  std::vector<std::string> errors;
  // Traced-only layer measurements.
  double assoc_busy_s = 0.0;
  std::uint64_t assoc_candidates = 0;  ///< APs scored by the replayed plans
  std::uint64_t assoc_scored = 0;      ///< eligible clients they scored
  double serve_replay_s = 0.0;         ///< replay wall, children included
  double serve_replay_children_s = 0.0;  ///< kernel + matching inside it
  double serve_replay_par_s = 0.0;     ///< same replay over a thread pool
  std::vector<double> sinr_lanes;      ///< link SNRs for the phy timing
  std::uint64_t audit_epochs = 0;
  std::uint64_t audit_violations = 0;
  obs::MetricsRegistry reg;  ///< the engine's published counters (traced)
};

/// Sum of a histogram in a registry this file owns. histogram() creates an
/// empty instrument on first use, so only call it on such registries.
double hist_sum(obs::MetricsRegistry& reg, std::string_view name) {
  return reg.histogram(name).sum();
}

std::uint64_t counter_of(const obs::MetricsRegistry& reg,
                         std::string_view name) {
  for (const auto& [k, v] : reg.counter_values()) {
    if (k == name) return v;
  }
  return 0;
}

double matching_busy_s(obs::MetricsRegistry& reg) {
  return hist_sum(reg, "matching.blossom.wall_s") +
         hist_sum(reg, "matching.approx.wall_s") +
         hist_sum(reg, "matching.greedy.wall_s");
}

/// Serves every AP that served this epoch again, outside the engine:
/// run_scheduled_upload on the AP's nominal member budgets with the
/// engine's own per-(AP, epoch) seed and the ladder level's options. The
/// schedule is planned (untimed) with the same options and cached per AP
/// while membership and ladder level are unchanged.
class ServeReplay {
 public:
  ServeReplay(const mac::DeploymentEngine& engine, const phy::RateAdapter& adapter,
              const mac::DeploymentEngineConfig& config)
      : engine_(engine), adapter_(adapter), config_(config),
        cache_(static_cast<std::size_t>(engine.n_aps())) {}

  struct Job {
    std::vector<channel::LinkBudget> budgets;
    const core::Schedule* schedule = nullptr;
    mac::UploadSimConfig run;
  };

  /// Builds the replay jobs for \p served APs of epoch \p epoch.
  std::vector<Job> jobs(const std::vector<int>& served, int epoch) {
    std::vector<Job> out;
    obs::MetricsRegistry* prev = obs::set_metrics(nullptr);
    for (const int ap : served) {
      const std::vector<int>& members = engine_.ap_members(ap);
      const int level = engine_.ladder_level(ap);
      Job job;
      for (const int m : members) {
        job.budgets.push_back(engine_.nominal_budget(m, ap));
      }
      Cached& c = cache_[static_cast<std::size_t>(ap)];
      if (c.members != members || c.level != level) {
        c.members = members;
        c.level = level;
        if (level >= 3) {
          c.schedule = core::Schedule{};
          for (int i = 0; i < static_cast<int>(job.budgets.size()); ++i) {
            core::ScheduledSlot slot;
            slot.first = i;
            slot.plan.airtime = core::solo_airtime(
                job.budgets[static_cast<std::size_t>(i)], adapter_,
                config_.upload.packet_bits);
            c.schedule.total_airtime += slot.plan.airtime;
            c.schedule.slots.push_back(slot);
          }
        } else {
          c.schedule = core::schedule_upload(job.budgets, adapter_,
                                             ladder_options(config_, level));
        }
      }
      job.schedule = &c.schedule;
      job.run = config_.upload;
      job.run.seed = mac::DeploymentEngine::epoch_seed(config_.seed, ap, epoch);
      job.run.recovery.enabled = config_.closed_loop;
      job.run.recovery.rematch_options =
          ladder_options(config_, std::min(level, 2));
      out.push_back(std::move(job));
    }
    (void)obs::set_metrics(prev);
    return out;
  }

 private:
  struct Cached {
    std::vector<int> members;
    int level = -1;
    core::Schedule schedule;
  };
  const mac::DeploymentEngine& engine_;
  const phy::RateAdapter& adapter_;
  const mac::DeploymentEngineConfig& config_;
  std::vector<Cached> cache_;
};

/// APs that served the epoch just run: alive with members. Membership only
/// shrinks after the serve phase (quarantine), so this never names an AP
/// that did not serve.
std::vector<int> served_aps(const mac::DeploymentEngine& engine) {
  std::vector<int> out;
  for (int ap = 0; ap < engine.n_aps(); ++ap) {
    if (engine.ap_alive(ap) && !engine.ap_members(ap).empty()) {
      out.push_back(ap);
    }
  }
  return out;
}

void fold_epoch(const mac::DeploymentEngine& engine,
                const mac::EpochStats& s, bool timed, DeploySample& out,
                Digest& digest, std::vector<int>* served_out) {
  const std::vector<int> served = served_aps(engine);
  std::uint64_t served_offered = 0;
  for (const int ap : served) {
    const mac::UploadSimResult& r = engine.last_ap_result(ap);
    served_offered += r.offered;
    if (timed) {
      out.drain_s.push_back(r.completion_s);
      ++out.served_ap_epochs;
    }
    if (!(r.completion_s > 0.0) || !std::isfinite(r.completion_s)) {
      out.errors.push_back("epoch " + std::to_string(s.epoch) + " ap " +
                           std::to_string(ap) + ": bad completion_s");
    }
    digest.add(ap);
    digest.add(r.completion_s);
    digest.add(r.offered);
    digest.add(r.delivered);
    digest.add(r.retries);
    digest.add(r.medium.transmissions);
    digest.add(r.failures.retransmissions);
    digest.add(r.failures.rematch_rounds);
    digest.add(r.failures.unrecovered);
    for (const std::uint64_t u : r.unrecovered_per_client) digest.add(u);
  }
  for (const std::uint64_t v :
       {s.offered, s.confirmed, s.unrecovered, s.deferred, s.decisions}) {
    digest.add(v);
  }
  for (const int v :
       {s.epoch, s.live_aps, s.active_clients, s.quarantined_clients,
        s.handoffs, s.rematched_aps, s.outages_started, s.bursts_started,
        s.arrivals, s.departures, s.quarantines, s.readmissions,
        s.ladder_steps, s.watchdog_fires}) {
    digest.add(v);
  }
  digest.add(s.mean_health);
  // Conservation: every active client was served, deferred, or quarantined
  // (one frame per client), and each frame was confirmed or abandoned.
  const std::uint64_t accounted =
      s.offered + s.deferred + static_cast<std::uint64_t>(s.quarantined_clients);
  if (accounted != static_cast<std::uint64_t>(s.active_clients) ||
      s.confirmed + s.unrecovered != s.offered || served_offered > s.offered ||
      s.offered == 0) {
    out.errors.push_back("epoch " + std::to_string(s.epoch) +
                         ": frame accounting broken");
  }
  if (timed) {
    out.offered += s.offered;
    out.unrecovered += s.unrecovered;
    out.active_client_epochs += static_cast<std::uint64_t>(s.active_clients);
    out.handoffs += static_cast<std::uint64_t>(s.handoffs);
    out.rematched_aps += static_cast<std::uint64_t>(s.rematched_aps);
    out.ladder_steps += static_cast<std::uint64_t>(s.ladder_steps);
    out.quarantines += static_cast<std::uint64_t>(s.quarantines);
    out.watchdog_fires += static_cast<std::uint64_t>(s.watchdog_fires);
  }
  if (served_out != nullptr) *served_out = served;
}

/// One fresh engine: set-up (construction, client registration, epoch 0)
/// and then the fixed timed epoch range. With \p traced the obs registry,
/// time series, flight recorder and invariant auditor are attached and
/// the association and serve layers are replayed around every epoch.
void run_deploy_sample(const DeploySpec& spec, const Instance& ins,
                       const phy::RateAdapter& adapter, std::uint64_t seed,
                       int threads, bool traced, DeploySample& out,
                       int epochs) {
  const mac::DeploymentEngineConfig config = engine_config(spec, seed, threads);
  obs::TimeSeriesRegistry series;
  obs::FlightRecorder recorder;
  mac::InvariantAuditor auditor;
  // Set-up publishes into its own registry so out.reg holds the timed
  // epochs only.
  obs::MetricsRegistry setup_reg;
  if (traced) {
    (void)obs::set_metrics(&setup_reg);
    (void)obs::set_timeseries(&series);
    (void)obs::set_flight(&recorder);
  }
  Digest digest;
  const double heap0 = live_heap_mb();

  g_rotation.step();
  const auto t0 = Clock::now();
  auto engine = std::make_unique<mac::DeploymentEngine>(
      ins.sites, adapter, config,
      mac::FaultSchedule::preset(spec.chaos, spec.clients));
  for (const topology::Point& p : ins.clients) (void)engine->add_client(p);
  if (traced) engine->set_auditor(&auditor);
  const mac::EpochStats first = engine->run_epoch();
  out.setup_s = seconds_since(t0);
  out.heap_mb = live_heap_mb() - heap0;
  fold_epoch(*engine, first, false, out, digest, nullptr);

  // Replay tooling (traced only): an association planner over the same
  // sites and knobs, and the serve replay's schedule cache.
  const channel::LogDistancePathLoss pathloss =
      channel::LogDistancePathLoss::for_carrier(config.pathloss_exponent);
  std::unique_ptr<mac::AssociationPlanner> planner;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ThreadPool> serve_pool;
  std::unique_ptr<ServeReplay> replay;
  std::vector<double> xs;
  std::vector<double> ys;
  if (traced) {
    (void)obs::set_metrics(&out.reg);
    planner = std::make_unique<mac::AssociationPlanner>(
        ins.sites, pathloss, config.client_tx_power,
        config.load_penalty_per_client);
    pool = std::make_unique<ThreadPool>(threads);
    serve_pool = std::make_unique<ThreadPool>(4);
    replay = std::make_unique<ServeReplay>(*engine, adapter, config);
    for (const topology::Point& p : ins.clients) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
  }
  std::vector<std::uint8_t> eligible;
  std::vector<int> incumbent;
  std::vector<std::uint8_t> alive;
  std::vector<int> members;
  std::vector<mac::AssociationProposal> proposals;

  for (int e = 1; e <= epochs; ++e) {
    if (traced) {
      // Association: a timed plan() over the start-of-epoch snapshot,
      // rebuilt from the engine's public accessors. Chaos arrivals of the
      // previous epochs are placed by the engine; they are not replayed
      // (xs/ys cover the registered population only).
      obs::MetricsRegistry* prev = obs::set_metrics(nullptr);
      const int n = static_cast<int>(xs.size());
      eligible.assign(static_cast<std::size_t>(n), 0);
      incumbent.assign(static_cast<std::size_t>(n), -1);
      for (int c = 0; c < n; ++c) {
        eligible[static_cast<std::size_t>(c)] =
            (engine->client_active(c) && !engine->quarantined(c)) ? 1 : 0;
        incumbent[static_cast<std::size_t>(c)] = engine->assignment(c);
      }
      alive.clear();
      members.clear();
      for (int ap = 0; ap < engine->n_aps(); ++ap) {
        alive.push_back(engine->ap_alive(ap) ? 1 : 0);
        members.push_back(static_cast<int>(engine->ap_members(ap).size()));
      }
      const auto ta = Clock::now();
      planner->plan(config.association_mode, xs, ys, eligible, incumbent,
                    alive, members, *pool, proposals);
      out.assoc_busy_s += seconds_since(ta);
      for (int c = 0; c < n; ++c) {
        if (eligible[static_cast<std::size_t>(c)] == 0) continue;
        out.assoc_candidates += proposals[static_cast<std::size_t>(c)].candidates;
        ++out.assoc_scored;
      }
      (void)obs::set_metrics(prev);
    }

    g_rotation.step();
    const auto te = Clock::now();
    const mac::EpochStats s = engine->run_epoch();
    out.epoch_s.push_back(seconds_since(te));
    out.heap_mb = std::max(out.heap_mb, live_heap_mb() - heap0);
    std::vector<int> served;
    fold_epoch(*engine, s, true, out, digest, &served);
    if (e == 2) out.digest_e2 = digest.h;

    if (traced) {
      obs::MetricsRegistry* prev = obs::set_metrics(nullptr);
      const std::vector<ServeReplay::Job> jobs = replay->jobs(served, s.epoch);
      for (const ServeReplay::Job& job : jobs) {
        for (const channel::LinkBudget& b : job.budgets) {
          if (out.sinr_lanes.size() < 4096) out.sinr_lanes.push_back(b.snr());
        }
      }
      // Sequential replay: the summed per-AP serve cost, with the kernel
      // and matching work of its closed-loop re-matches read back from a
      // scratch registry so the serve layer's self time excludes them.
      obs::MetricsRegistry scratch;
      (void)obs::set_metrics(&scratch);
      const auto ts = Clock::now();
      for (const ServeReplay::Job& job : jobs) {
        const mac::UploadSimResult r =
            mac::run_scheduled_upload(job.budgets, adapter, *job.schedule, job.run);
        if (r.offered != job.budgets.size()) {
          out.errors.push_back("serve replay lost frames");
        }
      }
      out.serve_replay_s += seconds_since(ts);
      (void)obs::set_metrics(nullptr);
      out.serve_replay_children_s +=
          hist_sum(scratch, "scheduler.pair_engine.kernel_wall_s") +
          matching_busy_s(scratch);
      // The same replay over a 4-thread pool, AP-parallel like the
      // engine's serve phase: the serve layer's parallel efficiency.
      const auto tp = Clock::now();
      serve_pool->parallel_for(
          static_cast<std::int64_t>(jobs.size()), 1,
          [&](std::int64_t b, std::int64_t end) {
            for (std::int64_t k = b; k < end; ++k) {
              const ServeReplay::Job& job = jobs[static_cast<std::size_t>(k)];
              (void)mac::run_scheduled_upload(job.budgets, adapter,
                                              *job.schedule, job.run);
            }
          });
      out.serve_replay_par_s += seconds_since(tp);
      (void)obs::set_metrics(prev);
    }
  }
  if (traced) {
    engine->set_auditor(nullptr);
    (void)obs::set_metrics(nullptr);
    (void)obs::set_timeseries(nullptr);
    (void)obs::set_flight(nullptr);
    out.audit_epochs = auditor.epochs_checked();
    out.audit_violations = auditor.violations().size();
    for (const auto& v : auditor.violations()) {
      out.errors.push_back("invariant (epoch " + std::to_string(v.epoch) +
                           "): " + v.what);
    }
  }
  out.digest = digest.h;
}

/// ns per lane of adapter.rate_span over \p lanes, repeated until at least
/// 50 ms of work was timed; median of five such timings.
double rate_span_ns_per_lane(const phy::RateAdapter& adapter,
                             const std::vector<double>& lanes) {
  if (lanes.empty()) return 0.0;
  std::vector<BitsPerSecond> out(lanes.size());
  double sink = 0.0;
  std::vector<double> per_lane;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t done = 0;
    const auto t0 = Clock::now();
    double el = 0.0;
    do {
      for (int k = 0; k < 64; ++k) {
        adapter.rate_span(lanes, out);
        sink += out[static_cast<std::size_t>(k) % out.size()].value();
      }
      done += 64 * lanes.size();
      el = seconds_since(t0);
    } while (el < 0.05);
    per_lane.push_back(1e9 * el / static_cast<double>(done));
  }
  if (sink < 0.0) std::printf("#\n");  // keeps the lookups observable
  return median(per_lane);
}

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
const phy::DiscreteRateAdapter kDot11g{phy::RateTable::dot11g()};

const phy::RateAdapter& deploy_adapter(const DeploySpec& spec) {
  if (spec.dot11g) return kDot11g;
  return kShannon;
}

/// End-to-end metrics of the untraced cycles. samples[c][r][i] is the
/// engine of cycle c, repeat r, instance i; each epoch (and set-up) counts
/// its fastest repeat.
void report_deploy_e2e(
    const DeploySpec& spec,
    const std::vector<std::vector<std::vector<DeploySample>>>& samples,
    Report& rep) {
  std::vector<double> setups;
  std::vector<double> epochs;
  std::vector<double> drains;
  std::vector<double> heaps;
  std::uint64_t offered = 0;
  std::uint64_t unrecovered = 0;
  for (const auto& cycle : samples) {
    for (std::size_t i = 0; i < cycle.front().size(); ++i) {
      double setup = cycle.front()[i].setup_s;
      std::vector<double> best = cycle.front()[i].epoch_s;
      for (const auto& repeat : cycle) {
        const DeploySample& s = repeat[i];
        setup = std::min(setup, s.setup_s);
        for (std::size_t e = 0; e < best.size(); ++e) {
          best[e] = std::min(best[e], s.epoch_s[e]);
        }
      }
      setups.push_back(setup);
      epochs.insert(epochs.end(), best.begin(), best.end());
      const DeploySample& s = cycle.front()[i];
      heaps.push_back(s.heap_mb);
      drains.insert(drains.end(), s.drain_s.begin(), s.drain_s.end());
      offered += s.offered;
      unrecovered += s.unrecovered;
    }
  }
  const Tail tail = tail_of(epochs);
  const double unrec_frac =
      static_cast<double>(unrecovered) / static_cast<double>(offered);
  std::printf("  %d clients x %d APs, threads %d, epochs 1..%d; "
              "epoch_tail_ms is p%.1f of %zu epochs; unrecovered_frac %.6f\n",
              spec.clients, spec.aps, spec.threads, spec.epochs,
              tail.percentile, epochs.size(), unrec_frac);
  rep.metric("setup_s", median(setups));
  rep.metric("epochs_per_s", static_cast<double>(epochs.size()) / total(epochs));
  rep.metric("epoch_p50_ms", 1e3 * median(epochs));
  rep.metric("epoch_tail_ms", 1e3 * tail.value);
  rep.metric("completed_frac", 1.0 - unrec_frac);
  // The median, not the mean: on pcmr_chaos the AP-epochs hit by an outage
  // or burst drain several times slower, so the mean (2.5x the median)
  // follows the seed's chaos draw rather than the schedules.
  rep.metric("drain_ms", 1e3 * median(drains));
  rep.metric("peak_heap_mb", median(heaps));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Layer metrics read from a registry the library published into: the
/// pair-cost kernel and matching counters and wall-time histograms.
void report_core_matching(const obs::MetricsRegistry& reg, double wall,
                          Report& rep) {
  obs::MetricsRegistry copy;  // a registry of our own for hist_sum
  copy.merge_from(reg);
  const double kernel = hist_sum(copy, "scheduler.pair_engine.kernel_wall_s");
  const double match = matching_busy_s(copy);
  const std::uint64_t evals = counter_of(reg, "scheduler.pair_engine.pair_evals");
  const std::uint64_t hits = counter_of(reg, "scheduler.pair_engine.cache_hits");
  std::uint64_t calls = 0;
  std::uint64_t verts = 0;
  double max_call = 0.0;
  for (const char* m : {"blossom", "approx", "greedy"}) {
    const std::string pre = std::string("matching.") + m;
    calls += counter_of(reg, pre + ".calls");
    verts += counter_of(reg, pre + ".vertices");
    max_call = std::max(max_call, copy.histogram(pre + ".wall_s").max());
  }
  rep.metric("core.kernel_busy_s", kernel);
  rep.metric("core.kernel_frac", ratio(kernel, wall));
  rep.metric("core.pair_evals", static_cast<double>(evals));
  rep.metric("core.builds", static_cast<double>(counter_of(
                                reg, "scheduler.pair_engine.builds")));
  rep.metric("core.cache_hit_frac",
             ratio(static_cast<double>(hits), static_cast<double>(evals + hits)));
  rep.metric("matching.busy_s", match);
  rep.metric("matching.frac", ratio(match, wall));
  rep.metric("matching.calls", static_cast<double>(calls));
  rep.metric("matching.mean_vertices",
             ratio(static_cast<double>(verts), static_cast<double>(calls)));
  rep.metric("matching.max_call_ms", 1e3 * max_call);
  rep.metric("matching.blossom.edge_visits",
             static_cast<double>(counter_of(reg, "matching.blossom.edge_visits")));
}

int run_deploy(const DeploySpec& spec, std::uint64_t seed, double seconds,
               bool trace) {
  Report rep{trace};
  std::vector<Instance> ins;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < (trace ? 1 : spec.instances); ++i) {
    seeds.push_back(instance_seed(seed, i));
    ins.push_back(make_instance(spec.clients, spec.aps, seeds.back()));
  }
  const phy::RateAdapter& adapter = deploy_adapter(spec);
  const std::uint64_t per_sample = static_cast<std::uint64_t>(spec.epochs) + 1;
  g_rotation.enabled = spec.threads == 1 && !trace;

  // Warm-up: discarded engines on instance 0 through epoch 2 for at least
  // kWarmupS. A process that starts on an idle machine runs its first
  // second up to 3x slower (clock ramp, heap growth).
  const auto tw = Clock::now();
  std::uint64_t warm_digest = 0;
  while (seconds_since(tw) < kWarmupS) {
    DeploySample warm;
    run_deploy_sample(spec, ins[0], adapter, seeds[0], spec.threads, false,
                      warm, 2);
    for (const std::string& err : warm.errors) rep.check(false, err);
    warm_digest = warm.digest;
  }

  if (!trace) {
    // Closed loop over cycles. A cycle runs spec.repeats passes over the run's
    // instances, a fresh engine each with the same fixed epoch range, so
    // every cycle is the same work. Another cycle starts only if it should
    // end within the time budget.
    std::vector<std::vector<std::vector<DeploySample>>> samples;
    const auto t0 = Clock::now();
    do {
      auto& cycle =
          samples.emplace_back(static_cast<std::size_t>(spec.repeats));
      for (auto& pass : cycle) {
        pass.resize(ins.size());
        for (std::size_t i = 0; i < ins.size(); ++i) {
          DeploySample& s = pass[i];
          run_deploy_sample(spec, ins[i], adapter, seeds[i], spec.threads,
                            false, s, spec.epochs);
          rep.attempted += per_sample;
          if (!s.errors.empty()) ++rep.failed;
          for (const std::string& err : s.errors) rep.check(false, err);
          rep.check(s.digest == samples.front().front()[i].digest,
                    "a repeat of an instance produced a different digest");
          rep.check(i != 0 || s.digest_e2 == warm_digest,
                    "the warm-up and measured engines diverged by epoch 2");
        }
      }
    } while (seconds_since(t0) * static_cast<double>(samples.size() + 1) /
                 static_cast<double>(samples.size()) <=
             seconds);
    std::printf("workload %s: %zu cycle(s) of %d x %d engines in %.1f s\n",
                spec.name, samples.size(), spec.repeats, spec.instances,
                seconds_since(t0));
    report_deploy_e2e(spec, samples, rep);
    return rep.emit();
  }

  // Traced: one untraced sample (the obs-overhead baseline), one traced
  // sample at the workload's thread count, and for a multi-threaded
  // workload a traced single-thread sample too — the digest check across
  // thread counts, and the run the layer shares come from (summed
  // histogram times are CPU time, which only equals wall time on one
  // thread).
  const bool multi = spec.threads > 1;
  DeploySample base;
  DeploySample traced;
  DeploySample single;
  run_deploy_sample(spec, ins[0], adapter, seeds[0], spec.threads, false,
                    base, spec.epochs);
  run_deploy_sample(spec, ins[0], adapter, seeds[0], spec.threads, true,
                    traced, spec.epochs);
  if (multi) {
    run_deploy_sample(spec, ins[0], adapter, seeds[0], 1, true, single,
                      spec.epochs);
  }
  const DeploySample& prof = multi ? single : traced;
  for (const DeploySample* s : {&base, &traced, &single}) {
    if (s == &single && !multi) continue;
    rep.attempted += per_sample;
    for (const std::string& err : s->errors) rep.check(false, err);
    if (!s->errors.empty()) ++rep.failed;
  }
  rep.check(traced.digest == base.digest,
            "attaching obs changed the engine's results");
  rep.check(!multi || single.digest == traced.digest,
            "threads=1 and threads=" + std::to_string(spec.threads) +
                " digests differ");
  rep.check(traced.audit_epochs == per_sample,
            "the auditor did not see every epoch");

  const double wall = total(prof.epoch_s);
  const obs::MetricsRegistry& reg = prof.reg;
  report_core_matching(reg, wall, rep);
  const double kernel = rep.values["core.kernel_busy_s"];
  const double match = rep.values["matching.busy_s"];
  const double serve_self =
      std::max(0.0, prof.serve_replay_s - prof.serve_replay_children_s);
  const double assoc = prof.assoc_busy_s;
  const double unattributed = 1.0 - (assoc + kernel + match + serve_self) / wall;
  const std::uint64_t tx = counter_of(reg, "mac.medium.transmissions");
  const std::uint64_t retx = counter_of(reg, "mac.upload.retransmissions");
  std::printf("workload %s traced, threads 1: %.3f s over epochs 1..%d\n"
              "  shares: assoc %.3f kernel %.3f matching %.3f serve %.3f "
              "unattributed %.3f\n",
              spec.name, wall, spec.epochs, assoc / wall, kernel / wall,
              match / wall, serve_self / wall, unattributed);

  rep.metric("phy.rate_span.ns_per_lane",
             rate_span_ns_per_lane(adapter, prof.sinr_lanes));
  rep.metric("serve.replay_busy_s", prof.serve_replay_s);
  rep.metric("serve.frac", serve_self / wall);
  rep.metric("serve.transmissions", static_cast<double>(tx));
  rep.metric("serve.retransmissions", static_cast<double>(retx));
  rep.metric("serve.rematch_rounds", static_cast<double>(counter_of(
                                         reg, "mac.upload.rematch_rounds")));
  rep.metric("serve.first_try_frac",
             1.0 - ratio(static_cast<double>(retx), static_cast<double>(tx)));
  rep.metric("serve.parallel_eff",
             ratio(prof.serve_replay_s, 4.0 * prof.serve_replay_par_s));
  rep.metric("serve.unrecovered_frac",
             ratio(static_cast<double>(prof.unrecovered),
                   static_cast<double>(prof.offered)));
  rep.metric("serve.ladder_steps", static_cast<double>(prof.ladder_steps));
  rep.metric("serve.quarantines", static_cast<double>(prof.quarantines));
  rep.metric("serve.watchdog_fires", static_cast<double>(prof.watchdog_fires));
  rep.metric("assoc.busy_s", assoc);
  rep.metric("assoc.frac", assoc / wall);
  rep.metric("assoc.candidates_per_client",
             ratio(static_cast<double>(prof.assoc_candidates),
                   static_cast<double>(prof.assoc_scored)));
  rep.metric("assoc.handoffs", static_cast<double>(prof.handoffs));
  rep.metric("assoc.handoff_frac",
             ratio(static_cast<double>(prof.handoffs),
                   static_cast<double>(prof.active_client_epochs)));
  rep.metric("engine.rematch_frac",
             ratio(static_cast<double>(prof.rematched_aps),
                   static_cast<double>(prof.served_ap_epochs)));
  rep.metric("engine.unattributed_frac", unattributed);
  rep.metric("engine.audit_violations",
             static_cast<double>(traced.audit_violations));
  rep.metric("obs.overhead_frac",
             1.0 - total(base.epoch_s) / total(traced.epoch_s));
  return rep.emit();
}

// ---------------------------------------------------------------------------
// paper_sweeps
// ---------------------------------------------------------------------------

constexpr const char* kSweepNames[] = {"two_link_gains", "two_to_one_techniques",
                                       "two_link_techniques",
                                       "upload_deployment_gains"};
constexpr int kSweepThreads = 4;
constexpr double kBits = 12000.0;
constexpr int kUploadClients = 8;
constexpr double kGainTol = 1e-9;
constexpr int kSweepPasses = 50;  ///< distinct sub-seeded passes per cycle

/// Trial counts of one pass, in kSweepNames order.
constexpr int kSweepTrials[] = {40000, 20000, 20000, 400};

struct SweepOut {
  std::vector<std::vector<double>> sic;    ///< per sweep: SIC gains
  std::vector<std::vector<double>> other;  ///< per sweep: other techniques
  std::vector<double> wall_s;              ///< per sweep
  std::uint64_t count = 0;

  bool operator==(const SweepOut& o) const {
    return sic == o.sic && other == o.other;
  }
};

/// One pass over the four figure sweeps at the base trial counts divided
/// by \p divisor. Trial counts are fixed, so every pass is the same work.
SweepOut sweep_pass(std::uint64_t seed, int threads, int divisor) {
  const topology::SamplerConfig config;
  SweepOut out;
  int k = 0;
  // Each sweep returns its SIC gains and, for the technique sweeps, the
  // gains of the other techniques.
  const auto timed = [&](auto&& fn) {
    const int trials = kSweepTrials[k++] / divisor;
    const auto t0 = Clock::now();
    auto [sic_gains, other] = fn(trials);
    out.wall_s.push_back(seconds_since(t0));
    out.count += sic_gains.size() + other.size();
    out.sic.push_back(std::move(sic_gains));
    out.other.push_back(std::move(other));
  };
  using Gains = std::pair<std::vector<double>, std::vector<double>>;
  const auto split = [](const analysis::TechniqueSamples& t) {
    Gains g{t.sic, {}};
    for (const auto* part : {&t.power_control, &t.multirate, &t.packing}) {
      g.second.insert(g.second.end(), part->begin(), part->end());
    }
    return g;
  };
  timed([&](int n) {
    return Gains{analysis::run_two_link_gains(config, kShannon, n, seed, kBits,
                                              threads),
                 {}};
  });
  timed([&](int n) {
    return split(analysis::run_two_to_one_techniques(config, kShannon, n, seed,
                                                     kBits, threads));
  });
  timed([&](int n) {
    return split(analysis::run_two_link_techniques(config, kShannon, n, seed,
                                                   kBits, threads));
  });
  timed([&](int n) {
    return Gains{analysis::run_upload_deployment_gains(
                     config, kShannon, n, kUploadClients, seed, kBits, threads),
                 {}};
  });
  return out;
}

/// Every gain is finite and at least 1 (never worse than serial); SIC
/// gains are also at most 2, the capacity bound. Both bounds allow kGainTol
/// for rounding: a whole-cell gain sums airtimes in a different order on
/// each side. Returns the number of samples that break these bounds.
std::uint64_t out_of_bounds(const SweepOut& s) {
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < s.sic.size(); ++k) {
    for (const double g : s.sic[k]) {
      if (!(std::isfinite(g) && g >= 1.0 - kGainTol && g <= 2.0 + kGainTol)) {
        if (bad++ == 0) {
          std::fprintf(stderr, "sicbench: %s SIC gain %.17g\n",
                       kSweepNames[k], g);
        }
      }
    }
    for (const double g : s.other[k]) {
      if (!(std::isfinite(g) && g >= 1.0 - kGainTol)) {
        if (bad++ == 0) {
          std::fprintf(stderr, "sicbench: %s technique gain %.17g\n",
                       kSweepNames[k], g);
        }
      }
    }
  }
  return bad;
}

/// Mean scheduled upload airtime per cell of the upload_deployment_gains
/// trials: each trial's serial airtime, recomputed from the same seeded
/// draw (Rng::at(seed, trial)), divided by the sweep's gain.
double cell_airtime_s(std::uint64_t seed, const std::vector<double>& gains) {
  const topology::SamplerConfig config;
  double sum = 0.0;
  for (std::size_t t = 0; t < gains.size(); ++t) {
    Rng rng = Rng::at(seed, t);
    const auto clients =
        topology::sample_upload_clients(rng, config, kUploadClients);
    sum += core::serial_upload_airtime(clients, kShannon, kBits) / gains[t];
  }
  return sum / static_cast<double>(gains.size());
}

int run_sweeps(std::uint64_t seed, double seconds, bool trace) {
  Report rep{trace};
  const auto tw = Clock::now();  // warm-up, as for the deploy workloads
  while (seconds_since(tw) < kWarmupS) (void)sweep_pass(seed + 1, kSweepThreads, 8);
  if (!trace) {
    // Set-up: the sweep set at 1/8 of the trials (thread pools, scratch
    // registries, lazily built tables), five times; median reported.
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      (void)sweep_pass(seed + 1, kSweepThreads, 8);
      setups.push_back(seconds_since(t0));
    }
    // Closed loop over cycles of kSweepPasses passes, each with its own
    // sub-seed and run kRepeats times; a pass counts its fastest run.
    std::vector<double> passes;
    std::vector<double> heaps;  ///< live heap a pass's results hold
    std::uint64_t samples = 0;
    std::uint64_t bad = 0;
    double gain_sum = 0.0;
    double airtime_sum = 0.0;
    std::size_t gain_n = 0;
    const auto t0 = Clock::now();
    int cycles = 0;
    do {
      std::vector<SweepOut> first(kSweepPasses);
      std::vector<double> best(kSweepPasses, 0.0);
      for (int r = 0; r < kRepeats; ++r) {
        for (int j = 0; j < kSweepPasses; ++j) {
          const std::size_t jj = static_cast<std::size_t>(j);
          const double heap0 = live_heap_mb();
          const auto tp = Clock::now();
          SweepOut out = sweep_pass(instance_seed(seed, j), kSweepThreads, 1);
          const double w = seconds_since(tp);
          if (r == 0) heaps.push_back(live_heap_mb() - heap0);
          ++rep.attempted;
          const std::uint64_t b = out_of_bounds(out);
          if (b > 0) ++rep.failed;
          if (r == 0) {
            best[jj] = w;
            bad += b;
            samples += out.count;
            first[jj] = std::move(out);
          } else {
            best[jj] = std::min(best[jj], w);
            rep.check(out == first[jj],
                      "a repeat pass produced different samples");
          }
        }
      }
      for (int j = 0; j < kSweepPasses; ++j) {
        const SweepOut& out = first[static_cast<std::size_t>(j)];
        gain_sum += total(out.sic[0]);
        gain_n += out.sic[0].size();
        airtime_sum += cell_airtime_s(instance_seed(seed, j), out.sic[3]);
      }
      passes.insert(passes.end(), best.begin(), best.end());
      ++cycles;
    } while (seconds_since(t0) * (cycles + 1) / cycles <= seconds);
    rep.check(bad == 0, "a sweep produced a gain out of bounds");
    const Tail tail = tail_of(passes);
    std::printf("workload paper_sweeps: %d cycle(s) of %d x %d passes at "
                "threads %d in %.1f s\n  epoch_tail_ms is p%.1f of %zu "
                "passes; sweep_samples_per_s %.1f; sic_gain_mean %.6f\n",
                cycles, kRepeats, kSweepPasses, kSweepThreads,
                seconds_since(t0), tail.percentile, passes.size(),
                static_cast<double>(samples) / total(passes),
                gain_sum / static_cast<double>(gain_n));
    rep.metric("setup_s", median(setups));
    rep.metric("epochs_per_s", static_cast<double>(passes.size()) / total(passes));
    rep.metric("epoch_p50_ms", 1e3 * median(passes));
    rep.metric("epoch_tail_ms", 1e3 * tail.value);
    rep.metric("completed_frac",
               1.0 - ratio(static_cast<double>(bad),
                           static_cast<double>(samples)));
    rep.metric("drain_ms",
               1e3 * airtime_sum / static_cast<double>(cycles * kSweepPasses));
    rep.metric("peak_heap_mb", median(heaps));
    return rep.emit();
  }

  // Traced: three passes each of untraced threads=4, untraced threads=1
  // and traced threads=1 (registry attached) on the first sub-seed;
  // per-sweep medians.
  (void)seconds;
  const std::uint64_t s0 = instance_seed(seed, 0);
  const auto per_sweep_median = [](const std::vector<SweepOut>& runs, int k) {
    std::vector<double> w;
    for (const SweepOut& r : runs) w.push_back(r.wall_s[static_cast<std::size_t>(k)]);
    return median(w);
  };
  std::vector<SweepOut> t4;
  std::vector<SweepOut> t1;
  std::vector<SweepOut> traced;
  obs::MetricsRegistry reg;
  for (int rep_i = 0; rep_i < 3; ++rep_i) {
    t4.push_back(sweep_pass(s0, kSweepThreads, 1));
    t1.push_back(sweep_pass(s0, 1, 1));
    obs::MetricsRegistry pass_reg;
    (void)obs::set_metrics(&pass_reg);
    traced.push_back(sweep_pass(s0, 1, 1));
    (void)obs::set_metrics(nullptr);
    if (rep_i == 0) reg.merge_from(pass_reg);
  }
  rep.attempted = 9;
  for (const auto* runs : {&t4, &t1, &traced}) {
    for (const SweepOut& r : *runs) {
      rep.check(r == t4.front(),
                "sweep samples differ across thread counts or obs attachment");
      rep.check(out_of_bounds(r) == 0, "a sweep produced a gain out of bounds");
    }
  }
  double wall1 = 0.0;
  double wall_traced = 0.0;
  double wall4 = 0.0;
  for (int k = 0; k < 4; ++k) {
    const double w4 = per_sweep_median(t4, k);
    const double w1 = per_sweep_median(t1, k);
    wall4 += w4;
    wall1 += w1;
    wall_traced += per_sweep_median(traced, k);
    const std::size_t kk = static_cast<std::size_t>(k);
    const double n = static_cast<double>(t4.front().sic[kk].size() +
                                         t4.front().other[kk].size());
    rep.metric(std::string("analysis.") + kSweepNames[k] + ".samples_per_s",
               n / w4);
    rep.metric(std::string("analysis.") + kSweepNames[k] + ".parallel_eff",
               ratio(w1, kSweepThreads * w4));
  }
  const std::vector<double>& fig6 = t4.front().sic[0];
  rep.metric("analysis.sic_gain_mean",
             total(fig6) / static_cast<double>(fig6.size()));
  rep.metric("analysis.sweep_samples_per_s",
             static_cast<double>(t4.front().count) / wall4);
  // Layer shares of one traced single-thread pass.
  const double pass_wall = total(traced.front().wall_s);
  report_core_matching(reg, pass_wall, rep);
  rep.metric("engine.unattributed_frac",
             1.0 - (rep.values["core.kernel_busy_s"] +
                    rep.values["matching.busy_s"]) / pass_wall);
  rep.metric("obs.overhead_frac", 1.0 - wall1 / wall_traced);
  // Rate lanes: clean SNRs of the sweep's own upload draws.
  std::vector<double> lanes;
  for (std::uint64_t t = 0; lanes.size() < 4096; ++t) {
    Rng rng = Rng::at(s0, t);
    for (const channel::LinkBudget& b : topology::sample_upload_clients(
             rng, topology::SamplerConfig{}, kUploadClients)) {
      lanes.push_back(b.snr());
    }
  }
  rep.metric("phy.rate_span.ns_per_lane", rate_span_ns_per_lane(kShannon, lanes));
  std::printf("workload paper_sweeps traced: pass %.3f s at threads 1, "
              "%.3f s at threads %d\n  shares (threads 1, traced): kernel "
              "%.3f matching %.3f\n",
              wall1, wall4, kSweepThreads,
              rep.values["core.kernel_frac"], rep.values["matching.frac"]);
  return rep.emit();
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "sicbench: %s\nusage: sicbench --workload "
               "dense_churn|pcmr_chaos|nearest_serve|paper_sweeps --seed N "
               "--seconds S --trace 0|1\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for a flag");
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage("unknown flag");
    }
  }
  if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage("bad --seconds or --trace");
  }
  if (workload == "paper_sweeps") return run_sweeps(seed, seconds, trace == 1);
  for (const DeploySpec& spec : kDeploySpecs) {
    if (workload == spec.name) {
      return run_deploy(spec, seed, seconds, trace == 1);
    }
  }
  return usage("unknown workload");
}

