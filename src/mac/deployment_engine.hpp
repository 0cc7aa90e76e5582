#ifndef SICMAC_MAC_DEPLOYMENT_ENGINE_HPP
#define SICMAC_MAC_DEPLOYMENT_ENGINE_HPP

/// \file deployment_engine.hpp
/// Persistent multi-AP serving engine — the ROADMAP's "city-scale" layer
/// over the single-cell closed loop. The engine shards clients across APs
/// (nearest-AP by received power, load-aware handoff with dB hysteresis so
/// clients don't flap), advances one *epoch* at a time, and within each
/// epoch re-plans a serving AP's schedule from scratch with
/// core::schedule_upload only when something dirtied the AP (membership
/// change, outage/restart, ladder step, watchdog), then executes the
/// schedule on the discrete-event simulator via run_scheduled_upload.
///
/// Chaos (mac/chaos.hpp) feeds the epoch stream: timed or stochastic AP
/// crashes/restarts, correlated interference bursts, client churn and
/// churn storms, on top of the per-run faults of mac/fault_model. The
/// recovery side is layered:
///
///  - the *inner* closed loop (PR 1) retries/re-matches within the epoch;
///  - a per-AP degradation ladder steps the planning options down
///    (multirate → SIC → power control → serial) while the AP's epoch
///    confirmation rate is unhealthy, and back up after a healthy streak;
///  - persistently failing clients are quarantined with exponential-
///    backoff re-admission, so hopeless links stop burning airtime;
///  - an epoch watchdog detects a stuck AP (offered frames but zero
///    confirmations for K straight epochs) and forces re-estimation plus
///    a full re-match.
///
/// Estimates are refreshed only when an AP re-matches, so channel drift
/// accumulates against the plan on quiet APs — the health feedback above
/// is what closes that loop at deployment scale.
///
/// Determinism: every stochastic stream is counter-based (util/rng.hpp
/// Rng::at). Engine-level draws (drift steps, chaos resolution, arrival
/// placement) come in that order from one per-epoch substream; each
/// AP-epoch's inner run gets its own substream (epoch_seed). The drift
/// steps of epoch e + 1 are drawn by one extra task of epoch e's serve
/// phase, and the stream continues from there into e + 1's chaos and
/// arrival draws on the calling thread; those draws are a cache keyed by
/// the epoch and the population version (add_client, remove_client), made
/// in place on a miss, so they cannot move a result. The two parallel
/// phases are both order-invariant: the association score phase writes
/// index-addressed proposals against a start-of-epoch snapshot
/// (mac/association.hpp) and the serve phase only ever runs whole APs,
/// with per-AP scratch metric registries merged in AP order — so results
/// and obs counter maps are bit-identical for any thread count. With one AP
/// and no chaos, an epoch is bit-identical to planning with
/// core::schedule_upload and executing with run_scheduled_upload directly
/// (pinned in tests/deployment_engine_test.cpp).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "channel/pathloss.hpp"
#include "core/scheduler.hpp"
#include "mac/association.hpp"
#include "mac/chaos.hpp"
#include "mac/upload_sim.hpp"
#include "topology/geometry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sic::mac {

/// Deployment-level conservation laws, checked once per epoch when an
/// InvariantAuditor is attached. The engine builds this snapshot only
/// when audited (zero-cost-when-detached, like sic::obs).
struct EpochInvariants {
  int epoch = 0;
  std::uint64_t offered = 0;      ///< frames handed to serving APs
  std::uint64_t confirmed = 0;    ///< frames the inner loop confirmed
  std::uint64_t unrecovered = 0;  ///< frames the inner loop abandoned
  std::uint64_t deferred = 0;     ///< active clients with no live AP
  std::vector<std::uint8_t> ap_alive;     ///< per AP
  std::vector<std::uint8_t> active;       ///< per client
  std::vector<std::uint8_t> quarantined;  ///< per client
  std::vector<int> assignment;  ///< per client: serving AP id or -1
  std::vector<int> served_by;   ///< per client: AP that ran its slot, or -1
};

/// Collects invariant violations instead of throwing, so a single audit
/// pass over a chaotic run reports every broken law with its epoch.
class InvariantAuditor {
 public:
  struct Violation {
    int epoch = 0;
    std::string what;
  };

  /// Audits one epoch snapshot:
  ///  - conservation: confirmed + unrecovered == offered, and every
  ///    active client is exactly one of served / deferred / quarantined;
  ///  - liveness: no client assigned to or served by a dead AP;
  ///  - quarantine: the quarantine set is disjoint from assignments and
  ///    from the clients any matching served.
  void check(const EpochInvariants& snapshot);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t epochs_checked() const {
    return epochs_checked_;
  }

 private:
  std::vector<Violation> violations_;
  std::uint64_t epochs_checked_ = 0;
};

struct DeploymentEngineConfig {
  /// Per-AP planning options at ladder level 0 (packet_bits is taken from
  /// upload.packet_bits). Ladder level 1 clears enable_multirate, level 2
  /// additionally clears enable_power_control, level 3 plans serial solo
  /// slots without matching.
  core::SchedulerOptions scheduler{};
  /// Template for every inner AP-epoch run. The engine owns seed,
  /// faults.initial_drift (must be empty here), recovery.enabled and
  /// recovery.rematch_options; everything else passes through. horizon is
  /// the per-epoch time budget.
  UploadSimConfig upload{};
  /// Master switch: false = open-loop deployment (inner recovery off, no
  /// ladder, no watchdog, no quarantine) — the ablation baseline.
  bool closed_loop = true;

  // Radio geometry: log-distance path loss from client positions.
  static constexpr double pathloss_exponent = 3.0;
  static constexpr Dbm client_tx_power{15.0};
  static constexpr Dbm noise_floor{-94.0};

  /// Epoch-scale AR(1) channel drift per client (slow shadowing across
  /// epochs, distinct from upload.faults.stale_rss_sigma which drifts
  /// *within* a run). 0 dB disables the stream entirely.
  Decibels epoch_drift_sigma{0.0};
  static constexpr double epoch_drift_rho = 0.9;

  // Association / handoff.
  /// A candidate must beat the incumbent by this much.
  static constexpr Decibels handoff_hysteresis{4.0};
  Decibels load_penalty_per_client{0.5};  ///< effective dB per member
  /// Candidate enumeration for the association pass: kGrid walks the
  /// spatial AP index with an exact cutoff (the large-deployment fast
  /// path), kBruteForce scans every AP — decision-identical, kept as the
  /// reference (pinned in tests/association_test.cpp).
  AssociationMode association_mode = AssociationMode::kGrid;

  // Quarantine ladder (closed loop only).
  bool enable_quarantine = true;
  int quarantine_after = 3;  ///< consecutive failed epochs before exile
  int quarantine_base_epochs = 2;  ///< backoff: base · 2^(times - 1)

  // Per-AP degradation ladder + watchdog (closed loop only).
  /// Epoch confirmation rate below which an AP steps down the ladder.
  static constexpr double unhealthy_below = 0.90;
  int ladder_recover_epochs = 3;  ///< healthy streak to step back up
  int watchdog_epochs = 3;  ///< all-fail epochs before forcing re-match

  /// New arrivals are placed uniformly in a disc of this radius around a
  /// uniformly drawn AP site.
  double arrival_radius_m = 40.0;

  int threads = 1;  ///< 0 = all hardware threads; results identical
  std::uint64_t seed = 1;

  /// Throws CheckError naming the field when quarantine_after,
  /// quarantine_base_epochs, ladder_recover_epochs or watchdog_epochs is
  /// below 1, epoch_drift_sigma or arrival_radius_m is negative or not
  /// finite, or upload.horizon is not positive.
  void validate() const;
};

/// What one epoch did, for recovery-time curves and the auditor.
struct EpochStats {
  int epoch = 0;
  std::uint64_t offered = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t unrecovered = 0;
  std::uint64_t deferred = 0;
  std::uint64_t decisions = 0;  ///< scheduled slots planned this epoch
  int live_aps = 0;
  int active_clients = 0;
  int quarantined_clients = 0;
  int handoffs = 0;
  int rematched_aps = 0;
  int outages_started = 0;
  int bursts_started = 0;
  int arrivals = 0;
  int departures = 0;
  int quarantines = 0;
  int readmissions = 0;
  int ladder_steps = 0;
  int watchdog_fires = 0;
  /// Mean per-AP health over the APs that served this epoch (1.0 when no
  /// AP served). Health folds an AP's confirmation rate, retry pressure,
  /// quarantine occupancy, and handoff flux into one [0,1] figure:
  ///   health = conf · 1/(1+retries/offered) · (1−quarantined/population)
  ///                 · 1/(1+handoffs/members)
  /// Each factor is 1.0 when the cell is calm, so a healthy AP scores
  /// ~1.0 and every kind of distress pulls the score down smoothly.
  double mean_health = 1.0;

  [[nodiscard]] double confirmation_rate() const {
    return offered == 0 ? 1.0
                        : static_cast<double>(confirmed) /
                              static_cast<double>(offered);
  }
};

/// Lifetime health aggregate of one AP, for `sicmac deploy
/// --health-summary`. Epochs where the AP did not serve (dead, or no
/// members) do not contribute.
struct ApHealthSummary {
  int ap = 0;
  std::uint64_t epochs_served = 0;
  double mean_health = 1.0;
  double min_health = 1.0;
  double mean_confirmation = 1.0;
};

struct DeploymentResult {
  std::vector<EpochStats> epochs;
  std::uint64_t offered = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t unrecovered = 0;
  std::uint64_t deferred = 0;
  std::uint64_t decisions = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t watchdog_fires = 0;

  [[nodiscard]] double confirmation_rate() const {
    return offered == 0 ? 1.0
                        : static_cast<double>(confirmed) /
                              static_cast<double>(offered);
  }
};

class DeploymentEngine {
 public:
  /// \p adapter must outlive the engine. Throws FaultConfigError on a
  /// malformed upload fault config or chaos profile, and CheckError on
  /// malformed engine settings (DeploymentEngineConfig::validate) or
  /// scheduler options (SchedulerOptions::validate, with packet_bits
  /// taken from upload.packet_bits).
  DeploymentEngine(std::vector<topology::Point> ap_sites,
                   const phy::RateAdapter& adapter,
                   const DeploymentEngineConfig& config,
                   FaultSchedule chaos = {});
  ~DeploymentEngine();

  DeploymentEngine(const DeploymentEngine&) = delete;
  DeploymentEngine& operator=(const DeploymentEngine&) = delete;

  /// Registers a client at \p position; ids are dense and stable. The
  /// client associates at the next epoch's handoff pass.
  int add_client(topology::Point position);
  /// Deactivates a client between epochs (departure); its AP re-matches.
  /// Both edits change the population version, so the next epoch draws
  /// its drift in place rather than using the draws made ahead of it.
  void remove_client(int client);

  /// Attach (or detach with nullptr) the epoch invariant auditor. When
  /// detached the engine never builds the snapshot.
  void set_auditor(InvariantAuditor* auditor) { auditor_ = auditor; }

  EpochStats run_epoch();
  DeploymentResult run_epochs(int n);

  [[nodiscard]] int n_aps() const;
  [[nodiscard]] int epoch() const { return epoch_; }
  [[nodiscard]] bool ap_alive(int ap) const;
  [[nodiscard]] int ladder_level(int ap) const;
  [[nodiscard]] int active_clients() const;
  [[nodiscard]] bool client_active(int client) const;
  [[nodiscard]] bool quarantined(int client) const;
  /// Serving AP of \p client, or -1 when unassigned/quarantined/inactive.
  [[nodiscard]] int assignment(int client) const;
  /// Member list of \p ap — always sorted ascending by client id (the
  /// sorted-membership regression test pins this after churn).
  [[nodiscard]] const std::vector<int>& ap_members(int ap) const;
  /// Cumulative result over every epoch run so far.
  [[nodiscard]] const DeploymentResult& result() const { return result_; }
  /// Inner-run result of \p ap 's most recent served epoch (for the
  /// old-vs-new bit-identity pin).
  [[nodiscard]] const UploadSimResult& last_ap_result(int ap) const;
  /// Lifetime per-AP health aggregates, AP-id order (one entry per AP,
  /// including APs that never served).
  [[nodiscard]] std::vector<ApHealthSummary> health_summary() const;
  /// Nominal (drift-free) link budget of \p client toward \p ap.
  [[nodiscard]] channel::LinkBudget nominal_budget(int client, int ap) const;

  /// Seed of the inner simulator run of (\p ap, \p epoch) under engine
  /// seed \p seed — exposed so tests can drive run_scheduled_upload with
  /// exactly the seed the engine uses.
  [[nodiscard]] static std::uint64_t epoch_seed(std::uint64_t seed, int ap,
                                                int epoch);

 private:
  struct ApState;
  struct ClientState;

  /// Drift innovations for epoch `epoch`, one per client active at
  /// population version `population`, in client-id order, and the epoch
  /// stream positioned after them.
  struct DriftCarry {
    int epoch = -1;  ///< -1: nothing carried
    std::uint64_t population = 0;
    std::vector<double> draws;
    Rng rng{0};
  };

  [[nodiscard]] Rng epoch_rng(int epoch) const;
  [[nodiscard]] core::SchedulerOptions ladder_options(int level) const;
  void apply_chaos(const EpochChaos& chaos, EpochStats& stats);
  /// Two-phase association pass: a parallel score phase over the
  /// AssociationPlanner (SoA inputs, snapshot AP state, bit-identical at
  /// any thread count) and a sequential commit phase in client-id order.
  /// \p handoff_flux (size n_aps) accumulates per-AP association churn
  /// this epoch: +1 on each AP a handoff touches, +1 on the AP gaining a
  /// previously unassigned client — the flux input of the health score.
  void associate_clients(EpochStats& stats, std::vector<int>& handoff_flux);
  void score_health(const std::vector<int>& serving,
                    const std::vector<int>& handoff_flux, EpochStats& stats);
  /// Plans (when dirty) and runs one AP-epoch, then updates each member's
  /// fail streak and, when audited, its \p served_by slot (empty when
  /// not). Members of serving APs are disjoint, so APs may run
  /// concurrently.
  void serve_ap(ApState& ap, std::span<int> served_by);
  void audit_epoch(const EpochStats& stats,
                   const std::vector<int>& served_by) const;
  /// Clears \p c 's exile attribution, uncounting it from its AP.
  void release_exile(ClientState& c);

  const phy::RateAdapter* adapter_;
  DeploymentEngineConfig config_;
  FaultSchedule chaos_;
  channel::LogDistancePathLoss pathloss_;
  Milliwatts noise_mw_{0.0};
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<AssociationPlanner> assoc_planner_;
  std::vector<ApState> aps_;
  std::vector<ClientState> clients_;
  /// SoA mirror of client positions for the batched association phase —
  /// positions are immutable after add_client, so the mirror is
  /// append-only; the per-epoch flags below are rebuilt in one O(clients)
  /// pass each epoch and reused as scratch to avoid reallocation.
  std::vector<double> client_x_;
  std::vector<double> client_y_;
  std::vector<std::uint8_t> assoc_eligible_;
  std::vector<int> assoc_incumbent_;
  std::vector<std::uint8_t> ap_alive_scratch_;
  std::vector<int> ap_members_scratch_;
  /// Last epoch's proposals and the AP snapshot behind them: the score
  /// phase re-scores only clients whose inputs moved
  /// (AssociationPlanner::replan).
  ProposalCarry assoc_carry_;
  /// Bumped by every add_client and every remove_client that deactivates.
  std::uint64_t population_version_ = 0;
  /// Next epoch's drift draws, made during this epoch's serve phase.
  DriftCarry drift_carry_;
  InvariantAuditor* auditor_ = nullptr;
  int epoch_ = 0;
  int storm_until_ = 0;  ///< churn multiplier active while epoch_ < this
  DeploymentResult result_;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_DEPLOYMENT_ENGINE_HPP
