#ifndef SICMAC_MAC_UPLOAD_SIM_HPP
#define SICMAC_MAC_UPLOAD_SIM_HPP

/// \file upload_sim.hpp
/// End-to-end upload experiments on one AP's cell:
///
///  - run_dcf_upload: backlogged clients contend with plain CSMA/CA on the
///    discrete-event simulator (mac/event_queue, mac/medium). With
///    `sic_at_ap` the AP's receiver recovers collided pairs (capture +
///    SIC), turning collisions from pure waste into deliveries.
///  - run_scheduled_upload: the AP executes a Section 6 SIC-aware schedule
///    (client pairing, optional power control) with no contention; every
///    planned concurrent pair must actually decode under the medium's
///    receiver model (mac::decode_verdict), which makes this an executable
///    proof of the scheduler's feasibility conditions. Nothing contends,
///    so each slot's timeline — its frames, their decode order and the
///    ACKs — is fixed by the plan, and the executor walks it directly
///    instead of through an event queue: same verdicts, counters, trace
///    spans and horizon cut as the medium would give.
///
/// The scheduled executor is *closed-loop*: it confirms every frame
/// against the AP's receive counters and, under the injected faults of
/// mac/fault_model.hpp (stale RSS, cancellation failures, ACK loss),
/// recovers via bounded per-slot retries, graceful mode degradation
/// (multirate -> SIC -> power control -> serial), demotion of
/// chronically-failing clients to solo slots, and periodic re-estimation +
/// re-matching of the residual backlog through core::schedule_upload.
/// With every fault knob at zero the recovery layer never engages and the
/// run is bit-identical to the open-loop executor it replaced.
///
/// Node ids: AP = 0, client k = k + 1.

#include <cstdint>
#include <span>
#include <vector>

#include "channel/link.hpp"
#include "core/scheduler.hpp"
#include "mac/fault_model.hpp"
#include "mac/medium.hpp"
#include "phy/rate_adapter.hpp"

namespace sic::mac {

/// Recovery policy of the closed-loop scheduled executor.
struct RecoveryConfig {
  /// Master switch. Off = open-loop baseline: failures become silent
  /// unrecovered drops, exactly the seed behavior under faults.
  bool enabled = true;
  /// Total transmissions allowed per frame before it is dropped as
  /// unrecovered (1 = the original attempt, no retries).
  int max_attempts_per_frame = 8;
  /// A client whose frame failed this many times is demoted: it is no
  /// longer offered for pairing at re-match time and drains solo.
  int demote_after_failures = 2;
  /// Extra attenuation shaved off a client's rate-selection SNR per prior
  /// failure — classic rate fallback, which guarantees convergence once
  /// the backoff overtakes the estimation error.
  static constexpr Decibels retry_backoff{3.0};
  /// Upper bound on re-estimation + re-matching rounds after the planned
  /// schedule; survivors past the last round are dropped as unrecovered.
  int max_rematch_rounds = 32;
  /// Scheduler options used when re-matching the residual backlog (packet
  /// size is taken from the UploadSimConfig; set admission_margin_db here
  /// to re-plan with headroom).
  core::SchedulerOptions rematch_options{};
};

struct UploadSimConfig {
  double packet_bits = 12000.0;
  int frames_per_client = 1;
  bool sic_at_ap = true;
  /// Fraction of the clean best feasible rate the stations actually use.
  /// 1.0 is the paper's ideal-rate assumption (collisions are then never
  /// SIC-decodable); lower values model the slack a practical bitrate
  /// adapter leaves, which SIC can harvest (Section 1's discussion).
  double rate_margin = 1.0;
  /// RTS/CTS before every data frame — the classical (pre-SIC) answer to
  /// hidden terminals, for head-to-head comparison with the SIC AP.
  bool use_rts_cts = false;
  /// Section 9 receiver imperfections, applied to the AP's SIC decoder.
  double cancellation_residual = 0.0;
  Decibels max_decodable_disparity{1e9};
  /// Mutual client-to-client RSS, as dB over the noise floor. Above the
  /// carrier-sense threshold = no hidden terminals (the default); below =
  /// everyone is hidden from everyone. DCF only, like rate_margin,
  /// frames_per_client and use_rts_cts: a scheduled slot has no contention.
  Decibels client_mutual_snr{25.0};
  /// Injected faults (scheduled executor only). All-zero = inert.
  FaultConfig faults;
  /// Closed-loop recovery policy (scheduled executor only).
  RecoveryConfig recovery;
  std::uint64_t seed = 1;
  /// Simulation time budget: no event at or after it runs.
  SimTime horizon = from_seconds(300.0);
};

/// Per-cause failure accounting of one scheduled-upload run. "Frame"
/// here means a client's backlogged packet; "attempt" one transmission of
/// it (so attempts - confirmations = failures of all causes).
struct FailureTelemetry {
  /// Decode failures with no injected cause: the planned rate missed the
  /// realized SINR (stale estimate, insufficient margin).
  std::uint64_t rate_misses = 0;
  /// Decode failures injected by the fault model's cancellation path.
  std::uint64_t cancellation_failures = 0;
  /// Frames the AP decoded whose ACK was lost — the sender retries and the
  /// AP sees a duplicate.
  std::uint64_t ack_losses = 0;
  /// Re-receptions of an already-delivered frame (from the AP's counters).
  std::uint64_t duplicate_deliveries = 0;
  /// Transmissions beyond each frame's first attempt.
  std::uint64_t retransmissions = 0;
  /// Retry slots that stepped down the degradation ladder
  /// (multirate -> SIC -> power control -> serial/solo).
  std::uint64_t mode_demotions = 0;
  /// Clients barred from pairing after demote_after_failures failures.
  std::uint64_t client_demotions = 0;
  /// Re-estimation + re-matching passes over the residual backlog.
  std::uint64_t rematch_rounds = 0;
  /// Frames confirmed after at least one failure.
  std::uint64_t recovered = 0;
  /// Frames abandoned (attempt/round budget exhausted or horizon hit).
  std::uint64_t unrecovered = 0;
  /// Terminal cause of each abandoned frame — what its *last* failed
  /// confirmation died of when the executor gave up. The per-attempt
  /// counters above mix recovered and fatal failures; these four split
  /// `unrecovered` by cause (they always sum to it), so "gave up because
  /// of X" is visible in metrics snapshots.
  std::uint64_t gave_up_rate_miss = 0;
  std::uint64_t gave_up_cancellation = 0;
  std::uint64_t gave_up_ack_loss = 0;
  /// Abandoned with no failed confirmation observed: the horizon cut the
  /// run before the frame's first check came back.
  std::uint64_t gave_up_unattempted = 0;
  /// retry_histogram[k] = frames confirmed after exactly k retries; the
  /// last bucket absorbs the tail.
  std::vector<std::uint64_t> retry_histogram;
};

struct UploadSimResult {
  double completion_s = 0.0;     ///< last ACKed delivery (or horizon)
  std::uint64_t offered = 0;     ///< frames enqueued
  /// Data frames decoded at the AP. This counts MAC-layer receptions: when
  /// an ACK defers past a station's retry timeout (e.g. the SIC AP holding
  /// its ACK while still receiving the weaker frame), the retransmission
  /// is received again, so delivered can exceed offered — exactly the
  /// ACK-vs-latency tension [4] reports for real SIC receivers.
  std::uint64_t delivered = 0;
  std::uint64_t retries = 0;
  std::uint64_t drops = 0;
  MediumStats medium;
  /// Failure/recovery accounting (scheduled executor; empty for DCF runs).
  FailureTelemetry failures;
  /// Abandoned frames per client, indexed like the clients span (scheduled
  /// executor only; empty for DCF runs). Sums to failures.unrecovered —
  /// the per-client attribution a fleet-level quarantine policy needs.
  std::vector<std::uint64_t> unrecovered_per_client;
};

[[nodiscard]] UploadSimResult run_dcf_upload(
    std::span<const channel::LinkBudget> clients,
    const phy::RateAdapter& adapter, const UploadSimConfig& config);

/// Executes \p schedule (produced by core::schedule_upload on the same
/// clients/adapter/options) slot by slot. Multirate slots run as 802.11-
/// style fragment bursts: the stronger packet's overlap fragment rides the
/// collision at the interference-limited rate (no ACK), and its remainder
/// is boosted to the clean rate after the weaker packet's ACK turnaround.
/// \p clients are the *true* nominal channels; under config.faults the
/// executor's knowledge of them is degraded as described above.
[[nodiscard]] UploadSimResult run_scheduled_upload(
    std::span<const channel::LinkBudget> clients,
    const phy::RateAdapter& adapter, const core::Schedule& schedule,
    const UploadSimConfig& config);

}  // namespace sic::mac

#endif  // SICMAC_MAC_UPLOAD_SIM_HPP
