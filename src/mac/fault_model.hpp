#ifndef SICMAC_MAC_FAULT_MODEL_HPP
#define SICMAC_MAC_FAULT_MODEL_HPP

/// \file fault_model.hpp
/// Fault injection for the scheduled-upload pipeline. The Section 6
/// scheduler plans on a frozen, perfect channel snapshot; this model
/// supplies the three ways reality disagrees with the plan:
///
///  1. Stale / noisy RSS estimates — the channel drifts between the
///     measurement the schedule was computed from and the packet flight,
///     modeled as a per-client AR(1) shadowing track in dB
///     (channel/fading), exactly the seen-vs-now split the
///     ablation_stale_rates bench measures open-loop.
///  2. Probabilistic cancellation failures — an otherwise-successful SIC
///     (weaker-after-cancellation) decode is force-failed with some
///     probability, standing in for burst channel-estimation error on the
///     reconstruction path (the Section 9 caveat as a transient rather
///     than a steady residual).
///  3. ACK loss — a delivered frame's ACK never reaches the station, so
///     the sender retransmits a frame the AP already has (the duplicate
///     path the ACK-deferral note in upload_sim.hpp describes).
///
/// All knobs default to zero, which makes the model inert: no RNG draws
/// are taken and scheduled uploads behave bit-identically to a fault-free
/// run.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "channel/fading.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace sic::mac {

/// Thrown when a FaultConfig carries NaNs, negative rates, or
/// out-of-range probabilities — the malformed-config classes that would
/// otherwise silently produce garbage trajectories (a NaN sigma passes a
/// `>= 0` check and poisons every AR(1) draw after it).
class FaultConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Knobs for the injected faults. Defaults are the paper's ideal world.
struct FaultConfig {
  /// Stationary std-dev of each client's AR(1) channel drift between the
  /// RSS measurement and the packet flight. 0 dB disables channel faults.
  Decibels stale_rss_sigma{0.0};
  /// AR(1) correlation between consecutive estimation epochs. 1 freezes
  /// the drift at its initial draw; 0 makes every epoch independent.
  double stale_rss_rho = 0.9;
  /// Probability an otherwise-successful SIC (weaker) decode is lost to a
  /// cancellation failure.
  double cancellation_failure_prob = 0.0;
  /// Probability the ACK of a delivered data frame is lost on the way
  /// back, triggering a spurious retransmission.
  double ack_loss_prob = 0.0;
  /// Per-client deviation (dB) of the true channel from the nominal RSS
  /// the schedule was planned on, fixed at run start — how a caller that
  /// owns longer-lived estimates (the deployment engine's epoch-scale
  /// drift and interference bursts) expresses "the plan is stale" to one
  /// scheduled-upload run. Empty = no offsets; otherwise one finite entry
  /// per client. Re-estimation inside the run measures through the offset
  /// like any other channel fault, so the closed loop recovers from it.
  std::vector<Decibels> initial_drift;

  [[nodiscard]] bool channel_faults() const {
    if (stale_rss_sigma > Decibels{0.0}) return true;
    for (const Decibels d : initial_drift) {
      if (d != Decibels{0.0}) return true;
    }
    return false;
  }
  [[nodiscard]] bool any() const {
    return channel_faults() || cancellation_failure_prob > 0.0 ||
           ack_loss_prob > 0.0;
  }

  /// Throws FaultConfigError on NaN sigma/rho/probabilities, negative
  /// sigma, probabilities outside [0,1], or non-finite drift entries.
  /// \p n_clients pins the expected initial_drift size when >= 0 (pass -1
  /// to validate a config with no client context yet).
  void validate(int n_clients = -1) const;
};

/// Seeded source of the injected faults, plus the book-keeping the
/// recovery layer needs to attribute failures to causes.
class FaultModel {
 public:
  /// Validates \p config (FaultConfigError on malformed knobs) and seeds
  /// the per-client AR(1) tracks when channel faults are enabled. The
  /// model reads \p config in place, so it must outlive the model. The
  /// Rng(seed) stream is seeded at the first draw: an inert config never
  /// pays for it.
  FaultModel(const FaultConfig& config, int n_clients, std::uint64_t seed);

  [[nodiscard]] const FaultConfig& config() const { return config_; }

  /// Current deviation (dB) of \p client's channel from the nominal RSS
  /// the schedule was planned on. Zero when channel faults are disabled.
  [[nodiscard]] Decibels drift(int client) const;

  /// Nominal RSS perturbed by the client's current drift.
  [[nodiscard]] Milliwatts true_rss(Milliwatts nominal, int client) const;

  /// Advances every client's channel one coherence interval — called at
  /// each re-estimation epoch, so a fresh measurement is again one AR(1)
  /// step stale by the time the re-matched slots fly.
  void advance_epoch();

  /// Rolls a cancellation failure for data frame \p frame_id, which the
  /// AP just decoded through cancellation (the weaker signal of a
  /// collision, the only path vulnerable to it). Injected frame ids are
  /// recorded for cause attribution until clear_injections().
  [[nodiscard]] bool cancellation_fails(std::uint64_t frame_id);

  /// Whether \p frame_id 's failure this slot was injected by the model
  /// (as opposed to a genuine rate miss).
  [[nodiscard]] bool was_injected(std::uint64_t frame_id) const;

  /// Forgets the per-slot injection record.
  void clear_injections() { injected_.clear(); }

  /// Rolls ACK loss for one delivered frame.
  [[nodiscard]] bool ack_lost();

 private:
  /// Rng(seed_), seeded on first use.
  Rng& rng() {
    if (!rng_) rng_.emplace(seed_);
    return *rng_;
  }

  const FaultConfig& config_;
  std::uint64_t seed_;
  std::optional<Rng> rng_;
  std::vector<channel::Ar1ShadowingTrack> tracks_;
  /// Frame ids injected since the last clear — at most a slot's frames.
  std::vector<std::uint64_t> injected_;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_FAULT_MODEL_HPP
