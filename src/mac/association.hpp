#ifndef SICMAC_MAC_ASSOCIATION_HPP
#define SICMAC_MAC_ASSOCIATION_HPP

/// \file association.hpp
/// Batched client→AP association scoring — the compute half of the
/// deployment engine's association/handoff pass, split out so it can be
/// driven at 100k–1M clients by bench/perf_deployment without dragging an
/// engine along.
///
/// The pass is two-phase (see DESIGN.md "Large-deployment fast path"):
///
///  1. *Score* (this file, parallel): for every eligible client, find the
///     best-scoring live AP against a start-of-epoch snapshot of alive
///     flags and member counts. Clients are mapped over the ThreadPool in
///     index chunks and every result is index-addressed, so the proposals
///     are bit-identical at any thread count. Association scoring draws
///     no randomness — determinism needs no substreams here, only
///     order-independent writes.
///  2. *Commit* (the engine, sequential): walk clients in id order,
///     apply hysteresis against the incumbent score computed in phase 1
///     (once per client per epoch, never re-derived), and edit member
///     lists.
///
/// Proposals carry across epochs (replan): a client's proposal is a pure
/// function of its position, its eligibility, its incumbent AP, every AP's
/// liveness and, only when load_penalty_per_client > 0, every AP's
/// snapshot member count. At a zero penalty a member count enters a score
/// as 0 · members = 0 dB and the grid cutoff's load bound as 0 dB, so it
/// changes no bit. replan re-scores an eligible client only when its
/// proposal is missing (appended, or ineligible last call) or was scored
/// for another incumbent, and every client when the AP snapshot it
/// depends on moved; every other client keeps last call's proposal. Reuse
/// is exact, not approximate: a re-score would evaluate the same
/// floating-point expressions on the same inputs. With a load penalty,
/// member counts move every epoch while load-aware association herds
/// (ROADMAP), so such workloads still re-score every client each epoch;
/// a margin rule that keeps proposals whose winner a count change cannot
/// flip waits for the herding fix. Positions are append-only in the
/// engine: a caller that moves a client resets its proposal to
/// AssociationProposal{}.
///
/// Two candidate enumerations produce byte-identical proposals:
///
///  - kGrid consults the uniform-grid AP index ring by ring and stops as
///    soon as no unvisited AP can win: any AP in an unvisited ring is at
///    least ring_lower_bound_m away (so its RSS is at most the RSS at
///    that distance) and carries at least the fleet-minimum member count
///    (so its load penalty is at least the minimum penalty). When that
///    upper bound — minus a 1e-6 dB guard absorbing floating-point slack
///    in the bound itself, scores are never perturbed — falls below the
///    best score already found, no farther AP can matter. This is an
///    exact branch-and-bound, not a fixed-k heuristic: it is pinned
///    decision-identical to the brute-force scan by property test.
///  - kBruteForce scans every AP in id order — the O(clients × APs)
///    reference the fast path is measured and verified against.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "channel/pathloss.hpp"
#include "topology/spatial_index.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace sic::mac {

/// Candidate enumeration strategy for the association score phase.
enum class AssociationMode {
  kGrid,        ///< spatial-index ring walk with exact cutoff (default)
  kBruteForce,  ///< scan every AP — the reference path
};

/// Phase-1 output for one client, index-addressed by client id.
struct AssociationProposal {
  /// scored_for of a slot no score filled: ineligible or never scored.
  static constexpr int kUnscored = std::numeric_limits<int>::min();

  int best_ap = -1;  ///< best-scoring live AP, -1 when none is live
  /// Incumbent AP id the proposal was scored for (kUnscored when the slot
  /// holds no score); replan re-scores a client whose incumbent moved.
  int scored_for = kUnscored;
  Dbm best_score{-std::numeric_limits<double>::infinity()};
  /// Incumbent AP's score under the same snapshot (-inf when
  /// unassigned); the commit phase's hysteresis check reuses this instead
  /// of re-deriving it.
  Dbm incumbent_score{-std::numeric_limits<double>::infinity()};
  /// APs actually scored (telemetry: the fast path's whole point is that
  /// this stays near the handful of nearby cells, not n_aps).
  std::uint32_t candidates = 0;
};
// scored_for fills what was padding: the engine keeps one proposal per
// client across epochs, so the carry-over costs no memory per client.
static_assert(sizeof(AssociationProposal) == 32);

/// Proposals carried from one AssociationPlanner::replan call to the next,
/// with the AP snapshot they were scored against. Start empty; one carry
/// belongs to one planner and one AssociationMode (the modes agree on
/// decisions but not on `candidates`).
struct ProposalCarry {
  std::vector<AssociationProposal> proposals;  ///< by client id
  std::vector<std::uint8_t> ap_alive;
  std::vector<int> ap_members;
};

/// Scores every client against a per-epoch AP snapshot. Construction
/// builds the spatial index once — AP sites are fixed for the planner's
/// lifetime, liveness and load are per-plan inputs.
class AssociationPlanner {
 public:
  /// \p pathloss must outlive the planner. \p load_penalty_per_client
  /// must be non-negative (the grid cutoff's load bound relies on it).
  AssociationPlanner(std::span<const topology::Point> ap_sites,
                     const channel::LogDistancePathLoss& pathloss,
                     Dbm client_tx_power, Decibels load_penalty_per_client);

  /// Association tracks slow-scale beacon RSS: geometry plus a load
  /// penalty. Per-client drift shifts every AP's beacon equally and
  /// transient bursts are invisible at this timescale, so neither enters
  /// the comparison. \p members is the AP's snapshot member count.
  [[nodiscard]] Dbm score(topology::Point client, int ap, int members) const;

  /// Fills \p out (resized to the client count) with one proposal per
  /// client. SoA inputs: client positions (\p xs / \p ys), eligibility
  /// (\p eligible, 0 ⇒ the slot gets a default proposal), incumbent AP
  /// ids (\p incumbent, -1 = unassigned), and the AP snapshot (\p
  /// ap_alive / \p ap_members). Parallel over \p pool; bit-identical for
  /// any thread count.
  void plan(AssociationMode mode, std::span<const double> xs,
            std::span<const double> ys,
            std::span<const std::uint8_t> eligible,
            std::span<const int> incumbent,
            std::span<const std::uint8_t> ap_alive,
            std::span<const int> ap_members, ThreadPool& pool,
            std::vector<AssociationProposal>& out) const;

  /// plan() that keeps the proposals in \p carry whose inputs did not
  /// move since the last call (see the file comment), re-scores the rest,
  /// and records this call's AP snapshot. Leaves carry.proposals equal,
  /// field for field, to what plan() would write; returns the number of
  /// clients scored. Bit-identical for any thread count.
  std::size_t replan(AssociationMode mode, std::span<const double> xs,
                     std::span<const double> ys,
                     std::span<const std::uint8_t> eligible,
                     std::span<const int> incumbent,
                     std::span<const std::uint8_t> ap_alive,
                     std::span<const int> ap_members, ThreadPool& pool,
                     ProposalCarry& carry) const;

  [[nodiscard]] const topology::SpatialGridIndex& index() const {
    return index_;
  }
  [[nodiscard]] int n_aps() const { return index_.size(); }

 private:
  /// The one per-client scoring loop behind plan() and replan(): sizes
  /// \p out to the client count, resets ineligible slots, and scores
  /// every eligible client, or with \p keep_scored only those whose slot
  /// was not scored for their current incumbent. Returns the number of
  /// clients scored.
  std::size_t score_clients(AssociationMode mode, std::span<const double> xs,
                            std::span<const double> ys,
                            std::span<const std::uint8_t> eligible,
                            std::span<const int> incumbent,
                            std::span<const std::uint8_t> ap_alive,
                            std::span<const int> ap_members, bool keep_scored,
                            ThreadPool& pool,
                            std::vector<AssociationProposal>& out) const;
  [[nodiscard]] AssociationProposal propose_brute(
      topology::Point client, int incumbent,
      std::span<const std::uint8_t> ap_alive,
      std::span<const int> ap_members) const;
  [[nodiscard]] AssociationProposal propose_grid(
      topology::Point client, int incumbent,
      std::span<const std::uint8_t> ap_alive,
      std::span<const int> ap_members, int min_live_members,
      std::vector<int>& ring_scratch) const;

  topology::SpatialGridIndex index_;
  const channel::LogDistancePathLoss* pathloss_;
  Dbm client_tx_power_;
  Decibels load_penalty_per_client_;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_ASSOCIATION_HPP
