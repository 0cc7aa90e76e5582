#ifndef SICMAC_CORE_SCHEDULER_HPP
#define SICMAC_CORE_SCHEDULER_HPP

/// \file scheduler.hpp
/// Section 6, the paper's algorithmic contribution:
///
///   "SIC-Aware Scheduling: Given a set of backlogged clients C, and their
///    respective maximum bitrates to the AP, find all pairs of clients and
///    their associated transmit powers, such that the total time to upload
///    all the backlogged traffic is minimum."
///
/// Reduction (Fig. 12): build a complete graph over the clients; the edge
/// cost t_ij is the minimum joint completion time for the pair — the best
/// of serialized transmission and concurrent SIC transmission (optionally
/// with power control / multirate packetization). A dummy client D with
/// edge cost = the solo airtime absorbs odd client counts. A minimum-weight
/// perfect matching (Edmonds' blossom algorithm, src/matching) is then the
/// optimal pairing, and the AP serves the pairs in any order.

#include <span>
#include <vector>

#include "channel/link.hpp"
#include "core/upload_pair.hpp"
#include "matching/graph.hpp"
#include "phy/rate_adapter.hpp"

namespace sic::core {

/// How a scheduled slot transmits.
enum class PairMode {
  kSolo,             ///< single client, clean best rate
  kSerial,           ///< pair transmits back-to-back (SIC loses)
  kSic,              ///< concurrent SIC transmission
  kSicPowerControl,  ///< concurrent with weaker-client power reduction
  kSicMultirate,     ///< concurrent with multirate packetization
};

[[nodiscard]] constexpr const char* to_string(PairMode m) {
  switch (m) {
    case PairMode::kSolo: return "solo";
    case PairMode::kSerial: return "serial";
    case PairMode::kSic: return "sic";
    case PairMode::kSicPowerControl: return "sic+power";
    case PairMode::kSicMultirate: return "sic+multirate";
  }
  return "?";
}

struct SchedulerOptions {
  double packet_bits = 12000.0;
  bool enable_power_control = false;  ///< Section 5.2
  bool enable_multirate = false;      ///< Section 5.3
  enum class Pairing {  ///< the matcher run_pairing dispatches to
    kBlossom,  ///< exact (the paper): blossom over pairs that beat serial
    kGreedy,   ///< cheapest-pair-first heuristic (ablation baseline)
  } pairing = Pairing::kBlossom;
  /// Margin-aware pair admission: concurrent candidates (SIC, power
  /// control, multirate) are planned as if every RSS were this many dB
  /// lower, so an admitted pair carries that much SINR headroom against
  /// stale estimates and still has to beat the (unmargined) serial
  /// baseline. The executable version of the slack argument
  /// bench/ablation_stale_rates measures open-loop. 0 dB reproduces the
  /// paper's perfect-knowledge plan exactly.
  Decibels admission_margin_db{0.0};

  /// Throws CheckError naming the option unless packet_bits is finite and
  /// > 0 and admission_margin_db is finite and >= 0 dB.
  void validate() const;
};

/// The chosen transmission plan for one pair (or solo client).
struct PairPlan {
  PairMode mode = PairMode::kSolo;
  double airtime = 0.0;
  /// Power scale applied to the weaker client (1.0 unless mode is
  /// kSicPowerControl).
  double weaker_power_scale = 1.0;
};

/// Airtime of a lone client at its clean best rate.
[[nodiscard]] double solo_airtime(const channel::LinkBudget& client,
                                  const phy::RateAdapter& adapter,
                                  double packet_bits);

/// The t_ij of Fig. 12: minimum joint completion time for a client pair
/// under the enabled techniques, with the winning mode recorded. The same
/// mode-selection rule schedule_upload applies to every pair.
[[nodiscard]] PairPlan best_pair_plan(const channel::LinkBudget& a,
                                      const channel::LinkBudget& b,
                                      const phy::RateAdapter& adapter,
                                      const SchedulerOptions& options);

/// The Fig. 12 matching step of schedule_upload and the backlog planner.
/// \p serial holds solo airtimes (0 for the dummy); no pair may cost more
/// than its two summed. \p edge_scratch keeps greedy's edges across calls.
[[nodiscard]] matching::Matching run_pairing(
    const matching::CostMatrix& costs, SchedulerOptions::Pairing pairing,
    std::span<const double> serial,
    std::vector<matching::WeightedEdge>& edge_scratch);

/// One slot of the final schedule. Client indices refer to the input span;
/// second == -1 marks the odd client transmitting alone.
struct ScheduledSlot {
  int first = 0;
  int second = -1;
  PairPlan plan;
};

struct Schedule {
  std::vector<ScheduledSlot> slots;
  double total_airtime = 0.0;
  /// The admission margin the slots were planned with; the executor must
  /// derate its concurrent-rate choices identically or the plan's headroom
  /// evaporates.
  Decibels admission_margin_db{0.0};
};

/// Baseline: every client transmits alone, serially (the no-SIC MAC).
[[nodiscard]] double serial_upload_airtime(
    std::span<const channel::LinkBudget> clients,
    const phy::RateAdapter& adapter, double packet_bits);

/// The SIC-aware schedule for one backlogged packet per client.
/// Guaranteed never worse than serial_upload_airtime under the same policy.
/// Validates \p options at any client count. With a metrics registry
/// attached, a call over n >= 1 clients adds 1 to
/// scheduler.pair_engine.builds and n(n-1)/2 to .pair_evals, and n >= 2
/// times the pair-cost pass into the .kernel_wall_s histogram. With power
/// control on it also adds the discrete power-control searches its pairs
/// ran to .pc_searches and their probes to .pc_probes (see
/// WeakerPowerSearch).
[[nodiscard]] Schedule schedule_upload(
    std::span<const channel::LinkBudget> clients,
    const phy::RateAdapter& adapter, const SchedulerOptions& options = {});

}  // namespace sic::core

#endif  // SICMAC_CORE_SCHEDULER_HPP
