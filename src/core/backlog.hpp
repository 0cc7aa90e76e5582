#ifndef SICMAC_CORE_BACKLOG_HPP
#define SICMAC_CORE_BACKLOG_HPP

/// \file backlog.hpp
/// Multi-packet backlogs. The Section 6 scheduler drains one packet per
/// client; this extension handles clients with *queues*, where Section 5.4
/// packet packing becomes a real scheduling strategy: "another alternative
/// to power control is to send a single large packet or multiple packets
/// serially at higher bitrate before the packet at the lower bitrate
/// finishes … [it] will depend heavily on the traffic patterns."
///
/// For a pair of backlogged clients, three drain disciplines are costed:
///
///  - serial:       both queues at clean rates, one packet at a time;
///  - SIC rounds:   one packet from each client per concurrent round
///                  (eq (6) per round), leftovers serial;
///  - packed trains: the faster concurrent link stuffs multiple packets
///                  into each of the slower link's packets (Fig. 10g),
///                  leftovers serial.
///
/// The pairing layer then runs the same minimum-weight-perfect-matching
/// reduction as the single-packet scheduler (run_pairing), with pair costs
/// equal to the best drain time and solo drain times as serial costs. A
/// client below the base rate never drains (+inf); exact pairing never
/// takes its partner from a pair that beats serial.

#include <span>
#include <vector>

#include "channel/link.hpp"
#include "core/scheduler.hpp"
#include "phy/rate_adapter.hpp"

namespace sic::core {

struct BacklogClient {
  channel::LinkBudget link;
  int packets = 1;
};

enum class DrainMode {
  kSerial,
  kSicRounds,
  kPackedTrains,
};

[[nodiscard]] constexpr const char* to_string(DrainMode m) {
  switch (m) {
    case DrainMode::kSerial: return "serial";
    case DrainMode::kSicRounds: return "sic-rounds";
    case DrainMode::kPackedTrains: return "packed-trains";
  }
  return "?";
}

struct BacklogOptions {
  double packet_bits = 12000.0;
  bool enable_packing = true;     ///< allow the packed-trains discipline
  SchedulerOptions::Pairing pairing = SchedulerOptions::Pairing::kBlossom;
};

struct DrainPlan {
  DrainMode mode = DrainMode::kSerial;
  double airtime = 0.0;
  /// Concurrent rounds (SIC rounds) or trains (packed) executed.
  int rounds = 0;
};

/// Time to drain one client's queue alone at its clean best rate.
[[nodiscard]] double solo_drain_airtime(const BacklogClient& client,
                                        const phy::RateAdapter& adapter,
                                        double packet_bits);

/// Minimum time to drain both queues of a pair; picks the best discipline.
[[nodiscard]] DrainPlan best_drain_plan(const BacklogClient& a,
                                        const BacklogClient& b,
                                        const phy::RateAdapter& adapter,
                                        const BacklogOptions& options);

struct BacklogSlot {
  int first = 0;
  int second = -1;  ///< -1 = solo drain
  DrainPlan plan;
};

struct BacklogSchedule {
  std::vector<BacklogSlot> slots;
  double total_airtime = 0.0;
};

/// Baseline: all queues drained one client at a time.
[[nodiscard]] double serial_backlog_airtime(
    std::span<const BacklogClient> clients, const phy::RateAdapter& adapter,
    double packet_bits);

/// SIC-aware backlog schedule (pairing by minimum-weight perfect matching
/// over drain costs). Never worse than serial_backlog_airtime.
[[nodiscard]] BacklogSchedule schedule_backlog_upload(
    std::span<const BacklogClient> clients, const phy::RateAdapter& adapter,
    const BacklogOptions& options = {});

}  // namespace sic::core

#endif  // SICMAC_CORE_BACKLOG_HPP
