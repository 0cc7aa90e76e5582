#ifndef SICMAC_CORE_ENTERPRISE_HPP
#define SICMAC_CORE_ENTERPRISE_HPP

/// \file enterprise.hpp
/// Multi-AP upload coordination — Section 4.1's enterprise WLAN taken to
/// its operational conclusion. The paper observes that with a wired
/// backbone "a client has the choice of passing the packet to any of the
/// APs"; this module gives the controller that choice *jointly* with the
/// per-AP SIC pairing of Section 6:
///
///   - shared channel (co-channel APs): cells serialize, the objective is
///     the SUM of per-AP schedule times — strongest-AP association is
///     provably optimal and the module reduces to per-cell scheduling;
///   - orthogonal channels: cells run in parallel, the objective is the
///     MAKESPAN (max over APs) — association now trades link rate against
///     load balance, solved by deterministic local search over client
///     moves with exact per-cell rescheduling.

#include <span>
#include <vector>

#include "channel/link.hpp"
#include "core/scheduler.hpp"
#include "phy/rate_adapter.hpp"

namespace sic::core {

/// One client's uplink RSS at every candidate AP (common noise floor).
struct EnterpriseClient {
  std::vector<Milliwatts> rss_at_ap;
};

enum class ChannelModel {
  kShared,      ///< co-channel APs: total time = sum of cell times
  kOrthogonal,  ///< per-AP channels: total time = max of cell times
};

struct EnterpriseOptions {
  SchedulerOptions cell;  ///< per-cell SIC scheduling options
  ChannelModel channel_model = ChannelModel::kOrthogonal;
  /// Local-search budget: full passes over all (client, AP) moves.
  static constexpr int max_passes = 16;
  Milliwatts noise{1.0};
};

struct EnterpriseAssignment {
  std::vector<int> ap_for_client;       ///< AP index per client
  std::vector<Schedule> cell_schedules; ///< per AP
  double objective = 0.0;               ///< sum or makespan, by model
};

/// Coordinated association + pairing. Starts from strongest-AP association
/// and improves by single-client moves until a local optimum.
[[nodiscard]] EnterpriseAssignment schedule_enterprise_upload(
    std::span<const EnterpriseClient> clients, int n_aps,
    const phy::RateAdapter& adapter, const EnterpriseOptions& options = {});

/// Baseline: strongest-AP association with per-cell scheduling (no moves).
[[nodiscard]] EnterpriseAssignment strongest_ap_assignment(
    std::span<const EnterpriseClient> clients, int n_aps,
    const phy::RateAdapter& adapter, const EnterpriseOptions& options = {});

}  // namespace sic::core

#endif  // SICMAC_CORE_ENTERPRISE_HPP
