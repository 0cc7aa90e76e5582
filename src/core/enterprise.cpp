#include "core/enterprise.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace sic::core {

namespace {

/// Builds the per-AP schedules for a fixed association and returns the
/// objective under the channel model.
struct Evaluated {
  std::vector<Schedule> cells;
  double objective = 0.0;
};

Evaluated evaluate_assignment(std::span<const EnterpriseClient> clients,
                              int n_aps, std::span<const int> ap_for_client,
                              const phy::RateAdapter& adapter,
                              const EnterpriseOptions& options) {
  Evaluated out;
  out.cells.resize(static_cast<std::size_t>(n_aps));
  double sum = 0.0;
  double makespan = 0.0;
  // The schedules index clients *within their cell*; remap afterwards so
  // slots refer to global client indices.
  for (int a = 0; a < n_aps; ++a) {
    std::vector<channel::LinkBudget> cell;
    std::vector<int> global_index;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      if (ap_for_client[c] == a) {
        cell.push_back(channel::LinkBudget{
            clients[c].rss_at_ap[static_cast<std::size_t>(a)],
            options.noise});
        global_index.push_back(static_cast<int>(c));
      }
    }
    Schedule schedule = schedule_upload(cell, adapter, options.cell);
    for (auto& slot : schedule.slots) {
      slot.first = global_index[static_cast<std::size_t>(slot.first)];
      if (slot.second >= 0) {
        slot.second = global_index[static_cast<std::size_t>(slot.second)];
      }
    }
    sum += schedule.total_airtime;
    makespan = std::max(makespan, schedule.total_airtime);
    out.cells[static_cast<std::size_t>(a)] = std::move(schedule);
  }
  out.objective =
      options.channel_model == ChannelModel::kShared ? sum : makespan;
  return out;
}

std::vector<int> strongest_ap(std::span<const EnterpriseClient> clients,
                              int n_aps) {
  std::vector<int> assignment;
  assignment.reserve(clients.size());
  for (const auto& client : clients) {
    SIC_CHECK_MSG(static_cast<int>(client.rss_at_ap.size()) == n_aps,
                  "client RSS vector must cover every AP");
    int best = 0;
    for (int a = 1; a < n_aps; ++a) {
      if (client.rss_at_ap[static_cast<std::size_t>(a)] >
          client.rss_at_ap[static_cast<std::size_t>(best)]) {
        best = a;
      }
    }
    assignment.push_back(best);
  }
  return assignment;
}

}  // namespace

EnterpriseAssignment strongest_ap_assignment(
    std::span<const EnterpriseClient> clients, int n_aps,
    const phy::RateAdapter& adapter, const EnterpriseOptions& options) {
  SIC_CHECK(n_aps >= 1);
  EnterpriseAssignment out;
  out.ap_for_client = strongest_ap(clients, n_aps);
  auto eval =
      evaluate_assignment(clients, n_aps, out.ap_for_client, adapter, options);
  out.cell_schedules = std::move(eval.cells);
  out.objective = eval.objective;
  return out;
}

EnterpriseAssignment schedule_enterprise_upload(
    std::span<const EnterpriseClient> clients, int n_aps,
    const phy::RateAdapter& adapter, const EnterpriseOptions& options) {
  SIC_CHECK(n_aps >= 1);
  std::vector<int> assignment = strongest_ap(clients, n_aps);
  auto best = evaluate_assignment(clients, n_aps, assignment, adapter, options);

  // Deterministic first-improvement local search over single-client moves.
  for (int pass = 0; pass < options.max_passes; ++pass) {
    bool improved = false;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      const int original = assignment[c];
      for (int a = 0; a < n_aps; ++a) {
        if (a == original) continue;
        assignment[c] = a;
        auto cand =
            evaluate_assignment(clients, n_aps, assignment, adapter, options);
        if (cand.objective < best.objective * (1.0 - 1e-12)) {
          best = std::move(cand);
          improved = true;
          break;  // keep the move; re-scan from the next client
        }
        assignment[c] = original;
      }
    }
    if (!improved) break;
  }

  EnterpriseAssignment out;
  out.ap_for_client = std::move(assignment);
  out.cell_schedules = std::move(best.cells);
  out.objective = best.objective;
  return out;
}

}  // namespace sic::core
