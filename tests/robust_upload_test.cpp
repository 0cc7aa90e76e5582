/// Failure-path tests of the closed-loop scheduled executor: injected
/// cancellation failures, ACK loss, stale-RSS re-matching, and the
/// zero-fault bit-identity guarantee.

#include "mac/upload_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/trace_sink.hpp"

namespace sic::mac {
namespace {

constexpr Milliwatts kN0{1.0};
const phy::ShannonRateAdapter kShannon{megahertz(20.0)};

std::vector<channel::LinkBudget> clients_db(
    std::initializer_list<double> snrs) {
  std::vector<channel::LinkBudget> out;
  for (const double db : snrs) {
    out.push_back(channel::LinkBudget{Milliwatts{Decibels{db}.linear()}, kN0});
  }
  return out;
}

TEST(RobustUpload, CancellationFailureFallsBackToSerialAndCompletes) {
  // Every SIC-path decode is force-failed: the weaker frame of the pair
  // can never ride the collision. The closed loop must recover it on a
  // clean solo retry (immune to cancellation faults) and lose nothing.
  const auto clients = clients_db({24.0, 12.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  ASSERT_EQ(schedule.slots.size(), 1u);
  ASSERT_NE(schedule.slots[0].plan.mode, core::PairMode::kSerial);

  UploadSimConfig config;
  config.faults.cancellation_failure_prob = 1.0;
  const auto result = run_scheduled_upload(clients, kShannon, schedule, config);
  EXPECT_EQ(result.offered, 2u);
  EXPECT_EQ(result.failures.unrecovered, 0u);
  EXPECT_GE(result.failures.cancellation_failures, 1u);
  EXPECT_GE(result.failures.recovered, 1u);
  EXPECT_GE(result.failures.mode_demotions, 1u);
  EXPECT_GE(result.retries, 1u);
}

TEST(RobustUpload, OpenLoopDropsWhatClosedLoopRecovers) {
  const auto clients = clients_db({24.0, 12.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.cancellation_failure_prob = 1.0;
  config.recovery.enabled = false;
  const auto result = run_scheduled_upload(clients, kShannon, schedule, config);
  EXPECT_GE(result.failures.unrecovered, 1u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_LT(result.delivered, result.offered);
  // The abandoned frame died of an injected cancellation failure, and the
  // terminal-cause split always accounts for every unrecovered frame.
  EXPECT_GE(result.failures.gave_up_cancellation, 1u);
  EXPECT_EQ(result.failures.gave_up_rate_miss +
                result.failures.gave_up_cancellation +
                result.failures.gave_up_ack_loss +
                result.failures.gave_up_unattempted,
            result.failures.unrecovered);
  std::uint64_t per_client_sum = 0;
  for (const std::uint64_t lost : result.unrecovered_per_client) {
    per_client_sum += lost;
  }
  EXPECT_EQ(per_client_sum, result.failures.unrecovered);
}

TEST(RobustUpload, CertainAckLossAccountsDuplicatesExactly) {
  // p = 1: the station never hears an ACK, retransmits until its attempt
  // budget runs out, and every retransmission is a duplicate at the AP.
  const auto clients = clients_db({20.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.ack_loss_prob = 1.0;
  const auto result = run_scheduled_upload(clients, kShannon, schedule, config);
  const auto attempts =
      static_cast<std::uint64_t>(config.recovery.max_attempts_per_frame);
  EXPECT_EQ(result.offered, 1u);
  EXPECT_EQ(result.delivered, attempts);  // AP decoded every transmission
  EXPECT_EQ(result.failures.duplicate_deliveries, attempts - 1);
  EXPECT_EQ(result.failures.ack_losses, attempts);
  EXPECT_EQ(result.failures.unrecovered, 1u);  // never confirmed
  EXPECT_EQ(result.failures.recovered, 0u);
  // Terminal-cause attribution: the budget ran out on ACK loss, and the
  // per-client split points at the only client.
  EXPECT_EQ(result.failures.gave_up_ack_loss, 1u);
  EXPECT_EQ(result.failures.gave_up_rate_miss, 0u);
  EXPECT_EQ(result.failures.gave_up_cancellation, 0u);
  EXPECT_EQ(result.failures.gave_up_unattempted, 0u);
  ASSERT_EQ(result.unrecovered_per_client.size(), 1u);
  EXPECT_EQ(result.unrecovered_per_client[0], 1u);
}

TEST(RobustUpload, OccasionalAckLossRecoversViaDuplicate) {
  const auto clients = clients_db({22.0, 18.0, 14.0, 10.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.ack_loss_prob = 0.5;
  bool saw_duplicate = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    config.seed = seed;
    const auto result =
        run_scheduled_upload(clients, kShannon, schedule, config);
    EXPECT_EQ(result.failures.unrecovered, 0u) << "seed " << seed;
    EXPECT_EQ(result.failures.duplicate_deliveries, result.failures.ack_losses)
        << "seed " << seed;
    saw_duplicate |= result.failures.duplicate_deliveries > 0;
  }
  EXPECT_TRUE(saw_duplicate);
}

TEST(RobustUpload, OddClientCountSurvivesRematching) {
  // Five clients under heavy drift: re-matching repeatedly runs the
  // blossom reduction on odd residual backlogs (dummy-vertex path) and
  // must still confirm every frame.
  const auto clients = clients_db({26.0, 21.0, 17.0, 12.0, 8.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.stale_rss_sigma = Decibels{6.0};
  config.faults.stale_rss_rho = 0.9;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    config.seed = seed;
    const auto result =
        run_scheduled_upload(clients, kShannon, schedule, config);
    EXPECT_EQ(result.failures.unrecovered, 0u) << "seed " << seed;
  }
}

TEST(RobustUpload, AcceptanceCombinedFaultsClosedLoopLosesNothing) {
  // The headline criterion: 1% cancellation failures + 4 dB stale RSS +
  // 1% ACK loss. Closed loop: zero unrecovered drops on every seed.
  // Open loop: losses on at least some seeds.
  const auto clients =
      clients_db({27.0, 24.0, 21.0, 18.0, 15.0, 12.0, 9.0, 6.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.stale_rss_sigma = Decibels{4.0};
  config.faults.stale_rss_rho = 0.9;
  config.faults.cancellation_failure_prob = 0.01;
  config.faults.ack_loss_prob = 0.01;

  std::uint64_t open_loop_drops = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    config.recovery.enabled = true;
    const auto closed =
        run_scheduled_upload(clients, kShannon, schedule, config);
    EXPECT_EQ(closed.failures.unrecovered, 0u) << "seed " << seed;
    EXPECT_EQ(closed.drops, 0u) << "seed " << seed;
    config.recovery.enabled = false;
    const auto open = run_scheduled_upload(clients, kShannon, schedule, config);
    open_loop_drops += open.failures.unrecovered;
  }
  EXPECT_GT(open_loop_drops, 0u);
}

TEST(RobustUpload, ZeroFaultsMatchesOpenLoopBitForBit) {
  // With every fault knob at zero the recovery layer must never engage:
  // identical results (including the event-driven completion time) with
  // recovery on or off, and an all-zero telemetry block.
  const auto clients = clients_db({30.0, 24.0, 15.0, 12.0, 20.0, 10.0});
  core::SchedulerOptions options;
  options.enable_power_control = true;
  options.enable_multirate = true;
  const auto schedule = core::schedule_upload(clients, kShannon, options);

  UploadSimConfig config;
  config.recovery.enabled = true;
  const auto closed = run_scheduled_upload(clients, kShannon, schedule, config);
  config.recovery.enabled = false;
  const auto open = run_scheduled_upload(clients, kShannon, schedule, config);

  EXPECT_EQ(closed.completion_s, open.completion_s);  // exact, not near
  EXPECT_EQ(closed.delivered, open.delivered);
  EXPECT_EQ(closed.delivered, closed.offered);
  EXPECT_EQ(closed.retries, 0u);
  EXPECT_EQ(closed.drops, 0u);
  EXPECT_EQ(closed.failures.rate_misses, 0u);
  EXPECT_EQ(closed.failures.cancellation_failures, 0u);
  EXPECT_EQ(closed.failures.ack_losses, 0u);
  EXPECT_EQ(closed.failures.duplicate_deliveries, 0u);
  EXPECT_EQ(closed.failures.mode_demotions, 0u);
  EXPECT_EQ(closed.failures.client_demotions, 0u);
  EXPECT_EQ(closed.failures.rematch_rounds, 0u);
  EXPECT_EQ(closed.failures.recovered, 0u);
  EXPECT_EQ(closed.failures.unrecovered, 0u);
  EXPECT_EQ(closed.failures.gave_up_rate_miss, 0u);
  EXPECT_EQ(closed.failures.gave_up_cancellation, 0u);
  EXPECT_EQ(closed.failures.gave_up_ack_loss, 0u);
  EXPECT_EQ(closed.failures.gave_up_unattempted, 0u);
  for (const std::uint64_t lost : closed.unrecovered_per_client) {
    EXPECT_EQ(lost, 0u);
  }
}

TEST(RobustUpload, StaleRssDemotesChronicFailures) {
  // A fully decorrelated channel (rho = 0) makes every re-estimate stale
  // again by flight time, so some client fails repeatedly; after
  // demote_after_failures it must drain solo and the run must still
  // confirm everything.
  const auto clients = clients_db({25.0, 23.0, 21.0, 19.0});
  const auto schedule = core::schedule_upload(clients, kShannon, {});
  UploadSimConfig config;
  config.faults.stale_rss_sigma = Decibels{8.0};
  config.faults.stale_rss_rho = 0.0;
  bool saw_demotion = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    const auto result =
        run_scheduled_upload(clients, kShannon, schedule, config);
    EXPECT_EQ(result.failures.unrecovered, 0u) << "seed " << seed;
    saw_demotion |= result.failures.client_demotions > 0;
  }
  EXPECT_TRUE(saw_demotion);
}

/// The value of \p key in one trace event line, quotes stripped; empty
/// when the line has no such key.
std::string trace_arg(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + tag.size();
  std::string value =
      line.substr(begin, line.find_first_of(",}", begin) - begin);
  std::erase(value, '"');
  return value;
}

TEST(RobustUpload, RematchRoundPlansTheResidualOnItsOwnEstimates) {
  // No channel faults, so the executor's estimates stay the input budgets.
  // An ACK lost on a solo or serial slot leaves its client for the round
  // boundary, and a large demotion threshold keeps every residual client
  // pairable. Each re-match round's planned slots, read back from the
  // trace, must be schedule_upload on exactly those clients' budgets.
  const auto clients =
      clients_db({30.0, 27.0, 24.0, 21.0, 18.0, 15.0, 12.0, 9.0});
  core::SchedulerOptions options;
  options.enable_power_control = true;
  options.enable_multirate = true;
  const auto schedule = core::schedule_upload(clients, kShannon, options);
  UploadSimConfig config;
  config.faults.cancellation_failure_prob = 0.5;
  config.faults.ack_loss_prob = 0.3;
  config.recovery.demote_after_failures = 1000;
  config.recovery.rematch_options = options;
  core::SchedulerOptions rematch = options;
  rematch.packet_bits = config.packet_bits;

  int checked = 0;  // re-match rounds of 2+ clients that are no prefix
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    config.seed = seed;
    std::ostringstream os;
    {
      obs::TraceSink sink{os};
      ASSERT_EQ(obs::set_trace(&sink), nullptr);
      (void)run_scheduled_upload(clients, kShannon, schedule, config);
      obs::set_trace(nullptr);
      sink.flush();
    }
    std::istringstream lines{os.str()};
    std::size_t residual_size = 0;  // clients the latest round re-plans
    std::vector<int> residual;
    std::string traced;  // that round's planned slots
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"name\":\"rematch\"") != std::string::npos) {
        residual_size = std::stoul(trace_arg(line, "residual"));
        residual.clear();
        traced.clear();
        continue;
      }
      // A round's planned slots run before its retries and cover each
      // residual client once.
      if (line.find("\"name\":\"slot\"") == std::string::npos ||
          residual.size() >= residual_size) {
        continue;
      }
      for (const char* key : {"first", "second"}) {
        const std::string client = trace_arg(line, key);
        if (!client.empty()) residual.push_back(std::stoi(client));
      }
      traced += trace_arg(line, "mode") + " " + trace_arg(line, "first") +
                " " + trace_arg(line, "second") + ";";
      if (residual.size() < residual_size) continue;
      std::sort(residual.begin(), residual.end());
      const bool prefix = residual.back() + 1 == static_cast<int>(residual.size());
      if (prefix || residual.size() < 2) continue;
      std::vector<channel::LinkBudget> budgets;
      for (const int c : residual) {
        budgets.push_back(clients[static_cast<std::size_t>(c)]);
      }
      const auto client = [&](int i) {
        return i < 0 ? std::string{}
                     : std::to_string(residual[static_cast<std::size_t>(i)]);
      };
      std::string planned;
      for (const auto& slot :
           core::schedule_upload(budgets, kShannon, rematch).slots) {
        const core::PairMode mode =
            slot.second < 0 ? core::PairMode::kSolo : slot.plan.mode;
        planned += std::string(core::to_string(mode)) + " " +
                   client(slot.first) + " " + client(slot.second) + ";";
      }
      EXPECT_EQ(traced, planned) << "seed " << seed;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace sic::mac
