/// Large-deployment association fast path: the spatial-index candidate
/// walk must be *decision-identical* to the brute-force all-AP scan —
/// same best AP, bit-identical scores, same incumbent score — across
/// random layouts, dead APs, load imbalance, and engineered hysteresis
/// ties; and whole engine runs in kGrid mode must reproduce kBruteForce
/// runs byte for byte. Proposals carried across epochs (replan) must equal
/// fresh plan() calls through every kind of snapshot edit, and engine
/// decisions must not move under the plane's exact symmetries. Also pins
/// the sorted-membership invariant the lower_bound-based removal relies
/// on.

#include "mac/association.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "mac/deployment_engine.hpp"
#include "obs/metrics.hpp"
#include "phy/rate_table.hpp"
#include "util/rng.hpp"

namespace sic::mac {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};

struct Fleet {
  std::vector<topology::Point> sites;
  std::vector<std::uint8_t> alive;
  std::vector<int> members;
};

Fleet random_fleet(Rng& rng, int n_aps, double extent) {
  Fleet f;
  for (int i = 0; i < n_aps; ++i) {
    f.sites.push_back(
        topology::Point{rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
    // Some APs dead, loads wildly imbalanced: the cutoff's load bound has
    // to hold even when a distant AP is nearly empty.
    f.alive.push_back(rng.uniform(0.0, 1.0) < 0.2 ? 0 : 1);
    f.members.push_back(rng.uniform_int(0, 60));
  }
  return f;
}

void expect_same_proposals(const std::vector<AssociationProposal>& grid,
                           const std::vector<AssociationProposal>& brute,
                           std::uint64_t seed) {
  ASSERT_EQ(grid.size(), brute.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].best_ap, brute[i].best_ap)
        << "seed " << seed << " client " << i;
    // Bit-identical, not approximately equal: both paths must evaluate
    // the same winning expression.
    EXPECT_EQ(grid[i].best_score.value(), brute[i].best_score.value())
        << "seed " << seed << " client " << i;
    EXPECT_EQ(grid[i].incumbent_score.value(), brute[i].incumbent_score.value())
        << "seed " << seed << " client " << i;
  }
}

TEST(AssociationPlanner, GridDecisionIdenticalToBruteForceAcrossLayouts) {
  const channel::LogDistancePathLoss pathloss =
      channel::LogDistancePathLoss::for_carrier(3.0);
  ThreadPool pool{1};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng{seed * 6151};
    const int n_aps = rng.uniform_int(1, 64);
    const int n_clients = rng.uniform_int(1, 512);
    const double extent = rng.uniform(30.0, 400.0);
    const Fleet fleet = random_fleet(rng, n_aps, extent);
    const AssociationPlanner planner{fleet.sites, pathloss, Dbm{15.0},
                                     Decibels{0.5}};

    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<std::uint8_t> eligible;
    std::vector<int> incumbent;
    for (int c = 0; c < n_clients; ++c) {
      // Clients inside and well outside the AP bounding box.
      xs.push_back(rng.uniform(-0.3 * extent, 1.3 * extent));
      ys.push_back(rng.uniform(-0.3 * extent, 1.3 * extent));
      eligible.push_back(rng.uniform(0.0, 1.0) < 0.9 ? 1 : 0);
      // Incumbents only point at live APs, as in the engine.
      int inc = -1;
      if (rng.uniform(0.0, 1.0) < 0.7) {
        const int cand = rng.uniform_int(0, n_aps - 1);
        if (fleet.alive[static_cast<std::size_t>(cand)] != 0) inc = cand;
      }
      incumbent.push_back(inc);
    }

    std::vector<AssociationProposal> grid;
    std::vector<AssociationProposal> brute;
    planner.plan(AssociationMode::kGrid, xs, ys, eligible, incumbent,
                 fleet.alive, fleet.members, pool, grid);
    planner.plan(AssociationMode::kBruteForce, xs, ys, eligible, incumbent,
                 fleet.alive, fleet.members, pool, brute);
    expect_same_proposals(grid, brute, seed);
  }
}

TEST(AssociationPlanner, ProposalsBitIdenticalAcrossThreadCounts) {
  const channel::LogDistancePathLoss pathloss =
      channel::LogDistancePathLoss::for_carrier(3.0);
  Rng rng{2024};
  const Fleet fleet = random_fleet(rng, 32, 250.0);
  const AssociationPlanner planner{fleet.sites, pathloss, Dbm{15.0},
                                   Decibels{0.5}};
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::uint8_t> eligible;
  std::vector<int> incumbent;
  for (int c = 0; c < 700; ++c) {
    xs.push_back(rng.uniform(0.0, 250.0));
    ys.push_back(rng.uniform(0.0, 250.0));
    eligible.push_back(1);
    incumbent.push_back(-1);
  }
  ThreadPool one{1};
  std::vector<AssociationProposal> base;
  planner.plan(AssociationMode::kGrid, xs, ys, eligible, incumbent,
               fleet.alive, fleet.members, one, base);
  for (const int threads : {4, 7}) {
    ThreadPool pool{threads};
    std::vector<AssociationProposal> got;
    planner.plan(AssociationMode::kGrid, xs, ys, eligible, incumbent,
                 fleet.alive, fleet.members, pool, got);
    expect_same_proposals(got, base, static_cast<std::uint64_t>(threads));
  }
}

TEST(AssociationPlanner, EquidistantTieBreaksToLowerApIdInBothModes) {
  const channel::LogDistancePathLoss pathloss =
      channel::LogDistancePathLoss::for_carrier(3.0);
  ThreadPool pool{1};
  // Two APs mirror-symmetric about x = 0; a client on the axis scores
  // them bit-identically (same distance, same load), so the winner is
  // decided purely by the tie rule — and id 1 sits in a *different* grid
  // cell walked earlier or later than id 0's, which is exactly the case
  // where a naive ring walk would pick whichever it sees first.
  const std::vector<topology::Point> sites = {topology::Point{-30.0, 0.0},
                                              topology::Point{30.0, 0.0}};
  const AssociationPlanner planner{sites, pathloss, Dbm{15.0},
                                   Decibels{0.5}};
  const std::vector<double> xs = {0.0};
  const std::vector<double> ys = {7.0};
  const std::vector<std::uint8_t> eligible = {1};
  const std::vector<int> incumbent = {-1};
  const std::vector<std::uint8_t> alive = {1, 1};
  const std::vector<int> members = {5, 5};
  for (const AssociationMode mode :
       {AssociationMode::kGrid, AssociationMode::kBruteForce}) {
    std::vector<AssociationProposal> out;
    planner.plan(mode, xs, ys, eligible, incumbent, alive, members, pool,
                 out);
    EXPECT_EQ(out[0].best_ap, 0);
  }
}

TEST(AssociationPlanner, HysteresisEdgeTiesMatchBruteForce) {
  // Engineer near-tie scores: a dense AP cluster where load differences
  // of exactly one member (0.5 dB) decide winners — the regime where a
  // sloppy cutoff bound would prune the true winner.
  const channel::LogDistancePathLoss pathloss =
      channel::LogDistancePathLoss::for_carrier(3.0);
  ThreadPool pool{1};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng{seed * 31};
    std::vector<topology::Point> sites;
    std::vector<std::uint8_t> alive;
    std::vector<int> members;
    const int n_aps = rng.uniform_int(8, 24);
    for (int i = 0; i < n_aps; ++i) {
      sites.push_back(
          topology::Point{rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)});
      alive.push_back(1);
      members.push_back(10 + rng.uniform_int(0, 2));
    }
    const AssociationPlanner planner{sites, pathloss, Dbm{15.0},
                                     Decibels{0.5}};
    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<std::uint8_t> eligible;
    std::vector<int> incumbent;
    for (int c = 0; c < 200; ++c) {
      xs.push_back(rng.uniform(0.0, 40.0));
      ys.push_back(rng.uniform(0.0, 40.0));
      eligible.push_back(1);
      incumbent.push_back(rng.uniform_int(0, n_aps - 1));
    }
    std::vector<AssociationProposal> grid;
    std::vector<AssociationProposal> brute;
    planner.plan(AssociationMode::kGrid, xs, ys, eligible, incumbent, alive,
                 members, pool, grid);
    planner.plan(AssociationMode::kBruteForce, xs, ys, eligible, incumbent,
                 alive, members, pool, brute);
    expect_same_proposals(grid, brute, seed);
  }
}

void expect_same_as_fresh(const std::vector<AssociationProposal>& kept,
                          const std::vector<AssociationProposal>& fresh,
                          const char* what) {
  ASSERT_EQ(kept.size(), fresh.size()) << what;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].best_ap, fresh[i].best_ap) << what << " client " << i;
    EXPECT_EQ(kept[i].candidates, fresh[i].candidates)
        << what << " client " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(kept[i].best_score.value()),
              std::bit_cast<std::uint64_t>(fresh[i].best_score.value()))
        << what << " client " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(kept[i].incumbent_score.value()),
              std::bit_cast<std::uint64_t>(fresh[i].incumbent_score.value()))
        << what << " client " << i;
  }
}

TEST(AssociationPlanner, ReplanMatchesFreshPlanThroughSnapshotEdits) {
  // Seeded sequences of the edits an epoch makes — AP liveness flips,
  // member-count changes, incumbent changes, eligibility flips, appended
  // clients, and calls with no edit at all — at a zero and a positive
  // load penalty, in both modes, at 1, 4 and 7 threads. After every call
  // the carried proposals must equal a fresh plan() field for field, and
  // exactly the clients whose inputs moved must have been scored.
  const channel::LogDistancePathLoss pathloss =
      channel::LogDistancePathLoss::for_carrier(3.0);
  ThreadPool one{1};
  ThreadPool four{4};
  ThreadPool seven{7};
  ThreadPool* pools[] = {&one, &four, &seven};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const double penalty_db : {0.0, 0.5}) {
      for (const AssociationMode mode :
           {AssociationMode::kGrid, AssociationMode::kBruteForce}) {
        for (ThreadPool* pool : pools) {
          Rng rng{seed * 7349};
          const int n_aps = rng.uniform_int(1, 32);
          const double extent = rng.uniform(30.0, 300.0);
          Fleet fleet = random_fleet(rng, n_aps, extent);
          const AssociationPlanner planner{fleet.sites, pathloss, Dbm{15.0},
                                           Decibels{penalty_db}};
          std::vector<double> xs;
          std::vector<double> ys;
          std::vector<std::uint8_t> eligible;
          std::vector<int> incumbent;
          const auto append = [&](int k) {
            for (int c = 0; c < k; ++c) {
              xs.push_back(rng.uniform(-0.2 * extent, 1.2 * extent));
              ys.push_back(rng.uniform(-0.2 * extent, 1.2 * extent));
              eligible.push_back(rng.uniform(0.0, 1.0) < 0.9 ? 1 : 0);
              incumbent.push_back(rng.uniform_int(-1, n_aps - 1));
            }
          };
          append(rng.uniform_int(1, 200));

          ProposalCarry carry;
          std::vector<AssociationProposal> fresh;
          std::vector<std::uint8_t> last_eligible;
          std::vector<int> last_incumbent;
          std::vector<std::uint8_t> last_alive;
          std::vector<int> last_members;
          for (int step = 0; step < 8; ++step) {
            if (step > 0) {
              const int edit = rng.uniform_int(0, 5);
              const int k = rng.uniform_int(1, 4);
              for (int j = 0; j < k; ++j) {
                const std::size_t ap =
                    static_cast<std::size_t>(rng.uniform_int(0, n_aps - 1));
                const std::size_t c = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(xs.size()) - 1));
                switch (edit) {
                  case 0:
                    fleet.alive[ap] = fleet.alive[ap] == 0 ? 1 : 0;
                    break;
                  case 1:
                    fleet.members[ap] += rng.uniform_int(-3, 3);
                    fleet.members[ap] = std::max(fleet.members[ap], 0);
                    break;
                  case 2:
                    incumbent[c] = rng.uniform_int(-1, n_aps - 1);
                    break;
                  case 3:
                    eligible[c] = eligible[c] == 0 ? 1 : 0;
                    break;
                  case 4:
                    append(1);
                    break;
                  default:  // an epoch where nothing moved
                    break;
                }
              }
            }
            const bool same_snapshot =
                step > 0 && fleet.alive == last_alive &&
                (penalty_db == 0.0 || fleet.members == last_members);
            std::size_t expect_scored = 0;
            for (std::size_t c = 0; c < xs.size(); ++c) {
              if (eligible[c] == 0) continue;
              const bool moved = !same_snapshot ||
                                 c >= last_eligible.size() ||
                                 last_eligible[c] == 0 ||
                                 last_incumbent[c] != incumbent[c];
              expect_scored += moved ? 1 : 0;
            }

            const std::size_t scored =
                planner.replan(mode, xs, ys, eligible, incumbent,
                               fleet.alive, fleet.members, *pool, carry);
            planner.plan(mode, xs, ys, eligible, incumbent, fleet.alive,
                         fleet.members, *pool, fresh);
            const std::string what =
                "seed " + std::to_string(seed) + " penalty " +
                std::to_string(penalty_db) + " mode " +
                std::to_string(static_cast<int>(mode)) + " threads " +
                std::to_string(pool->threads()) + " step " +
                std::to_string(step);
            expect_same_as_fresh(carry.proposals, fresh, what.c_str());
            EXPECT_EQ(scored, expect_scored) << what;
            last_eligible = eligible;
            last_incumbent = incumbent;
            last_alive = fleet.alive;
            last_members = fleet.members;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level pins
// ---------------------------------------------------------------------------

DeploymentEngineConfig chaotic_config(AssociationMode mode) {
  DeploymentEngineConfig config;
  config.scheduler.enable_multirate = true;
  config.upload.faults.stale_rss_sigma = Decibels{2.0};
  config.epoch_drift_sigma = Decibels{1.5};
  config.association_mode = mode;
  config.seed = 71;
  return config;
}

FaultSchedule churny_chaos() {
  ChaosProfile p;
  p.ap_outage_prob = 0.04;
  p.outage_epochs = 2;
  p.departure_prob = 0.02;
  p.arrival_rate = 0.8;
  return FaultSchedule{p};
}

std::vector<topology::Point> grid_sites(int side, double pitch) {
  std::vector<topology::Point> sites;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      sites.push_back(topology::Point{x * pitch, y * pitch});
    }
  }
  return sites;
}

TEST(DeploymentEngineAssociation, GridEngineBitIdenticalToBruteForceEngine) {
  DeploymentEngine grid{grid_sites(3, 60.0), kShannon,
                        chaotic_config(AssociationMode::kGrid),
                        churny_chaos()};
  DeploymentEngine brute{grid_sites(3, 60.0), kShannon,
                         chaotic_config(AssociationMode::kBruteForce),
                         churny_chaos()};
  Rng rng{5};
  for (int c = 0; c < 48; ++c) {
    const topology::Point p{rng.uniform(-20.0, 140.0),
                            rng.uniform(-20.0, 140.0)};
    (void)grid.add_client(p);
    (void)brute.add_client(p);
  }
  for (int e = 0; e < 40; ++e) {
    const EpochStats a = grid.run_epoch();
    const EpochStats b = brute.run_epoch();
    EXPECT_EQ(a.offered, b.offered) << "epoch " << e;
    EXPECT_EQ(a.confirmed, b.confirmed) << "epoch " << e;
    EXPECT_EQ(a.handoffs, b.handoffs) << "epoch " << e;
    EXPECT_EQ(a.deferred, b.deferred) << "epoch " << e;
    EXPECT_EQ(a.quarantines, b.quarantines) << "epoch " << e;
    EXPECT_EQ(a.arrivals, b.arrivals) << "epoch " << e;
    EXPECT_EQ(a.departures, b.departures) << "epoch " << e;
    EXPECT_EQ(a.mean_health, b.mean_health) << "epoch " << e;
  }
  ASSERT_EQ(grid.active_clients(), brute.active_clients());
  for (int c = 0; c < grid.active_clients(); ++c) {
    EXPECT_EQ(grid.assignment(c), brute.assignment(c)) << "client " << c;
  }
}

TEST(DeploymentEngineAssociation, SteadyStrongestApEpochsScoreNoClient) {
  // Strongest-AP association with nothing moving: every client is scored
  // when it first appears (epoch 0) and once more for its new incumbent
  // (epoch 1); after that every proposal carries over. A scripted outage
  // changes liveness, which re-scores every eligible client that epoch,
  // and the carry-over resumes once the fleet is steady again.
  DeploymentEngineConfig config;
  config.load_penalty_per_client = Decibels{0.0};
  config.epoch_drift_sigma = Decibels{1.0};
  config.seed = 41;
  DeploymentEngine engine{
      grid_sites(3, 60.0), kShannon, config,
      FaultSchedule{}.add({.epoch = 5, .kind = ChaosEventKind::kApOutage,
                           .ap = 4, .duration_epochs = 2})};
  Rng rng{43};
  constexpr int kClients = 60;
  for (int c = 0; c < kClients; ++c) {
    (void)engine.add_client(topology::Point{rng.uniform(-20.0, 140.0),
                                            rng.uniform(-20.0, 140.0)});
  }
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* prev = obs::set_metrics(&registry);
  std::vector<std::uint64_t> scored;
  std::uint64_t total = 0;
  for (int e = 0; e < 14; ++e) {
    (void)engine.run_epoch();
    const std::uint64_t now = registry.counter("deploy.assoc.scored").value();
    scored.push_back(now - total);
    total = now;
  }
  (void)obs::set_metrics(prev);
  const std::vector<std::uint64_t> expect_head = {kClients, kClients, 0, 0, 0,
                                                  kClients};
  EXPECT_EQ(std::vector<std::uint64_t>(scored.begin(), scored.begin() + 6),
            expect_head);
  EXPECT_GT(scored[6], 0u);  // the outage's clients, for new incumbents
  EXPECT_LT(scored[6], static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(scored[7], static_cast<std::uint64_t>(kClients));  // restart
  EXPECT_EQ(scored.back(), 0u);
}

TEST(DeploymentEngineAssociation, MembershipStaysSortedUnderChurn) {
  // The lower_bound+erase removal and upper_bound insert both rely on the
  // member lists staying sorted through every mutation path: handoff,
  // departure, quarantine exile, outage flush.
  DeploymentEngineConfig config = chaotic_config(AssociationMode::kGrid);
  config.quarantine_after = 1;  // make exile churn actually happen
  DeploymentEngine engine{grid_sites(2, 50.0), kShannon, config,
                          churny_chaos()};
  Rng rng{11};
  for (int c = 0; c < 32; ++c) {
    (void)engine.add_client(topology::Point{rng.uniform(0.0, 50.0),
                                            rng.uniform(0.0, 50.0)});
  }
  for (int e = 0; e < 30; ++e) {
    (void)engine.run_epoch();
    for (int ap = 0; ap < engine.n_aps(); ++ap) {
      const std::vector<int>& members = engine.ap_members(ap);
      EXPECT_TRUE(std::is_sorted(members.begin(), members.end()))
          << "epoch " << e << " ap " << ap;
      EXPECT_EQ(std::adjacent_find(members.begin(), members.end()),
                members.end())
          << "duplicate member, epoch " << e << " ap " << ap;
    }
  }
}

// ---------------------------------------------------------------------------
// Metamorphic: the plane's exact symmetries
// ---------------------------------------------------------------------------

/// Maps of the plane that only negate or swap coordinates. Each keeps every
/// client-AP distance bit-equal: a difference of negated coordinates is the
/// negated difference (round-to-nearest is sign-symmetric), and std::hypot
/// ignores the signs and the order of its arguments.
enum class PlaneMap { kRotate90, kRotate180, kMirrorX, kSwapXY };

topology::Point apply(PlaneMap map, topology::Point p) {
  switch (map) {
    case PlaneMap::kRotate90:
      return {-p.y, p.x};
    case PlaneMap::kRotate180:
      return {-p.x, -p.y};
    case PlaneMap::kMirrorX:
      return {-p.x, p.y};
    case PlaneMap::kSwapXY:
      return {p.y, p.x};
  }
  return p;
}

void expect_same_stats(const EpochStats& a, const EpochStats& b, int c) {
  EXPECT_EQ(a.offered, b.offered) << "case " << c << " epoch " << a.epoch;
  EXPECT_EQ(a.confirmed, b.confirmed) << "case " << c << " epoch " << a.epoch;
  EXPECT_EQ(a.unrecovered, b.unrecovered) << "case " << c;
  EXPECT_EQ(a.deferred, b.deferred) << "case " << c << " epoch " << a.epoch;
  EXPECT_EQ(a.decisions, b.decisions) << "case " << c << " epoch " << a.epoch;
  EXPECT_EQ(a.live_aps, b.live_aps) << "case " << c << " epoch " << a.epoch;
  EXPECT_EQ(a.active_clients, b.active_clients) << "case " << c;
  EXPECT_EQ(a.quarantined_clients, b.quarantined_clients) << "case " << c;
  EXPECT_EQ(a.handoffs, b.handoffs) << "case " << c << " epoch " << a.epoch;
  EXPECT_EQ(a.rematched_aps, b.rematched_aps) << "case " << c;
  EXPECT_EQ(a.outages_started, b.outages_started) << "case " << c;
  EXPECT_EQ(a.bursts_started, b.bursts_started) << "case " << c;
  EXPECT_EQ(a.departures, b.departures) << "case " << c;
  EXPECT_EQ(a.quarantines, b.quarantines) << "case " << c;
  EXPECT_EQ(a.readmissions, b.readmissions) << "case " << c;
  EXPECT_EQ(a.ladder_steps, b.ladder_steps) << "case " << c;
  EXPECT_EQ(a.watchdog_fires, b.watchdog_fires) << "case " << c;
  EXPECT_EQ(a.mean_health, b.mean_health) << "case " << c;
}

TEST(DeploymentEngineAssociation, DecisionsInvariantUnderExactPlaneSymmetries) {
  // Rotating, mirroring or transposing the whole layout changes no
  // distance, so a deployment must make the same decisions, bit for bit:
  // epoch stats, assignments and every AP's completion time. The mapped
  // run uses 4 threads against the original's 1. Chaos brings outages,
  // bursts and departures but no arrivals: an arrival is placed around a
  // site by draws that do not transform with the layout.
  const phy::DiscreteRateAdapter dot11g{phy::RateTable::dot11g()};
  ChaosProfile profile;
  profile.ap_outage_prob = 0.03;
  profile.outage_epochs = 2;
  profile.burst_prob = 0.05;
  profile.departure_prob = 0.01;
  Rng rng{97};
  std::vector<topology::Point> sites;
  for (int i = 0; i < 16; ++i) {
    sites.push_back({50.0 * (i % 4) + rng.uniform(-10.0, 10.0),
                     50.0 * (i / 4) + rng.uniform(-10.0, 10.0)});
  }
  std::vector<topology::Point> clients;
  for (int c = 0; c < 200; ++c) {
    clients.push_back({rng.uniform(-20.0, 170.0), rng.uniform(-20.0, 170.0)});
  }

  struct Case {
    PlaneMap map;
    double penalty_db;
    AssociationMode mode;
    bool dot11g_techniques;
  };
  const Case cases[] = {
      {PlaneMap::kRotate90, 0.0, AssociationMode::kGrid, false},
      {PlaneMap::kRotate90, 0.5, AssociationMode::kBruteForce, true},
      {PlaneMap::kRotate180, 0.0, AssociationMode::kBruteForce, false},
      {PlaneMap::kRotate180, 0.5, AssociationMode::kGrid, true},
      {PlaneMap::kMirrorX, 0.0, AssociationMode::kGrid, true},
      {PlaneMap::kMirrorX, 0.5, AssociationMode::kBruteForce, false},
      {PlaneMap::kSwapXY, 0.0, AssociationMode::kBruteForce, true},
      {PlaneMap::kSwapXY, 0.5, AssociationMode::kGrid, false},
  };
  int outages = 0;
  int handoffs = 0;
  for (int k = 0; k < static_cast<int>(std::size(cases)); ++k) {
    const Case& c = cases[k];
    DeploymentEngineConfig config;
    config.scheduler.enable_power_control = c.dot11g_techniques;
    config.scheduler.enable_multirate = c.dot11g_techniques;
    config.load_penalty_per_client = Decibels{c.penalty_db};
    config.association_mode = c.mode;
    config.epoch_drift_sigma = Decibels{1.0};
    config.seed = 29;
    const phy::RateAdapter& adapter =
        c.dot11g_techniques ? static_cast<const phy::RateAdapter&>(dot11g)
                            : kShannon;
    std::vector<topology::Point> mapped_sites;
    for (const topology::Point p : sites) {
      mapped_sites.push_back(apply(c.map, p));
    }
    config.threads = 1;
    DeploymentEngine base{sites, adapter, config, FaultSchedule{profile}};
    config.threads = 4;
    DeploymentEngine mapped{mapped_sites, adapter, config,
                            FaultSchedule{profile}};
    for (const topology::Point p : clients) {
      (void)base.add_client(p);
      (void)mapped.add_client(apply(c.map, p));
    }
    for (int e = 0; e < 24; ++e) {
      const EpochStats a = base.run_epoch();
      const EpochStats b = mapped.run_epoch();
      expect_same_stats(a, b, k);
      outages += a.outages_started;
      handoffs += a.handoffs;
      for (int ap = 0; ap < base.n_aps(); ++ap) {
        EXPECT_EQ(base.last_ap_result(ap).completion_s,
                  mapped.last_ap_result(ap).completion_s)
            << "case " << k << " epoch " << e << " ap " << ap;
      }
      for (int i = 0; i < static_cast<int>(clients.size()); ++i) {
        ASSERT_EQ(base.assignment(i), mapped.assignment(i))
            << "case " << k << " epoch " << e << " client " << i;
      }
    }
  }
  EXPECT_GT(outages, 0);
  EXPECT_GT(handoffs, 0);
}

}  // namespace
}  // namespace sic::mac
