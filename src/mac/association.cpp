#include "mac/association.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "topology/geometry.hpp"
#include "util/check.hpp"

namespace sic::mac {

namespace {

/// Guard subtracted from the grid cutoff's upper bound before pruning.
/// The bound mixes received_power(ring_lower_bound) with the minimum load
/// penalty in plain dB arithmetic; 1e-6 dB absorbs any rounding slack in
/// that *bound* (scores themselves are computed exactly, so decisions
/// stay bit-identical to brute force — the guard only makes the walk
/// visit at most one extra ring).
constexpr double kCutoffSlackDb = 1e-6;

}  // namespace

AssociationPlanner::AssociationPlanner(
    std::span<const topology::Point> ap_sites,
    const channel::LogDistancePathLoss& pathloss, Dbm client_tx_power,
    Decibels load_penalty_per_client)
    : index_(ap_sites),
      pathloss_(&pathloss),
      client_tx_power_(client_tx_power),
      load_penalty_per_client_(load_penalty_per_client) {
  SIC_CHECK(load_penalty_per_client_.value() >= 0.0);
}

Dbm AssociationPlanner::score(topology::Point client, int ap,
                              int members) const {
  const double d = topology::distance(client, index_.point(ap));
  return pathloss_->received_power(client_tx_power_, d) -
         load_penalty_per_client_ * static_cast<double>(members);
}

AssociationProposal AssociationPlanner::propose_brute(
    topology::Point client, int incumbent,
    std::span<const std::uint8_t> ap_alive,
    std::span<const int> ap_members) const {
  AssociationProposal p;
  p.scored_for = incumbent;
  const int n = index_.size();
  for (int ap = 0; ap < n; ++ap) {
    if (ap_alive[static_cast<std::size_t>(ap)] == 0) continue;
    const Dbm s = score(client, ap, ap_members[static_cast<std::size_t>(ap)]);
    ++p.candidates;
    if (ap == incumbent) p.incumbent_score = s;
    // Strict > in ascending id order: ties keep the lower id.
    if (p.best_ap < 0 || s > p.best_score) {
      p.best_ap = ap;
      p.best_score = s;
    }
  }
  return p;
}

AssociationProposal AssociationPlanner::propose_grid(
    topology::Point client, int incumbent,
    std::span<const std::uint8_t> ap_alive, std::span<const int> ap_members,
    int min_live_members, std::vector<int>& ring_scratch) const {
  AssociationProposal p;
  p.scored_for = incumbent;
  // No live AP can beat this bound from ring r onward: its RSS is at most
  // the RSS at the ring's distance lower bound (received power is
  // monotone non-increasing in distance, clamped below the reference
  // distance), and its load penalty is at least the fleet minimum.
  const Decibels min_penalty =
      load_penalty_per_client_ * static_cast<double>(min_live_members);
  const int last_ring = index_.max_ring(client);
  for (int ring = 0; ring <= last_ring; ++ring) {
    if (p.best_ap >= 0) {
      const Dbm bound =
          pathloss_->received_power(client_tx_power_,
                                    index_.ring_lower_bound_m(ring)) -
          min_penalty;
      if (bound.value() + kCutoffSlackDb < p.best_score.value()) break;
    }
    ring_scratch.clear();
    index_.collect_ring(client, ring, ring_scratch);
    for (const int ap : ring_scratch) {
      if (ap_alive[static_cast<std::size_t>(ap)] == 0) continue;
      const Dbm s =
          score(client, ap, ap_members[static_cast<std::size_t>(ap)]);
      ++p.candidates;
      if (ap == incumbent) p.incumbent_score = s;
      // Brute force scans ascending ids with strict >, which resolves
      // equal scores toward the lower id; the ring walk visits ids out of
      // order, so spell the tie-break out.
      if (p.best_ap < 0 || s > p.best_score ||
          (s == p.best_score && ap < p.best_ap)) {
        p.best_ap = ap;
        p.best_score = s;
      }
    }
  }
  // The walk may prune the incumbent's ring when it cannot win, but the
  // commit phase's hysteresis check still needs its score.
  if (incumbent >= 0 && ap_alive[static_cast<std::size_t>(incumbent)] != 0 &&
      std::isinf(p.incumbent_score.value())) {
    p.incumbent_score =
        score(client, incumbent,
              ap_members[static_cast<std::size_t>(incumbent)]);
  }
  return p;
}

void AssociationPlanner::plan(AssociationMode mode,
                              std::span<const double> xs,
                              std::span<const double> ys,
                              std::span<const std::uint8_t> eligible,
                              std::span<const int> incumbent,
                              std::span<const std::uint8_t> ap_alive,
                              std::span<const int> ap_members,
                              ThreadPool& pool,
                              std::vector<AssociationProposal>& out) const {
  (void)score_clients(mode, xs, ys, eligible, incumbent, ap_alive, ap_members,
                      /*keep_scored=*/false, pool, out);
}

std::size_t AssociationPlanner::replan(
    AssociationMode mode, std::span<const double> xs,
    std::span<const double> ys, std::span<const std::uint8_t> eligible,
    std::span<const int> incumbent, std::span<const std::uint8_t> ap_alive,
    std::span<const int> ap_members, ThreadPool& pool,
    ProposalCarry& carry) const {
  // Member counts change no bit of a proposal at a zero load penalty
  // (file comment), so then liveness alone decides whether last call's
  // snapshot still holds.
  const bool same_snapshot =
      std::ranges::equal(ap_alive, carry.ap_alive) &&
      (load_penalty_per_client_.value() <= 0.0 ||
       std::ranges::equal(ap_members, carry.ap_members));
  const std::size_t scored =
      score_clients(mode, xs, ys, eligible, incumbent, ap_alive, ap_members,
                    /*keep_scored=*/same_snapshot, pool, carry.proposals);
  carry.ap_alive.assign(ap_alive.begin(), ap_alive.end());
  carry.ap_members.assign(ap_members.begin(), ap_members.end());
  return scored;
}

std::size_t AssociationPlanner::score_clients(
    AssociationMode mode, std::span<const double> xs,
    std::span<const double> ys, std::span<const std::uint8_t> eligible,
    std::span<const int> incumbent, std::span<const std::uint8_t> ap_alive,
    std::span<const int> ap_members, bool keep_scored, ThreadPool& pool,
    std::vector<AssociationProposal>& out) const {
  const std::size_t n_clients = xs.size();
  SIC_CHECK(ys.size() == n_clients && eligible.size() == n_clients &&
            incumbent.size() == n_clients);
  SIC_CHECK(ap_alive.size() == static_cast<std::size_t>(index_.size()) &&
            ap_members.size() == static_cast<std::size_t>(index_.size()));
  // Appended clients get unscored slots. Grow to the exact count, not by
  // doubling: a carry lives as long as its engine, and arrivals would
  // otherwise raise the peak heap.
  out.reserve(n_clients);
  out.resize(n_clients);

  // Ineligible slots hold the default proposal. One cheap sequential pass
  // resets those of clients that turned ineligible and finds out whether
  // any eligible client needs a score; a steady epoch keeps every
  // proposal and leaves the pool's workers asleep.
  const auto keep = [&](std::size_t ci) {
    return keep_scored && out[ci].scored_for == incumbent[ci];
  };
  bool any_stale = false;
  for (std::size_t ci = 0; ci < n_clients; ++ci) {
    if (eligible[ci] == 0) {
      out[ci] = AssociationProposal{};
    } else {
      any_stale = any_stale || !keep(ci);
    }
  }
  if (!any_stale) return 0;

  // Fleet-wide minimum member count over live APs, for the grid cutoff's
  // load bound. One sequential O(APs) pass per epoch — negligible next to
  // the per-client work it prunes.
  int min_live_members = 0;
  if (mode == AssociationMode::kGrid) {
    bool seen = false;
    for (int ap = 0; ap < index_.size(); ++ap) {
      if (ap_alive[static_cast<std::size_t>(ap)] == 0) continue;
      const int m = ap_members[static_cast<std::size_t>(ap)];
      min_live_members = seen ? std::min(min_live_members, m) : m;
      seen = true;
    }
  }

  // Each chunk adds its count once; an integer sum is the same in any
  // order, so the total is thread-count invariant like the proposals.
  std::atomic<std::size_t> scored{0};
  constexpr std::int64_t kChunk = 256;
  pool.parallel_for(
      static_cast<std::int64_t>(n_clients), kChunk,
      [&](std::int64_t begin, std::int64_t end) {
        std::vector<int> ring_scratch;
        std::size_t chunk_scored = 0;
        for (std::int64_t i = begin; i < end; ++i) {
          const std::size_t ci = static_cast<std::size_t>(i);
          if (eligible[ci] == 0 || keep(ci)) continue;
          const topology::Point q{xs[ci], ys[ci]};
          out[ci] = mode == AssociationMode::kBruteForce
                        ? propose_brute(q, incumbent[ci], ap_alive,
                                        ap_members)
                        : propose_grid(q, incumbent[ci], ap_alive,
                                       ap_members, min_live_members,
                                       ring_scratch);
          ++chunk_scored;
        }
        scored += chunk_scored;
      });
  return scored;
}

}  // namespace sic::mac
