#ifndef SICMAC_CORE_PAIR_COST_ENGINE_HPP
#define SICMAC_CORE_PAIR_COST_ENGINE_HPP

/// \file pair_cost_engine.hpp
/// Incremental pair-cost engine for the Fig. 12 scheduling reduction.
///
/// The reduction's dominant cost at realistic client counts is not the
/// matching but the all-pairs completion-time matrix feeding it: n(n−1)/2
/// best_pair_plan evaluations, each re-deriving per-client state (solo
/// airtime, margin-derated RSS) that only depends on one endpoint. The
/// engine splits that work into
///
///  - per-client derived state, computed once per client and reused across
///    the client's whole row (SoA layout: rss / derated rss / solo airtime,
///    plus the derated clean rate with multirate on, in parallel arrays),
///  - a pair kernel shared with best_pair_plan (see
///    best_pair_plan_from_context) evaluating a row of pairs against one
///    client's precomputed state, and
///  - a pair-plan cache with dirty-row invalidation keyed on the client's
///    channel fingerprint (its linear RSS): update_client() invalidates a
///    row only when the new estimate moved beyond a configurable epsilon,
///    so a re-matching round after re-estimation recomputes O(Δn·n) plans
///    instead of O(n²), with the plan table and cost matrix reused across
///    rounds instead of reallocated.
///
/// A plan starts at the pair's serial sum and moves only on a strict <, so
/// the matrix meets run_pairing's bound with the solo airtimes as serial.
///
/// Contract: schedules are bit-identical to the historical from-scratch
/// path (same PairPlans, same matching input, same slot order) whenever the
/// invalidation epsilon is 0 dB — the default — because the cache only ever
/// skips recomputations whose inputs are unchanged. A nonzero epsilon is an
/// explicit approximation knob: rows within epsilon keep serving the plans
/// of their *fingerprinted* (stale) RSS. Pinned by
/// tests/pair_cost_engine_test.cpp.
///
/// Observability: each schedule() / schedule_subset() publishes engine
/// counters (pair evals, cache hits, row invalidations, builds) and a
/// kernel wall-time histogram under scheduler.pair_engine.* at the build
/// boundary, following the zero-cost-when-detached contract — the hot path
/// accumulates plain integers and never touches the registry.

#include <cstdint>
#include <span>
#include <vector>

#include "channel/link.hpp"
#include "core/scheduler.hpp"
#include "matching/graph.hpp"
#include "phy/rate_adapter.hpp"

namespace sic::core {

/// Monotone counters for one engine instance (schedule-independent: they
/// depend only on the sequence of set_clients/update_client/schedule calls,
/// never on wall clock or thread placement).
struct PairCostEngineStats {
  std::uint64_t builds = 0;             ///< schedule()/schedule_subset() calls
  std::uint64_t row_invalidations = 0;  ///< rows dirtied beyond epsilon
  std::uint64_t pair_evals = 0;         ///< pair plans computed by the kernel
  std::uint64_t pair_cache_hits = 0;    ///< pair plans served from cache
};

class PairCostEngine {
 public:
  /// \p adapter must outlive the engine. \p invalidation_epsilon is the
  /// channel-fingerprint tolerance of update_client(): estimates moving at
  /// most this many dB keep their cached row. 0 dB (the default) preserves
  /// bit-identity with from-scratch scheduling.
  PairCostEngine(const phy::RateAdapter& adapter, SchedulerOptions options,
                 Decibels invalidation_epsilon = Decibels{0.0});

  /// Installs a new client set: every row becomes dirty (a full rebuild),
  /// unconditionally — set_clients means "new topology", so counters stay
  /// independent of whatever happened to be cached. Storage is reused.
  /// Clients must share one noise floor when there are two or more.
  void set_clients(std::span<const channel::LinkBudget> clients);

  /// Re-estimates one client's RSS. Invalidates the client's row only when
  /// the estimate moved beyond the invalidation epsilon; otherwise the row
  /// keeps its fingerprinted RSS and cached plans. Throws std::out_of_range
  /// when \p client is not a current client index — callers racing a
  /// handoff against a topology change get a typed error instead of an
  /// out-of-bounds write.
  void update_client(int client, Milliwatts rss);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }
  [[nodiscard]] const PairCostEngineStats& stats() const { return stats_; }

  /// The schedule over all clients; recomputes dirty pairs only.
  [[nodiscard]] Schedule schedule();

  /// The schedule over a subset of clients (the closed-loop executor's
  /// residual backlog). Slot indices refer to positions in \p clients, so
  /// the result is interchangeable with schedule_upload() called on the
  /// subset's budgets. Indices must be distinct and in range.
  [[nodiscard]] Schedule schedule_subset(std::span<const int> clients);

 private:
  /// Batched row kernel: computes and caches the pair plans of client
  /// \p gi against every client in \p cols in three passes over SoA
  /// scratch — (1) stronger/weaker normalization + both SIC SINRs,
  /// (2) one rate_span() call for both SIC rates of every pair (single
  /// virtual dispatch per row), (3) plan selection replicating
  /// best_pair_plan_from_context bit-for-bit. Pass 3 looks up no rate
  /// for plain SIC or multirate: it reuses pass 2's rates and the
  /// per-client clean rate; only power control searches further.
  void compute_row(int gi, std::span<const int> cols);
  [[nodiscard]] Schedule schedule_indices(std::span<const int> idx);
  void refresh_derived(int client);
  void invalidate_row(int client);
  void publish_stats();

  const phy::RateAdapter* adapter_;
  SchedulerOptions options_;
  double derate_ = 1.0;  ///< linear admission-margin back-off, hoisted
  Decibels epsilon_{0.0};
  Milliwatts noise_{0.0};
  int n_ = 0;

  // Per-client derived state, SoA so the row kernel streams it.
  std::vector<Milliwatts> rss_;          ///< fingerprinted channel estimate
  std::vector<Milliwatts> derated_rss_;  ///< rss × margin derate
  std::vector<double> solo_airtime_;     ///< clean solo airtime
  /// Clean rate of the derated RSS, kept only with multirate on: the rate
  /// a lagging stronger client switches to.
  std::vector<BitsPerSecond> derated_clean_rate_;

  // Symmetric pair-plan cache (n × n, both triangles mirrored).
  std::vector<PairPlan> plans_;
  std::vector<std::uint8_t> valid_;

  std::vector<int> all_indices_;    ///< identity map for schedule()
  matching::CostMatrix costs_{0};   ///< scratch, reused across builds

  // Row-kernel and matcher scratch, reused across builds (mirrors the
  // costs_ idiom: one allocation for the engine's lifetime).
  std::vector<int> row_cols_;                      ///< dirty columns of a row
  std::vector<double> row_sinr_;                   ///< both SIC SINR lanes
  std::vector<BitsPerSecond> row_rates_;           ///< rate_span results
  std::vector<double> serial_scratch_;             ///< per-vertex solo airtime
  std::vector<matching::WeightedEdge> edge_scratch_;  ///< greedy's edges

  PairCostEngineStats stats_;
  PairCostEngineStats published_;  ///< high-water mark already published
};

}  // namespace sic::core

#endif  // SICMAC_CORE_PAIR_COST_ENGINE_HPP
