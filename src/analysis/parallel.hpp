#ifndef SICMAC_ANALYSIS_PARALLEL_HPP
#define SICMAC_ANALYSIS_PARALLEL_HPP

/// \file parallel.hpp
/// The deterministic parallel Monte Carlo engine behind every sweep in
/// this library (Fig. 6 / 11 gain CDFs, the random-deployment scheduler
/// sweep, the Section 7 trace cross products).
///
/// Determinism contract (tested in tests/parallel_sweep_test.cpp):
///
///  1. *One substream per trial index.* Each trial draws from
///     `Rng::at(seed, trial)` — a counter-based SplitMix64 substream that
///     depends only on (seed, trial), never on which thread runs the trial
///     or how many trials ran before it.
///  2. *Index-addressed results.* Trial t writes results[t]; the output
///     vector is identical for any thread count or chunk schedule.
///  3. *Deterministic obs counters.* Worker threads see a per-chunk
///     scratch MetricsRegistry (the attach point is thread-local), merged
///     into the caller's registry at chunk boundaries. Counter values are
///     additive over trials, hence schedule-independent; histogram bucket
///     counts likewise (their floating-point `sum` and wall-time values
///     are not, as with any timing metric). Trace-sink spans are not
///     forwarded from workers.
///
/// When the caller has no registry attached the scratch registries are
/// skipped entirely, preserving the obs layer's zero-cost-when-detached
/// contract on the sweep hot path.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sic::analysis {

struct ParallelOptions {
  /// Worker count including the calling thread; 0 means all hardware
  /// threads. 1 (the default) runs inline with no pool threads.
  int threads = 1;
  /// Trials handed to a worker per claim. Large enough to amortize the
  /// claim lock, small enough to load-balance trials of uneven cost.
  int chunk_trials = 64;
};

/// Collects per-chunk scratch registries and folds them into the registry
/// that was attached on the sweep's calling thread. Inactive (and free)
/// when the caller runs detached.
class SweepObsMerger {
 public:
  SweepObsMerger();                      ///< captures obs::metrics()
  ~SweepObsMerger();                     ///< folds into the caller registry

  SweepObsMerger(const SweepObsMerger&) = delete;
  SweepObsMerger& operator=(const SweepObsMerger&) = delete;

  [[nodiscard]] bool active() const { return caller_ != nullptr; }

  /// Attaches a chunk-local registry on the current thread (worker or
  /// caller) for the duration of one chunk, then merges it into the shared
  /// accumulator. Constructed only when active().
  class ChunkScope {
   public:
    explicit ChunkScope(SweepObsMerger& merger);
    ~ChunkScope();
    ChunkScope(const ChunkScope&) = delete;
    ChunkScope& operator=(const ChunkScope&) = delete;

   private:
    SweepObsMerger& merger_;
    obs::MetricsRegistry registry_;
    obs::MetricsRegistry* previous_;
  };

 private:
  obs::MetricsRegistry* caller_;
  obs::MetricsRegistry merged_;
  std::mutex mu_;
};

/// Thread-pool sweep engine. Construct once, then run any number of
/// sweeps through map_trials()/map_indices().
///
/// The pool is borrowed: a runner takes an idle pool of its size from a
/// free list owned by the constructing thread, spawning one only when
/// none is idle, and returns it to the destroying thread's list. Back-to-
/// back sweeps on one thread thus reuse one set of workers. A busy pool
/// is never on a list, so a sweep nested in another sweep's body, or one
/// run concurrently from another thread, never shares it.
class ParallelRunner {
 public:
  explicit ParallelRunner(const ParallelOptions& options = {});
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  [[nodiscard]] int threads() const { return pool_->threads(); }

  /// results[t] = body(rng_t, t) with rng_t = Rng::at(seed, t). T must be
  /// default-constructible; body must be callable concurrently (pure
  /// functions of rng + inputs — the obs attach points are thread-local,
  /// so instrumented callees are safe). Each chunk seeds its trials'
  /// streams in batches (Rng::for_each_at), then runs the bodies in index
  /// order.
  template <typename T, typename Body>
  std::vector<T> map_trials(std::int64_t trials, std::uint64_t seed,
                            const Body& body) {
    return map_chunks<T>(trials, [&](std::int64_t begin, std::int64_t end,
                                     std::vector<T>& results) {
      Rng::for_each_at(seed, static_cast<std::uint64_t>(begin),
                       static_cast<std::uint64_t>(end),
                       [&](Rng& rng, std::uint64_t t) {
                         results[t] = body(rng, static_cast<std::int64_t>(t));
                       });
    });
  }

  /// results[i] = body(i) — the RNG-free variant for deterministic cross
  /// products (e.g. trace-eval cells). Same scheduling and obs-merge
  /// machinery as map_trials().
  template <typename T, typename Body>
  std::vector<T> map_indices(std::int64_t n, const Body& body) {
    return map_chunks<T>(n, [&](std::int64_t begin, std::int64_t end,
                                std::vector<T>& results) {
      for (std::int64_t i = begin; i < end; ++i) {
        results[static_cast<std::size_t>(i)] = body(i);
      }
    });
  }

 private:
  /// Runs fill(begin, end, results) over the chunks of [0, n) and returns
  /// results.
  template <typename T, typename Fill>
  std::vector<T> map_chunks(std::int64_t n, const Fill& fill) {
    SIC_CHECK(n >= 0);
    std::vector<T> results(static_cast<std::size_t>(n));
    SweepObsMerger merger;
    pool_->parallel_for(n, chunk_, [&](std::int64_t begin, std::int64_t end) {
      if (!merger.active()) {
        // Detached: no scratch registry, no merge — zero obs cost.
        fill(begin, end, results);
        return;
      }
      // Chunk boundary = obs batch boundary: instrumented callees publish
      // into a chunk-local registry (threads == 1 included, so counters
      // are identical across thread counts), folded into the shared
      // accumulator once per chunk.
      SweepObsMerger::ChunkScope scope{merger};
      fill(begin, end, results);
    });
    return results;
  }

  std::unique_ptr<ThreadPool> pool_;
  std::int64_t chunk_;
};

}  // namespace sic::analysis

#endif  // SICMAC_ANALYSIS_PARALLEL_HPP
