#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "analysis/parallel.hpp"
#include "analysis/trace_eval.hpp"
#include "obs/metrics.hpp"
#include "trace/generator.hpp"

/// \file parallel_sweep_test.cpp
/// The determinism contract of the parallel sweep engine: every ported
/// sweep returns bit-identical samples — and publishes identical metric
/// counters — at --threads 1, 4, and 7 (7 oversubscribes the pool relative
/// to the chunk count, exercising uneven schedules).

namespace sic::analysis {
namespace {

const phy::ShannonRateAdapter kShannon{megahertz(20.0)};
constexpr int kThreadCounts[] = {1, 4, 7};

/// Runs \p sweep under a freshly attached registry and returns its samples
/// plus the name-sorted counter values it published.
template <typename Sweep>
auto with_counters(const Sweep& sweep) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* previous = obs::set_metrics(&reg);
  auto samples = sweep();
  obs::set_metrics(previous);
  return std::make_pair(std::move(samples), reg.counter_values());
}

void expect_identical(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "sample " << i;
  }
}

TEST(ParallelSweep, RunnerMapTrialsMatchesDirectSubstreams) {
  // The engine's output is definitionally results[t] = body(Rng::at(seed,
  // t), t), independent of pool size.
  ParallelRunner parallel{{.threads = 4, .chunk_trials = 8}};
  const auto got = parallel.map_trials<double>(
      100, 77, [](Rng& rng, std::int64_t) { return rng.uniform(0.0, 1.0); });
  for (std::int64_t t = 0; t < 100; ++t) {
    Rng rng = Rng::at(77, static_cast<std::uint64_t>(t));
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(t)],
                     rng.uniform(0.0, 1.0));
  }
}

/// One trial's stream folded into an exact value: an index-dependent
/// number of draws, some past the lazy prefix, then every third trial
/// hands off to engine().
std::uint64_t stream_digest(Rng& rng, std::int64_t t) {
  std::uint64_t h = static_cast<std::uint64_t>(t);
  for (std::int64_t d = 0; d < t % 21; ++d) {
    h = h * 31 + std::bit_cast<std::uint64_t>(rng.uniform(0.0, 1.0));
  }
  if (t % 3 == 0) h ^= rng.engine()();
  return h;
}

/// stream_digest of every trial, one Rng::at per trial, in order.
std::vector<std::uint64_t> sequential_digests(std::int64_t trials,
                                              std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  for (std::int64_t t = 0; t < trials; ++t) {
    Rng rng = Rng::at(seed, static_cast<std::uint64_t>(t));
    out.push_back(stream_digest(rng, t));
  }
  return out;
}

TEST(ParallelSweep, MapTrialsIdenticalForEveryChunkSizeAndThreadCount) {
  // Chunks of 1 and 3 cut the batched seeding at every offset.
  const auto want = sequential_digests(333, 91);
  for (const int chunk : {1, 3, 64}) {
    for (const int threads : kThreadCounts) {
      ParallelRunner runner{{.threads = threads, .chunk_trials = chunk}};
      EXPECT_EQ(runner.map_trials<std::uint64_t>(333, 91, stream_digest), want)
          << "chunk " << chunk << " threads " << threads;
    }
  }
}

TEST(ParallelSweep, SweepNestedOnTheCallingThreadReturnsSequentialResult) {
  // While the outer sweep runs, its pool is busy. A body on the calling
  // thread that starts a sweep of the same size must get a pool of its
  // own, never the busy one.
  const std::thread::id caller = std::this_thread::get_id();
  const auto inner_want = sequential_digests(50, 7);
  int nested = 0;
  // Workers hold their first trial until the calling thread has claimed
  // one, so the nested case runs however the threads are scheduled.
  std::atomic<bool> caller_claimed{false};
  // Leave an idle pool of 4 on this thread's free list for the outer
  // sweep to borrow: the case where a listed pool could be handed out
  // twice.
  { const ParallelRunner warm{{.threads = 4}}; }
  ParallelRunner outer{{.threads = 4, .chunk_trials = 1}};
  const auto got = outer.map_trials<std::uint64_t>(
      64, 91, [&](Rng& rng, std::int64_t t) {
        if (std::this_thread::get_id() != caller) {
          while (!caller_claimed.load()) std::this_thread::yield();
        } else {
          caller_claimed = true;
          ParallelRunner inner{{.threads = 4, .chunk_trials = 3}};
          EXPECT_EQ(inner.map_trials<std::uint64_t>(50, 7, stream_digest),
                    inner_want);
          ++nested;
        }
        return stream_digest(rng, t);
      });
  EXPECT_EQ(got, sequential_digests(64, 91));
  EXPECT_GT(nested, 0);
}

TEST(ParallelSweep, SweepAfterAThrowingSweepIsCorrect) {
  const auto want = sequential_digests(200, 5);
  const auto failing_body = [](Rng& rng, std::int64_t t) -> std::uint64_t {
    if (t == 101) throw std::runtime_error{"trial failed"};
    return stream_digest(rng, t);
  };
  for (const int threads : kThreadCounts) {
    {
      ParallelRunner runner{{.threads = threads, .chunk_trials = 3}};
      EXPECT_THROW((void)runner.map_trials<std::uint64_t>(200, 5, failing_body),
                   std::runtime_error);
      EXPECT_EQ(runner.map_trials<std::uint64_t>(200, 5, stream_digest), want)
          << "same runner, threads " << threads;
    }
    // A new runner borrows the pool the failed sweep ran on.
    ParallelRunner next{{.threads = threads, .chunk_trials = 3}};
    EXPECT_EQ(next.map_trials<std::uint64_t>(200, 5, stream_digest), want)
        << "next runner, threads " << threads;
  }
}

TEST(ParallelSweep, TwoLinkGainsThreadCountInvariant) {
  topology::SamplerConfig config;
  const auto [base, base_counters] = with_counters(
      [&] { return run_two_link_gains(config, kShannon, 400, 5, 12000.0, 1); });
  ASSERT_EQ(base.size(), 400u);
  for (const int threads : kThreadCounts) {
    const auto [gains, counters] = with_counters([&] {
      return run_two_link_gains(config, kShannon, 400, 5, 12000.0, threads);
    });
    expect_identical(base, gains);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, TwoToOneTechniquesThreadCountInvariant) {
  topology::SamplerConfig config;
  const auto [base, base_counters] = with_counters([&] {
    return run_two_to_one_techniques(config, kShannon, 300, 11, 12000.0, 1);
  });
  for (const int threads : kThreadCounts) {
    const auto [samples, counters] = with_counters([&] {
      return run_two_to_one_techniques(config, kShannon, 300, 11, 12000.0,
                                       threads);
    });
    expect_identical(base.sic, samples.sic);
    expect_identical(base.power_control, samples.power_control);
    expect_identical(base.multirate, samples.multirate);
    expect_identical(base.packing, samples.packing);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, TwoLinkTechniquesThreadCountInvariant) {
  topology::SamplerConfig config;
  const auto [base, base_counters] = with_counters([&] {
    return run_two_link_techniques(config, kShannon, 200, 13, 12000.0, 1);
  });
  for (const int threads : kThreadCounts) {
    const auto [samples, counters] = with_counters([&] {
      return run_two_link_techniques(config, kShannon, 200, 13, 12000.0,
                                     threads);
    });
    expect_identical(base.sic, samples.sic);
    expect_identical(base.power_control, samples.power_control);
    expect_identical(base.packing, samples.packing);
    EXPECT_TRUE(samples.multirate.empty());
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, UploadDeploymentGainsThreadCountInvariant) {
  // This sweep drives schedule_upload -> blossom matching, whose counters
  // are published from worker threads — the merge path under test.
  topology::SamplerConfig config;
  const auto [base, base_counters] = with_counters([&] {
    return run_upload_deployment_gains(config, kShannon, 60, 8, 17, 12000.0,
                                       1);
  });
  ASSERT_EQ(base.size(), 60u);
  bool saw_matching_counter = false;
  bool saw_engine_counter = false;
  for (const auto& [name, value] : base_counters) {
    if (name.find("matching.") == 0 && value > 0) saw_matching_counter = true;
    if (name.find("scheduler.pair_engine.") == 0 && value > 0) {
      saw_engine_counter = true;
    }
  }
  EXPECT_TRUE(saw_matching_counter)
      << "expected worker-side matching counters to reach the caller";
  EXPECT_TRUE(saw_engine_counter)
      << "expected pair-cost engine counters to reach the caller";
  for (const int threads : kThreadCounts) {
    const auto [gains, counters] = with_counters([&] {
      return run_upload_deployment_gains(config, kShannon, 60, 8, 17, 12000.0,
                                         threads);
    });
    expect_identical(base, gains);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, DownloadTraceThreadCountInvariant) {
  trace::LinkTraceConfig config;
  const auto link_trace = trace::generate_link_trace(config, 23);
  DownloadTraceEvalConfig eval;
  eval.pair_samples = 300;
  const auto [base, base_counters] = with_counters([&] {
    eval.threads = 1;
    return evaluate_download_trace(link_trace, kShannon, eval);
  });
  for (const int threads : kThreadCounts) {
    const auto [gains, counters] = with_counters([&] {
      eval.threads = threads;
      return evaluate_download_trace(link_trace, kShannon, eval);
    });
    expect_identical(base.plain, gains.plain);
    expect_identical(base.packing, gains.packing);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, UploadTraceThreadCountInvariant) {
  trace::BuildingConfig config;
  config.duration_s = 2 * 3600;
  config.diurnal = false;
  const auto rssi_trace = trace::generate_building_trace(config, 31);
  UploadTraceEvalConfig eval;
  const auto [base, base_counters] = with_counters([&] {
    eval.threads = 1;
    return evaluate_upload_trace(rssi_trace, kShannon, eval);
  });
  ASSERT_GT(base.cells_evaluated, 0);
  for (const int threads : kThreadCounts) {
    const auto [gains, counters] = with_counters([&] {
      eval.threads = threads;
      return evaluate_upload_trace(rssi_trace, kShannon, eval);
    });
    EXPECT_EQ(base.cells_evaluated, gains.cells_evaluated);
    expect_identical(base.pairing, gains.pairing);
    expect_identical(base.power_control, gains.power_control);
    expect_identical(base.multirate, gains.multirate);
    expect_identical(base.greedy_pairing, gains.greedy_pairing);
    EXPECT_EQ(base_counters, counters) << "threads=" << threads;
  }
}

TEST(ParallelSweep, DetachedRunMatchesAttachedRun) {
  // Observers stay pure on the parallel path too: samples are bit-identical
  // with and without a registry attached.
  topology::SamplerConfig config;
  const auto detached =
      run_two_link_gains(config, kShannon, 200, 5, 12000.0, 4);
  const auto [attached, counters] = with_counters(
      [&] { return run_two_link_gains(config, kShannon, 200, 5, 12000.0, 4); });
  expect_identical(detached, attached);
  EXPECT_FALSE(counters.empty());
}

TEST(ParallelSweep, ZeroMeansAllHardwareThreads) {
  topology::SamplerConfig config;
  const auto base = run_two_link_gains(config, kShannon, 100, 5, 12000.0, 1);
  const auto all = run_two_link_gains(config, kShannon, 100, 5, 12000.0, 0);
  expect_identical(base, all);
}

}  // namespace
}  // namespace sic::analysis
