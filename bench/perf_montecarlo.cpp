/// Throughput of the deterministic parallel Monte Carlo engine. Runs each
/// ported sweep at every thread count in --threads-list (default 1,2,4)
/// and prints one JSON line per (sweep, threads):
///
///   {"bench":"perf_montecarlo","sweep":"two_link_gains","threads":4,
///    "trials":20000,"runs":5,"wall_ms":82.4,"samples_per_sec":242718.4,
///    "speedup_vs_1":3.41,"identical_to_first":true}
///
/// Each line times at least kMinRuns runs and kMinTimedS of work, and
/// reports the median run (wall_ms) and its rate, so CI can assert both
/// the speedup and the bit-identity of every run's samples across thread
/// counts (speedup and identity are against the first entry of
/// --threads-list). download_trace stays the last sweep: CI gates its
/// line, which also carries rng_streams_per_sec, the per-trial stream
/// cost (see rng_streams_per_sec() below). Flags: --trials N,
/// --threads-list a,b,c (each at most 256).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analysis/montecarlo.hpp"
#include "analysis/parallel.hpp"
#include "analysis/trace_eval.hpp"
#include "bench_util.hpp"
#include "trace/link_trace.hpp"

namespace {

using namespace sic;

struct Sweep {
  const char* name;
  std::int64_t samples;  ///< samples produced per run (for the rate)
  std::function<std::vector<double>(int threads)> run;
};

/// Every (sweep, threads) line times at least this many runs and this
/// much work, so a sweep that takes under a millisecond still reads a
/// stable median.
constexpr int kMinRuns = 5;
constexpr double kMinTimedS = 0.05;

/// Trial streams per second through map_trials' seeding path at one
/// thread, each making 4 uniform draws (a Fig. 6 trial's count): what a
/// trial pays before its math. The median of 5 runs of 2^18 streams.
double rng_streams_per_sec() {
  constexpr std::int64_t kStreams = std::int64_t{1} << 18;
  analysis::ParallelRunner runner{{.threads = 1}};
  std::vector<double> rates;
  for (int r = 0; r < 5; ++r) {
    const bench::RunTimer timer;
    const auto sums = runner.map_trials<double>(
        kStreams, 42, [](Rng& rng, std::int64_t) {
          double sum = 0.0;
          for (int d = 0; d < 4; ++d) sum += rng.uniform(0.0, 1.0);
          return sum;
        });
    rates.push_back(static_cast<double>(sums.size()) / timer.elapsed_s());
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

int run(int argc, char** argv) {
  const ArgParser args{argc, argv};
  const int trials = args.get_int("trials", 20000);
  std::vector<int> thread_counts = args.get_threads_list("threads-list");
  if (thread_counts.empty()) thread_counts = {1, 2, 4};

  const phy::ShannonRateAdapter shannon{megahertz(20.0)};
  const topology::SamplerConfig config;
  constexpr double kBits = 12000.0;
  constexpr std::uint64_t kSeed = 42;

  trace::LinkTraceConfig campaign;
  const auto link_trace = generate_link_trace(campaign, 777);

  const std::vector<Sweep> sweeps{
      {"two_link_gains", trials,
       [&](int threads) {
         return analysis::run_two_link_gains(config, shannon, trials, kSeed,
                                             kBits, threads);
       }},
      {"two_to_one_techniques", trials,
       [&](int threads) {
         return analysis::run_two_to_one_techniques(config, shannon, trials,
                                                    kSeed, kBits, threads)
             .sic;
       }},
      {"two_link_techniques", trials,
       [&](int threads) {
         // Fig. 11b: the power-control search's samples.
         return analysis::run_two_link_techniques(config, shannon, trials,
                                                  kSeed, kBits, threads)
             .power_control;
       }},
      {"upload_deployment_gains", trials / 20,
       [&](int threads) {
         return analysis::run_upload_deployment_gains(
             config, shannon, trials / 20, 8, kSeed, kBits, threads);
       }},
      {"download_trace", trials / 4,
       [&](int threads) {
         analysis::DownloadTraceEvalConfig eval;
         eval.pair_samples = trials / 4;
         eval.threads = threads;
         return analysis::evaluate_download_trace(link_trace, shannon, eval)
             .plain;
       }},
  };

  const double streams_per_sec = rng_streams_per_sec();
  for (const auto& sweep : sweeps) {
    std::vector<double> baseline;
    double baseline_rate = 0.0;
    for (std::size_t k = 0; k < thread_counts.size(); ++k) {
      const int threads = thread_counts[k];
      std::vector<double> walls_s;
      double timed_s = 0.0;
      bool identical = true;
      while (static_cast<int>(walls_s.size()) < kMinRuns ||
             timed_s < kMinTimedS) {
        const bench::RunTimer timer;
        const auto samples = sweep.run(threads);
        walls_s.push_back(timer.elapsed_s());
        timed_s += walls_s.back();
        if (baseline.empty()) {
          baseline = samples;
        } else {
          identical = identical && samples == baseline;
        }
      }
      std::sort(walls_s.begin(), walls_s.end());
      const double wall_ms = 1e3 * walls_s[walls_s.size() / 2];
      const double rate =
          wall_ms > 0.0 ? 1e3 * static_cast<double>(sweep.samples) / wall_ms
                        : 0.0;
      if (k == 0) baseline_rate = rate;
      const double speedup = baseline_rate > 0.0 ? rate / baseline_rate : 0.0;
      char last_line_keys[64] = "";
      if (&sweep == &sweeps.back() && k + 1 == thread_counts.size()) {
        std::snprintf(last_line_keys, sizeof last_line_keys,
                      ",\"rng_streams_per_sec\":%.1f", streams_per_sec);
      }
      std::printf(
          "{\"bench\":\"perf_montecarlo\",\"sweep\":\"%s\",\"threads\":%d,"
          "\"trials\":%lld,\"runs\":%zu,\"wall_ms\":%.3f,"
          "\"samples_per_sec\":%.1f,\"speedup_vs_%d\":%.2f,"
          "\"identical_to_first\":%s%s}\n",
          sweep.name, threads, static_cast<long long>(sweep.samples),
          walls_s.size(), wall_ms, rate, thread_counts.front(), speedup,
          identical ? "true" : "false", last_line_keys);
      if (!identical) return 1;  // determinism contract broken
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sic::bench::run_main(argc, argv, run);
}
