#ifndef SICMAC_BENCH_PERF_UTIL_HPP
#define SICMAC_BENCH_PERF_UTIL_HPP

/// \file perf_util.hpp
/// Shared main() for the google-benchmark perf binaries. Runs the
/// registered benchmarks as BENCHMARK_MAIN() would, then emits a one-line
/// JSON summary ({"bench":...,"wall_ms":...,"throughput":...}, throughput
/// in benchmarks completed per second) so CI can trend the total perf cost
/// of a binary without parsing the full benchmark table. A binary may add
/// summary keys of its own (SummaryKey), measured after the benchmarks, so
/// the bench gate can pin one layer's throughput or work count. wall_ms
/// times the benchmarks alone: adding a key does not move throughput.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>

namespace sic::bench {

/// Iterations/second of \p run: one warm-up call, then at least
/// \p min_iters timed iterations and \p min_elapsed seconds of wall clock.
template <typename F>
double samples_per_sec(F&& run, int min_iters = 3,
                       double min_elapsed = 0.25) {
  using clock = std::chrono::steady_clock;
  run();
  const auto start = clock::now();
  int iters = 0;
  double elapsed = 0.0;
  do {
    run();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (iters < min_iters || elapsed < min_elapsed);
  return static_cast<double>(iters) / elapsed;
}

/// One extra summary key, printed as "name":value with two decimals.
struct SummaryKey {
  const char* name;
  std::function<double()> measure;
};

inline int run_perf_main(const char* name, int argc, char** argv,
                         std::initializer_list<SummaryKey> extra = {}) {
  // Accept (and drop) the repo-wide `--threads N` flag so perf binaries can
  // be invoked uniformly with the figure benches; google-benchmark would
  // otherwise reject it as unrecognized. The google-benchmark perf loops
  // are single-threaded microbenches — thread scaling is perf_montecarlo's
  // job.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 < argc && argv[i + 1][0] != '-') ++i;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n_run = benchmark::RunSpecifiedBenchmarks();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::string keys;
  for (const SummaryKey& key : extra) {
    char buf[128];
    std::snprintf(buf, sizeof buf, ",\"%s\":%.2f", key.name, key.measure());
    keys += buf;
  }
  const double throughput =
      wall_ms > 0.0 ? 1e3 * static_cast<double>(n_run) / wall_ms : 0.0;
  std::printf("{\"bench\":\"%s\",\"wall_ms\":%.1f,\"throughput\":%.3f%s}\n",
              name, wall_ms, throughput, keys.c_str());
  benchmark::Shutdown();
  return 0;
}

}  // namespace sic::bench

#define SIC_PERF_MAIN(name)                               \
  int main(int argc, char** argv) {                       \
    return ::sic::bench::run_perf_main(name, argc, argv); \
  }

#endif  // SICMAC_BENCH_PERF_UTIL_HPP
