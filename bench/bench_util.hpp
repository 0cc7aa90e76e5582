#ifndef SICMAC_BENCH_BENCH_UTIL_HPP
#define SICMAC_BENCH_BENCH_UTIL_HPP

/// \file bench_util.hpp
/// Shared output helpers for the figure-reproduction binaries. Every
/// figure binary prints: a header naming the paper artifact, the series
/// the paper reports (as aligned text tables the EXPERIMENTS.md rows are
/// copied from), and the deterministic seed it ran with.

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/stats.hpp"
#include "obs/build_info.hpp"
#include "util/cli_args.hpp"

namespace sic::bench {

/// Parses `--csv <prefix>` from argv: when present, figure benches also
/// write machine-readable CSVs as <prefix><series>.csv for plotting.
inline std::optional<std::string> csv_prefix(int argc, char** argv) {
  return ArgParser{argc, argv}.get("csv");
}

/// Parses the global `--threads` flag (0 = all hardware threads, default 1)
/// shared with the sicmac CLI. Figure output is bit-identical for any
/// value; the flag only changes wall-clock time.
inline int threads(int argc, char** argv) {
  return ArgParser{argc, argv}.get_threads();
}

/// A figure binary could not write one of its output files.
class OutputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void write_text_file(const std::string& path,
                            const std::string& content) {
  errno = 0;
  std::ofstream os{path};
  if (!os) {
    throw OutputError("cannot open for write: " + path + ": " +
                      std::strerror(errno));
  }
  os << content;
  os.flush();
  if (!os) throw OutputError("write failed: " + path);
  std::printf("wrote %s\n", path.c_str());
}

/// Runs a figure or ablation binary's \p body and maps a failure to the
/// sicmac CLI's exit codes (README "Exit codes"): a UsageError exits 2, an
/// OutputError (a CSV that could not be written) 3, and any other
/// exception 1. Each failure prints one line on stderr.
inline int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  } catch (const OutputError& e) {
    std::fprintf(stderr, "io error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

/// Wall clock for the run manifest; construct at the top of main().
class RunTimer {
 public:
  RunTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Reproducibility manifest stamped as comment lines at the top of every
/// CSV a figure bench writes: the seed and build that produced the file,
/// how long the run took, and (when a sample count is given) its rate.
inline std::string manifest(std::uint64_t seed, const RunTimer& timer,
                            std::uint64_t samples = 0) {
  const double elapsed_s = timer.elapsed_s();
  std::ostringstream os;
  os << "# sicmac " << obs::git_describe() << " seed=" << seed;
  char buf[64];
  std::snprintf(buf, sizeof buf, " elapsed_s=%.3f", elapsed_s);
  os << buf;
  if (samples > 0 && elapsed_s > 0.0) {
    std::snprintf(buf, sizeof buf, " samples_per_sec=%.0f",
                  static_cast<double>(samples) / elapsed_s);
    os << buf;
  }
  os << '\n';
  return os.str();
}

/// Full empirical CDF as "value,cumulative_probability" rows.
inline std::string cdf_csv(const analysis::EmpiricalCdf& cdf) {
  std::ostringstream os;
  os << "value,cumulative_probability\n";
  const auto samples = cdf.sorted_samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    os << samples[i] << ','
       << static_cast<double>(i + 1) / static_cast<double>(samples.size())
       << '\n';
  }
  return os.str();
}

inline void header(const std::string& figure, const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

/// Prints an (x, F(x)) CDF as the paper's figures plot them.
inline void print_cdf(const std::string& label,
                      const analysis::EmpiricalCdf& cdf, int points = 13) {
  std::printf("%-28s", (label + " CDF:").c_str());
  for (const auto& p : cdf.curve(points)) {
    std::printf(" (%.2f,%.2f)", p.x, p.f);
  }
  std::printf("\n");
}

/// Prints the headline fractions the paper quotes ("X%% of cases gain over
/// 20%%").
inline void print_fractions(const std::string& label,
                            const analysis::EmpiricalCdf& cdf) {
  std::printf("%-22s  no-gain %.1f%%  >5%% %.1f%%  >20%% %.1f%%  >50%% %.1f%%  median %.3f\n",
              label.c_str(), 100.0 * cdf.at(1.0 + 1e-9),
              100.0 * cdf.fraction_above(1.05),
              100.0 * cdf.fraction_above(1.2),
              100.0 * cdf.fraction_above(1.5), cdf.quantile(0.5));
}

}  // namespace sic::bench

#endif  // SICMAC_BENCH_BENCH_UTIL_HPP
