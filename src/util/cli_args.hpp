#ifndef SICMAC_UTIL_CLI_ARGS_HPP
#define SICMAC_UTIL_CLI_ARGS_HPP

/// \file cli_args.hpp
/// Minimal command-line flag parser for the sicmac CLI and the bench
/// binaries: `--flag value` pairs and boolean `--flag` switches, plus one
/// optional leading positional (the subcommand).

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace sic {

/// The command line itself is wrong (stray token, malformed number,
/// missing required flag). Front ends map this to their usage exit code;
/// it stays a std::runtime_error for legacy catch sites.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ArgParser {
 public:
  /// Parses argv[1..): a leading non-flag token becomes the command();
  /// the rest are `--name [value]` pairs (a flag followed by another flag
  /// or nothing is boolean). Throws UsageError on a stray token and on a
  /// flag given twice.
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] const std::string& command() const { return command_; }

  [[nodiscard]] bool has(const std::string& flag) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& flag) const;
  [[nodiscard]] std::string get_string(const std::string& flag,
                                       const std::string& fallback) const;
  /// Numeric getters throw UsageError naming the flag on malformed text,
  /// non-finite values, and values an integer type cannot hold exactly.
  [[nodiscard]] double get_double(const std::string& flag,
                                  double fallback) const;
  [[nodiscard]] int get_int(const std::string& flag, int fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& flag,
                                      std::uint64_t fallback) const;
  /// Comma-separated list of doubles, e.g. --clients 24,12,18.5.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& flag) const;
  /// Comma-separated list of ints, e.g. --queues 4,2,8.
  [[nodiscard]] std::vector<int> get_int_list(const std::string& flag) const;

  /// Largest thread count a flag accepts, so that a typo cannot ask the
  /// OS for 100,000 threads.
  static constexpr int kMaxThreads = 256;

  /// The global `--threads` convention shared by the CLI and the bench
  /// binaries: 0 means "all hardware threads", otherwise the total worker
  /// count including the calling thread. Throws UsageError on values
  /// outside [0, kMaxThreads]. Parallel sweeps are bit-identical for any
  /// setting.
  [[nodiscard]] int get_threads(int fallback = 1) const;
  /// Comma-separated thread counts, each checked as get_threads does.
  [[nodiscard]] std::vector<int> get_threads_list(
      const std::string& flag) const;

  /// Flags present on the command line but never queried — typo detection.
  [[nodiscard]] std::vector<std::string> unknown_flags() const;

 private:
  struct Entry {
    std::string name;
    std::optional<std::string> value;
    mutable bool queried = false;
  };
  [[nodiscard]] const Entry* find(const std::string& flag) const;

  std::string command_;
  std::vector<Entry> entries_;
};

}  // namespace sic

#endif  // SICMAC_UTIL_CLI_ARGS_HPP
