#include "util/cli_args.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace sic {

namespace {

bool is_flag(const std::string& token) {
  return token.size() > 2 && token[0] == '-' && token[1] == '-';
}

/// A finite number; nan, inf and overflowing literals are usage errors.
double parse_double(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw UsageError("flag --" + flag + ": not a number: " + text);
  }
  if (!std::isfinite(value)) {
    throw UsageError("flag --" + flag + ": not a finite number: " + text);
  }
  return value;
}

/// A whole number in [lo, hi), the range of the integer type it is cast
/// to, so the cast is exact (1e3 is fine, 2.5 is not).
double parse_whole(const std::string& flag, const std::string& text,
                   double lo, double hi) {
  const double value = parse_double(flag, text);
  if (value != std::trunc(value) || value < lo || value >= hi) {
    throw UsageError("flag --" + flag + ": not an integer in range: " + text);
  }
  return value;
}

int parse_int(const std::string& flag, const std::string& text) {
  return static_cast<int>(
      parse_whole(flag, text, std::ldexp(-1.0, 31), std::ldexp(1.0, 31)));
}

/// Plain digits parse exactly, past 2⁵³ too; 1e6 goes through the double.
std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t exact = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, exact);
  if (ptr == last && ec == std::errc{}) return exact;
  return static_cast<std::uint64_t>(
      parse_whole(flag, text, 0.0, std::ldexp(1.0, 64)));
}

/// A thread count in [0, kMaxThreads].
int checked_threads(const std::string& flag, int threads) {
  if (threads < 0 || threads > ArgParser::kMaxThreads) {
    throw UsageError("flag --" + flag + ": must be in [0, " +
                     std::to_string(ArgParser::kMaxThreads) +
                     "] (0 = all hardware threads)");
  }
  return threads;
}

/// Each non-empty comma-separated piece of \p value, parsed by \p parse.
template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& flag,
                          const std::optional<std::string>& value,
                          Parse parse) {
  std::vector<T> out;
  std::istringstream in{value.value_or("")};
  for (std::string piece; std::getline(in, piece, ',');) {
    if (!piece.empty()) out.push_back(parse(flag, piece));
  }
  return out;
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  int i = 1;
  if (i < argc && !is_flag(argv[i])) {
    command_ = argv[i];
    ++i;
  }
  while (i < argc) {
    const std::string token = argv[i];
    if (!is_flag(token)) {
      throw UsageError("expected a --flag, got: " + token);
    }
    Entry entry;
    entry.name = token.substr(2);
    // A repeat would otherwise be read as the first value and reported
    // only as an unused flag after the run.
    for (const Entry& seen : entries_) {
      if (seen.name == entry.name) {
        throw UsageError("flag --" + entry.name + " given more than once");
      }
    }
    if (i + 1 < argc && !is_flag(argv[i + 1])) {
      entry.value = std::string(argv[i + 1]);
      i += 2;
    } else {
      ++i;
    }
    entries_.push_back(std::move(entry));
  }
}

const ArgParser::Entry* ArgParser::find(const std::string& flag) const {
  for (const auto& e : entries_) {
    if (e.name == flag) {
      e.queried = true;
      return &e;
    }
  }
  return nullptr;
}

bool ArgParser::has(const std::string& flag) const {
  return find(flag) != nullptr;
}

std::optional<std::string> ArgParser::get(const std::string& flag) const {
  const Entry* e = find(flag);
  return e != nullptr ? e->value : std::nullopt;
}

std::string ArgParser::get_string(const std::string& flag,
                                  const std::string& fallback) const {
  const auto v = get(flag);
  return v.has_value() ? *v : fallback;
}

double ArgParser::get_double(const std::string& flag, double fallback) const {
  const auto v = get(flag);
  if (!v.has_value()) return fallback;
  return parse_double(flag, *v);
}

int ArgParser::get_int(const std::string& flag, int fallback) const {
  const auto v = get(flag);
  return v.has_value() ? parse_int(flag, *v) : fallback;
}

std::uint64_t ArgParser::get_u64(const std::string& flag,
                                 std::uint64_t fallback) const {
  const auto v = get(flag);
  return v.has_value() ? parse_u64(flag, *v) : fallback;
}

std::vector<double> ArgParser::get_double_list(const std::string& flag) const {
  return parse_list<double>(flag, get(flag), parse_double);
}

std::vector<int> ArgParser::get_int_list(const std::string& flag) const {
  return parse_list<int>(flag, get(flag), parse_int);
}

int ArgParser::get_threads(int fallback) const {
  return checked_threads("threads", get_int("threads", fallback));
}

std::vector<int> ArgParser::get_threads_list(const std::string& flag) const {
  return parse_list<int>(flag, get(flag),
                         [](const std::string& f, const std::string& text) {
                           return checked_threads(f, parse_int(f, text));
                         });
}

std::vector<std::string> ArgParser::unknown_flags() const {
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    if (!e.queried) out.push_back(e.name);
  }
  return out;
}

}  // namespace sic
