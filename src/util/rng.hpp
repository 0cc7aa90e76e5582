#ifndef SICMAC_UTIL_RNG_HPP
#define SICMAC_UTIL_RNG_HPP

/// \file rng.hpp
/// Deterministic random number generation. Every stochastic component in the
/// library (topology generators, Monte Carlo engines, shadowing, the MAC
/// simulator's backoff) draws from an explicitly seeded Rng so that every
/// experiment is reproducible from its printed seed.

#include <array>
#include <cstdint>
#include <optional>
#include <random>

namespace sic {

/// SplitMix64 — used to expand a single user seed into independent stream
/// seeds (one per component) without correlation artifacts.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// A URBG whose output stream is exactly std::mt19937_64(seed)'s, built
/// lazily. Seeding the standard engine fills all 312 state words, and its
/// first draw twists all of them: a few microseconds, more than a
/// Monte Carlo trial's own math. But the standard fixes the algorithm, and
/// draw k < 156 reads only the seeded words x[k], x[k+1] and x[k+156]. So
/// the constructor runs the seeding recurrence for 156 + kPrefix steps and
/// keeps the first kPrefix twisted words. A draw past them, or a call to
/// full(), builds std::mt19937_64(seed) and discards the draws already
/// served, so the stream continues unchanged.
class LazyMt19937_64 {
  using Mt = std::mt19937_64;

 public:
  using result_type = Mt::result_type;

  /// Draws served without the full engine: the most any Monte Carlo sweep
  /// trial makes (sample_upload_clients' 8 clients take 2 each).
  static constexpr std::size_t kPrefix = 16;
  static_assert(kPrefix <= Mt::shift_size);

  explicit LazyMt19937_64(result_type seed) : seed_(seed) {
    std::array<result_type, kPrefix + 1> head{};  // x[0..kPrefix]
    result_type x = seed;
    head[0] = x;
    result_type i = 1;
    for (; i <= kPrefix; ++i) head[i] = x = seed_word(x, i);
    for (; i < Mt::shift_size; ++i) x = seed_word(x, i);
    for (std::size_t k = 0; k < kPrefix; ++k, ++i) {
      x = seed_word(x, i);  // x[k + 156]
      const result_type y =
          (head[k] & kUpperMask) | (head[k + 1] & kLowerMask);
      twisted_[k] = x ^ (y >> 1) ^ ((y & 1) != 0 ? Mt::xor_mask : 0);
    }
  }

  static constexpr result_type min() { return Mt::min(); }
  static constexpr result_type max() { return Mt::max(); }

  result_type operator()() {
    if (served_ < kPrefix) [[likely]] return temper(twisted_[served_++]);
    return full()();
  }

  /// The equivalent std::mt19937_64, positioned after the draws made so
  /// far; every later draw comes from it.
  Mt& full() {
    if (!full_) [[unlikely]] {
      full_.emplace(seed_);
      full_->discard(served_);
      served_ = kPrefix;
    }
    return *full_;
  }

 private:
  static constexpr result_type kLowerMask =
      (result_type{1} << Mt::mask_bits) - 1;
  static constexpr result_type kUpperMask = ~kLowerMask;

  /// Seeding word x[i] from x[i - 1].
  static constexpr result_type seed_word(result_type prev, result_type i) {
    return Mt::initialization_multiplier *
               (prev ^ (prev >> (Mt::word_size - 2))) +
           i;
  }

  static constexpr result_type temper(result_type z) {
    z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
    z ^= (z << Mt::tempering_s) & Mt::tempering_b;
    z ^= (z << Mt::tempering_t) & Mt::tempering_c;
    return z ^ (z >> Mt::tempering_l);
  }

  result_type seed_;
  std::size_t served_ = 0;  ///< draws from twisted_; kPrefix once handed off
  std::array<result_type, kPrefix> twisted_{};  ///< untempered draws 0..kPrefix-1
  std::optional<Mt> full_;
};

/// Seeded pseudo-random source with the distributions the library needs.
/// Its stream is exactly std::mt19937_64's for the scrambled seed, which
/// the C++ standard fixes bit for bit; LazyMt19937_64 only defers building
/// the engine's state. Copyable. Each fork() or at() seeds a new engine,
/// cheap while a stream stays within LazyMt19937_64::kPrefix draws, but a
/// 2.5 KB std::mt19937_64 once it goes past them.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(scramble(seed)) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>{lo, hi}(engine_);
  }

  /// Standard normal scaled to the given mean / standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

  /// Exponentially distributed value with the given rate parameter.
  [[nodiscard]] double exponential(double rate) {
    return std::exponential_distribution<double>{rate}(engine_);
  }

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }

  /// Derives an independent child generator; successive calls yield
  /// distinct streams.
  ///
  /// \warning The child seed is drawn from this engine, so which stream a
  /// fork yields depends on how many draws preceded it. That is fine for
  /// the sequential MAC simulator (a fixed fork order per run) but breaks
  /// reproducibility once work is scheduled out of order — parallel sweeps
  /// must use the counter-based at() instead.
  [[nodiscard]] Rng fork() { return Rng{engine_()}; }

  /// Counter-based substream derivation: the generator for \p index under
  /// \p seed, independent of any other stream and of evaluation order.
  /// `at(seed, i)` always yields the same stream no matter how many draws
  /// happened elsewhere or which thread asks — the foundation of the
  /// deterministic parallel Monte Carlo engine (one substream per trial
  /// index; see analysis/parallel.hpp). Derivation is SplitMix64 over
  /// `seed ^ index`: for a fixed seed, distinct indices give distinct,
  /// well-scattered engine seeds.
  [[nodiscard]] static Rng at(std::uint64_t seed, std::uint64_t index) {
    return Rng{SplitMix64{seed ^ index}.next()};
  }

  /// Exposes the underlying engine for use with std:: algorithms
  /// (e.g. std::shuffle). The stream continues where the draws so far
  /// left it.
  [[nodiscard]] std::mt19937_64& engine() { return engine_.full(); }

 private:
  static std::uint64_t scramble(std::uint64_t seed) {
    // Avoid the low-entropy-seed pathologies of mt19937_64 by passing the
    // user seed through SplitMix64 first.
    return SplitMix64{seed}.next();
  }

  LazyMt19937_64 engine_;
};

}  // namespace sic

#endif  // SICMAC_UTIL_RNG_HPP
