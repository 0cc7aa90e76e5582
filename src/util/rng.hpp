#ifndef SICMAC_UTIL_RNG_HPP
#define SICMAC_UTIL_RNG_HPP

/// \file rng.hpp
/// Deterministic random number generation. Every stochastic component in the
/// library (topology generators, Monte Carlo engines, shadowing, the MAC
/// simulator's backoff) draws from an explicitly seeded Rng so that every
/// experiment is reproducible from its printed seed.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>

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
/// seeding runs the recurrence x[i] = f(x[i-1], i) only up to x[155] and
/// keeps x[0..kPrefix] and x[155]. Draw k < kPrefix steps the recurrence
/// once more, to x[156 + k], and twists it with x[k] and x[k+1]. A draw
/// past the prefix, or a call to full(), builds std::mt19937_64(seed) and
/// discards the draws already served, so the stream continues unchanged.
///
/// One engine's recurrence is a serial chain of multiplies, so seeding it
/// waits on the multiplier's latency at every step. seed_batch() runs the
/// chains of several engines interleaved, so the multiplies of independent
/// lanes overlap. The seed constructor is its batch of one: there is one
/// seeding routine, and every batched lane must equal it.
class LazyMt19937_64 {
  using Mt = std::mt19937_64;

 public:
  using result_type = Mt::result_type;

  /// Draws served without the full engine: the most any Monte Carlo sweep
  /// trial makes (sample_upload_clients' 8 clients take 2 each).
  static constexpr std::size_t kPrefix = 16;
  static_assert(kPrefix <= Mt::shift_size);

  /// Engines Rng::for_each_at seeds together: enough independent chains
  /// to keep the multiplier busy.
  static constexpr std::size_t kBatch = 8;

  /// What seeding keeps of one engine: the words its prefix draws read.
  struct Seeded {
    result_type seed;
    std::array<result_type, kPrefix + 1> head;  ///< x[0..kPrefix]
    result_type x155;                           ///< x[155]
  };

  /// Seeded{seeds[l], ...} for every lane l, with the B recurrences run
  /// interleaved. Each lane step is a pack expansion, so the lanes stay in
  /// registers rather than in a loop-carried array.
  template <std::size_t B>
  static std::array<Seeded, B> seed_batch(
      const std::array<result_type, B>& seeds) {
    std::array<Seeded, B> out{};
    [&]<std::size_t... L>(std::index_sequence<L...>) {
      std::array<result_type, B> x = seeds;
      ((out[L].seed = out[L].head[0] = x[L]), ...);
      result_type i = 1;
      for (; i <= kPrefix; ++i) {
        ((out[L].head[i] = x[L] = seed_word(x[L], i)), ...);
      }
      for (; i < Mt::shift_size; ++i) {  // up to x[155]
        ((x[L] = seed_word(x[L], i)), ...);
      }
      ((out[L].x155 = x[L]), ...);
    }(std::make_index_sequence<B>{});
    return out;
  }

  explicit LazyMt19937_64(result_type seed)
      : LazyMt19937_64(seed_batch<1>({seed})[0]) {}

  /// The engine seed_batch() seeded as \p seeded.
  explicit LazyMt19937_64(const Seeded& seeded)
      : seeded_(seeded), last_(seeded.x155) {}

  static constexpr result_type min() { return Mt::min(); }
  static constexpr result_type max() { return Mt::max(); }

  result_type operator()() {
    if (served_ < kPrefix) [[likely]] {
      const std::size_t k = served_++;
      last_ = seed_word(last_, Mt::shift_size + k);  // x[156 + k]
      const result_type y = (seeded_.head[k] & kUpperMask) |
                            (seeded_.head[k + 1] & kLowerMask);
      return temper(last_ ^ (y >> 1) ^
                    ((y & 1) != 0 ? Mt::xor_mask : 0));
    }
    return full()();
  }

  /// The equivalent std::mt19937_64, positioned after the draws made so
  /// far; every later draw comes from it.
  Mt& full() {
    if (!full_) [[unlikely]] {
      full_.emplace(seeded_.seed);
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

  Seeded seeded_;
  result_type last_;        ///< x[155 + served_] while in the prefix
  std::size_t served_ = 0;  ///< prefix draws made; kPrefix once handed off
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
    return Rng{stream_seed(seed, index)};
  }

  /// Calls f(rng, i) with rng = at(seed, i) for every i in [begin, end),
  /// in index order. The streams are seeded LazyMt19937_64::kBatch at a
  /// time (LazyMt19937_64::seed_batch), several times cheaper than one
  /// at() per index; each still equals at(seed, i) draw for draw, engine()
  /// hand-off included.
  template <typename F>
  static void for_each_at(std::uint64_t seed, std::uint64_t begin,
                          std::uint64_t end, F&& f) {
    constexpr std::size_t kBatch = LazyMt19937_64::kBatch;
    for (std::uint64_t first = begin; first < end; first += kBatch) {
      std::array<LazyMt19937_64::result_type, kBatch> seeds{};
      for (std::size_t l = 0; l < kBatch; ++l) {
        seeds[l] = scramble(stream_seed(seed, first + l));
      }
      const auto seeded = LazyMt19937_64::seed_batch(seeds);
      const std::uint64_t lanes = std::min<std::uint64_t>(kBatch, end - first);
      for (std::size_t l = 0; l < lanes; ++l) {
        Rng rng{seeded[l]};
        f(rng, first + l);
      }
    }
  }

  /// Exposes the underlying engine for use with std:: algorithms
  /// (e.g. std::shuffle). The stream continues where the draws so far
  /// left it.
  [[nodiscard]] std::mt19937_64& engine() { return engine_.full(); }

 private:
  explicit Rng(const LazyMt19937_64::Seeded& seeded) : engine_(seeded) {}

  static std::uint64_t scramble(std::uint64_t seed) {
    // Avoid the low-entropy-seed pathologies of mt19937_64 by passing the
    // user seed through SplitMix64 first.
    return SplitMix64{seed}.next();
  }

  /// The Rng seed of substream \p index under \p seed.
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index) {
    return SplitMix64{seed ^ index}.next();
  }

  LazyMt19937_64 engine_;
};

}  // namespace sic

#endif  // SICMAC_UTIL_RNG_HPP
