#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

namespace sic {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{7};
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const int v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (const int count : seen) EXPECT_GT(count, 700);  // roughly uniform
}

TEST(Rng, NormalMoments) {
  Rng rng{11};
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, ChanceProbability) {
  Rng rng{13};
  int hits = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.03);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{99};
  Rng child = parent.fork();
  // The child stream is deterministic given the parent seed...
  Rng parent2{99};
  Rng child2 = parent2.fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(child.uniform(0.0, 1.0), child2.uniform(0.0, 1.0));
  }
}

TEST(Rng, ForkDependsOnDrawOrder) {
  // Documented hazard: fork() advances the parent engine, so the child
  // stream depends on how many draws preceded it. This is why parallel
  // sweeps must use Rng::at() instead.
  Rng parent1{99};
  Rng child1 = parent1.fork();
  Rng parent2{99};
  (void)parent2.uniform(0.0, 1.0);
  Rng child2 = parent2.fork();
  EXPECT_NE(child1.uniform(0.0, 1.0), child2.uniform(0.0, 1.0));
}

TEST(Rng, AtIsDeterministicPerIndex) {
  for (const std::uint64_t index : {0ull, 1ull, 17ull, 1'000'000ull}) {
    Rng a = Rng::at(42, index);
    Rng b = Rng::at(42, index);
    for (int i = 0; i < 50; ++i) {
      EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
    }
  }
}

TEST(Rng, AtIsIndependentOfConstructionOrder) {
  // Unlike fork(), at() is a pure function of (seed, index): deriving
  // substreams in any order, from any thread, yields the same streams.
  Rng forward_first = Rng::at(7, 3);
  Rng backward_second = Rng::at(7, 9);
  Rng backward_first = Rng::at(7, 9);
  Rng forward_second = Rng::at(7, 3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(forward_first.uniform(0.0, 1.0),
                     forward_second.uniform(0.0, 1.0));
    EXPECT_DOUBLE_EQ(backward_first.uniform(0.0, 1.0),
                     backward_second.uniform(0.0, 1.0));
  }
}

TEST(Rng, AtDistinctIndicesDiffer) {
  Rng a = Rng::at(5, 0);
  Rng b = Rng::at(5, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 sm{0};
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  EXPECT_NE(a, b);
  SplitMix64 sm2{0};
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
}

/// Seeds for the stream tests: edge values, then scattered ones.
std::vector<std::uint64_t> stream_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, 42, ~std::uint64_t{0}};
  SplitMix64 sm{2024};
  while (seeds.size() < 64) seeds.push_back(sm.next());
  return seeds;
}

/// The stream Rng(seed) must draw: the standard engine on the
/// SplitMix64-scrambled seed.
std::mt19937_64 reference_engine(std::uint64_t seed) {
  return std::mt19937_64{SplitMix64{seed}.next()};
}

/// The bits of one uniform [0, 1) draw from either source.
std::uint64_t unit_bits(Rng& rng) {
  return std::bit_cast<std::uint64_t>(rng.uniform(0.0, 1.0));
}
std::uint64_t unit_bits(std::mt19937_64& ref) {
  return std::bit_cast<std::uint64_t>(
      std::uniform_real_distribution<double>{0.0, 1.0}(ref));
}

constexpr std::size_t kPrefix = LazyMt19937_64::kPrefix;

TEST(LazyMt19937_64, RawStreamEqualsStdEngineBeyondPrefixAndState) {
  // Past the lazy prefix (the hand-off) and past 312 draws (the standard
  // engine's first full regeneration).
  for (const std::uint64_t seed : stream_seeds()) {
    LazyMt19937_64 lazy{seed};
    std::mt19937_64 ref{seed};
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(lazy(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(LazyMt19937_64, StandardCheckValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  LazyMt19937_64 lazy{std::mt19937_64::default_seed};
  for (int i = 1; i < 10000; ++i) (void)lazy();
  EXPECT_EQ(lazy(), 9981545732273789042ULL);
}

TEST(RngBatch, EveryLaneEqualsStdEngineDrawForDraw) {
  // Every lane of every batch, through the prefix, past it (the hand-off)
  // and past 312 draws. A lane seeded from another lane's seed, or a
  // recurrence index off by one, breaks the first draws.
  constexpr std::size_t kBatch = LazyMt19937_64::kBatch;
  const std::vector<std::uint64_t> seeds = stream_seeds();
  ASSERT_EQ(seeds.size() % kBatch, 0u);
  for (std::size_t b = 0; b < seeds.size(); b += kBatch) {
    std::array<std::uint64_t, kBatch> batch{};
    std::copy_n(seeds.begin() + static_cast<std::ptrdiff_t>(b), kBatch,
                batch.begin());
    const auto seeded = LazyMt19937_64::seed_batch(batch);
    for (std::size_t l = 0; l < kBatch; ++l) {
      LazyMt19937_64 lane{seeded[l]};
      std::mt19937_64 ref{batch[l]};
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(lane(), ref())
            << "seed " << batch[l] << " lane " << l << " draw " << i;
      }
    }
  }
}

TEST(RngBatch, ForEachAtEqualsAtOnEveryRange) {
  // Empty ranges, ranges shorter than a batch, one batch, one past it and
  // several with a tail, all starting off the batch grid. Each lane draws
  // an index-dependent count, then hands off to engine(), so some lanes
  // hand off inside the prefix and others past it.
  for (const std::uint64_t count : {0, 1, 7, 8, 9, 17, 65}) {
    for (const std::uint64_t begin : {3ull, 13ull, 1'000'005ull}) {
      std::uint64_t next = begin;
      Rng::for_each_at(42, begin, begin + count,
                       [&](Rng& rng, std::uint64_t i) {
                         ASSERT_EQ(i, next++);
                         Rng ref = Rng::at(42, i);
                         for (std::uint64_t d = 0; d < i % (kPrefix + 4); ++d) {
                           ASSERT_EQ(unit_bits(rng), unit_bits(ref))
                               << "index " << i << " draw " << d;
                         }
                         ASSERT_EQ(rng.engine(), ref.engine()) << "index " << i;
                         EXPECT_EQ(unit_bits(rng), unit_bits(ref));
                       });
      EXPECT_EQ(next, begin + count) << "begin " << begin;
    }
  }
}

TEST(Rng, DistributionsMatchStdEngineDrawForDraw) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::uint64_t seed : stream_seeds()) {
    Rng rng{seed};
    std::mt19937_64 ref = reference_engine(seed);
    // Mixed calls, so the prefix runs out in the middle of each kind.
    for (int i = 0; i < 400; ++i) {
      switch (i % 4) {
        case 0:
          ASSERT_EQ(bits(rng.uniform(-3.0, 7.0)),
                    bits(std::uniform_real_distribution<double>{-3.0, 7.0}(ref)))
              << "seed " << seed << " call " << i;
          break;
        case 1: {
          const int want = std::uniform_int_distribution<int>{-5, 1000}(ref);
          ASSERT_EQ(rng.uniform_int(-5, 1000), want)
              << "seed " << seed << " call " << i;
          break;
        }
        case 2:
          ASSERT_EQ(bits(rng.normal(1.0, 2.0)),
                    bits(std::normal_distribution<double>{1.0, 2.0}(ref)))
              << "seed " << seed << " call " << i;
          break;
        default:
          ASSERT_EQ(rng.chance(0.3), std::bernoulli_distribution{0.3}(ref))
              << "seed " << seed << " call " << i;
          break;
      }
    }
  }
}

TEST(Rng, AtStreamsMatchStdEngine) {
  // Rng::at is Rng{SplitMix64{seed ^ index}.next()}: the standard engine
  // after two SplitMix64 rounds.
  for (std::uint64_t index = 0; index < 200; ++index) {
    Rng rng = Rng::at(42, index);
    std::mt19937_64 ref = reference_engine(SplitMix64{42 ^ index}.next());
    for (std::size_t i = 0; i < kPrefix + 4; ++i) {
      ASSERT_EQ(unit_bits(rng), unit_bits(ref))
          << "index " << index << " draw " << i;
    }
  }
}

TEST(Rng, EngineHandOffContinuesTheStream) {
  for (const std::uint64_t seed : stream_seeds()) {
    for (const std::size_t drawn :
         {std::size_t{0}, kPrefix - 1, kPrefix, kPrefix + 1, std::size_t{400}}) {
      Rng rng{seed};
      std::mt19937_64 ref = reference_engine(seed);
      for (std::size_t i = 0; i < drawn; ++i) {
        ASSERT_EQ(unit_bits(rng), unit_bits(ref));
      }
      std::mt19937_64& engine = rng.engine();
      for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(engine(), ref()) << "seed " << seed << " after " << drawn;
      }
      // Draws through the Rng after the hand-off come from the same engine.
      EXPECT_EQ(unit_bits(rng), unit_bits(ref));
      EXPECT_EQ(rng.engine(), ref);
    }
  }
}

TEST(Rng, CopiesWithinThePrefixStreamIndependently) {
  for (const std::uint64_t seed : stream_seeds()) {
    Rng original{seed};
    std::mt19937_64 ref = reference_engine(seed);
    for (int i = 0; i < 3; ++i) {
      (void)original.uniform(0.0, 1.0);
      (void)ref();
    }
    Rng copy = original;
    std::mt19937_64 ref_copy = ref;
    // The original runs past the prefix first; the copy must not notice.
    std::uniform_int_distribution<int> draw{0, 1 << 30};
    for (int i = 0; i < 40; ++i) {
      ASSERT_EQ(original.uniform_int(0, 1 << 30), draw(ref));
    }
    for (int i = 0; i < 40; ++i) {
      ASSERT_EQ(copy.uniform_int(0, 1 << 30), draw(ref_copy));
    }
  }
}

}  // namespace
}  // namespace sic
