#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/bytebuffer.hpp"

namespace rtpb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto x = r.uniform(-3, 11);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 11);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformDegenerateRange) {
  Rng r(11);
  EXPECT_EQ(r.uniform(5, 5), 5);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(13);
  for (int i = 0; i < 10'000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng r(19);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic) {
  Rng parent1(123), parent2(123);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, MeanOfUniformReal) {
  Rng r(23);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += r.uniform_real(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.1);
}

TEST(Rng, FillWritesLittleEndianWordsAndExactlyNBytes) {
  // Byte i is byte i % 8 (least significant first) of draw i / 8 of a
  // twin generator with the same seed, and a guard byte just past the
  // span is never touched.
  std::vector<std::size_t> lengths(18);
  for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  lengths.push_back(8192);
  for (const std::size_t n : lengths) {
    Rng r(31), twin(31);
    Bytes buf(n + 1, 0xA5);
    r.fill(std::span<std::uint8_t>(buf.data(), n));
    EXPECT_EQ(buf[n], 0xA5) << "n=" << n;
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 8 == 0) word = twin.next_u64();
      ASSERT_EQ(buf[i], static_cast<std::uint8_t>(word >> (8 * (i % 8))))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Rng, FillAdvancesOneDrawPerEightBytes) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 16u, 17u, 8192u}) {
    Rng r(37), twin(37);
    Bytes buf(n);
    r.fill(buf);
    for (std::size_t d = 0; d < (n + 7) / 8; ++d) twin.next_u64();
    EXPECT_EQ(r.next_u64(), twin.next_u64()) << "n=" << n;
  }
}

}  // namespace
}  // namespace rtpb
