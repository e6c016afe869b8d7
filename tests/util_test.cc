#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/bounded_heap.h"
#include "util/half.h"
#include "util/rng.h"
#include "util/status.h"

namespace cagra {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad degree");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad degree");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad degree");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::OutOfRange("").code(),
      Status::NotFound("").code(),        Status::IoError("").code(),
      Status::CapacityExceeded("").code(), Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 6u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------- Pcg32

TEST(Pcg32Test, DeterministicForSameSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg32Test, DifferentSeedsDiverge) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(Pcg32Test, BoundedStaysInRange) {
  Pcg32 rng(7);
  for (uint32_t bound : {1u, 2u, 3u, 17u, 1000u, 1u << 20}) {
    for (int i = 0; i < 200; i++) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(Pcg32Test, BoundedCoversAllValues) {
  Pcg32 rng(11);
  std::set<uint32_t> seen;
  for (int i = 0; i < 1000; i++) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32Test, FloatInUnitInterval) {
  Pcg32 rng(3);
  for (int i = 0; i < 1000; i++) {
    const float f = rng.NextFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(Pcg32Test, FloatMeanNearHalf) {
  Pcg32 rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) sum += rng.NextFloat();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Pcg32Test, GaussianMoments) {
  Pcg32 rng(9);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.1);
}

// ---------------------------------------------------------------- Half

TEST(HalfTest, ZeroRoundTrips) {
  EXPECT_EQ(Half(0.0f).ToFloat(), 0.0f);
  EXPECT_EQ(Half(-0.0f).bits(), 0x8000u);
}

TEST(HalfTest, ExactSmallIntegers) {
  for (float f : {1.0f, 2.0f, -3.0f, 100.0f, 1024.0f, -2048.0f}) {
    EXPECT_EQ(Half(f).ToFloat(), f) << f;
  }
}

TEST(HalfTest, KnownBitPatterns) {
  EXPECT_EQ(Half(1.0f).bits(), 0x3c00u);
  EXPECT_EQ(Half(-2.0f).bits(), 0xc000u);
  EXPECT_EQ(Half(0.5f).bits(), 0x3800u);
  EXPECT_EQ(Half(65504.0f).bits(), 0x7bffu);  // max finite half
}

TEST(HalfTest, OverflowBecomesInf) {
  EXPECT_EQ(Half(1e30f).bits(), 0x7c00u);
  EXPECT_EQ(Half(-1e30f).bits(), 0xfc00u);
  EXPECT_TRUE(std::isinf(Half(70000.0f).ToFloat()));
}

TEST(HalfTest, NanPreserved) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(Half(nan).ToFloat()));
}

TEST(HalfTest, InfPreserved) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isinf(Half(inf).ToFloat()));
  EXPECT_GT(Half(inf).ToFloat(), 0.0f);
  EXPECT_LT(Half(-inf).ToFloat(), 0.0f);
}

TEST(HalfTest, SubnormalRoundTrip) {
  // Smallest positive subnormal half is 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(Half(tiny).ToFloat(), tiny);
  EXPECT_EQ(Half(-tiny).ToFloat(), -tiny);
}

TEST(HalfTest, UnderflowToZero) {
  EXPECT_EQ(Half(1e-30f).ToFloat(), 0.0f);
}

TEST(HalfTest, RelativeErrorWithinHalfUlp) {
  Pcg32 rng(21);
  for (int i = 0; i < 5000; i++) {
    const float f = (rng.NextFloat() * 2.0f - 1.0f) * 100.0f;
    if (f == 0.0f) continue;
    const float back = Half(f).ToFloat();
    // binary16 has 11 significand bits -> max rel error 2^-11.
    EXPECT_LE(std::abs(back - f) / std::abs(f), 1.0f / 2048.0f) << f;
  }
}

TEST(HalfTest, RoundToNearestEven) {
  // 1 + 2^-11 is exactly between 1.0 and the next half; ties to even -> 1.0.
  const float midpoint = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(Half(midpoint).bits(), 0x3c00u);
  // Slightly above the midpoint must round up.
  const float above = 1.0f + std::ldexp(1.2f, -11);
  EXPECT_EQ(Half(above).bits(), 0x3c01u);
}

TEST(HalfTest, RoundTripAllBitPatterns) {
  // float -> half -> float -> half must be the identity on the half side.
  for (uint32_t bits = 0; bits < 0x10000u; bits += 7) {
    const Half h = Half::FromBits(static_cast<uint16_t>(bits));
    const float f = h.ToFloat();
    if (std::isnan(f)) continue;  // NaN payloads may differ
    const Half h2(f);
    EXPECT_EQ(h2.bits(), h.bits()) << bits;
  }
}

// ---------------------------------------------------------------- BoundedHeap

TEST(BoundedHeapTest, KeepsSmallest) {
  BoundedHeap heap(3);
  for (float d : {5.f, 1.f, 4.f, 2.f, 3.f}) {
    heap.Push(d, static_cast<uint32_t>(d));
  }
  auto sorted = heap.ExtractSorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].distance, 1.f);
  EXPECT_EQ(sorted[1].distance, 2.f);
  EXPECT_EQ(sorted[2].distance, 3.f);
}

TEST(BoundedHeapTest, WorstDistanceTracksThreshold) {
  BoundedHeap heap(2);
  EXPECT_GT(heap.WorstDistance(), 1e30f);  // not yet full
  heap.Push(1.f, 1);
  heap.Push(2.f, 2);
  EXPECT_EQ(heap.WorstDistance(), 2.f);
  EXPECT_TRUE(heap.Push(1.5f, 3));
  EXPECT_EQ(heap.WorstDistance(), 1.5f);
  EXPECT_FALSE(heap.Push(3.f, 4));
}

TEST(BoundedHeapTest, ZeroCapacityRejectsAll) {
  BoundedHeap heap(0);
  EXPECT_FALSE(heap.Push(1.f, 1));
  EXPECT_EQ(heap.Size(), 0u);
}

TEST(BoundedHeapTest, ZeroCapacityWorstDistanceIsSafe) {
  // Regression: WorstDistance() on a zero-capacity heap used to read
  // entries_.front() of an empty vector (size < capacity was false for
  // 0 < 0). It must report "nothing can qualify" instead.
  BoundedHeap heap(0);
  EXPECT_LT(heap.WorstDistance(), 0.0f);
  EXPECT_FALSE(1.0f < heap.WorstDistance());  // the bruteforce guard
  heap.Push(1.0f, 7);
  EXPECT_EQ(heap.Size(), 0u);
  EXPECT_TRUE(heap.ExtractSorted().empty());
}

TEST(BoundedHeapTest, TiesBrokenById) {
  BoundedHeap heap(4);
  heap.Push(1.f, 9);
  heap.Push(1.f, 3);
  heap.Push(1.f, 7);
  auto sorted = heap.ExtractSorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 3u);
  EXPECT_EQ(sorted[1].id, 7u);
  EXPECT_EQ(sorted[2].id, 9u);
}

TEST(BoundedHeapTest, MatchesFullSortReference) {
  Pcg32 rng(33);
  for (int trial = 0; trial < 20; trial++) {
    const size_t cap = 1 + rng.NextBounded(16);
    BoundedHeap heap(cap);
    std::vector<std::pair<float, uint32_t>> all;
    for (int i = 0; i < 200; i++) {
      const float d = rng.NextFloat();
      heap.Push(d, static_cast<uint32_t>(i));
      all.emplace_back(d, static_cast<uint32_t>(i));
    }
    std::sort(all.begin(), all.end());
    auto sorted = heap.ExtractSorted();
    ASSERT_EQ(sorted.size(), std::min(cap, all.size()));
    for (size_t i = 0; i < sorted.size(); i++) {
      EXPECT_EQ(sorted[i].distance, all[i].first) << trial << " " << i;
    }
  }
}

}  // namespace
}  // namespace cagra
