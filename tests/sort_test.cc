// The search buffer's host sort and merge (internal_search::SortByKey /
// SortAndMerge) and the closed forms that charge the §IV-B2 GPU sort
// kernels to the cost model.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/search_internal.h"
#include "gpusim/cost_model.h"
#include "util/rng.h"

namespace cagra {
namespace {

using internal_search::kParentFlag;
using internal_search::SortAndMerge;
using internal_search::SortByKey;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr KeyValue kPad{kInf, 0xffffffffu};

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Compare-exchanges of the iterative bitonic sorting network over a
/// power-of-two range of p entries, counted over its index pattern
/// without sorting anything.
size_t CountBitonicSortNetwork(size_t p) {
  size_t exchanges = 0;
  for (size_t k = 2; k <= p; k <<= 1) {
    for (size_t j = k >> 1; j > 0; j >>= 1) {
      for (size_t i = 0; i < p; i++) {
        if ((i ^ j) > i) exchanges++;
      }
    }
  }
  return exchanges;
}

/// Compare-exchanges of the bitonic merging network over p entries (the
/// last k == p pass of the sorting network).
size_t CountBitonicMergeNetwork(size_t p) {
  size_t exchanges = 0;
  for (size_t j = p >> 1; j > 0; j >>= 1) {
    for (size_t i = 0; i < p; i++) {
      if ((i ^ j) > i) exchanges++;
    }
  }
  return exchanges;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, 4) == 0; }

// ------------------------------------------------------------ Charges

TEST(SortChargeTest, BitonicSortMatchesNetworkCount) {
  EXPECT_EQ(BitonicSortExchanges(0), 0u);
  EXPECT_EQ(BitonicSortExchanges(1), 0u);
  std::vector<size_t> network(2049, 0);  // by padded length
  for (size_t p = 2; p <= 2048; p <<= 1) {
    network[p] = CountBitonicSortNetwork(p);
  }
  for (size_t n = 2; n <= 2048; n++) {
    EXPECT_EQ(BitonicSortExchanges(n), network[NextPow2(n)]) << n;
  }
  EXPECT_EQ(BitonicSortExchanges(512), 256u * 45u);  // 9 * 10 / 2 stages
}

TEST(SortChargeTest, BitonicMergeMatchesNetworkCount) {
  for (size_t m : {1u, 2u, 10u, 32u, 64u, 100u, 256u, 512u}) {
    for (size_t c : {0u, 1u, 7u, 32u, 64u, 512u, 513u, 544u, 2048u}) {
      EXPECT_EQ(BitonicMergeExchanges(m, c),
                CountBitonicMergeNetwork(NextPow2(m + c)))
          << m << " " << c;
    }
  }
}

TEST(SortChargeTest, RadixIsFourDigitPassesPerEntry) {
  // 32-bit keys in 8-bit digits: 4 passes, one scatter per entry each.
  for (size_t c : {513u, 544u, 777u, 1024u, 2048u}) {
    EXPECT_EQ(RadixSortScatters(c), 4 * c) << c;
  }
}

// ------------------------------------------------------ Sort and merge

/// Keys from a small set so ties are common, with negatives, -0 and +0,
/// and some +inf / 0xffffffff padding entries.
KeyValue RandomEntry(Pcg32* rng) {
  switch (rng->NextBounded(8)) {
    case 0: return kPad;
    case 1: return {-0.0f, rng->NextBounded(64)};
    case 2: return {0.0f, rng->NextBounded(64)};
    default:
      return {0.5f * (static_cast<float>(rng->NextBounded(21)) - 10.0f),
              rng->NextBounded(64)};
  }
}

bool ReferenceLess(KeyValue a, KeyValue b) {
  return a.key != b.key ? a.key < b.key : a.value < b.value;
}

TEST(SortAndMergeTest, MatchesSortThenTakeM) {
  Pcg32 rng(2024);
  for (size_t m : {1u, 32u, 64u, 256u}) {
    for (size_t c : {0u, 1u, 512u, 513u, 2048u}) {
      for (int trial = 0; trial < 3; trial++) {
        std::vector<KeyValue> topm(m);
        for (KeyValue& e : topm) e = RandomEntry(&rng);
        std::sort(topm.begin(), topm.end(), ReferenceLess);
        // Expanded entries carry the parent flag; it rides along.
        for (size_t i = 0; i < m; i += 3) {
          if (topm[i].value != kPad.value) topm[i].value |= kParentFlag;
        }
        std::vector<KeyValue> candidates(c);
        for (KeyValue& e : candidates) e = RandomEntry(&rng);

        // Reference: the candidates sorted by (key, value), appended to
        // the top-M, stably sorted by key (top-M wins ties), first m.
        std::vector<KeyValue> reference = candidates;
        std::sort(reference.begin(), reference.end(), ReferenceLess);
        reference.insert(reference.begin(), topm.begin(), topm.end());
        std::stable_sort(reference.begin(), reference.end(),
                         [](KeyValue a, KeyValue b) { return a.key < b.key; });
        reference.resize(m);

        std::vector<KeyValue> merge_buf;
        KernelCounters counters;
        SortAndMerge(&topm, &candidates, &merge_buf, &counters);
        ASSERT_EQ(topm.size(), m);
        for (size_t i = 0; i < m; i++) {
          EXPECT_TRUE(SameBits(topm[i].key, reference[i].key))
              << m << " " << c << " " << i;
          EXPECT_EQ(topm[i].value, reference[i].value)
              << m << " " << c << " " << i;
        }

        // §IV-B2: bitonic up to 512 candidates, radix above; one merge.
        const size_t merge = BitonicMergeExchanges(m, c);
        if (c <= 512) {
          EXPECT_EQ(counters.sort_exchanges, BitonicSortExchanges(c) + merge);
          EXPECT_EQ(counters.radix_scatters, 0u);
        } else {
          EXPECT_EQ(counters.sort_exchanges, merge);
          EXPECT_EQ(counters.radix_scatters, 4 * c);
        }
      }
    }
  }
}

TEST(SortAndMergeTest, SortByKeyOrdersTiesByValueAndFoldsSignedZero) {
  std::vector<KeyValue> entries = {
      {1.0f, 9}, {0.0f, 7}, {-0.0f, 8}, {1.0f, 2}, kPad, {-3.0f, 5},
      {kInf, 4}, {0.0f, 1}};
  SortByKey(&entries);
  const std::vector<uint32_t> values = {5, 1, 7, 8, 2, 9, 4, 0xffffffffu};
  ASSERT_EQ(entries.size(), values.size());
  for (size_t i = 0; i < values.size(); i++) {
    EXPECT_EQ(entries[i].value, values[i]) << i;
  }
}

TEST(SortAndMergeTest, NanKeysStayWellDefined) {
  // A NaN query makes every distance NaN; the sort must still be a
  // valid total order (NaN after +inf), never undefined behaviour.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Pcg32 rng(7);
  std::vector<KeyValue> candidates(2048);
  for (size_t i = 0; i < candidates.size(); i++) {
    candidates[i] = {rng.NextBounded(2) == 0 ? nan : rng.NextFloat(),
                     static_cast<uint32_t>(i)};
  }
  std::vector<KeyValue> topm(64, kPad);
  std::vector<KeyValue> merge_buf;
  KernelCounters counters;
  SortAndMerge(&topm, &candidates, &merge_buf, &counters);
  size_t nans = 0;
  for (size_t i = 0; i < candidates.size(); i++) {
    if (std::isnan(candidates[i].key)) {
      nans++;
    } else {
      EXPECT_EQ(nans, 0u) << "finite key after a NaN at " << i;
      if (i > 0) EXPECT_LE(candidates[i - 1].key, candidates[i].key);
    }
  }
  EXPECT_GT(nans, 0u);
  ASSERT_EQ(topm.size(), 64u);
  for (size_t i = 1; i < topm.size(); i++) {
    EXPECT_LE(topm[i - 1].key, topm[i].key);
  }
}

}  // namespace
}  // namespace cagra
