#include <set>

#include <gtest/gtest.h>

#include "core/search.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "gpusim/cost_model.h"
#include "knn/bruteforce.h"

namespace cagra {
namespace {

/// Shared fixture: one small clustered dataset + built index, reused by
/// all tests in this file (building is the slow part).
class CagraSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 3000, 64, 123));
    BuildParams params;
    params.graph_degree = 16;
    params.metric = p->metric;
    auto built = CagraIndex::Build(data_->base, params);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new CagraIndex(std::move(built.value()));
    index_->EnableHalfPrecision();
    gt_ = new Matrix<uint32_t>(
        ComputeGroundTruth(data_->base, data_->queries, 10, p->metric));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete index_;
    delete gt_;
    data_ = nullptr;
    index_ = nullptr;
    gt_ = nullptr;
  }

  static SyntheticData* data_;
  static CagraIndex* index_;
  static Matrix<uint32_t>* gt_;
};

SyntheticData* CagraSearchTest::data_ = nullptr;
CagraIndex* CagraSearchTest::index_ = nullptr;
Matrix<uint32_t>* CagraSearchTest::gt_ = nullptr;

TEST_F(CagraSearchTest, SingleCtaHighRecall) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(ComputeRecall(r->neighbors, *gt_), 0.9);
}

TEST_F(CagraSearchTest, MultiCtaHighRecall) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kMultiCta;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(ComputeRecall(r->neighbors, *gt_), 0.9);
}

TEST_F(CagraSearchTest, ResultsSortedAscending) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  for (SearchAlgo algo : {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
    params.algo = algo;
    auto r = Search(*index_, data_->queries, params);
    ASSERT_TRUE(r.ok());
    for (size_t q = 0; q < data_->queries.rows(); q++) {
      for (size_t i = 1; i < 10; i++) {
        EXPECT_LE(r->neighbors.distances[q * 10 + i - 1],
                  r->neighbors.distances[q * 10 + i]);
      }
    }
  }
}

TEST_F(CagraSearchTest, NoDuplicateOrInvalidIds) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  for (SearchAlgo algo : {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
    params.algo = algo;
    auto r = Search(*index_, data_->queries, params);
    ASSERT_TRUE(r.ok());
    for (size_t q = 0; q < data_->queries.rows(); q++) {
      std::set<uint32_t> seen;
      for (size_t i = 0; i < 10; i++) {
        const uint32_t id = r->neighbors.ids[q * 10 + i];
        // MSB must be stripped and the id in range.
        EXPECT_LT(id, index_->size()) << q << " " << i;
        EXPECT_TRUE(seen.insert(id).second) << "dup in query " << q;
      }
    }
  }
}

TEST_F(CagraSearchTest, DeterministicForSameSeed) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.seed = 99;
  auto a = Search(*index_, data_->queries, params);
  auto b = Search(*index_, data_->queries, params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->neighbors.ids, b->neighbors.ids);
}

TEST_F(CagraSearchTest, RecallGrowsWithItopk) {
  SearchParams params;
  params.k = 10;
  params.algo = SearchAlgo::kSingleCta;
  params.itopk = 16;
  auto low = Search(*index_, data_->queries, params);
  params.itopk = 128;
  auto high = Search(*index_, data_->queries, params);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_GE(ComputeRecall(high->neighbors, *gt_) + 1e-9,
            ComputeRecall(low->neighbors, *gt_));
}

TEST_F(CagraSearchTest, Fp16RecallMatchesFp32) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  auto fp32 = Search(*index_, data_->queries, params);
  params.precision = Precision::kFp16;
  auto fp16 = Search(*index_, data_->queries, params);
  ASSERT_TRUE(fp32.ok());
  ASSERT_TRUE(fp16.ok());
  const double r32 = ComputeRecall(fp32->neighbors, *gt_);
  const double r16 = ComputeRecall(fp16->neighbors, *gt_);
  EXPECT_NEAR(r16, r32, 0.05) << "fp16 must not degrade recall (§V-C)";
  // And the modeled memory traffic must be halved.
  EXPECT_LT(fp16->counters.device_vector_bytes,
            fp32->counters.device_vector_bytes);
}

TEST_F(CagraSearchTest, ForgettableHashKeepsRecall) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  params.hash_mode = HashMode::kStandard;
  auto standard = Search(*index_, data_->queries, params);
  params.hash_mode = HashMode::kForgettable;
  params.hash_bits = 9;  // force a small table with resets
  params.hash_reset_interval = 1;
  auto forgettable = Search(*index_, data_->queries, params);
  ASSERT_TRUE(standard.ok());
  ASSERT_TRUE(forgettable.ok());
  const double rs = ComputeRecall(standard->neighbors, *gt_);
  const double rf = ComputeRecall(forgettable->neighbors, *gt_);
  EXPECT_GT(rf, rs - 0.05)
      << "forgettable hash must not catastrophically degrade recall";
  EXPECT_GT(forgettable->counters.hash_resets, 0u);
  // Resets may force recomputation: distance count can only grow.
  EXPECT_GE(forgettable->counters.distance_computations,
            standard->counters.distance_computations);
}

TEST_F(CagraSearchTest, HashPlacementFollowsTableTwo) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  auto single = Search(*index_, data_->queries, params);
  ASSERT_TRUE(single.ok());
  EXPECT_GT(single->counters.hash_probes_shared, 0u);
  EXPECT_EQ(single->counters.hash_probes_device, 0u);

  params.algo = SearchAlgo::kMultiCta;
  auto multi = Search(*index_, data_->queries, params);
  ASSERT_TRUE(multi.ok());
  EXPECT_GT(multi->counters.hash_probes_device, 0u);
  EXPECT_EQ(multi->counters.hash_probes_shared, 0u);
}

TEST_F(CagraSearchTest, AutoModePicksMultiForSmallBatch) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  auto r = Search(*index_, data_->queries, params);  // 64 queries < 108 SMs
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->algo_used, SearchAlgo::kMultiCta);
}

TEST_F(CagraSearchTest, AutoModeRespectsItopkThreshold) {
  // Fig. 7: large itopk forces multi-CTA even at large batch.
  EXPECT_EQ(ChooseAlgo(10000, 1024), SearchAlgo::kMultiCta);
  EXPECT_EQ(ChooseAlgo(10000, 64), SearchAlgo::kSingleCta);
  EXPECT_EQ(ChooseAlgo(4, 64), SearchAlgo::kMultiCta);
}

TEST_F(CagraSearchTest, CountersAreConsistent) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  const auto& c = r->counters;
  EXPECT_EQ(c.queries, data_->queries.rows());
  // Every distance loads exactly one dataset row.
  EXPECT_EQ(c.device_vector_bytes,
            c.distance_computations * index_->dim() * sizeof(float));
  EXPECT_EQ(c.distance_elements, c.distance_computations * index_->dim());
  // Distances are capped by visits: at most one per hash insert.
  EXPECT_LE(c.distance_computations,
            c.hash_probes_shared + c.hash_probes_device);
  EXPECT_GT(c.iterations, 0u);
  EXPECT_LE(c.max_iterations, 1024u);

  // The §IV-B2 sort charges are closed forms of the buffer sizes: per
  // query one bitonic seed sort of the whole M + C buffer; per iteration
  // a candidate sort (bitonic up to 512 candidates, radix above) and one
  // bitonic merge into the top-M. Width 1 at degree 16 takes the bitonic
  // branch; width 17 at degree 32 (544 candidates) the radix one.
  auto expect_sort_charges = [](const KernelCounters& got, size_t m,
                                size_t cands) {
    const size_t seeds = got.queries * BitonicSortExchanges(m + cands);
    const size_t merges = got.iterations * BitonicMergeExchanges(m, cands);
    if (cands <= kMaxBitonicCandidates) {
      EXPECT_EQ(got.sort_exchanges,
                seeds + got.iterations * BitonicSortExchanges(cands) + merges);
      EXPECT_EQ(got.radix_scatters, 0u);
    } else {
      EXPECT_EQ(got.sort_exchanges, seeds + merges);
      EXPECT_EQ(got.radix_scatters,
                got.iterations * RadixSortScatters(cands));
    }
  };
  expect_sort_charges(c, 64, 16);

  BuildParams build;
  build.graph_degree = 32;
  build.metric = index_->metric();
  auto wide = CagraIndex::Build(data_->base, build);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  params.search_width = 17;
  auto r17 = Search(*wide, data_->queries, params);
  ASSERT_TRUE(r17.ok());
  ASSERT_GT(r17->counters.radix_scatters, 0u);
  expect_sort_charges(r17->counters, 64, 17 * 32);
}

TEST_F(CagraSearchTest, ModeledCostPopulated) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->modeled_seconds, 0.0);
  EXPECT_GT(r->modeled_qps, 0.0);
  EXPECT_GT(r->team_size_used, 0u);
  EXPECT_GT(r->launch.shared_mem_per_cta, 0u);
}

TEST_F(CagraSearchTest, SingleQueryMultiCtaBeatsSingleCtaQps) {
  // Fig. 10 top row: for batch = 1 at a wide internal list (the
  // high-recall regime the mode targets), the multi-CTA mapping wins —
  // its lockstep iterations cover 64x more nodes per step, so the
  // dependent-iteration chain is far shorter.
  Matrix<float> one(1, data_->queries.dim());
  std::copy(data_->queries.Row(0), data_->queries.Row(0) + one.dim(),
            one.MutableRow(0));
  SearchParams params;
  params.k = 10;
  params.itopk = 256;
  params.algo = SearchAlgo::kSingleCta;
  auto single = Search(*index_, one, params);
  params.algo = SearchAlgo::kMultiCta;
  auto multi = Search(*index_, one, params);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(multi.ok());
  EXPECT_GT(multi->modeled_qps, single->modeled_qps);
}

// ---------------------------------------------------------- validation

TEST_F(CagraSearchTest, RejectsDimMismatch) {
  Matrix<float> bad(2, index_->dim() + 1);
  SearchParams params;
  auto r = Search(*index_, bad, params);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CagraSearchTest, RejectsZeroK) {
  SearchParams params;
  params.k = 0;
  auto r = Search(*index_, data_->queries, params);
  EXPECT_FALSE(r.ok());
}

TEST_F(CagraSearchTest, RejectsFp16WithoutEnable) {
  BuildParams bp;
  bp.graph_degree = 8;
  auto plain = CagraIndex::Build(data_->base, bp);
  ASSERT_TRUE(plain.ok());
  SearchParams params;
  params.k = 5;
  params.precision = Precision::kFp16;
  auto r = Search(*plain, data_->queries, params);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CagraSearchTest, RejectsExplicitItopkBelowK) {
  // The header has always documented "Requires: params.k <= params.itopk",
  // but the old check compared k against max(itopk, k) and could never
  // fire — a degenerate request was silently reshaped instead of
  // rejected.
  SearchParams params;
  params.k = 32;
  params.itopk = 8;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CagraSearchTest, AutoItopkZeroWidensToK) {
  SearchParams params;
  params.k = 32;
  params.itopk = 0;  // auto: resolves to max(64, k)
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->neighbors.k, 32u);
}

TEST_F(CagraSearchTest, DefaultParamsAcceptLargeK) {
  // Untouched SearchParams must keep working for k beyond the old
  // default itopk of 64 (the auto default widens, never rejects).
  SearchParams params;
  params.k = 100;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->neighbors.k, 100u);
}

// ---------------------------------------------------------- team size

TEST(TeamSizeTest, AutoPickMatchesPaperRegimes) {
  DeviceSpec dev;
  // dim 96 fp32: small vectors want split warps (4 or 8).
  const size_t small_dim = PickTeamSize(dev, 96, 4, 256, 32);
  EXPECT_GE(small_dim, 4u);
  EXPECT_LE(small_dim, 8u);
  // dim 960 fp32: full warp.
  const size_t large_dim = PickTeamSize(dev, 960, 4, 256, 48);
  EXPECT_GE(large_dim, 16u);
}

}  // namespace
}  // namespace cagra
