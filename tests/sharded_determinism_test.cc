// Scheduling-determinism suite for sharded search: the parallel
// fan-out over shards must be EXPECT_EQ-identical (ids *and* distances)
// to a serial reference built from the public API — each shard searched
// alone, then merged with MergeShardTopK — for every thread count,
// storage precision, and across repeated runs. This suite is part of
// the TSan CI job, where the repeated concurrent runs double as a race
// detector workload.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"
#include "sharded_reference.h"

namespace cagra {
namespace {

class ShardedDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 900, 20, 4242));
    BuildParams bp;
    bp.graph_degree = 8;
    auto built = ShardedCagraIndex::Build(data_->base, bp, 3);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new ShardedCagraIndex(std::move(built.value()));
    // A second sharded index carrying the OPQ-rotated PQ copy (one PQ
    // copy per index; copied before EnablePq so only the codebooks
    // differ), so the determinism matrix covers the rotated ADC path.
    opq_index_ = new ShardedCagraIndex(*index_);
    PqTrainParams opq_params;
    opq_params.rotate = true;
    opq_index_->EnablePq(opq_params);
    // 300-row shards: enough for the per-subspace PQ codebooks.
    index_->EnableInt8Quantization();
    index_->EnablePq();
  }
  static void TearDownTestSuite() {
    delete data_;
    delete index_;
    delete opq_index_;
    data_ = nullptr;
    index_ = nullptr;
    opq_index_ = nullptr;
  }

  static SearchParams BaseParams() {
    SearchParams sp;
    sp.k = 5;
    sp.itopk = 32;
    return sp;
  }

  static SyntheticData* data_;
  static ShardedCagraIndex* index_;
  static ShardedCagraIndex* opq_index_;
};

SyntheticData* ShardedDeterminismTest::data_ = nullptr;
ShardedCagraIndex* ShardedDeterminismTest::index_ = nullptr;
ShardedCagraIndex* ShardedDeterminismTest::opq_index_ = nullptr;

/// One storage mode of the determinism matrix.
struct Mode {
  const char* name;
  Precision precision;
  bool rotated;  ///< search the OPQ index instead of the plain one
};

class ShardedMatrixTest : public ShardedDeterminismTest,
                          public ::testing::WithParamInterface<Mode> {};

TEST_P(ShardedMatrixTest, IdenticalToSerialReference) {
  const Mode mode = GetParam();
  const ShardedCagraIndex& index = mode.rotated ? *opq_index_ : *index_;
  SearchParams sp = BaseParams();
  sp.precision = mode.precision;
  auto ref = ShardedReference(index, data_->queries, sp);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  for (size_t num_threads : {size_t{0}, size_t{1}, size_t{3}}) {
    // Repeated runs shake out races and arrival-order dependence on
    // the shared pool (num_threads == 0) and pin the inline schedules.
    for (int rep = 0; rep < 20; rep++) {
      sp.num_threads = num_threads;
      auto got = index.Search(data_->queries, sp);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->neighbors.ids, ref->ids)
          << "threads=" << num_threads << " rep=" << rep;
      EXPECT_EQ(got->neighbors.distances, ref->distances)
          << "threads=" << num_threads << " rep=" << rep;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Precisions, ShardedMatrixTest,
    ::testing::Values(Mode{"fp32", Precision::kFp32, false},
                      Mode{"int8", Precision::kInt8, false},
                      Mode{"pq", Precision::kPq, false},
                      Mode{"opq", Precision::kPq, true}),
    [](const ::testing::TestParamInfo<Mode>& info) {
      return info.param.name;
    });

// Interleaved Add/Remove/Search schedules must be scheduling-invariant
// too: the same fixed mutation schedule replayed against fresh copies
// of one pristine index yields EXPECT_EQ-identical results at every
// search, whatever thread count the searches use. Inserts are seeded
// per external id and removals/compaction are deterministic, so the
// only thing that varies across thread counts is scheduling — which
// must never show through.
TEST_F(ShardedDeterminismTest,
       InterleavedMutationScheduleIsThreadCountInvariant) {
  SyntheticData churn =
      GenerateDataset(*FindProfile("DEEP-1M"), 340, 10, 911);
  const Matrix<float> base = SliceQueries(churn.base, 0, 300);
  BuildParams bp;
  bp.graph_degree = 8;
  auto built = ShardedCagraIndex::Build(base, bp, 3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ShardedCagraIndex pristine = std::move(built.value());

  // Serial reference first; the pool-scheduled thread count (0)
  // appears three times to shake out arrival-order dependence.
  const std::vector<size_t> thread_counts = {1, 3, 0, 0, 0};
  std::vector<uint32_t> ref_ids;
  std::vector<float> ref_dists;

  for (size_t cfg_i = 0; cfg_i < thread_counts.size(); cfg_i++) {
    const size_t threads = thread_counts[cfg_i];
    ShardedCagraIndex index = pristine;  // shares snapshots, mutates apart
    CompactionOptions opt;
    opt.trigger_fraction = 2.0;  // schedule stays the only mutator
    index.SetCompactionOptions(opt);

    std::vector<uint32_t> got_ids;
    std::vector<float> got_dists;
    auto run_search = [&] {
      SearchParams sp = BaseParams();
      sp.num_threads = threads;
      auto r = index.Search(churn.queries, sp);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (cfg_i == 0) {
        // The serial run itself matches the reference at every step,
        // compacted id maps included.
        auto ref = ShardedReference(index, churn.queries, sp);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        EXPECT_EQ(r->neighbors.ids, ref->ids);
        EXPECT_EQ(r->neighbors.distances, ref->distances);
      }
      got_ids.insert(got_ids.end(), r->neighbors.ids.begin(),
                     r->neighbors.ids.end());
      got_dists.insert(got_dists.end(), r->neighbors.distances.begin(),
                       r->neighbors.distances.end());
    };

    std::vector<uint32_t> live(300);
    for (uint32_t i = 0; i < 300; i++) live[i] = i;
    size_t next_pool = 300;
    for (int step = 0; step < 5; step++) {
      ASSERT_TRUE(index.Add(SliceQueries(churn.base, next_pool, 8)).ok());
      for (uint32_t j = 0; j < 8; j++) {
        live.push_back(static_cast<uint32_t>(next_pool + j));
      }
      next_pool += 8;
      ASSERT_NO_FATAL_FAILURE(run_search());
      std::vector<uint32_t> dead;
      for (int j = 0; j < 5; j++) {
        const size_t pick = (step * 37 + j * 11) % live.size();
        dead.push_back(live[pick]);
        live.erase(live.begin() + pick);
      }
      ASSERT_TRUE(index.Remove(dead).ok());
      ASSERT_NO_FATAL_FAILURE(run_search());
    }
    ASSERT_TRUE(index.Compact().ok());
    ASSERT_NO_FATAL_FAILURE(run_search());

    if (cfg_i == 0) {
      ref_ids = std::move(got_ids);
      ref_dists = std::move(got_dists);
    } else {
      EXPECT_EQ(got_ids, ref_ids) << "threads=" << threads;
      EXPECT_EQ(got_dists, ref_dists) << "threads=" << threads;
    }
  }
}

TEST_F(ShardedDeterminismTest, FastScanBruteforceDeterministicAcrossRuns) {
  // The fast-scan bruteforce parallelizes over queries on the shared
  // pool; repeated runs (different schedules) must be EXPECT_EQ —
  // candidate ranking is exact integer ranking and the rerank is a
  // fixed (distance, id)-ordered fold, so scheduling cannot leak in.
  const PqDataset pq = TrainPq(data_->base);
  PqScanOptions opts;
  opts.approximate_scan = true;
  const auto first = ExactSearch(pq, data_->queries, 5, Metric::kL2, opts);
  for (int rep = 0; rep < 10; rep++) {
    const auto again = ExactSearch(pq, data_->queries, 5, Metric::kL2, opts);
    ASSERT_EQ(again.ids, first.ids) << "rep " << rep;
    ASSERT_EQ(again.distances, first.distances) << "rep " << rep;
  }
  // And the exact path stays deterministic with the new per-row-norm
  // cosine fold.
  const auto cos_first = ExactSearch(pq, data_->queries, 5, Metric::kCosine);
  for (int rep = 0; rep < 5; rep++) {
    const auto again = ExactSearch(pq, data_->queries, 5, Metric::kCosine);
    ASSERT_EQ(again.ids, cos_first.ids) << "rep " << rep;
    ASSERT_EQ(again.distances, cos_first.distances) << "rep " << rep;
  }
}

TEST_F(ShardedDeterminismTest, EmptyBatchReturnsEmptyResult) {
  // Regression: an empty batch used to reach the multi-CTA width
  // resolution with batch == 0 and divide by zero. The search must
  // return an ok, empty result instead.
  Matrix<float> empty(0, data_->queries.dim());
  auto r = index_->Search(empty, BaseParams());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->neighbors.ids.empty());
}

}  // namespace
}  // namespace cagra
