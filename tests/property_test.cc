#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/search.h"
#include "core/sharded.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "graph/analysis.h"
#include "knn/bruteforce.h"
#include "util/rng.h"

namespace cagra {
namespace {

/// Property sweep over (metric, degree, dim-profile): the CAGRA pipeline
/// must uphold its structural and behavioural invariants for every
/// combination, not just the defaults.
struct SweepCase {
  const char* profile;
  Metric metric;
  size_t degree;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.profile << "/" << MetricName(c.metric) << "/d" << c.degree;
}

class CagraPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CagraPropertyTest, PipelineInvariants) {
  const SweepCase c = GetParam();
  const DatasetProfile* p = FindProfile(c.profile);
  ASSERT_NE(p, nullptr);
  DatasetProfile small = *p;
  auto data = GenerateDataset(small, 800, 16,
                              static_cast<uint64_t>(c.degree) * 31 + 1);

  BuildParams bp;
  bp.graph_degree = c.degree;
  bp.metric = c.metric;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  // --- Graph invariants: fixed degree, in-range ids, no self loops, no
  // duplicate edges within a row.
  const auto& g = index->graph();
  EXPECT_EQ(g.degree(), c.degree);
  for (size_t v = 0; v < g.num_nodes(); v++) {
    std::set<uint32_t> seen;
    for (size_t j = 0; j < g.degree(); j++) {
      const uint32_t u = g.Neighbors(v)[j];
      if (u == FixedDegreeGraph::kInvalid) continue;
      EXPECT_LT(u, g.num_nodes());
      EXPECT_NE(u, static_cast<uint32_t>(v));
      EXPECT_TRUE(seen.insert(u).second);
    }
    EXPECT_GE(seen.size(), std::min<size_t>(c.degree, 4)) << v;
  }

  // --- Search invariants for both execution modes.
  const auto gt = ComputeGroundTruth(data.base, data.queries, 10, c.metric);
  for (SearchAlgo algo : {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
    SearchParams sp;
    sp.k = 10;
    sp.itopk = 64;
    sp.algo = algo;
    auto r = Search(*index, data.queries, sp);
    ASSERT_TRUE(r.ok());
    // Sorted ascending, unique, valid ids.
    for (size_t q = 0; q < data.queries.rows(); q++) {
      std::set<uint32_t> ids;
      for (size_t i = 0; i < 10; i++) {
        const uint32_t id = r->neighbors.ids[q * 10 + i];
        EXPECT_LT(id, index->size());
        EXPECT_TRUE(ids.insert(id).second);
        if (i > 0) {
          EXPECT_LE(r->neighbors.distances[q * 10 + i - 1],
                    r->neighbors.distances[q * 10 + i]);
        }
        // Reported distance must equal the true metric distance.
        const float true_dist =
            ComputeDistance(c.metric, data.queries.Row(q),
                            data.base.Row(id), data.base.dim());
        EXPECT_NEAR(r->neighbors.distances[q * 10 + i], true_dist,
                    1e-3f * std::max(1.0f, std::abs(true_dist)));
      }
    }
    // Usable recall everywhere in the sweep.
    EXPECT_GT(ComputeRecall(r->neighbors, gt), 0.7)
        << MetricName(c.metric) << " d=" << c.degree << " algo "
        << static_cast<int>(algo);
  }
}

TEST_P(CagraPropertyTest, ReorderedGraphKeepsReachability) {
  const SweepCase c = GetParam();
  const DatasetProfile* p = FindProfile(c.profile);
  auto data = GenerateDataset(*p, 600, 1, 7);
  BuildParams bp;
  bp.graph_degree = c.degree;
  bp.metric = c.metric;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  // Average 2-hop count must be a significant fraction of its maximum:
  // d + d^2 capped by the n - 1 other nodes (the optimization's whole
  // point, §III-A).
  const double max2hop = std::min<double>(
      static_cast<double>(c.degree + c.degree * c.degree),
      static_cast<double>(data.base.rows() - 1));
  EXPECT_GT(Average2HopCount(index->graph(), 200), 0.35 * max2hop);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CagraPropertyTest,
    ::testing::Values(SweepCase{"DEEP-1M", Metric::kL2, 8},
                      SweepCase{"DEEP-1M", Metric::kL2, 16},
                      SweepCase{"DEEP-1M", Metric::kL2, 32},
                      SweepCase{"SIFT-1M", Metric::kL2, 16},
                      SweepCase{"SIFT-1M", Metric::kInnerProduct, 16},
                      SweepCase{"GloVe-200", Metric::kCosine, 16},
                      SweepCase{"NYTimes", Metric::kCosine, 16}));

/// Forward-fraction sweep (the bench_ablation_merge ablation; the paper
/// fixes d/2 + d/2, §III-B2): any split must keep the graph searchable.
class MergeFractionTest : public ::testing::TestWithParam<double> {};

TEST_P(MergeFractionTest, GraphRemainsSearchable) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 800, 16, 99);
  BuildParams bp;
  bp.graph_degree = 16;
  bp.forward_fraction = GetParam();
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  const auto gt = ComputeGroundTruth(data.base, data.queries, 10, p->metric);
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  auto r = Search(*index, data.queries, sp);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(ComputeRecall(r->neighbors, gt), 0.7)
      << "forward_fraction=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Fractions, MergeFractionTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

/// Hash reset-interval sweep (§IV-B3: interval 1..4 are the practical
/// settings) — recall must stay usable for all of them.
class ResetIntervalTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ResetIntervalTest, RecallSurvivesPeriodicResets) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 800, 16, 17);
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  const auto gt = ComputeGroundTruth(data.base, data.queries, 10, p->metric);
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.algo = SearchAlgo::kSingleCta;
  sp.hash_mode = HashMode::kForgettable;
  sp.hash_bits = 8;  // deliberately tiny: force collisions + resets
  sp.hash_reset_interval = GetParam();
  auto r = Search(*index, data.queries, sp);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(ComputeRecall(r->neighbors, gt), 0.7)
      << "reset_interval=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Intervals, ResetIntervalTest,
                         ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------------ shard merge
//
// Property tests for the k-way shard merge: MergeShardTopK over
// randomized sorted candidate lists — padding sentinels, duplicate
// distances, k exceeding the candidate pool — must equal the brute
// reference "concatenate every valid candidate, std::sort by
// (distance, id), take the first k".

struct RandomLists {
  std::vector<std::vector<float>> distances;
  std::vector<std::vector<uint32_t>> ids;
  std::vector<std::pair<float, uint32_t>> valid;  ///< reference pool
};

/// Builds `num_lists` sorted lists of length `len`; each holds a random
/// number of valid candidates (distances drawn from a small grid so
/// duplicates are common) and a 0xffffffff/inf padding tail — the exact
/// shape per-shard search results have.
RandomLists MakeLists(Pcg32* rng, size_t num_lists, size_t len) {
  RandomLists out;
  uint32_t next_id = 0;
  for (size_t l = 0; l < num_lists; l++) {
    const size_t count = rng->NextBounded(static_cast<uint32_t>(len + 1));
    std::vector<std::pair<float, uint32_t>> entries;
    for (size_t i = 0; i < count; i++) {
      const float d = static_cast<float>(rng->NextBounded(8)) / 4.0f;
      // Unique ids across lists, like global ids from disjoint shards.
      entries.emplace_back(d, next_id++);
    }
    std::sort(entries.begin(), entries.end());
    std::vector<float> dist(len, std::numeric_limits<float>::infinity());
    std::vector<uint32_t> id(len, kInvalidShardEntry);
    for (size_t i = 0; i < count; i++) {
      dist[i] = entries[i].first;
      id[i] = entries[i].second;
      out.valid.push_back(entries[i]);
    }
    out.distances.push_back(std::move(dist));
    out.ids.push_back(std::move(id));
  }
  return out;
}

TEST(ShardMergePropertyTest, MatchesSortReference) {
  Pcg32 rng(0x51ead);
  for (int trial = 0; trial < 300; trial++) {
    const size_t num_lists = 1 + rng.NextBounded(6);
    const size_t k = 1 + rng.NextBounded(20);
    // len == k mirrors real shard results; the occasional longer list
    // checks the merge is not k-shaped by accident.
    const size_t len = rng.NextBounded(4) == 0 ? k + rng.NextBounded(8) : k;
    RandomLists lists = MakeLists(&rng, num_lists, len);

    std::vector<ShardMergeList> views(num_lists);
    for (size_t l = 0; l < num_lists; l++) {
      views[l] = {lists.distances[l].data(), lists.ids[l].data(), len,
                  nullptr, 0};
    }
    std::vector<uint32_t> got_ids(k);
    std::vector<float> got_dist(k);
    MergeShardTopK(views.data(), num_lists, k, got_ids.data(),
                   got_dist.data());

    auto ref = lists.valid;
    std::sort(ref.begin(), ref.end());
    for (size_t i = 0; i < k; i++) {
      if (i < ref.size()) {
        ASSERT_EQ(got_dist[i], ref[i].first)
            << "trial " << trial << " slot " << i;
        ASSERT_EQ(got_ids[i], ref[i].second)
            << "trial " << trial << " slot " << i;
      } else {
        // k > total candidates: canonical padding tail.
        ASSERT_EQ(got_ids[i], kInvalidShardEntry) << "trial " << trial;
        ASSERT_TRUE(std::isinf(got_dist[i])) << "trial " << trial;
      }
    }
  }
}

TEST(ShardMergePropertyTest, IdMapTranslatesAndFiltersPadding) {
  // The id_map form used by the sharded search: lists carry shard-local
  // rows, padding is any id past the map, and the merge output must be
  // in translated global ids.
  Pcg32 rng(0xfeed);
  for (int trial = 0; trial < 100; trial++) {
    const size_t num_lists = 1 + rng.NextBounded(4);
    const size_t k = 1 + rng.NextBounded(12);
    std::vector<std::vector<float>> dists(num_lists);
    std::vector<std::vector<uint32_t>> locals(num_lists);
    std::vector<std::vector<uint32_t>> maps(num_lists);
    std::vector<std::pair<float, uint32_t>> ref;
    std::vector<ShardMergeList> views(num_lists);
    for (size_t l = 0; l < num_lists; l++) {
      const size_t map_size = 1 + rng.NextBounded(16);
      maps[l].resize(map_size);
      for (size_t r = 0; r < map_size; r++) {
        // Disjoint global id ranges per list.
        maps[l][r] = static_cast<uint32_t>(l * 1000 + r);
      }
      const size_t count = rng.NextBounded(static_cast<uint32_t>(
          std::min(k, map_size) + 1));
      std::vector<std::pair<float, uint32_t>> entries;
      std::set<uint32_t> used;
      while (entries.size() < count) {
        const uint32_t local = rng.NextBounded(static_cast<uint32_t>(map_size));
        if (!used.insert(local).second) continue;
        entries.emplace_back(static_cast<float>(rng.NextBounded(6)) / 2.0f,
                             local);
      }
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      dists[l].assign(k, std::numeric_limits<float>::infinity());
      locals[l].assign(k, kInvalidShardEntry);  // >= map_size: padding
      for (size_t i = 0; i < entries.size(); i++) {
        dists[l][i] = entries[i].first;
        locals[l][i] = entries[i].second;
        ref.emplace_back(entries[i].first, maps[l][entries[i].second]);
      }
      views[l] = {dists[l].data(), locals[l].data(), k, maps[l].data(),
                  maps[l].size()};
    }
    std::vector<uint32_t> got_ids(k);
    std::vector<float> got_dist(k);
    MergeShardTopK(views.data(), num_lists, k, got_ids.data(),
                   got_dist.data());
    std::sort(ref.begin(), ref.end());
    for (size_t i = 0; i < k; i++) {
      if (i < ref.size()) {
        ASSERT_EQ(got_dist[i], ref[i].first) << "trial " << trial;
        ASSERT_EQ(got_ids[i], ref[i].second) << "trial " << trial;
      } else {
        ASSERT_EQ(got_ids[i], kInvalidShardEntry);
      }
    }
  }
}

}  // namespace
}  // namespace cagra
