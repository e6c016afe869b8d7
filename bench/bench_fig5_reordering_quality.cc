// Reproduces Fig. 5: QPS-recall curves of the CAGRA search over graphs
// optimized with rank-based vs distance-based reordering vs the raw kNN
// graph. Recall is real; QPS is the modeled A100 throughput at the
// paper's 10k batch (README "Measured vs modeled time").
#include <cstdio>

#include "bench/common.h"
#include "core/optimize.h"
#include "knn/nn_descent.h"

namespace {

using namespace cagra;

constexpr size_t kPaperBatch = 10000;

void Curve(const char* label, const CagraIndex& index,
           const bench::Workbench& wb) {
  std::printf("  %-24s", label);
  for (size_t itopk : {16, 32, 64, 128, 256}) {
    SearchParams sp;
    sp.k = 10;
    sp.itopk = itopk;
    sp.algo = SearchAlgo::kSingleCta;
    auto r = Search(index, wb.data.queries, sp);
    if (!r.ok()) continue;
    const double recall = ComputeRecall(r->neighbors, bench::GtAtK(wb, 10));
    const double qps = bench::ModeledQpsAtBatch(*r, kPaperBatch);
    std::printf("  %.3f/%.2e", recall, qps);
  }
  std::printf("   (recall@10 / QPS at itopk=16..256)\n");
}

void RunDataset(const char* name) {
  const auto wb = bench::MakeWorkbench(name, 200, 10);
  const size_t d = wb.profile->cagra_degree;
  bench::PrintSeriesHeader("Fig. 5", name,
                           ("d=" + std::to_string(d)).c_str());

  NnDescentParams nnd;
  nnd.k = 2 * d;
  if (nnd.k >= wb.data.base.rows()) nnd.k = wb.data.base.rows() - 1;
  const FixedDegreeGraph knn =
      BuildKnnGraphNnDescent(wb.data.base, nnd, wb.profile->metric);

  // Raw kNN graph truncated to degree d.
  FixedDegreeGraph trunc(knn.num_nodes(), d);
  for (size_t v = 0; v < knn.num_nodes(); v++) {
    for (size_t j = 0; j < d && j < knn.degree(); j++) {
      trunc.MutableNeighbors(v)[j] = knn.Neighbors(v)[j];
    }
  }
  auto knn_index =
      CagraIndex::FromGraph(wb.data.base, std::move(trunc),
                            wb.profile->metric);
  Curve("kNN", *knn_index, wb);

  for (const ReorderMode mode :
       {ReorderMode::kDistanceBased, ReorderMode::kRankBased}) {
    BuildParams params;
    params.graph_degree = d;
    params.reorder = mode;
    params.metric = wb.profile->metric;
    auto graph = OptimizeGraph(knn, params, wb.data.base);
    auto index = CagraIndex::FromGraph(wb.data.base, std::move(graph),
                                       wb.profile->metric);
    Curve(mode == ReorderMode::kRankBased ? "CAGRA"
                                          : "CAGRA (distance-based)",
          *index, wb);
  }
}

}  // namespace

int main() {
  for (const char* name : {"SIFT-1M", "GIST-1M", "GloVe-200", "NYTimes"}) {
    RunDataset(name);
  }
  std::printf(
      "\nExpected shape (paper): rank- and distance-based curves overlap;\n"
      "both dominate the raw kNN graph.\n");
  return 0;
}
